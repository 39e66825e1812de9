"""Pytest fixtures shared across the suite."""

import functools

import pytest

from repro import DBTreeCluster


@pytest.fixture
def small_cluster():
    """A 4-processor semisync cluster with tiny nodes (splits early)."""
    return DBTreeCluster(num_processors=4, protocol="semisync", capacity=4, seed=11)


@pytest.fixture
def checked_views(monkeypatch):
    """Hold every pair view the repair layer keeps to the derivation.

    Wraps ``RepairService.shared_entries`` so each call asserts the
    incrementally kept view equals ``derive_entries`` -- the from-
    scratch pass over the store -- and its kept bucket sums equal the
    sums of the derived view.  A mutation site that forgets to report
    its node touched, or an update that misses a sum, then fails the
    test that drives it, instead of silently missing a repair.  Yields
    the list of ``(pid, peer)`` calls checked; the unchecked method is
    the wrapper's ``__wrapped__``.
    """
    from repro.repair.digest import bucket_sums
    from repro.repair.repair import RepairService

    kept = RepairService.shared_entries
    calls = []

    @functools.wraps(kept)
    def checked(self, proc, peer):
        view, sums = kept(self, proc, peer)
        # (through the class, so a test that counts one service's own
        # derivations by patching the instance does not count these)
        derived = RepairService.derive_entries(self, proc, peer)
        assert view == derived, (
            f"pair view ({proc.pid}, {peer}) drifted from the derivation: "
            f"{sorted(set(view.items()) ^ set(derived.items()))}"
        )
        expected = bucket_sums(derived)
        assert sums == expected, (
            f"bucket sums of pair view ({proc.pid}, {peer}) drifted from "
            f"the derivation: buckets "
            f"{[b for b, (k, d) in enumerate(zip(sums, expected)) if k != d]}"
        )
        calls.append((proc.pid, peer))
        return view, sums

    monkeypatch.setattr(RepairService, "shared_entries", checked)
    return calls
