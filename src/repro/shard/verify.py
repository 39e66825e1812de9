"""Shard-layer correctness checks.

The per-shard trees already have a full audit (``repro.verify``);
what sharding adds is a routing layer that can be wrong in its own
ways.  :func:`check_shard_coverage` audits exactly those, the first
two as instances of the shared checks in :mod:`repro.verify.checker`:

* **Partition soundness** -- the live shard ranges tile the key space
  ``[NEG_INF, POS_INF)`` with no gap and no overlap, and every
  retired shard carries a forward pointer to a known shard.
* **Placement** -- every key stored in a shard's tree falls inside
  that shard's directory range, and retired shards hold nothing (a
  migration that lost or leaked a key shows up here).
* **Routability** -- the router's own walk (``directory.resolve``),
  run from every client's cached view (however stale) and from the
  genesis view, takes every stored key and every shard boundary to
  the live shard ``directory.covering`` names, within the hop bound.
* **Version convergence** -- no client view claims a version ahead of
  the authoritative directory, no view references an unknown shard,
  and a view that replays one recovery refresh lands exactly on the
  authoritative version (stale views converge; they never wander).

The full sharded audit (:func:`check_sharded`) runs each shard tree's
``check_all`` with the expected contents restricted to the shard's
range, then appends the coverage checks, into one
:class:`~repro.verify.checker.CheckReport`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.core.keys import NEG_INF, Key
from repro.shard.directory import DirectoryView
from repro.verify.checker import CheckReport, check_all
from repro.verify.checker import placement_problems, tiling_problems

if TYPE_CHECKING:
    from repro.shard.cluster import ShardedCluster


def check_partition_soundness(sharded: "ShardedCluster") -> list[str]:
    """Live ranges tile the key space; retired shards forward."""
    directory = sharded.directory
    spans = [
        (f"shard {s.shard_id}", s.range.low, s.range.high)
        for s in directory.live_shards()
    ]
    problems = tiling_problems(spans, "shard directory")
    for shard in directory.shards.values():
        if shard.retired and shard.forward_to not in directory.shards:
            problems.append(
                f"retired shard {shard.shard_id} forwards to unknown "
                f"shard {shard.forward_to!r}"
            )
    return problems


def check_placement(sharded: "ShardedCluster") -> list[str]:
    """Every stored key sits in the shard the directory assigns it; a
    retired shard's scope is empty (its drain migration moved all)."""
    problems, _contents = placement_problems(
        [
            (s.shard_id, None, "retired" if s.retired else f"range {s.range}",
             s.covers,
             sharded.shard_contents(s.shard_id), None)
            for s in sharded.directory.shards.values()
        ],
        "shard",
    )
    return problems


def _probe_points(sharded: "ShardedCluster") -> list:
    points = set()
    for shard in sharded.directory.live_shards():
        if shard.range.low is not NEG_INF:
            points.add(shard.range.low)
        points.update(sharded.shard_contents(shard.shard_id))
    return sorted(points)


def check_routability(sharded: "ShardedCluster") -> list[str]:
    """Every point reaches its covering shard from every client view.

    Runs the router's own walk (``directory.resolve``), which
    never mutates a view, from each client's view and from a view of
    the very first directory version -- the stalest view any execution
    could still harbour -- and compares where it lands with
    ``directory.covering``.
    """
    problems = []
    directory = sharded.directory
    points = _probe_points(sharded)
    views = list(sharded.views.items())
    views.append(("genesis", DirectoryView(0, directory.genesis_bounds)))
    for origin, view in views:
        for point in points:
            try:
                got = f"shard {directory.resolve(view.route(point), point)[0]}"
            except RuntimeError as dead_end:
                got = f"a dead end ({dead_end})"
            want = f"shard {directory.covering(point)}"
            if got != want:
                problems.append(
                    f"point {point!r} from view of client {origin!r} (version "
                    f"{view.version}) reaches {got}, but {want} covers it"
                )
    return problems


def check_version_convergence(sharded: "ShardedCluster") -> list[str]:
    """Client views never run ahead and converge on one refresh."""
    problems = []
    directory = sharded.directory
    current = directory.version
    known = set(directory.shards)
    for pid, view in sharded.views.items():
        if view.version > current:
            problems.append(
                f"client {pid} view version {view.version} is ahead of "
                f"the directory ({current}); versions must be earned"
            )
        for _, shard_id in view.bounds:
            if shard_id not in known:
                problems.append(
                    f"client {pid} view names unknown shard {shard_id}"
                )
        replay = DirectoryView(view.version, view.bounds)
        replay.refresh(directory)
        if replay.version != current or replay.bounds != directory.snapshot()[1]:
            problems.append(
                f"client {pid} view does not converge to the "
                f"authoritative directory after one refresh"
            )
    return problems


def check_shard_coverage(sharded: "ShardedCluster") -> list[str]:
    """All shard-layer invariants: partition, placement, routing,
    version convergence.  Empty list means the layer is sound."""
    problems = check_partition_soundness(sharded)
    if problems:
        # Routing replay over a broken partition would only restate
        # the structural damage; report the root cause alone.
        return problems
    problems.extend(check_placement(sharded))
    problems.extend(check_routability(sharded))
    problems.extend(check_version_convergence(sharded))
    return problems


def check_sharded(
    sharded: "ShardedCluster",
    expected: Mapping[Key, Any] | None = None,
) -> CheckReport:
    """Full forest audit: per-shard ``check_all`` + shard coverage.

    ``expected`` is the whole-forest oracle; each shard tree is
    audited against the restriction of it to the shard's range.
    """
    report = CheckReport()
    for shard in sharded.directory.live_shards():
        shard_expected = None
        if expected is not None:
            shard_expected = {
                key: value
                for key, value in expected.items()
                if shard.range.contains(key)
            }
        sub = check_all(
            sharded.clusters[shard.shard_id].engine, expected=shard_expected
        )
        for name in sub.checks_run:
            if name not in report.checks_run:
                report.checks_run.append(name)
        report.problems.extend(
            f"shard {shard.shard_id}: {problem}" for problem in sub.problems
        )
    report.extend("shard_coverage", check_shard_coverage(sharded))
    return report
