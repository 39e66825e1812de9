"""Mirror placement policies: where a single-copy leaf's mirrors live.

The crash layer (replication_factor >= 2) pushes a passive snapshot of
every single-copy leaf to ``replication_factor - 1`` mirror targets.
PR 3 hard-coded the targets as *ring successors* of the home
processor, which makes every leaf of one home share one failure
domain: if a home and its successor crash together, every leaf the
home owned is lost at once (the X6 "adjacent-pid" caveat).

Rendezvous hashing (highest-random-weight) spreads each leaf's
mirrors over *all* peers instead: the targets are the top-weighted
processors for the pair ``(node_id, pid)``, so two adjacent pids
crashing together only lose the leaves whose individual draws landed
on exactly that pair.  Weights come from a process-stable hash
(:func:`hashlib.blake2b`), never Python's randomized ``hash()``, so
placement is deterministic across runs and across processors -- every
processor can compute anyone's targets locally, which both the
re-homing path and the anti-entropy checker rely on.

Both policies return targets in *preference order*: re-homing adopts
a dead home's leaves at the first **alive** target in this order.
"""

from __future__ import annotations

import hashlib


def rendezvous_weight(node_id: int, pid: int) -> int:
    """Deterministic HRW weight of placing ``node_id`` on ``pid``."""
    digest = hashlib.blake2b(
        f"mirror:{node_id}:{pid}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class MirrorPlacement:
    """Strategy: the ordered mirror targets of a home's leaf."""

    name = "abstract"
    #: Whether ``targets`` depends on ``node_id``.  For a policy that
    #: says False, ``LeafMirrors`` asks once per home.
    per_leaf = True

    def targets(
        self,
        home_pid: int,
        node_id: int,
        pids: list[int],
        factor: int,
    ) -> tuple[int, ...]:
        """``factor - 1`` processors (in preference order) that mirror
        the single-copy leaf ``node_id`` homed at ``home_pid``."""
        raise NotImplementedError


class RingPlacement(MirrorPlacement):
    """PR 3's policy: the ring successors of the home processor.

    Ignores ``node_id``, so all of one home's leaves share the same
    targets -- cheap and cache-friendly, but one failure domain.
    """

    name = "ring"
    per_leaf = False

    def targets(
        self,
        home_pid: int,
        node_id: int,
        pids: list[int],
        factor: int,
    ) -> tuple[int, ...]:
        count = len(pids)
        index = pids.index(home_pid)
        return tuple(
            pids[(index + offset) % count]
            for offset in range(1, min(factor, count))
        )


class RendezvousPlacement(MirrorPlacement):
    """Highest-random-weight placement, per leaf.

    Candidates are every processor except the home; the winners are
    the ``factor - 1`` highest HRW weights for ``(node_id, pid)``.
    Ties (astronomically unlikely with 64-bit weights) break toward
    the lower pid so the order is total.
    """

    name = "rendezvous"

    def targets(
        self,
        home_pid: int,
        node_id: int,
        pids: list[int],
        factor: int,
    ) -> tuple[int, ...]:
        count = min(factor, len(pids)) - 1
        if count <= 0:
            return ()
        ranked = sorted(
            (pid for pid in pids if pid != home_pid),
            key=lambda pid: (-rendezvous_weight(node_id, pid), pid),
        )
        return tuple(ranked[:count])


PLACEMENTS: dict[str, type[MirrorPlacement]] = {
    RingPlacement.name: RingPlacement,
    RendezvousPlacement.name: RendezvousPlacement,
}


def make_placement(name: "str | MirrorPlacement") -> MirrorPlacement:
    """Resolve a policy by name (or pass an instance through)."""
    if isinstance(name, MirrorPlacement):
        return name
    try:
        return PLACEMENTS[name]()
    except KeyError:
        raise ValueError(
            f"unknown mirror placement {name!r}; "
            f"choose from {sorted(PLACEMENTS)}"
        ) from None
