"""Range digests: compact, incrementally maintained state hashes.

Anti-entropy needs to compare replica state without shipping it.  A
*node digest* hashes exactly what the convergence theory says two
copies with compatible histories must agree on at quiescence -- the
key range, the entries, the B-link right pointer, and the replication
membership -- and deliberately nothing that is allowed to differ
transiently (navigation hints, protocol scratch, the home pid).

The same formula is applied to a :class:`~repro.core.node.NodeCopy`
and to a mirror's stored :class:`~repro.core.node.NodeSnapshot`, so a
fresh mirror hashes equal to its home leaf by construction.

Incremental maintenance is O(changed), not O(tree): every entry
mutation bumps the copy's ``mut`` counter (see ``NodeCopy``), and the
:class:`DigestIndex` caches each node's digest beside the fields that
feed the hash -- ``mut``, version, range, right link, membership.  An
unchanged node re-validates its cache entry by comparing those fields
in place; only changed nodes re-hash.  A row is dropped when its copy
or mirror leaves the store, and digest caches are volatile: they die
with a crash, like everything else on a processor.

A pair view's roll-up is kept the same way.  Each row hashes on its
own (:func:`row_hash`) and a bucket's digest is the *sum* of its rows'
hashes mod 2**64: addition commutes, so the sum needs no order, and a
changed row moves it by subtracting the old term and adding the new
one.  The repair service keeps the sums beside each view and updates
them as touched rows are re-derived; :func:`bucket_sums` builds them
from scratch.

Hashes use :func:`hashlib.blake2b` over the ``repr`` of a canonical
tuple -- process-stable and seed-independent, unlike Python's
randomized ``hash()``.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.node import NodeCopy, NodeSnapshot

#: Wire-size estimate (bytes) of one digest, for the byte accounting.
DIGEST_BYTES = 8

#: The digest width: every bucket sum is kept masked with this.
MASK = (1 << 64) - 1

#: Buckets of a pair view's drill-down: a row sits in bucket
#: ``node_id % BUCKETS``, and a view's sums are one per bucket.  Fewer
#: buckets ship more rows per mismatch; the bucket level also filters
#: mismatches that a round's own traffic resolves before the rows go.
BUCKETS = 8

#: Comparison kind by role: a home's leaf entry ("L") and the holder's
#: mirror entry ("M") describe the same replicated state, so they
#: must hash into the same comparison class.
_CMP = {"C": "C", "L": "M", "M": "M"}


def hash_parts(parts: tuple) -> int:
    """64-bit stable hash of a canonical tuple."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def copy_digest(copy: "NodeCopy") -> int:
    """Digest of a live node copy's convergent state."""
    keys = copy.keys()
    return hash_parts(
        (
            copy.range.low,
            copy.range.high,
            keys,
            tuple(copy.lookup(key) for key in keys),
            copy.right_id,
            tuple(sorted(copy.copy_versions.items())),
        )
    )


def snapshot_digest(snap: "NodeSnapshot") -> int:
    """Digest of a snapshot; equals :func:`copy_digest` of its source."""
    return hash_parts(
        (
            snap.low,
            snap.high,
            snap.keys,
            snap.payloads,
            snap.right_id,
            tuple(sorted(snap.copy_versions)),
        )
    )


def row_hash(node_id: int, role: str, digest: int) -> int:
    """One pair-view row's term in its bucket sum."""
    return hash_parts((node_id, _CMP[role], digest))


def bucket_sums(view: dict[int, tuple]) -> list[int]:
    """A view's per-bucket sums (``node_id % BUCKETS``), from scratch."""
    sums = [0] * BUCKETS
    for node_id, row in view.items():
        index = node_id % BUCKETS
        sums[index] = (sums[index] + row_hash(node_id, row[0], row[1])) & MASK
    return sums


class DigestIndex:
    """Per-processor digest caches with O(changed) revalidation."""

    def __init__(self) -> None:
        # pid -> node_id -> (mut, version, range, right_id, members,
        # digest): the fields that feed the hash as they stood when it
        # was taken, then the hash.
        self._nodes: dict[int, dict[int, tuple]] = {}
        # pid -> node_id -> (snapshot, digest); snapshots are immutable
        # so identity is a sound cache key.
        self._mirrors: dict[int, dict[int, tuple["NodeSnapshot", int]]] = {}

    def node_digest(self, pid: int, copy: "NodeCopy") -> int:
        """The copy's digest, re-hashed only if a hashed field moved.

        Revalidation compares the fields themselves and builds
        nothing: a key range is immutable and replaced whole, so
        identity decides it; the membership is compared with the
        private copy taken at hashing time.
        """
        cache = self._nodes.get(pid)
        if cache is None:
            cache = self._nodes[pid] = {}
        entry = cache.get(copy.node_id)
        if (
            entry is not None
            and entry[0] == copy.mut
            and entry[1] == copy.version
            and entry[2] is copy.range
            and entry[3] == copy.right_id
            and entry[4] == copy.copy_versions
        ):
            return entry[5]
        digest = copy_digest(copy)
        cache[copy.node_id] = (
            copy.mut,
            copy.version,
            copy.range,
            copy.right_id,
            dict(copy.copy_versions),
            digest,
        )
        return digest

    def forget(self, pid: int, node_id: int, mirror: bool = False) -> None:
        """Drop the row of a copy (or, with ``mirror``, of a mirror)
        that left ``pid``'s store."""
        cache = (self._mirrors if mirror else self._nodes).get(pid)
        if cache is not None:
            cache.pop(node_id, None)

    def mirror_digest(self, pid: int, node_id: int, snap: "NodeSnapshot") -> int:
        cache = self._mirrors.setdefault(pid, {})
        entry = cache.get(node_id)
        if entry is not None and entry[0] is snap:
            return entry[1]
        digest = snapshot_digest(snap)
        cache[node_id] = (snap, digest)
        return digest

    def reset(self, pid: int) -> None:
        """Drop a processor's caches (crash-stop: volatile state)."""
        self._nodes.pop(pid, None)
        self._mirrors.pop(pid, None)
