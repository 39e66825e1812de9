"""The lazily replicated hash directory.

Each processor holds a :class:`DirectoryReplica`: a set of
``(depth, prefix) -> (bucket_id, pid)`` facts.  A lookup tries the
deepest matching fact first and falls back to shallower ones -- so a
replica that has missed recent splits still routes *somewhere
correct-at-some-earlier-time*, and the bucket-side split links finish
the job.  Facts are never retracted: in extendible hashing a
``(depth, prefix)`` designation names one bucket forever (the bucket
itself deepens on split), so a shallow stale fact remains a valid
fallback and depth is the natural version order (the paper's ordered
action class).
"""

from __future__ import annotations

from typing import Iterator


class DirectoryReplica:
    """One processor's (possibly stale) view of the bucket map."""

    def __init__(self) -> None:
        self._slots: dict[tuple[int, int], tuple[int, int]] = {}
        self._max_depth = 0

    def __len__(self) -> int:
        return len(self._slots)

    def learn(self, depth: int, prefix: int, bucket_id: int, pid: int) -> bool:
        """Absorb a directory fact; returns True if it was new.

        Conflicting facts for the same (depth, prefix) cannot arise
        from a correct protocol and are rejected loudly.
        """
        if depth < 0 or prefix < 0 or prefix >= (1 << depth):
            raise ValueError(f"bad directory fact depth={depth} prefix={prefix:b}")
        key = (depth, prefix)
        existing = self._slots.get(key)
        if existing is not None:
            if existing != (bucket_id, pid):
                raise ValueError(
                    f"directory conflict at depth={depth} prefix={prefix:b}: "
                    f"{existing} vs {(bucket_id, pid)}"
                )
            return False
        self._slots[key] = (bucket_id, pid)
        self._max_depth = max(self._max_depth, depth)
        return True

    def lookup(self, hashed: int) -> tuple[int, int] | None:
        """Deepest known bucket covering ``hashed`` (id, pid)."""
        for depth in range(self._max_depth, -1, -1):
            mask = (1 << depth) - 1
            hit = self._slots.get((depth, hashed & mask))
            if hit is not None:
                return hit
        return None

    def facts(self) -> Iterator[tuple[int, int, int, int]]:
        """All known facts as (depth, prefix, bucket_id, pid)."""
        for (depth, prefix), (bucket_id, pid) in sorted(self._slots.items()):
            yield depth, prefix, bucket_id, pid

    def fingerprint(self) -> frozenset:
        """Canonical content, for the convergence check."""
        return frozenset(
            (depth, prefix, bucket_id, pid)
            for depth, prefix, bucket_id, pid in self.facts()
        )
