"""Per-processor leaf-location hint cache.

Million-op workloads spend most of their messages walking the tree
from the root to a leaf, over and over, for keys whose leaf the
processor has already seen.  The cache remembers ``low -> (high,
leaf_id)`` for leaves a processor has touched (installed, acted on,
or been handed back in a return value) so the next operation on a
covered key can be routed straight to the leaf.

Safety comes from the B-link structure, not from invalidation: a hint
may be arbitrarily stale, because a misdirected action recovers by
the paper's own out-of-range right-link forwarding (Section 4.2) and
missing-node recovery.  Three structural facts make stale hints cheap:

* a leaf's **low bound is immutable** -- half-splits only shrink the
  high bound, and free-at-empty absorption only extends a *left*
  neighbour's high -- so a cached low is the leaf's true low forever,
  and lookups can binary-search the sorted lows;
* a leaf's high grows only where the leaves to its right go away:
  an absorption, or a shard migration's cut, which removes every leaf
  wholly above the cut key and ends the one it passes through at
  ``+inf``.  A processor that runs the cut purges its hints at or
  above the cut key, so no hint there names a leaf that is gone;
* rightward forwarding strictly increases the current node's low,
  so recovery terminates.

The cache never stores more than ``MAX_ENTRIES`` hints; on overflow
it evicts every other entry (hints are rebuilt by use, and
correctness never depends on them).  Halving instead of clearing
avoids a thrash cliff once the tree has more leaves than the cap:
the surviving alternate hints keep roughly half the lookups hot
while the working set re-learns.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

from repro.core.keys import Key

#: Hints one processor's cache holds before it halves.
MAX_ENTRIES = 65536


class LeafHintCache:
    """Sorted map of cached leaf ranges, keyed by immutable low bound."""

    __slots__ = ("_lows", "_by_low")

    def __init__(self) -> None:
        self._lows: list[Key] = []
        self._by_low: dict[Key, tuple[Key, int]] = {}

    def __len__(self) -> int:
        return len(self._lows)

    def learn(self, low: Key, high: Key, leaf_id: int) -> None:
        """Remember that the leaf with ``low`` covered ``[low, high)``.

        Replace-by-low: a newer sighting of the same low (the leaf
        after more splits shrank it) overwrites the older one.
        """
        by_low = self._by_low
        if low not in by_low:
            lows = self._lows
            if len(lows) >= MAX_ENTRIES:
                # Evict every other hint, keeping the sorted order.
                survivors = lows[::2]
                self._lows = survivors
                self._by_low = by_low = {s: by_low[s] for s in survivors}
                insort(self._lows, low)
            else:
                insort(lows, low)
        by_low[low] = (high, leaf_id)

    def purge(self, low: Key) -> None:
        """Forget every hint at or above ``low``: a cut removed those
        leaves from the tree."""
        lows = self._lows
        index = bisect_left(lows, low)
        for gone in lows[index:]:
            del self._by_low[gone]
        del lows[index:]

    def lookup(self, key: Key) -> tuple[int, Key, Key] | None:
        """Best hint for ``key``: ``(leaf_id, low, high)`` or None.

        The returned range is what the cache *believed*; the leaf may
        have split since, in which case routing recovers rightward.
        """
        lows = self._lows
        index = bisect_right(lows, key) - 1
        if index < 0:
            return None
        low = lows[index]
        high, leaf_id = self._by_low[low]
        if key < high:
            return (leaf_id, low, high)
        return None
