"""Shard directory: a versioned range partition of the key space.

One dB-tree tops out at one root's growth path; a *forest* of trees
over the same processor pool needs a routing layer that says which
tree owns which keys.  The :class:`ShardDirectory` is that layer: an
ordered, contiguous partition of ``[NEG_INF, POS_INF)`` into shard
ranges, bumped to a new *version* on every split or merge.

The design deliberately replays the dB-tree's own B-link discipline
one level up:

* **Stale hints are allowed.**  Every client processor routes through
  a cached :class:`DirectoryView`, which may be arbitrarily old.  As
  with B-link half-splits, staleness is never unsafe -- only slow.
* **Splits shed rightward and leave a hint.**  When shard ``S`` splits
  at separator ``m``, ``S`` keeps ``[low, m)`` and records
  ``(m -> new shard)`` in its *shed list* -- the directory-level
  analogue of a B-link right pointer.  A request routed to ``S`` by a
  stale view for a key ``>= m`` follows the shed hint (possibly
  through a chain of later splits) until it lands on the covering
  shard, exactly like out-of-range forwarding along right links.
* **Merges retire with a forward pointer.**  When shard ``R`` is
  absorbed into its left neighbour ``L``, ``R`` is *retired* and keeps
  ``forward_to = L`` -- the free-at-empty forwarding discipline from
  the dE-tree direction, lifted to whole trees.

Recovery terminates because every hop follows a fact written by a
strictly later directory version, and the live partition is total:
the chain always reaches the unique live shard covering the key.

Forward pointers are never garbage-collected, and a shed fact lives
until a merge grows the shedding shard back over it: a fact for keys
the shard owns again would chain through the retired target back to
its absorber -- a routing loop -- so :meth:`ShardDirectory.merge`
prunes overtaken facts, keeping the invariant that a live shard's
shed separators all sit at or above its high.  Under that discipline
a view of *any* age is repaired by replaying hops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.keys import NEG_INF, POS_INF, Key, KeyRange

#: Upper bound on recovery hops before the router declares the
#: directory corrupt.  Each hop consumes one historical split or
#: merge, so any legitimate chain is far shorter.
MAX_ROUTE_HOPS = 64


@dataclass
class ShardInfo:
    """One shard's authoritative directory record."""

    shard_id: int
    range: KeyRange
    #: Retired shards no longer own keys; they forward to the
    #: absorbing shard (B-link-style: retire with a forward pointer).
    retired: bool = False
    forward_to: int | None = None
    #: Split history: ``(separator, shard_id)`` pairs, newest last.
    #: Keys ``>= separator`` were shed to ``shard_id`` at that split.
    shed: list[tuple[Key, int]] = field(default_factory=list)

    def covers(self, key: Key) -> bool:
        return not self.retired and self.range.contains(key)

    def shed_target(self, key: Key) -> int | None:
        """The shard this one shed ``key`` to, per its split history.

        Successive splits of the same shard use strictly decreasing
        separators, so the shed ranges nest: keys above the *largest*
        separator ``<= key`` went to that split's target (which may
        itself have split since -- the chain continues there).  The
        list is kept sorted by descending separator, so the first
        match wins.  Returns ``None`` when the key was never shed.
        """
        for separator, target in self.shed:
            if separator <= key:
                return target
        return None


class DirectoryView:
    """A client processor's cached picture of the shard directory.

    Holds the boundary list of some past directory version.  Routing
    through a stale view is safe: the authoritative records reached
    through it carry shed hints and forward pointers, so the router
    recovers B-link-style and the view is refreshed from the reply.
    """

    def __init__(self, version: int, bounds: tuple[tuple[Key, int], ...]) -> None:
        #: Directory version this snapshot was taken at.
        self.version = version
        #: Sorted ``(low, shard_id)`` pairs of the live shards.
        self.bounds = bounds

    def route(self, key: Key) -> int:
        """The shard this view believes covers ``key``."""
        chosen = self.bounds[0][1]
        for low, shard_id in self.bounds:
            if low <= key:
                chosen = shard_id
            else:
                break
        return chosen

    def refresh(self, directory: "ShardDirectory") -> None:
        """Adopt the directory's current version wholesale."""
        self.version, self.bounds = directory.snapshot()


class ShardDirectory:
    """Authoritative partition of the key space across shards.

    The directory itself is a small, strongly-consistent object (the
    facade owns it); what is *lazy* is every client's cached
    :class:`DirectoryView`.  This mirrors the paper's split between a
    node's primary copy and its lazily-maintained replicas.
    """

    def __init__(self, boundaries: tuple[Key, ...] = ()) -> None:
        self.version = 0
        self.shards: dict[int, ShardInfo] = {}
        self._next_id = 0
        lows: list[Key] = [NEG_INF, *boundaries]
        for index, low in enumerate(lows):
            high = lows[index + 1] if index + 1 < len(lows) else POS_INF
            if not low < high:
                raise ValueError(
                    f"initial shard boundaries must be strictly increasing: "
                    f"{boundaries!r}"
                )
            self.shards[self._next_id] = ShardInfo(
                shard_id=self._next_id, range=KeyRange(low, high)
            )
            self._next_id += 1
        #: The version-0 bounds, kept so the audit can route from the
        #: stalest view any client could ever hold.
        self.genesis_bounds = self.snapshot()[1]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def info(self, shard_id: int) -> ShardInfo:
        return self.shards[shard_id]

    def resolve(self, shard_id: int, point: Key) -> tuple[int, int, int]:
        """Walk from ``shard_id`` to the live shard covering ``point``.

        The router's recovery walk, B-link-style: a live shard that no
        longer covers the point follows its shed hint; a retired one
        follows its shed facts (they predate its retirement and stay
        valid) and otherwise its merge forward pointer.  Returns
        ``(shard_id, forwards, hint_hops)``.  Raises ``RuntimeError``
        on a dead end or on more than :data:`MAX_ROUTE_HOPS` hops (a
        forwarding cycle): either means the directory is corrupt.
        """
        forwards = hint_hops = 0
        while True:
            info = self.shards[shard_id]
            if info.retired:
                shard_id = info.shed_target(point)
                if shard_id is None:
                    shard_id = info.forward_to
                forwards += 1
            elif info.range.contains(point):
                return shard_id, forwards, hint_hops
            else:
                shard_id = info.shed_target(point)
                hint_hops += 1
            if shard_id is None:
                raise RuntimeError(
                    f"directory corrupt: no shed hint or forward pointer "
                    f"for {point!r} at shard {info.shard_id}"
                )
            if forwards + hint_hops > MAX_ROUTE_HOPS:
                raise RuntimeError(
                    f"shard routing for {point!r} exceeded {MAX_ROUTE_HOPS} "
                    "hops; directory forwarding chain is cyclic"
                )

    def live_shards(self) -> list[ShardInfo]:
        """Live shards in key-range order."""
        live = [s for s in self.shards.values() if not s.retired]
        live.sort(key=lambda s: _sort_key(s.range.low))
        return live

    def covering(self, key: Key) -> int:
        """The live shard whose range contains ``key``."""
        for shard in self.live_shards():
            if shard.range.contains(key):
                return shard.shard_id
        raise KeyError(f"no live shard covers {key!r}")

    def snapshot(self) -> tuple[int, tuple[tuple[Key, int], ...]]:
        """``(version, bounds)`` for seeding or refreshing a view."""
        bounds = tuple(
            (shard.range.low, shard.shard_id) for shard in self.live_shards()
        )
        return self.version, bounds

    def view(self) -> DirectoryView:
        """A fresh client view of the current version."""
        version, bounds = self.snapshot()
        return DirectoryView(version, bounds)

    # ------------------------------------------------------------------
    # reconfiguration
    # ------------------------------------------------------------------
    def split(self, shard_id: int, separator: Key) -> int:
        """Split a shard at ``separator``; returns the new shard's id.

        The old shard keeps the low half (its low boundary is
        immutable, as with a B-link half-split) and records the shed
        hint; the new shard takes ``[separator, old_high)``.
        """
        shard = self.shards[shard_id]
        if shard.retired:
            raise ValueError(f"cannot split retired shard {shard_id}")
        if not shard.range.contains(separator) or separator == shard.range.low:
            raise ValueError(
                f"separator {separator!r} must fall strictly inside "
                f"{shard.range}"
            )
        lower, upper = shard.range.split_at(separator)
        new_id = self._next_id
        self._next_id += 1
        self.shards[new_id] = ShardInfo(shard_id=new_id, range=upper)
        shard.range = lower
        # Invariant: a live shard's shed separators all sit at or
        # above its high (merge prunes the ones its growth overtakes),
        # so they strictly decrease over successive splits and
        # appending the new (smallest) one keeps the list sorted by
        # descending separator -- the order ShardInfo.shed_target's
        # first-match scan relies on.
        shard.shed.append((separator, new_id))
        self.version += 1
        return new_id

    def merge(self, left_id: int, right_id: int) -> None:
        """Absorb ``right_id`` into its left neighbour ``left_id``.

        The right shard is retired with a forward pointer; the left
        shard's range grows to cover both.  Adjacency is required --
        merging non-neighbours would punch a hole in the partition.
        """
        left = self.shards[left_id]
        right = self.shards[right_id]
        if left.retired or right.retired:
            raise ValueError("cannot merge retired shards")
        if left.range.high != right.range.low:
            raise ValueError(
                f"shards {left_id} and {right_id} are not adjacent: "
                f"{left.range} vs {right.range}"
            )
        left.range = KeyRange(left.range.low, right.range.high)
        # Shed facts the absorber's growth overtakes are superseded:
        # the absorber owns those keys again, and a later re-split
        # writes a fresh fact for them.  Keeping a stale one would
        # forward through the retired shard back to its absorber --
        # a routing cycle.  But the absorber also *inherits* the
        # retired shard's facts (all at or above the new high, by the
        # invariant): they are the only chain from a stale view to
        # keys beyond the new high -- e.g. keys the right shard shed
        # before it was absorbed.  On a separator collision the
        # retired shard's fact wins; either chain terminates, but
        # keeping one preserves the strictly-descending order.
        kept = {
            sep: target
            for sep, target in left.shed
            if left.range.high <= sep
        }
        kept.update(dict(right.shed))
        left.shed = sorted(
            kept.items(), key=lambda fact: _sort_key(fact[0]), reverse=True
        )
        right.retired = True
        right.forward_to = left_id
        self.version += 1


def _sort_key(bound: Key):
    """Total order over bounds with the NEG_INF/POS_INF sentinels."""
    if bound is NEG_INF:
        return (0, 0)
    if bound is POS_INF:
        return (2, 0)
    return (1, bound)
