"""The B-link node copy: the unit every action operates on.

A *logical node* of the dB-tree may be stored at several processors;
each physically stored replica is a :class:`NodeCopy` (paper, Section
3).  A copy holds:

* sorted entries -- ``key -> value`` at leaves, ``separator key ->
  child node id`` at interior nodes (the leftmost separator of a
  leftmost node is :data:`~repro.core.keys.NEG_INF`),
* its key range ``[low, high)`` used for the B-link out-of-range
  check,
* links: right sibling (the B-link pointer), left sibling (mobile and
  variable-copies protocols), and a parent hint,
* a version number (ordering link-changes and join/unjoin, Sections
  4.2-4.3),
* replication metadata: the primary-copy processor and the copy set
  with per-member join versions,
* ``incorporated_ids`` -- the set of initial-update action ids this
  copy's value reflects, which is what a new copy's *birth set*
  (backwards extension) is built from.

:class:`NodeSnapshot` is the wire form used to create a copy on
another processor (sibling creation, joins, migration, root growth).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, NamedTuple

from repro.core.keys import NEG_INF, POS_INF, Bound, Key, KeyRange, tuple_action


@tuple_action
class NodeSnapshot(NamedTuple):
    """Immutable wire representation of a node copy's full state.

    A named tuple, as the actions that carry it are: every half-split
    builds one and each peer unpacks it.  A changed copy is
    ``snapshot._replace(field=value)``.
    """

    node_id: int
    level: int
    low: Bound
    high: Bound
    keys: tuple[Key, ...]
    payloads: tuple[Any, ...]
    right_id: int | None
    left_id: int | None
    parent_id: int | None
    version: int
    pc_pid: int
    copy_versions: tuple[tuple[int, int], ...]  # (pid, join_version)
    capacity: int
    birth_set: frozenset[int]
    link_versions: tuple[tuple[str, int], ...] = ()
    child_locations: tuple[tuple[int, tuple[int, ...]], ...] = ()


def _first_at_or_above(keys: list[Key], bound: Bound) -> int:
    """Index of the first of the sorted ``keys`` that is >= ``bound``."""
    if bound is NEG_INF:
        return 0
    if bound is POS_INF:
        return len(keys)
    return bisect.bisect_left(keys, bound)


class NodeCopy:
    """One physical replica of a logical dB-tree node.

    All mutation happens through the methods below so the engine can
    keep ``incorporated_ids`` and the trace in sync with the value.
    """

    __slots__ = (
        "node_id",
        "level",
        "range",
        "_keys",
        "_payloads",
        "right_id",
        "left_id",
        "parent_id",
        "version",
        "pc_pid",
        "copy_versions",
        "capacity",
        "incorporated_ids",
        "proto",
        "home_pid",
        "link_versions",
        "retired",
        "mut",
    )

    def __init__(
        self,
        node_id: int,
        level: int,
        key_range: KeyRange,
        pc_pid: int,
        copy_versions: dict[int, int],
        capacity: int,
        right_id: int | None = None,
        left_id: int | None = None,
        parent_id: int | None = None,
        version: int = 0,
    ) -> None:
        if capacity < 2:
            raise ValueError(f"node capacity must be >= 2, got {capacity}")
        self.node_id = node_id
        self.level = level
        self.range = key_range
        self._keys: list[Key] = []
        self._payloads: dict[Key, Any] = {}
        self.right_id = right_id
        self.left_id = left_id
        self.parent_id = parent_id
        self.version = version
        self.pc_pid = pc_pid
        self.copy_versions = dict(copy_versions)
        self.capacity = capacity
        self.incorporated_ids: set[int] = set()
        # Scratch space owned by the protocol strategy (AAS state,
        # blocked queues); the engine never interprets it.
        self.proto: dict[str, Any] = {}
        # Set by the engine when the copy is installed in a node store.
        self.home_pid: int = -1
        # Per-slot versions of the ordered link-change actions
        # (Sections 4.2-4.3): a link update applies only if its
        # version exceeds the slot's stored version.
        self.link_versions: dict[str, int] = {}
        # Free-at-empty (dE-tree direction): a retired node is a
        # zombie forwarder -- empty range, kept only so in-flight
        # actions can follow its links; GC-able at any time.
        self.retired: bool = False
        # Entry-mutation counter: bumped by every insert / delete /
        # extraction so digest caches can revalidate in O(1) instead
        # of re-hashing the entries (repro.repair.digest).
        self.mut: int = 0

    @property
    def is_pc(self) -> bool:
        """Whether this physical copy is the node's primary copy."""
        return self.home_pid == self.pc_pid

    def __repr__(self) -> str:
        role = "PC" if self.is_pc else "copy"
        return (
            f"NodeCopy(id={self.node_id}, level={self.level}, "
            f"range={self.range}, n={len(self._keys)}, {role})"
        )

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def num_entries(self) -> int:
        return len(self._keys)

    @property
    def is_overfull(self) -> bool:
        return len(self._keys) > self.capacity

    @property
    def copy_pids(self) -> tuple[int, ...]:
        """Processor ids known to hold a copy, ascending."""
        return tuple(sorted(self.copy_versions))

    def peers_of(self, pid: int) -> tuple[int, ...]:
        """Copy holders other than ``pid``, ascending."""
        peers = sorted(self.copy_versions)
        if pid in self.copy_versions:
            peers.remove(pid)
        return tuple(peers)

    def in_range(self, key: Key) -> bool:
        return self.range.contains(key)

    def keys(self) -> tuple[Key, ...]:
        return tuple(self._keys)

    def entries(self) -> tuple[tuple[Key, Any], ...]:
        return tuple((k, self._payloads[k]) for k in self._keys)

    def iter_entries(self) -> "Iterator[tuple[Key, Any]]":
        """Yield (key, payload) pairs in key order without building a
        tuple; preferred when the caller only iterates once."""
        payloads = self._payloads
        for key in self._keys:
            yield key, payloads[key]

    def entries_between(
        self, low: Bound, high: Bound
    ) -> tuple[tuple[Key, Any], ...]:
        """The ``(key, payload)`` pairs with ``low <= key < high``, in
        key order: two bisections, not a pass over the entries.  Either
        bound may be a sentinel."""
        keys = self._keys
        payloads = self._payloads
        return tuple(
            (key, payloads[key])
            for key in keys[_first_at_or_above(keys, low) : _first_at_or_above(keys, high)]
        )

    def lookup(self, key: Key) -> Any:
        """The payload stored under ``key``; KeyError if absent."""
        return self._payloads[key]

    def has_key(self, key: Key) -> bool:
        return key in self._payloads

    # ------------------------------------------------------------------
    # entry mutation
    # ------------------------------------------------------------------
    def insert_entry(self, key: Key, payload: Any) -> bool:
        """Insert or overwrite ``key``; return True if the key is new.

        Idempotent by design: inserts of the same entry commute with
        themselves, which the lazy protocols rely on when an update is
        both relayed directly and re-relayed by the primary copy.
        """
        self.mut += 1
        if key in self._payloads:
            self._payloads[key] = payload
            return False
        bisect.insort(self._keys, key)
        self._payloads[key] = payload
        return True

    def delete_entry(self, key: Key) -> bool:
        """Remove ``key`` if present; return True if it was present."""
        if key not in self._payloads:
            return False
        self.mut += 1
        del self._payloads[key]
        index = bisect.bisect_left(self._keys, key)
        del self._keys[index]
        return True

    def reseat(self, pid: int, past: int = 0) -> int:
        """Make ``pid`` this node's one holder and primary, at a version
        above both its own and ``past``; returns that version.

        The move of a single-copy node (migration, a mirror's re-home,
        a settled double home): the new version dominates every stale
        location hint, and ``past`` a rival claim's version.
        """
        self.version = max(self.version, past) + 1
        self.pc_pid = pid
        self.copy_versions = {pid: self.version}
        return self.version

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def child_for(self, key: Key) -> int:
        """The child node id covering ``key`` (interior nodes only)."""
        if self.is_leaf:
            raise ValueError(f"child_for called on leaf node {self.node_id}")
        if not self._keys:
            raise ValueError(f"interior node {self.node_id} has no children")
        index = bisect.bisect_right(self._keys, key) - 1
        if index < 0:
            raise ValueError(
                f"key {key!r} below first separator of node {self.node_id}"
            )
        return self._payloads[self._keys[index]]

    def child_left_of(self, separator: Key) -> int | None:
        """The child id whose separator immediately precedes ``separator``.

        Used for parent-hint maintenance: when a separator insert
        lands, the entry just left of it names the child that split.
        Returns None at leaves or when no entry precedes the separator.
        """
        if self.level == 0:
            return None
        index = bisect.bisect_left(self._keys, separator) - 1
        if index < 0:
            return None
        return self._payloads[self._keys[index]]

    # ------------------------------------------------------------------
    # half-split support
    # ------------------------------------------------------------------
    def choose_separator(self) -> Key:
        """The median key: the sibling takes keys >= separator."""
        if len(self._keys) < 2:
            raise ValueError(
                f"node {self.node_id} too small to split ({len(self._keys)} keys)"
            )
        middle = len(self._keys) // 2
        separator = self._keys[middle]
        if not self.range.low < separator:
            raise ValueError(
                f"separator {separator!r} does not exceed low bound "
                f"{self.range.low!r} of node {self.node_id}"
            )
        return separator

    def extract_upper(self, separator: Key) -> list[tuple[Key, Any]]:
        """Remove and return all entries with key >= ``separator``."""
        self.mut += 1
        index = bisect.bisect_left(self._keys, separator)
        keys = self._keys[index:]
        del self._keys[index:]
        return list(zip(keys, map(self._payloads.pop, keys)))

    def apply_half_split(self, separator: Key, sibling_id: int) -> list[tuple[Key, Any]]:
        """Shrink this copy to ``[low, separator)`` pointing at sibling.

        Returns the dropped upper entries (at the primary copy these
        seed the sibling; at other copies they are discarded because
        the sibling's original value already contains them).
        """
        dropped = self.extract_upper(separator)
        self.range = self.range.shrink_high(separator)
        self.right_id = sibling_id
        return dropped

    # ------------------------------------------------------------------
    # convergence fingerprint
    # ------------------------------------------------------------------
    def value_fingerprint(self) -> tuple:
        """Canonical value for the copy-convergence check.

        Two copies of a node with compatible histories must agree on
        this fingerprint at quiescence (paper, Section 3.1).
        """
        return (
            self.range.low,
            self.range.high,
            tuple(self._keys),
            tuple(self._payloads[k] for k in self._keys),
            self.right_id,
        )

    # ------------------------------------------------------------------
    # (de)serialisation
    # ------------------------------------------------------------------
    def snapshot(self, birth_set: Iterable[int] | None = None) -> NodeSnapshot:
        """Wire form of this copy; ``birth_set`` defaults to the ids
        this copy's value currently incorporates."""
        births = frozenset(self.incorporated_ids if birth_set is None else birth_set)
        return NodeSnapshot(
            node_id=self.node_id,
            level=self.level,
            low=self.range.low,
            high=self.range.high,
            keys=tuple(self._keys),
            payloads=tuple(self._payloads[k] for k in self._keys),
            right_id=self.right_id,
            left_id=self.left_id,
            parent_id=self.parent_id,
            version=self.version,
            pc_pid=self.pc_pid,
            copy_versions=tuple(sorted(self.copy_versions.items())),
            capacity=self.capacity,
            birth_set=births,
            link_versions=tuple(sorted(self.link_versions.items())),
        )

    @classmethod
    def from_snapshot(cls, snap: NodeSnapshot) -> "NodeCopy":
        copy = cls(
            node_id=snap.node_id,
            level=snap.level,
            key_range=KeyRange(snap.low, snap.high),
            pc_pid=snap.pc_pid,
            copy_versions=dict(snap.copy_versions),
            capacity=snap.capacity,
            right_id=snap.right_id,
            left_id=snap.left_id,
            parent_id=snap.parent_id,
            version=snap.version,
        )
        # A snapshot's keys are a copy's own, already sorted: adopt
        # them whole instead of bisecting each into place.
        copy._keys = list(snap.keys)
        copy._payloads = dict(zip(snap.keys, snap.payloads))
        copy.incorporated_ids = set(snap.birth_set)
        copy.link_versions = dict(snap.link_versions)
        return copy
