"""Keys, infinity sentinels, and key ranges.

The dB-tree is key-type agnostic: any totally ordered Python type
(ints, strings, tuples...) works, as long as a single tree uses one
type.  B-link range checks need open-ended ranges, so this module
provides two sentinels, :data:`NEG_INF` and :data:`POS_INF`, that
compare below and above every ordinary key, and a :class:`KeyRange`
value object implementing the half-open interval ``[low, high)`` used
throughout the protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Any, Hashable


@total_ordering
class _Extreme:
    """A point at one end of the key order; singleton per direction."""

    __slots__ = ("_positive",)

    def __init__(self, positive: bool) -> None:
        self._positive = positive

    def __repr__(self) -> str:
        return "+inf" if self._positive else "-inf"

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, _Extreme) and other._positive is self._positive

    def __hash__(self) -> int:
        return hash(("repro.keys.extreme", self._positive))

    def __lt__(self, other: Any) -> bool:
        if self == other:
            return False
        # +inf is less than nothing; -inf is less than everything else.
        return not self._positive

    def __reduce__(self):
        # Preserve singleton identity across copy/pickle.
        return (_extreme_instance, (self._positive,))


def _extreme_instance(positive: bool) -> "_Extreme":
    return POS_INF if positive else NEG_INF


#: Below every ordinary key.
NEG_INF = _Extreme(positive=False)
#: Above every ordinary key.
POS_INF = _Extreme(positive=True)

Key = Hashable  # any totally ordered hashable; sentinels included
Bound = Key


def key_le(a: Bound, b: Bound) -> bool:
    """a <= b under the extended order (sentinels handled)."""
    return not key_lt(b, a)


def key_lt(a: Bound, b: Bound) -> bool:
    """a < b under the extended order (sentinels handled).

    Comparisons between an ordinary key and a sentinel are decided by
    the sentinel; two ordinary keys use their native order.
    """
    a_ext = isinstance(a, _Extreme)
    b_ext = isinstance(b, _Extreme)
    if a_ext and b_ext:
        return a < b
    if a_ext:
        return a is NEG_INF
    if b_ext:
        return b is POS_INF
    return a < b  # type: ignore[operator]


@dataclass(frozen=True)
class KeyRange:
    """The half-open interval ``[low, high)`` of keys a node covers.

    >>> r = KeyRange(NEG_INF, 10)
    >>> r.contains(5), r.contains(10)
    (True, False)
    >>> lower, upper = r.split_at(4)
    >>> lower, upper
    (KeyRange(low=-inf, high=4), KeyRange(low=4, high=10))
    """

    low: Bound
    high: Bound

    def __post_init__(self) -> None:
        if not key_lt(self.low, self.high) and self.low != self.high:
            raise ValueError(f"invalid range: low={self.low!r} > high={self.high!r}")

    @classmethod
    def full(cls) -> "KeyRange":
        """The range covering every key."""
        return cls(NEG_INF, POS_INF)

    @property
    def is_empty(self) -> bool:
        return self.low == self.high

    def contains(self, key: Key) -> bool:
        """Whether ``key`` falls in ``[low, high)``.

        Hand-inlined sentinel handling: this is the single hottest
        predicate in the simulator (every routing step calls it), and
        going through ``key_le``/``key_lt`` costs two extra frames and
        four ``isinstance`` checks per call.
        """
        if type(key) is not _Extreme:
            low = self.low
            if type(low) is _Extreme:
                if low is POS_INF:
                    return False
            elif not (low <= key):  # type: ignore[operator]
                return False
            high = self.high
            if type(high) is _Extreme:
                return high is POS_INF
            return key < high  # type: ignore[operator]
        return key_le(self.low, key) and key_lt(key, self.high)

    def contains_range(self, other: "KeyRange") -> bool:
        """Whether ``other`` is entirely within this range."""
        if other.is_empty:
            return self.contains(other.low) or other.low == self.low
        return key_le(self.low, other.low) and key_le(other.high, self.high)

    def split_at(self, separator: Key) -> tuple["KeyRange", "KeyRange"]:
        """Split into ``[low, separator)`` and ``[separator, high)``.

        The separator must fall strictly inside the range.
        """
        if not (key_lt(self.low, separator) and key_lt(separator, self.high)):
            raise ValueError(
                f"separator {separator!r} not strictly inside {self!r}"
            )
        return KeyRange(self.low, separator), KeyRange(separator, self.high)

    def shrink_high(self, new_high: Bound) -> "KeyRange":
        """The same range with its upper bound lowered (half-split)."""
        if key_lt(self.high, new_high):
            raise ValueError(
                f"cannot raise high bound from {self.high!r} to {new_high!r}"
            )
        return KeyRange(self.low, new_high)

    def __repr__(self) -> str:
        return f"KeyRange(low={self.low!r}, high={self.high!r})"
