"""Keys, infinity sentinels, and key ranges.

The dB-tree is key-type agnostic: any totally ordered Python type
(ints, strings, tuples...) works, as long as a single tree uses one
type.  B-link range checks need open-ended ranges, so this module
provides two sentinels, :data:`NEG_INF` and :data:`POS_INF`, that
compare below and above every ordinary key, and a :class:`KeyRange`
value object implementing the half-open interval ``[low, high)`` used
throughout the protocols.

The sentinels carry the order themselves: each defines ``<``, ``<=``,
``>`` and ``>=``, and an ordinary key compared with one reaches it by
reflection (``5 < POS_INF`` asks ``POS_INF > 5``).  So every bound
compares with the plain operators, and two ordinary keys never pay
for the sentinels.
"""

from __future__ import annotations

import zlib
from typing import Any, Hashable, NamedTuple

_tuple_eq = tuple.__eq__
_tuple_hash = tuple.__hash__


def tuple_action(cls: type) -> type:
    """Make a ``NamedTuple`` class a value of its own type.

    A named tuple compares and hashes by its fields alone, so it would
    equal a plain tuple, or a value of another type, with the same
    fields.  This installs ``__eq__`` / ``__ne__`` / ``__hash__`` that
    also take the type, as a frozen dataclass's equality does; the hash
    is salted by a checksum of the class name, so it does not depend on
    the process.  Every action (:mod:`repro.core.actions`) and
    :class:`KeyRange` are such values.
    """
    salt = zlib.crc32(cls.__name__.encode())

    def __eq__(self: tuple, other: object) -> bool:
        return self.__class__ is other.__class__ and _tuple_eq(self, other)

    def __ne__(self: tuple, other: object) -> bool:
        return not (self.__class__ is other.__class__ and _tuple_eq(self, other))

    def __hash__(self: tuple) -> int:
        return hash((salt, _tuple_hash(self)))

    cls.__eq__ = __eq__  # type: ignore[method-assign,assignment]
    cls.__ne__ = __ne__  # type: ignore[method-assign,assignment]
    cls.__hash__ = __hash__  # type: ignore[method-assign,assignment]
    return cls


class _Extreme:
    """A point at one end of the key order; singleton per direction.

    It decides every comparison it takes part in: ``-inf`` is below
    everything but itself, ``+inf`` above everything but itself.
    """

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
        return not self._positive and other is not self

    def __le__(self, other: Any) -> bool:
        return not self._positive or other is self

    def __gt__(self, other: Any) -> bool:
        return self._positive and other is not self

    def __ge__(self, other: Any) -> bool:
        return self._positive or other is self

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


class _Bounds(NamedTuple):
    low: Bound
    high: Bound


@tuple_action
class KeyRange(_Bounds):
    """The half-open interval ``[low, high)`` of keys a node covers.

    An immutable pair: equal only to a ``KeyRange`` with the same
    bounds, never to a plain ``(low, high)`` tuple.

    >>> r = KeyRange(NEG_INF, 10)
    >>> r.contains(5), r.contains(10)
    (True, False)
    >>> lower, upper = r.split_at(4)
    >>> lower, upper
    (KeyRange(low=-inf, high=4), KeyRange(low=4, high=10))
    """

    __slots__ = ()

    def __new__(cls, low: Bound, high: Bound) -> "KeyRange":
        if high < low:
            raise ValueError(f"invalid range: low={low!r} > high={high!r}")
        return tuple.__new__(cls, (low, high))

    @classmethod
    def full(cls) -> "KeyRange":
        """The range covering every key."""
        return cls(NEG_INF, POS_INF)

    @property
    def is_empty(self) -> bool:
        return self.low == self.high

    def contains(self, key: Key) -> bool:
        """Whether ``key`` falls in ``[low, high)``."""
        return self.low <= key < self.high

    def contains_range(self, other: "KeyRange") -> bool:
        """Whether ``other`` is entirely within this range."""
        if other.is_empty:
            return self.contains(other.low) or other.low == self.low
        return self.low <= other.low and other.high <= self.high

    def split_at(self, separator: Key) -> tuple["KeyRange", "KeyRange"]:
        """Split into ``[low, separator)`` and ``[separator, high)``.

        The separator must fall strictly inside the range.
        """
        if not self.low < separator < self.high:
            raise ValueError(
                f"separator {separator!r} not strictly inside {self!r}"
            )
        return KeyRange(self.low, separator), KeyRange(separator, self.high)

    def shrink_high(self, new_high: Bound) -> "KeyRange":
        """The same range with its upper bound lowered (half-split)."""
        if self.high < new_high:
            raise ValueError(
                f"cannot raise high bound from {self.high!r} to {new_high!r}"
            )
        return KeyRange(self.low, new_high)
