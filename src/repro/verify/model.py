"""A sequential oracle for end-to-end correctness checks.

The oracle is a plain sorted map fed the same operations the cluster
executed.  It is only meaningful when the workload has no conflicting
concurrent operations on the same key (two racing inserts of one key,
or a racing insert/delete pair, have no single sequentially-expected
outcome); the workload generators in :mod:`repro.workloads` produce
conflict-free streams by construction.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.core.keys import Key


class OracleMap:
    """Reference dictionary mirroring a conflict-free workload."""

    def __init__(self) -> None:
        self._data: dict[Key, Any] = {}
        self._conflicts: list[str] = []

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Key) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[Key]:
        return iter(self._data)

    @property
    def conflicts(self) -> tuple[str, ...]:
        """Conflicting operations seen (workload bug indicator)."""
        return tuple(self._conflicts)

    def apply(self, kind: str, key: Key, value: Any = None) -> None:
        """Mirror one operation."""
        if kind == "insert":
            if key in self._data:
                self._conflicts.append(f"duplicate insert of key {key!r}")
            self._data[key] = value
        elif kind == "delete":
            if key not in self._data:
                self._conflicts.append(f"delete of absent key {key!r}")
            self._data.pop(key, None)
        elif kind == "search":
            pass
        else:
            raise ValueError(f"unknown operation kind {kind!r}")

    def expected_items(self) -> dict[Key, Any]:
        """The final key -> value map the tree must contain."""
        return dict(self._data)
