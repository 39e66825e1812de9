"""Key streams and operation mixes for the experiments.

All generators produce *conflict-free* streams: each key is inserted
at most once and deleted only after its insert has been submitted,
so the sequential oracle (:class:`repro.verify.model.OracleMap`) is a
valid reference even under full concurrency.

Everything is seed-deterministic.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from typing import Any, Iterator

from repro.core.keys import Key

def uniform_keys(count: int, seed: int = 0, universe: int | None = None) -> list[int]:
    """``count`` distinct integer keys drawn uniformly at random.

    The universe defaults to 16x the count, which keeps keys sparse
    enough that range splits stay balanced.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    universe = universe if universe is not None else max(16 * count, 16)
    if universe < count:
        raise ValueError(f"universe {universe} smaller than count {count}")
    rng = random.Random(seed)
    return rng.sample(range(universe), count)


def zipf_keys(count: int, seed: int = 0, alpha: float = 1.2) -> list[int]:
    """Distinct keys whose *magnitudes* are Zipf-skewed.

    Uses the standard rejection-free inversion on a truncated zipf
    CDF over a large universe, de-duplicated while preserving draw
    order; models workloads clustered around small keys.
    """
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1 for a normalisable zipf")
    rng = random.Random(seed)
    seen: set[int] = set()
    keys: list[int] = []
    while len(keys) < count:
        # Inverse-CDF approximation for zipf: x = u^(-1/(alpha-1)).
        u = rng.random()
        magnitude = int(u ** (-1.0 / (alpha - 1.0)))
        key = magnitude * 1000 + rng.randrange(1000)
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


def hotspot_keys(
    count: int,
    seed: int = 0,
    hot_fraction: float = 0.1,
    hot_weight: float = 0.9,
) -> list[int]:
    """Distinct keys, ``hot_weight`` of them packed into a small range.

    Models the paper's motivation for replication: most traffic lands
    under one subtree.
    """
    if not 0 < hot_fraction < 1 or not 0 <= hot_weight <= 1:
        raise ValueError("hot_fraction in (0,1), hot_weight in [0,1]")
    rng = random.Random(seed)
    universe = max(64 * count, 64)
    hot_span = max(int(universe * hot_fraction), count)
    seen: set[int] = set()
    keys: list[int] = []
    while len(keys) < count:
        if rng.random() < hot_weight:
            key = rng.randrange(hot_span)
        else:
            key = hot_span + rng.randrange(universe)
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


def string_keys(count: int, seed: int = 0, length: int = 8) -> list[str]:
    """Distinct random lowercase string keys (tree is key-type agnostic)."""
    rng = random.Random(seed)
    seen: set[str] = set()
    keys: list[str] = []
    while len(keys) < count:
        key = "".join(rng.choices(string.ascii_lowercase, k=length))
        if key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


@dataclass(frozen=True)
class OperationMix:
    """A conflict-free stream of (kind, key, value) operations.

    ``search_fraction`` of operations are searches over already
    inserted keys; ``delete_fraction`` delete previously inserted
    keys (each at most once); the rest are inserts of fresh keys.

    Caveat for deletes: deletes are the never-merge extension (the
    paper defers general deletion to future work) and assume per-key
    quiescence -- the delete of a key must not be *in flight*
    concurrently with its insert's relays.  Drive delete-bearing
    mixes with a closed-loop driver or large interarrival gaps;
    insert/search mixes are safe under any concurrency.
    """

    keys: tuple[Key, ...]
    search_fraction: float = 0.0
    delete_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.search_fraction + self.delete_fraction >= 1.0:
            raise ValueError("insert fraction must be positive")

    def operations(self) -> Iterator[tuple[str, Key, Any]]:
        """Yield (kind, key, value) tuples; inserts carry value=key."""
        rng = random.Random(self.seed)
        inserted: list[Key] = []
        deleted: set[Key] = set()
        pending = list(self.keys)
        index = 0
        while index < len(pending):
            roll = rng.random()
            live = [k for k in inserted if k not in deleted]
            if roll < self.search_fraction and live:
                yield ("search", rng.choice(live), None)
            elif roll < self.search_fraction + self.delete_fraction and live:
                victim = rng.choice(live)
                deleted.add(victim)
                yield ("delete", victim, None)
            else:
                key = pending[index]
                index += 1
                inserted.append(key)
                yield ("insert", key, key)
