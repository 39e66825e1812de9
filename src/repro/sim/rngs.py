"""Seed derivation and the per-run seed ledger.

Reproducible permutation fuzzing needs two properties the RNG
plumbing historically lacked:

* every stochastic layer's seed must be *derived from the one root
  seed*, so a run is replayable from a single integer;
* no layer may fall back to a fixed seed silently -- a fallback is
  fine (the standalone :class:`~repro.sim.network.Network` tests use
  one), but the run must *record* it.

:func:`derive_seed` gives new streams collision-free names (the
legacy ``seed + 1`` / ``+ 3`` offsets for the network and gossip
streams are kept byte-identical for pinned traces, but they too are
registered).  :class:`SeedLedger` is the record: the
kernel owns one, every layer that builds an rng registers its stream
name and seed there, and reports/audits snapshot it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


def derive_seed(root: int, stream: str) -> int:
    """A 63-bit seed for ``stream``, deterministic in ``root``.

    Hash-derived rather than offset-derived so that distinct stream
    names can never collide the way adjacent integer offsets do
    (run seed 1's ``seed + 1`` stream *is* run seed 2's root stream).
    """
    digest = hashlib.blake2b(
        f"{root}:{stream}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass
class SeedLedger:
    """Root seed plus every derived stream seed actually in use."""

    root: int
    streams: dict[str, int] = field(default_factory=dict)

    def register(self, stream: str, seed: int) -> int:
        """Record ``stream``'s seed; re-registration must agree."""
        existing = self.streams.get(stream)
        if existing is not None and existing != seed:
            raise ValueError(
                f"seed stream {stream!r} re-registered with a different "
                f"seed ({existing} -> {seed}); streams must be stable "
                "within a run"
            )
        self.streams[stream] = seed
        return seed

    def derive(self, stream: str) -> int:
        """Register and return a hash-derived seed for ``stream``."""
        return self.register(stream, derive_seed(self.root, stream))

    def snapshot(self) -> dict[str, int]:
        """Plain-dict copy for reports: root plus all streams."""
        return {"root": self.root, **self.streams}
