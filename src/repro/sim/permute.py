"""Deterministic schedule permuter: seeded swaps of commuting deliveries.

The paper proves convergence for *every* delivery order the reliable
FIFO network can produce -- but one simulation run exercises exactly
one order.  The permuter explores the neighbourhood: it rides the
network's delivery path (installed like the liveness oracle or the
reliable transport -- absent by default, fast path untouched) and
performs seeded, *claims-gated* swaps of adjacent deliveries at a
destination:

* a swappable arrival may be **held** for up to ``window`` time
  units (a deterministic hash of the plan seed and the hold index
  decides, so the schedule is a pure function of the plan);
* while a payload is held, every arrival at that destination either
  **overtakes** it (if the commutativity registry claims the pair
  commutes -- a swap, recorded; the hold stays in place so a single
  held relay can be pushed past many claimed-commuting deliveries)
  or **flushes** it first (any unclaimed or non-commuting pair keeps
  its FIFO order);
* a still-held payload is released at its deadline, so no message is
  ever lost and quiescence is preserved.

Because only claimed-commuting pairs ever swap, a correct protocol
must produce *identical converged state* on every permuted schedule;
a divergence is a delivery-order bug in either the protocol or the
claim, and the recorded :class:`SwapRecord` list plus the
``hold_filter`` replay hook let :mod:`repro.verify.permute` minimize
it to the offending action pair.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.core.commutativity import ProtocolClaims, claims_for
from repro.sim.events import EventHandle, EventQueue
from repro.sim.layer import Layer

if TYPE_CHECKING:
    from repro.sim.simulator import Kernel
    from repro.sim.tracing import Trace


@dataclass(frozen=True)
class PermutePlan(Layer):
    """Parameters of one permutation run.

    ``seed`` drives the hash-gated hold decisions; ``rate`` is the
    fraction of swappable arrivals held; ``window`` bounds how long a
    held delivery may wait for an overtaker.
    """

    seed: int = 0
    rate: float = 0.25
    window: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be a probability, got {self.rate}")
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")

    layer = "permute"

    def install(self, kernel: "Kernel") -> None:
        """Put the permuter on the delivery path (it swaps by the base
        claims until the engine binds its protocol's)."""
        kernel.permuter = SchedulePermuter(self, kernel.events)
        kernel.seeds.register("permute", self.seed)
        kernel.network.install_permuter(kernel.permuter)

    def summary(self, kernel: "Kernel", trace: "Trace | None") -> dict[str, Any]:
        """The permuter's counters -- swappable arrivals considered,
        holds, swaps, order-preserving flushes, deadline releases --
        plus the plan and the seed ledger, so a diverging run replays
        from the report alone."""
        return {
            "enabled": True,
            **kernel.permuter.snapshot(),
            "seeds": kernel.seeds.snapshot(),
        }


def describe_payload(payload: Any) -> tuple:
    """Stable, report-friendly identity of a relayed action."""
    # A relayed split's key and action id are its half-split's.
    update = getattr(payload, "split", payload)
    return (
        getattr(payload, "kind", type(payload).__name__),
        getattr(payload, "node_id", None),
        getattr(update, "key", getattr(update, "separator", None)),
        getattr(update, "action_id", None),
    )


@dataclass(frozen=True)
class SwapRecord:
    """One executed swap: ``overtook`` was delivered before ``delayed``."""

    time: float
    dst: int
    hold_index: int
    delayed: tuple
    overtook: tuple


@dataclass
class PermuterStats:
    """Accounting for one permuted run."""

    considered: int = 0
    held: int = 0
    swaps: int = 0
    ordered_flushes: int = 0
    timeout_releases: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "considered": self.considered,
            "held": self.held,
            "swaps": self.swaps,
            "ordered_flushes": self.ordered_flushes,
            "timeout_releases": self.timeout_releases,
        }


class SchedulePermuter:
    """Holds and swaps claimed-commuting deliveries, deterministically.

    ``hold_filter`` (when not None) replaces the hash gate with an
    explicit set of hold indices -- the replay hook delta-debugging
    uses to shrink a diverging schedule.
    """

    def __init__(
        self,
        plan: PermutePlan,
        events: EventQueue,
        claims: ProtocolClaims | None = None,
        hold_filter: frozenset[int] | None = None,
    ) -> None:
        self.plan = plan
        self._events = events
        self.claims = claims or claims_for("base")
        self.hold_filter = hold_filter
        self._deliver: Callable[[int, Any], None] | None = None
        # dst -> (payload, hold_index, release handle)
        self._held: dict[int, tuple[Any, int, EventHandle]] = {}
        self.stats = PermuterStats()
        self.swap_records: list[SwapRecord] = []
        self.executed_holds: list[int] = []

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind_claims(self, claims: ProtocolClaims) -> None:
        """Install the protocol's claim set (before any traffic)."""
        self.claims = claims

    def install_deliver(self, deliver: Callable[[int, Any], None]) -> None:
        """Install the downstream delivery (the network's fire path)."""
        self._deliver = deliver

    # ------------------------------------------------------------------
    # the hash gate
    # ------------------------------------------------------------------
    def _wants_hold(self, index: int) -> bool:
        if self.hold_filter is not None:
            return index in self.hold_filter
        plan = self.plan
        if plan.rate <= 0.0:
            return False
        digest = hashlib.blake2b(
            f"{plan.seed}:{index}".encode(), digest_size=8
        ).digest()
        draw = int.from_bytes(digest, "big") / 2**64
        return draw < plan.rate

    # ------------------------------------------------------------------
    # the delivery path
    # ------------------------------------------------------------------
    def on_arrival(self, dst: int, payload: Any) -> None:
        """Network arrival hook: hold, swap, flush, or pass through."""
        deliver = self._deliver
        if deliver is None:
            raise RuntimeError("permuter has no delivery callback installed")
        held = self._held.get(dst)
        if held is not None:
            held_payload, hold_index, handle = held
            if self.claims.commutes_wire(held_payload, payload):
                # Swap: the newcomer overtakes the held delivery,
                # which stays held until its deadline or until a
                # non-commuting arrival forces it out -- one hold can
                # legally displace the held action past many
                # claimed-commuting deliveries.
                self.stats.swaps += 1
                self.swap_records.append(
                    SwapRecord(
                        time=self._events.now,
                        dst=dst,
                        hold_index=hold_index,
                        delayed=describe_payload(held_payload),
                        overtook=describe_payload(payload),
                    )
                )
                deliver(dst, payload)
                return
            # Not claimed commuting: keep FIFO order, flush the held
            # delivery before the newcomer.
            del self._held[dst]
            handle.cancel()
            self.stats.ordered_flushes += 1
            deliver(dst, held_payload)
            deliver(dst, payload)
            return
        if self.claims.swappable(payload):
            index = self.stats.considered
            self.stats.considered += 1
            if self._wants_hold(index):
                self.stats.held += 1
                self.executed_holds.append(index)
                handle = self._events.schedule(
                    self._events.now + self.plan.window,
                    lambda: self._release(dst, index),
                )
                self._held[dst] = (payload, index, handle)
                return
        deliver(dst, payload)

    def _release(self, dst: int, index: int) -> None:
        """Deadline release of an unchallenged hold."""
        held = self._held.get(dst)
        if held is None or held[1] != index:
            return
        payload, _index, _handle = held
        del self._held[dst]
        self.stats.timeout_releases += 1
        self._deliver(dst, payload)  # type: ignore[misc]

    def snapshot(self) -> dict[str, Any]:
        """Plain-data report of this run's permutation activity."""
        return {
            **self.stats.snapshot(),
            "plan": {
                "seed": self.plan.seed,
                "rate": self.plan.rate,
                "window": self.plan.window,
            },
            "executed_holds": list(self.executed_holds),
            "swap_records": [
                {
                    "time": rec.time,
                    "dst": rec.dst,
                    "hold_index": rec.hold_index,
                    "delayed": rec.delayed,
                    "overtook": rec.overtook,
                }
                for rec in self.swap_records
            ],
        }
