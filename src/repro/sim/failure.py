"""Fault injection: per-message drop / duplicate / reorder verdicts.

The lazy-update protocols are proved correct under a reliable,
exactly-once, FIFO network (paper, Section 4).  :class:`FaultPlan`
selectively breaks each of those guarantees.  Two consumers exist:

* the A2 ablation runs a fault plan under ``reliability="assumed"``
  and observes which correctness checks fail, demonstrating the
  assumption is load-bearing rather than cosmetic;
* the reliable-delivery experiments (X5) run the same plans under
  ``reliability="enforced"``, where the transport layer rebuilds the
  guarantee end-to-end over the faulty substrate.

How a verdict interacts with FIFO ordering depends on that mode --
see the ``reorder_p`` note below.  Fault plans model a *lossy
medium*, not failed endpoints; crash-stop processor failures are
:mod:`repro.sim.crash`'s job.

Fault plans are *off* by default everywhere else in the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.sim.layer import Layer

if TYPE_CHECKING:
    from repro.sim.simulator import Kernel
    from repro.sim.tracing import Trace


#: The verdicts of one attempt that arrives on time, and of one that is
#: lost: shared, never built per message.
ON_TIME: tuple[tuple[bool, float]] = ((False, 0.0),)
DROPPED: tuple[tuple[bool, float]] = ((True, 0.0),)


def message_kind(payload: Any) -> str:
    """The accounting label of a message payload.

    Payloads may expose an explicit ``kind`` attribute (the action
    classes do); otherwise the class name is used.  ``only_kinds``
    selects by this label, so a fault plan targets what the accounting
    counts.
    """
    kind = getattr(payload, "kind", None)
    if isinstance(kind, str):
        return kind
    return type(payload).__name__


@dataclass(frozen=True)
class FaultPlan(Layer):
    """Probabilities of per-message faults.

    ``drop_p``
        Probability a message is silently lost.
    ``duplicate_p``
        Probability a message is delivered twice.
    ``reorder_p``
        Probability a message is delayed by an extra
        uniform(0, ``reorder_delay``) units so that later messages on
        the same channel can overtake it.  Under
        ``reliability="assumed"`` only these reorder verdicts escape
        the network's per-channel FIFO clamp (every other faulted
        message is still delivered in order); under ``"enforced"``
        the substrate applies no clamp at all -- every frame races
        freely and the extra delay simply widens the race window that
        the transport's resequencing then closes.
    ``only_kinds``
        If non-empty, faults apply only to messages whose accounting
        kind (:func:`message_kind`) is in this set (e.g. target only
        relayed inserts).
    """

    drop_p: float = 0.0
    duplicate_p: float = 0.0
    reorder_p: float = 0.0
    reorder_delay: float = 50.0
    only_kinds: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for name in ("drop_p", "duplicate_p", "reorder_p"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")

    def judge(
        self, src: int, dst: int, payload: Any, rng: random.Random
    ) -> tuple[tuple[bool, float], ...]:
        """Decide the fate of one message.

        Returns one (dropped, extra_delay) verdict per delivery
        attempt; duplication produces two attempts.  Each attempt is
        judged *independently* -- a duplicate's extra copy can itself
        be dropped or reordered, and a message can be both duplicated
        and have one copy lost, matching how independent per-packet
        faults behave on a real channel.
        """
        if self.only_kinds and message_kind(payload) not in self.only_kinds:
            return ON_TIME
        if self.duplicate_p and rng.random() < self.duplicate_p:
            return self._attempt(rng) + self._attempt(rng)
        return self._attempt(rng)

    def _attempt(self, rng: random.Random) -> tuple[tuple[bool, float]]:
        """One delivery attempt judged, as a one-verdict tuple: shared
        unless the attempt is delayed."""
        if self.drop_p and rng.random() < self.drop_p:
            return DROPPED
        if self.reorder_p and rng.random() < self.reorder_p:
            return ((False, rng.uniform(0.0, self.reorder_delay)),)
        return ON_TIME

    layer = "faults"

    def install(self, kernel: "Kernel") -> None:
        """Judge every transmission; a kind-restricted plan judges each
        logical message on its own and in the order sent, so under one
        no processor holds its sends."""
        kernel.network.install_faults(self)
        if self.only_kinds:
            for proc in kernel.processors.values():
                proc.hold_sends(None)

    def summary(self, kernel: "Kernel", trace: "Trace | None") -> dict[str, Any]:
        """The probabilities, and what the substrate dropped and
        duplicated (frames included, when the transport is on)."""
        stats = kernel.network.stats
        return {
            "enabled": True,
            "drop_p": self.drop_p,
            "duplicate_p": self.duplicate_p,
            "reorder_p": self.reorder_p,
            "dropped": stats.dropped,
            "duplicated": stats.duplicated,
        }
