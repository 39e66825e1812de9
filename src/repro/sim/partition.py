"""Network partitions and gray failures as a composable fault layer.

The crash layer (:mod:`repro.sim.crash`) breaks the "processors never
fail" assumption; this module breaks the subtler one underneath the
failure detector: that an unreachable processor is a *dead* processor.
A partitioned or gray-failing processor is alive -- it keeps serving
its local queue and believes everything it stored -- but some or all
of its links are cut or degraded.  Any detector built on message
arrival (which is the only kind a distributed system can build) will
sometimes suspect such a processor falsely, and the recovery machinery
has to survive being wrong: see :mod:`repro.sim.detector` and the
"no false kill" audit in :mod:`repro.verify.checker`.

A :class:`PartitionPlan` declares link outages declaratively, in the
same style as :class:`~repro.sim.failure.FaultPlan` and
:class:`~repro.sim.crash.CrashPlan`:

* ``splits`` -- scheduled full 2-way partitions: during ``[start,
  end)`` every link between ``group`` and its complement is cut in
  both directions.
* ``one_way`` -- asymmetric outages: ``src`` can no longer reach
  ``dst`` while the reverse direction keeps working (the classic
  half-open failure that timeout detectors disagree about).
* ``gray`` -- gray failures: the link stays up but its transit time
  is inflated by a factor.  Nothing is lost; everything is late,
  which is exactly the case a fixed-timeout detector mistakes for a
  crash and an adaptive (phi-accrual) detector should absorb.

The :class:`PartitionController` executes the plan against the event
queue and answers one question for the network --
:meth:`~PartitionController.judge`: is this ordered link currently
cut, and by what factor is its latency inflated?  When no plan is
installed the network never asks, keeping the fast path byte-identical
(the perf-guard invariant every fault layer in this repository obeys).

Cuts drop messages *silently*: a partition is indistinguishable from
loss at the sender, which is the whole point -- the reliable
transport retransmits into the void, heartbeats stop arriving, and
the failure detector has to form an opinion from absence alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.sim.layer import Layer

if TYPE_CHECKING:
    from repro.sim.simulator import Kernel
    from repro.sim.tracing import Trace

__all__ = ["PartitionPlan", "PartitionController"]

#: A concrete ordered link.
Link = tuple[int, int]


def _pairs_for_split(
    group: tuple[int, ...], pids: Iterable[int]
) -> tuple[Link, ...]:
    """Every ordered link crossing the split boundary, both ways."""
    inside = set(group)
    outside = [pid for pid in pids if pid not in inside]
    pairs: list[Link] = []
    for a in sorted(inside):
        for b in outside:
            pairs.append((a, b))
            pairs.append((b, a))
    return tuple(pairs)


def _expand_endpoint(
    src: int | None, dst: int | None, pids: Iterable[int]
) -> tuple[Link, ...]:
    """Concrete ordered links for a (src, dst) spec; ``None`` = any."""
    srcs = list(pids) if src is None else [src]
    dsts = list(pids) if dst is None else [dst]
    return tuple((a, b) for a in srcs for b in dsts if a != b)


@dataclass(frozen=True)
class PartitionPlan(Layer):
    """Declarative link outages and degradations.

    ``splits``
        ``(start, end, group)`` entries; ``group`` is a tuple of pids
        forming one side of a full 2-way partition during ``[start,
        end)``.  ``end`` may be ``None`` for a partition that never
        heals (the audit then reports what it cost rather than
        silently passing).
    ``one_way``
        ``(start, end, src, dst)`` entries cutting only the src->dst
        direction.  ``src`` or ``dst`` may be ``None`` meaning "any
        processor" (e.g. ``(t0, t1, 3, None)`` isolates 3's outbound
        half).
    ``gray``
        ``(start, end, src, dst, factor)`` entries multiplying the
        src->dst transit time by ``factor`` (> 1 slows the link).
        ``None`` endpoints as above; overlapping entries compose
        multiplicatively.
    """

    splits: tuple[tuple[float, float | None, tuple[int, ...]], ...] = ()
    one_way: tuple[tuple[float, float | None, int | None, int | None], ...] = ()
    gray: tuple[
        tuple[float, float | None, int | None, int | None, float], ...
    ] = ()

    def __post_init__(self) -> None:
        for entry in self.splits:
            start, end, group = entry
            self._check_window(start, end, entry)
            if not group:
                raise ValueError(f"empty partition group in {entry!r}")
            if len(set(group)) != len(group):
                raise ValueError(f"duplicate pids in partition group {entry!r}")
        for entry in self.one_way:
            start, end, src, dst = entry
            self._check_window(start, end, entry)
            if src is not None and src == dst:
                raise ValueError(f"one-way cut from a pid to itself: {entry!r}")
        for entry in self.gray:
            start, end, src, dst, factor = entry
            self._check_window(start, end, entry)
            if src is not None and src == dst:
                raise ValueError(f"gray link from a pid to itself: {entry!r}")
            if factor <= 0:
                raise ValueError(
                    f"gray latency factor must be > 0, got {factor} in {entry!r}"
                )

    @staticmethod
    def _check_window(start: float, end: float | None, entry: Any) -> None:
        if start < 0:
            raise ValueError(f"start must be >= 0 in {entry!r}")
        if end is not None and end <= start:
            raise ValueError(f"end must follow start in {entry!r}")

    layer = "partition"

    def validate(self, kernel: "Kernel") -> None:
        self.check_pids(kernel, [pid for _, _, group in self.splits for pid in group])
        self.check_pids(
            kernel, [pid for entry in self.one_way + self.gray for pid in entry[2:4]]
        )

    def install(self, kernel: "Kernel") -> None:
        controller = PartitionController(kernel.events, self, tuple(kernel.pids))
        kernel.partition_controller = controller
        kernel.network.install_partition(controller)
        controller.install()

    def summary(self, kernel: "Kernel", trace: "Trace | None") -> dict[str, Any]:
        """Cuts applied and healed, gray (latency-inflation) windows,
        links still open at quiescence, and the messages a cut
        swallowed (X9 quantities)."""
        controller = kernel.partition_controller
        return {
            "enabled": True,
            "cuts_applied": controller.cuts_applied,
            "heals": controller.heals,
            "gray_applied": controller.gray_applied,
            "open_cut_links": len(controller.cut_links()),
            "open_gray_links": len(controller.gray_links()),
            "messages_blocked": kernel.network.stats.partition_blocked,
        }


class PartitionController:
    """Executes a :class:`PartitionPlan` against a kernel's clock.

    The controller owns the current link state -- a refcount of active
    cuts and the product of active gray factors per ordered link -- and
    the network consults :meth:`judge` per message.  Heal hooks let the
    layers above (anti-entropy repair, in practice) wake up the moment
    connectivity returns instead of waiting out their dormancy window.
    """

    def __init__(
        self,
        events: Any,
        plan: PartitionPlan,
        pids: tuple[int, ...],
    ) -> None:
        self.plan = plan
        self.pids = tuple(pids)
        self._events = events
        # Refcount of active cuts per ordered link (overlapping cuts
        # from different plan entries stack).
        self._blocked: dict[Link, int] = {}
        # Active gray factors per ordered link; product applied to
        # transit time.  Kept as a list so overlapping windows heal
        # without floating-point drift.
        self._gray: dict[Link, list[float]] = {}
        self._heal_hooks: list[Callable[[tuple[Link, ...]], None]] = []
        self.cuts_applied = 0
        self.heals = 0
        self.gray_applied = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Schedule every planned cut/heal on the event queue."""
        schedule = self._events.schedule
        for start, end, group in self.plan.splits:
            pairs = _pairs_for_split(group, self.pids)
            schedule(start, partial(self._apply_cut, pairs))
            if end is not None:
                schedule(end, partial(self._heal_cut, pairs))
        for start, end, src, dst in self.plan.one_way:
            pairs = _expand_endpoint(src, dst, self.pids)
            schedule(start, partial(self._apply_cut, pairs))
            if end is not None:
                schedule(end, partial(self._heal_cut, pairs))
        for start, end, src, dst, factor in self.plan.gray:
            pairs = _expand_endpoint(src, dst, self.pids)
            schedule(start, partial(self._apply_gray, pairs, factor))
            if end is not None:
                schedule(end, partial(self._heal_gray, pairs, factor))

    def on_heal(self, hook: Callable[[tuple[Link, ...]], None]) -> None:
        """Run ``hook(healed_pairs)`` whenever a cut window ends."""
        self._heal_hooks.append(hook)

    # ------------------------------------------------------------------
    # the one question the network asks
    # ------------------------------------------------------------------
    def judge(self, src: int, dst: int) -> tuple[bool, float]:
        """Fate of the ordered link right now: ``(up, latency_factor)``."""
        link = (src, dst)
        if self._blocked.get(link, 0) > 0:
            return False, 1.0
        factors = self._gray.get(link)
        if not factors:
            return True, 1.0
        product = 1.0
        for f in factors:
            product *= f
        return True, product

    # ------------------------------------------------------------------
    # queries / reporting
    # ------------------------------------------------------------------
    def cut_links(self) -> list[Link]:
        """Ordered links currently cut."""
        return sorted(l for l, n in self._blocked.items() if n > 0)

    def gray_links(self) -> dict[Link, float]:
        """Ordered links currently inflated, with their net factor."""
        out: dict[Link, float] = {}
        for link, factors in self._gray.items():
            if factors:
                product = 1.0
                for f in factors:
                    product *= f
                out[link] = product
        return out

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def _apply_cut(self, pairs: tuple[Link, ...]) -> None:
        blocked = self._blocked
        for link in pairs:
            blocked[link] = blocked.get(link, 0) + 1
        self.cuts_applied += 1

    def _heal_cut(self, pairs: tuple[Link, ...]) -> None:
        blocked = self._blocked
        for link in pairs:
            count = blocked.get(link, 0) - 1
            if count <= 0:
                blocked.pop(link, None)
            else:
                blocked[link] = count
        self.heals += 1
        for hook in self._heal_hooks:
            hook(pairs)

    def _apply_gray(self, pairs: tuple[Link, ...], factor: float) -> None:
        for link in pairs:
            self._gray.setdefault(link, []).append(factor)
        self.gray_applied += 1

    def _heal_gray(self, pairs: tuple[Link, ...], factor: float) -> None:
        for link in pairs:
            factors = self._gray.get(link)
            if factors is None:
                continue
            try:
                factors.remove(factor)
            except ValueError:
                pass
            if not factors:
                del self._gray[link]
        # A gray window ending is a connectivity *improvement* too:
        # let repair wake and reconcile whatever drifted while slow.
        for hook in self._heal_hooks:
            hook(pairs)
