"""What a layer plan does for the kernel that takes it.

The paper's machine is one reliable, exactly-once FIFO network between
processors that never fail (Section 1.1).  Each opt-in layer either
breaks that sentence (faults, crashes, partitions, the permuter) or
rebuilds it (the reliable transport), and each is one frozen plan a
:class:`~repro.sim.simulator.Kernel` takes in its ``layers`` tuple.  A
layer needs no other plan: what one cannot run without is part of it
(the crash plan carries the failure detector that announces its
crashes).  The plan owns its layer:

* :meth:`Layer.validate` -- the checks against the kernel it joins
  (pids, latency), each a ``ValueError``, or a doubt
  :meth:`Layer.warn` points at the caller;
* :meth:`Layer.install` -- wiring it into the kernel's network,
  processors and clock;
* :meth:`Layer.summary` -- its entry in
  :func:`repro.stats.layer_report`, which answers ``["enabled"]``.

The kernel installs plans in its registry order
(:data:`repro.sim.simulator.LAYERS`), never the caller's, so seed
registrations and time-0 events keep one order.  Which plans refuse
each other is the kernel's table,
:data:`~repro.sim.simulator.INCOMPATIBLE_LAYERS`.
"""

from __future__ import annotations

import os
import sys
import warnings
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:
    from repro.sim.simulator import Kernel
    from repro.sim.tracing import Trace

#: This package's directory, the prefix of every frame :meth:`Layer.warn`
#: walks past.
_PACKAGE = os.path.dirname(os.path.dirname(__file__)) + os.sep


class Layer:
    """Base of the layer plans: the three steps, one of them optional."""

    __slots__ = ()

    #: The layer's key in :func:`repro.stats.layer_report`.
    layer = ""

    def validate(self, kernel: "Kernel") -> None:
        """Raise ``ValueError`` if this plan cannot run on ``kernel``
        (its processors exist; no layer is installed yet)."""

    def check_pids(self, kernel: "Kernel", pids: Iterable[int | None]) -> None:
        """Raise ``ValueError`` for a pid the kernel lacks (``None``, "any
        processor", passes)."""
        for pid in pids:
            if pid is not None and pid not in kernel.processors:
                raise ValueError(
                    f"{self.layer} plan names pid {pid}, but the cluster has "
                    f"{len(kernel.processors)} processors"
                )

    def warn(self, message: str) -> None:
        """Warn (``RuntimeWarning``) at the first frame outside this
        package: the line that built the kernel, whether directly or
        through however many facades."""
        frame, level = sys._getframe(), 1
        while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE):
            frame, level = frame.f_back, level + 1
        warnings.warn(message, RuntimeWarning, stacklevel=level)

    def install(self, kernel: "Kernel") -> None:
        """Wire the layer into ``kernel``."""
        raise NotImplementedError

    def summary(self, kernel: "Kernel", trace: "Trace | None") -> dict[str, Any]:
        """The layer's report; ``trace`` is the engine's, when there is one."""
        raise NotImplementedError
