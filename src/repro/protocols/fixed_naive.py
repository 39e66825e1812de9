"""The Figure 4 strawman: a protocol that loses inserts.

Paper, Figure 4: *"If S1 reduces the range of the node to exclude
I4's key, then I4's key is lost.  The PC ignores an out-of-range
relayed insert.  The copies discard I4's key when they perform the
relayed split."*

This protocol is the semi-synchronous protocol **minus** the history
rewrite: the primary copy discards out-of-range relayed updates
instead of re-issuing them to the right neighbour.  It is
deliberately incorrect and exists so experiment F4 can demonstrate
the lost-insert problem the paper's algorithms solve -- under
concurrent splits and inserts it measurably loses keys, while the
semi-synchronous protocol loses none.

Do not use outside the F4 experiment and its tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.node import NodeCopy
from repro.protocols.fixed_semisync import SemiSyncProtocol

if TYPE_CHECKING:
    from repro.sim.processor import Processor


class NaiveProtocol(SemiSyncProtocol):
    """Semi-synchronous splits without the correction: loses inserts."""

    name = "naive"

    def out_of_range_relay(
        self, proc: "Processor", copy: NodeCopy, action: Any
    ) -> None:
        # The bug the paper illustrates: the PC ignores the relayed
        # update instead of rewriting history, so the key vanishes.
        self.engine.trace.bump("naive_dropped_updates")
