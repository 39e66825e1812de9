"""Semi-synchronous splits (paper, Section 4.1.2).

The optimal fixed-copies protocol.  The synchronous algorithm forces
every copy to order initial inserts against splits the way the
primary copy did; the semi-synchronous algorithm *turns the
requirement around*: the non-PC copies determine the ordering of
their initial inserts against the relayed split, and the primary copy
complies by **rewriting history** --

    "If the PC receives a relayed insert and the insert is not in the
    range of the PC, the PC creates an initial insert action and
    sends it to the right neighbor."

Consequences measured by the benchmarks (experiments F5, C3, C4):

* a split costs |copies| - 1 coordination messages (the relayed
  splits) instead of ~3(|copies| - 1),
* initial inserts are *never* blocked,
* searches are never blocked (true of every lazy protocol).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.actions import InsertAction, Mode
from repro.core.node import NodeCopy
from repro.protocols.base import Protocol

if TYPE_CHECKING:
    from repro.sim.processor import Processor


class SemiSyncProtocol(Protocol):
    """History-rewriting split protocol: never blocks, |copies| msgs."""

    name = "semisync"

    def initiate_split(self, proc: "Processor", copy: NodeCopy) -> None:
        """Perform the half-split immediately and relay it (no AAS).

        Loops while the copy remains overfull (a long run of inserts
        can leave the node more than one split over capacity).
        """
        engine = self.engine
        while copy.is_pc and copy.is_overfull and copy.num_entries >= 2:
            split = engine.perform_half_split(proc, copy)
            self.relay_split(proc, copy, split)
        copy.proto["split_scheduled"] = False

    def out_of_range_relay(
        self, proc: "Processor", copy: NodeCopy, action: Any
    ) -> None:
        """The Section 4.1.2 history rewrite.

        At the primary copy an out-of-range relayed update means the
        originating copy performed it *before* seeing the split; the
        PC complies with that ordering by issuing a fresh initial
        update to the neighbour now covering the key.  Non-PC copies
        simply discard (the key is covered by the sibling's original
        value or by the corrected insert's own relays).
        """
        engine = self.engine
        if not copy.is_pc:
            engine.trace.bump("discarded_relay")
            return
        engine.trace.bump("history_rewrites")
        corrected_id = engine.trace.new_action_id()
        if isinstance(action, InsertAction):
            corrected = action._replace(
                mode=Mode.INITIAL,
                action_id=corrected_id,
                origin_version=0,
                op=None,
            )
        else:
            corrected = action._replace(
                mode=Mode.INITIAL, action_id=corrected_id, op=None
            )
        engine.forward_same_level(proc, copy, corrected, action.key)
