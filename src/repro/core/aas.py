"""Atomic action sequences: the distributed lock analogue.

Paper, Section 3: *"An algorithm might require that some actions must
be performed on all copies of a node [...] 'simultaneously'.  Thus,
we group some action sequences into atomic action sequences, or AAS.
[...] The AAS is the distributed analogue of the shared memory lock
[...] However, lazy updates are preferable."*

Only the synchronous split protocol (Section 4.1.1) needs an AAS; the
lazy protocols exist precisely to avoid this machinery.  The registry
is deliberately simple: each copy tracks the ids of its active AAS
instances and queues the actions they block; an action is blocked
while any AAS is active, and the queue is released once none is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class AASRegistry:
    """Per-copy AAS bookkeeping: active sequence ids + blocked actions."""

    active: set[int] = field(default_factory=set)
    pending: list[Any] = field(default_factory=list)

    @property
    def any_active(self) -> bool:
        return bool(self.active)

    def begin(self, aas_id: int) -> None:
        """Start an AAS at this copy (AASstart)."""
        if aas_id in self.active:
            raise ValueError(f"AAS {aas_id} already active")
        self.active.add(aas_id)

    def defer(self, action: Any) -> None:
        """Queue an action blocked by an active AAS."""
        self.pending.append(action)

    def finish(self, aas_id: int) -> list[Any]:
        """End an AAS (AASfinish); return actions ready to resume.

        Nothing is released while another AAS is still active.
        """
        if aas_id not in self.active:
            raise ValueError(f"AAS {aas_id} not active")
        self.active.discard(aas_id)
        if self.active:
            return []
        released, self.pending = self.pending, []
        return released
