"""Background anti-entropy repair for the dB-tree's crash layer.

The lazy-update protocols guarantee convergence of *compatible
histories* -- provided every relayed action is eventually delivered.
Crash-stop failures break that premise: queued relays die with a
processor, mirror pushes are dead-lettered, and the synchronous
repair paths (PR 3) only fix what they can see at detection or
recovery time.  This package earns the convergence back the
coordination-free way: periodic digest gossip detects divergence, and
a repair executor resolves it using the paper's own update machinery.

==================  ==================================================
``digest``          Merkle-style range digests, O(changed) maintenance
``gossip``          periodic peer digest exchange with drill-down
``repair``          mismatch resolution via relayed actions / rejoin
``placement``       ring vs rendezvous-hash mirror placement
==================  ==================================================
"""

from repro.repair.digest import (
    DigestIndex,
    copy_digest,
    snapshot_digest,
)
from repro.repair.gossip import RepairPlan
from repro.repair.placement import MirrorPlacement, make_placement
from repro.repair.repair import RepairService

__all__ = [
    "DigestIndex",
    "copy_digest",
    "snapshot_digest",
    "RepairPlan",
    "RepairService",
    "MirrorPlacement",
    "make_placement",
]
