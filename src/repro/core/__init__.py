"""Core dB-tree machinery: the paper's primary contribution.

* :mod:`repro.core.keys` -- totally ordered keys with +/-infinity
  sentinels and the :class:`KeyRange` used for B-link range checks.
* :mod:`repro.core.node` -- the B-link node copy: sorted entries,
  range, sibling/parent links, version number, primary-copy marker.
* :mod:`repro.core.actions` -- the action vocabulary (initial and
  relayed inserts, splits, AAS control, link-changes, join/unjoin,
  migration) exchanged between queue managers.
* :mod:`repro.core.history` -- the Section 3 correctness formalism:
  histories, uniform histories, backwards extension, compatibility,
  and commutativity checking.
* :mod:`repro.core.aas` -- atomic action sequences, the distributed
  analogue of a shared-memory lock (used by the synchronous split
  protocol only).
* :mod:`repro.core.engine` -- the engine skeleton the dB-tree, hash
  table and trie engines share: the action table and the operation
  ledger.
* :mod:`repro.core.dbtree` -- the protocol-parameterised engine that
  runs a distributed B-link tree on the simulation substrate.
* :mod:`repro.core.client` -- the public facade
  (:class:`~repro.core.client.DBTreeCluster`).
"""

from repro.core.keys import NEG_INF, POS_INF, KeyRange
from repro.core.node import NodeCopy, NodeSnapshot
from repro.core.client import DBTreeCluster

__all__ = [
    "NEG_INF",
    "POS_INF",
    "KeyRange",
    "NodeCopy",
    "NodeSnapshot",
    "DBTreeCluster",
]
