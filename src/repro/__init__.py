"""repro: Lazy Updates for Distributed Search Structures.

A complete reproduction of Johnson & Krishna, *"Lazy Updates for
Distributed Search Structures"* (University of Florida CIS TR,
December 1992): the dB-tree -- a distributed B-link tree whose
interior nodes are replicated for highly parallel access -- with the
paper's three lazy replica-maintenance protocol families, its
correctness theory made executable, the vigorous baselines it argues
against, and a deterministic discrete-event simulation substrate.

Quickstart::

    from repro import DBTreeCluster

    cluster = DBTreeCluster(num_processors=8, protocol="variable",
                            capacity=8, seed=42)
    for key in range(200):
        cluster.insert(key, f"row-{key}", client=key % 8)
    cluster.run()
    assert cluster.search_sync(137) == "row-137"
    assert cluster.check().ok

Package map:

==================  =================================================
``repro.core``      keys, nodes, actions, history theory, engine, API
``repro.protocols`` sync / semisync / naive / mobile / variable
``repro.baselines`` available-copies, single-root, eager broadcast
``repro.shard``     forest of dB-trees behind a shard directory
``repro.sim``       event kernel, FIFO network, processors, tracing
``repro.verify``    complete/compatible/ordered history checkers
``repro.workloads`` key streams, drivers, leaf balancer
``repro.stats``     metrics + table rendering for the benchmarks
==================  =================================================
"""

from repro.core.client import DBTreeCluster, RunResults
from repro.hash import LazyHashTable
from repro.shard import ShardDirectory, ShardedCluster, check_shard_coverage
from repro.trie import LazyTrie
from repro.core.keys import NEG_INF, POS_INF, KeyRange
from repro.core.replication import (
    FixedFactor,
    FullReplication,
    PerLevel,
    Placement,
    ReplicationPolicy,
    SingleCopy,
)
from repro.protocols import PROTOCOLS, make_protocol
from repro.repair import RepairPlan
from repro.sim.crash import CrashPlan
from repro.sim.failure import FaultPlan
from repro.sim.network import LogNormalLatency, TopologyLatency, UniformLatency
from repro.sim.partition import PartitionPlan
from repro.sim.reliable import ReliabilityConfig, ReliabilityError
from repro.verify.checker import CheckReport, check_all
from repro.verify.model import OracleMap

__version__ = "1.0.0"

__all__ = [
    "DBTreeCluster",
    "LazyHashTable",
    "LazyTrie",
    "RunResults",
    "ShardedCluster",
    "ShardDirectory",
    "check_shard_coverage",
    "NEG_INF",
    "POS_INF",
    "KeyRange",
    "FixedFactor",
    "FullReplication",
    "PerLevel",
    "Placement",
    "ReplicationPolicy",
    "SingleCopy",
    "PROTOCOLS",
    "make_protocol",
    "CrashPlan",
    "PartitionPlan",
    "RepairPlan",
    "FaultPlan",
    "ReliabilityConfig",
    "ReliabilityError",
    "UniformLatency",
    "LogNormalLatency",
    "TopologyLatency",
    "CheckReport",
    "check_all",
    "OracleMap",
    "__version__",
]
