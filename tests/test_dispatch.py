"""The action table: one row per action type, in all three engines.

Every action finds its code through ``engine._handlers[type(action)]``.
The engine fills its own rows, the protocol contributes
``Protocol.handlers()``, and the failure-only collaborators, the repair
service and the load balancer attach theirs with ``engine.on``.  These tests state, independently of the code that
builds the table, which rows each configuration must have -- a
forgotten row fails here rather than as an unhandled action deep in a
soak -- and pin the two facts the frozen span tracer relies on.
"""

from __future__ import annotations

import dataclasses
import inspect
from collections import Counter

import pytest

from repro import CrashPlan, DBTreeCluster
from repro.baselines import AvailableCopiesProtocol, EagerBroadcastProtocol
from repro.baselines.available_copies import (
    ApplyUnlock,
    LockGrant,
    LockRequest,
    UpdateAck,
)
from repro.baselines.eager_broadcast import LocationBroadcast
from repro.core import actions
from repro.core.actions import (
    AbsorbRequest,
    CreateCopy,
    DeleteAction,
    HalfSplit,
    InsertAction,
    JoinRequest,
    JoinRetry,
    LinkChange,
    MigrateNode,
    MirrorUpdate,
    OpContext,
    PeerFailure,
    PeerRescind,
    RecoveryAnnounce,
    RelayedJoin,
    RelayedSplit,
    RelayedUnjoin,
    ReturnValue,
    ScanStep,
    SearchStep,
    SetRoot,
    SplitAck,
    SplitEnd,
    SplitStart,
    UnjoinAck,
    UnjoinRequest,
)
from repro.core.dbtree import DBTreeEngine
from repro.core.dbtree.engine import InitiateSplit
from repro.hash.table import LazyHashTable
from repro.protocols import PROTOCOLS
from repro.repair.gossip import (
    DigestDetail,
    DigestMatch,
    DigestNodes,
    DigestOffer,
    GossipTick,
)
from repro.repair.repair import (
    HomeResolve,
    MirrorPull,
    MirrorReturnRequest,
    RejoinAdvise,
    RepairPull,
)
from repro.trie.table import LazyTrie
from repro.workloads.balancer import BalanceProbe, BalancePull, DiffusiveBalancer

ENGINE_ROWS = {
    SearchStep,
    InsertAction,
    DeleteAction,
    ReturnValue,
    ScanStep,
    LinkChange,
    CreateCopy,
    SetRoot,
    InitiateSplit,
}
VARIABLE_ROWS = {
    RelayedSplit,
    MigrateNode,
    AbsorbRequest,
    JoinRequest,
    RelayedJoin,
    UnjoinRequest,
    RelayedUnjoin,
    UnjoinAck,
    JoinRetry,
}
PROTOCOL_ROWS = {
    "sync": {RelayedSplit, SplitStart, SplitAck, SplitEnd},
    "semisync": {RelayedSplit},
    "naive": {RelayedSplit},
    "mobile": {RelayedSplit, MigrateNode},
    "variable": VARIABLE_ROWS,
    "available_copies": {RelayedSplit, LockRequest, LockGrant, ApplyUnlock, UpdateAck},
    "eager_broadcast": {RelayedSplit, MigrateNode, LocationBroadcast},
}
CRASH_ROWS = {PeerFailure, PeerRescind, RecoveryAnnounce}
MIRROR_ROWS = {MirrorUpdate}
REPAIR_ROWS = {
    GossipTick,
    DigestOffer,
    DigestMatch,
    DigestDetail,
    DigestNodes,
    MirrorPull,
    MirrorReturnRequest,
    RepairPull,
    RejoinAdvise,
    HomeResolve,
}


def make_protocol(name):
    baselines = {
        "available_copies": AvailableCopiesProtocol,
        "eager_broadcast": EagerBroadcastProtocol,
    }
    return baselines[name]() if name in baselines else name


def rows(cluster) -> set[type]:
    return set(cluster.engine._handlers)


def layers_on_cluster(**overrides):
    """The variable protocol with every opt-in layer that adds rows."""
    kwargs = dict(
        num_processors=4,
        protocol="variable",
        capacity=4,
        seed=3,
        crash_plan=CrashPlan(schedule=((2, 300.0, 600.0),)),
        replication_factor=2,
        op_timeout=400.0,
        repair_period=150.0,
    )
    kwargs.update(overrides)
    return DBTreeCluster(**kwargs)


# ----------------------------------------------------------------------
# (a) which rows a configuration has
# ----------------------------------------------------------------------
class TestTableRows:
    @pytest.mark.parametrize("name", sorted(PROTOCOL_ROWS))
    def test_bare_table_is_engine_plus_protocol_rows(self, name):
        cluster = DBTreeCluster(
            num_processors=4, protocol=make_protocol(name), capacity=4, seed=3
        )
        assert rows(cluster) == ENGINE_ROWS | PROTOCOL_ROWS[name]

    def test_every_registered_protocol_is_covered(self):
        assert set(PROTOCOLS) <= set(PROTOCOL_ROWS)

    def test_collaborators_add_exactly_their_rows(self):
        cluster = layers_on_cluster()
        DiffusiveBalancer(cluster)
        assert rows(cluster) == (
            ENGINE_ROWS
            | VARIABLE_ROWS
            | CRASH_ROWS
            | MIRROR_ROWS
            | REPAIR_ROWS
            | {BalanceProbe, BalancePull}
        )

    def test_holding_adds_no_row(self):
        # A bundle is unpacked where it lands, so no action unpacks it:
        # the items that rode along each run as themselves.
        cluster = DBTreeCluster(num_processors=4, protocol="semisync", capacity=4)
        assert rows(cluster) == ENGINE_ROWS | PROTOCOL_ROWS["semisync"]
        for key in range(40):
            cluster.insert(key, key, client=key % 4)
        cluster.run()
        stats = cluster.kernel.network.stats
        assert stats.piggybacked > 0
        executed = Counter()
        for proc in cluster.kernel.processors.values():
            executed.update(proc.stats.by_kind)
        assert "bundle" not in executed
        # Semisync relays go only to other processors: each was sent.
        for kind in ("insert_relayed", "relayed_split"):
            assert executed[kind] == stats.by_kind[kind] > 0

    def test_every_core_action_is_a_row_somewhere(self):
        declared = {
            obj
            for obj in vars(actions).values()
            if inspect.isclass(obj)
            and dataclasses.is_dataclass(obj)
            and obj.__module__ == actions.__name__
        } - {OpContext, HalfSplit}  # carried by actions, not actions
        covered = rows(layers_on_cluster()) | rows(
            DBTreeCluster(num_processors=2, protocol="sync")
        )
        assert declared <= covered, sorted(
            cls.__name__ for cls in declared - covered
        )


# ----------------------------------------------------------------------
# (b) an action with no row
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Stray:
    kind = "stray"


@pytest.mark.parametrize(
    "build",
    [
        lambda: DBTreeCluster(num_processors=2, protocol="semisync"),
        lambda: LazyHashTable(num_processors=2),
        lambda: LazyTrie(num_processors=2),
    ],
    ids=["dbtree", "hash", "trie"],
)
def test_unknown_action_names_pid_and_action(build):
    facade = build()
    proc = facade.kernel.processor(1)
    with pytest.raises(RuntimeError) as excinfo:
        facade.engine.handle(proc, Stray())
    assert str(excinfo.value) == "processor 1 received unhandled action Stray()"


# ----------------------------------------------------------------------
# (c) one row per type
# ----------------------------------------------------------------------
def test_second_registration_raises():
    engine = DBTreeCluster(num_processors=2, protocol="semisync").engine
    engine.on(Stray, lambda proc, action: None)
    with pytest.raises(ValueError, match="Stray already has a handler"):
        engine.on(Stray, lambda proc, action: None)
    with pytest.raises(ValueError, match="SearchStep already has a handler"):
        engine.on(SearchStep, lambda proc, action: None)


# ----------------------------------------------------------------------
# (d) collaborators exist only with their plan
# ----------------------------------------------------------------------
class TestCollaboratorsFollowTheirPlans:
    def test_bare_run_has_none(self):
        cluster = DBTreeCluster(num_processors=4, protocol="variable", capacity=4)
        engine = cluster.engine
        assert engine.crash is None
        assert engine.mirrors is None
        assert engine.timers is None
        assert engine.repair is None
        assert not rows(cluster) & (CRASH_ROWS | MIRROR_ROWS | REPAIR_ROWS)

    def test_replication_factor_without_crash_plan_builds_no_mirrors(self):
        cluster = DBTreeCluster(
            num_processors=4, protocol="variable", replication_factor=2
        )
        assert cluster.engine.mirrors is None
        assert MirrorUpdate not in rows(cluster)

    def test_crash_plan_with_rf1_has_no_mirrors(self):
        cluster = layers_on_cluster(replication_factor=1)
        assert cluster.engine.crash is not None
        assert cluster.engine.mirrors is None
        assert CRASH_ROWS <= rows(cluster)
        assert MirrorUpdate not in rows(cluster)

    def test_single_processor_has_no_mirrors(self):
        cluster = DBTreeCluster(
            num_processors=1,
            protocol="variable",
            crash_plan=CrashPlan(),
            replication_factor=2,
        )
        assert cluster.engine.crash is not None
        assert cluster.engine.mirrors is None

    def test_op_timeout_alone_builds_only_timers(self):
        engine = DBTreeCluster(
            num_processors=2, protocol="variable", op_timeout=100.0
        ).engine
        assert engine.timers is not None
        assert engine.crash is None

    def test_repair_alone_still_answers_peer_up(self):
        cluster = DBTreeCluster(
            num_processors=4, protocol="variable", capacity=4, repair_period=150.0
        )
        engine = cluster.engine
        assert engine.repair is not None and engine.crash is None
        assert REPAIR_ROWS <= rows(cluster)
        assert engine.peer_up(0, 1) is True


# ----------------------------------------------------------------------
# (e) what the span tracer relies on
# ----------------------------------------------------------------------
class TestSpanTracerContract:
    @pytest.mark.parametrize("name", ["handle", "submit_operation"])
    def test_engine_entry_points_are_class_level_functions(self, name):
        # bench/spans.py wraps these on the class before a cluster
        # exists; an instance attribute or a descriptor would escape.
        assert inspect.isfunction(inspect.getattr_static(DBTreeEngine, name))

    @pytest.mark.parametrize("name", sorted(PROTOCOL_ROWS))
    def test_protocol_row_handlers_are_public_methods(self, name):
        # ... and every *public* method of the protocol class, which
        # is how protocol message handling is attributed to it.
        cluster = DBTreeCluster(num_processors=2, protocol=make_protocol(name))
        protocol = cluster.protocol
        for action_type, handler in protocol.handlers().items():
            assert handler.__self__ is protocol, action_type
            assert not handler.__name__.startswith("_"), action_type
            assert inspect.isfunction(
                inspect.getattr_static(type(protocol), handler.__name__)
            ), action_type


# ----------------------------------------------------------------------
# (f) a processor's beliefs die with it
# ----------------------------------------------------------------------
def test_dead_peers_do_not_survive_the_believers_own_crash():
    # pid 1 learns 2 is dead, crashes; 2 restarts while 1 is down (its
    # RecoveryAnnounce goes only to live peers); 1 restarts.  Nothing
    # ever tells 1 that 2 came back, so 1 must not remember otherwise.
    cluster = DBTreeCluster(
        num_processors=4,
        protocol="variable",
        capacity=4,
        seed=3,
        op_timeout=400.0,
        op_retries=8,
        crash_plan=CrashPlan(schedule=((2, 300.0, 600.0), (1, 400.0, 900.0))),
    )
    expected = {}
    for index in range(200):
        cluster.schedule(8.0 * index, "insert", 199 - index, index, client=index % 4)
        expected[199 - index] = index
    cluster.run()
    controller = cluster.kernel.crash_controller
    for proc in cluster.kernel.processors.values():
        believed_dead = cluster.engine.crash.dead_peers(proc)
        assert not [pid for pid in believed_dead if controller.is_alive(pid)]
    report = cluster.check(expected)
    assert "false-kill" in report.checks_run
    assert report.ok, report.problems
    # the fix removes a stale belief, not an event (2067.72 until the
    # inserts homed at pids 1 and 2 while they were down were issued on
    # their homes' recovery, not by their 400-vt timers' later retries;
    # 1628.0 until they failed over to a live successor instead; 1622.0
    # until the search action that reaches a leaf did the op there;
    # 1620.0 until a relayed split brought its sibling's copy)
    assert cluster.now == pytest.approx(1619.0)


# ----------------------------------------------------------------------
# (g) announce_location == the three loops it replaced
# ----------------------------------------------------------------------
class TestAnnounceLocation:
    """Message counts and end times recorded at the parent commit."""

    def test_rehome(self):
        cluster = DBTreeCluster(
            num_processors=4,
            protocol="variable",
            capacity=4,
            seed=5,
            crash_plan=CrashPlan(schedule=((0, 400.0, 1200.0),)),
            op_timeout=300.0,
            op_retries=8,
            replication_factor=2,
        )
        for index in range(120):
            cluster.schedule(
                10.0 * index, "insert", (index * 7) % 2003, index, client=1 + index % 3
            )
        cluster.run()
        assert cluster.trace.counters["leaves_rehomed"] == 19
        assert cluster.now == 1314.0
        assert cluster.message_stats()["by_kind"] == {
            "create_copy_pc_recovery": 39,
            "create_copy_root": 9,
            "insert_relayed": 216,
            "link_change_left": 18,
            "link_change_location": 75,
            "mirror_update": 240,
            "recovery_announce": 3,
            "relayed_split": 75,
            "return": 93,
            "search": 101,
            "set_root": 3,
        }

    def test_join_and_unjoin(self):
        cluster = DBTreeCluster(
            num_processors=4, protocol="variable", capacity=4, seed=9
        )
        for index in range(120):
            cluster.insert((index * 7) % 2003, index, client=index % 4)
        cluster.run()
        engine = cluster.engine
        node = next(n for n in engine.all_copies() if n.level == 1 and n.is_pc)
        pid = next(p for p in node.copy_pids if p != node.pc_pid)
        proc = cluster.kernel.processor(pid)
        cluster.protocol.request_unjoin(proc, engine.copy_at(proc, node.node_id))
        cluster.run()
        cluster.kernel.processor(node.pc_pid).submit(
            JoinRequest(node.node_id, node.level, node.range.low, pid)
        )
        cluster.run()
        assert cluster.trace.counters["joins"] == 1
        assert cluster.trace.counters["unjoins"] == 1
        assert cluster.now == 855.0
        assert cluster.message_stats()["by_kind"] == {
            "create_copy_join": 1,
            "create_copy_root": 6,
            "insert_relayed": 138,
            "link_change_left": 12,
            "link_change_location": 12,
            "relayed_join": 2,
            "relayed_split": 39,
            "relayed_unjoin": 2,
            "return": 90,
            "search": 90,
            "unjoin_request": 1,
        }

    def test_migration_tells_the_children_too(self):
        cluster = DBTreeCluster(
            num_processors=4, protocol="mobile", capacity=4, seed=11
        )
        for index in range(80):
            cluster.insert((index * 7) % 2003, index, client=index % 4)
        cluster.run()
        copies = sorted(cluster.engine.all_copies(), key=lambda n: n.node_id)
        interior = next(n for n in copies if n.level == 1)
        children = [child for _key, child in interior.entries()]
        for index, node_id in enumerate(children[:-1]):
            cluster.migrate_node(node_id, interior.home_pid, 1 + index % 3)
        cluster.run()
        cluster.migrate_node(interior.node_id, interior.home_pid, 2)
        cluster.migrate_node(children[-1], interior.home_pid, 3)
        cluster.run()
        assert cluster.trace.counters["migrations"] == 4
        assert cluster.now == 505.0
        assert cluster.message_stats()["by_kind"] == {
            "create_copy_migrate": 4,
            "link_change_location": 7,
            "return": 60,
            "search": 60,
            "set_root": 6,
        }
        assert cluster.check().ok
