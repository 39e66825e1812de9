"""The schedule permuter and the permutation-replay checker."""

import itertools
import random
from pathlib import Path

import pytest

from tests.helpers import landing
from repro import DBTreeCluster
from repro.core.actions import HalfSplit, InsertAction, Mode, RelayedSplit
from repro.sim.crash import CrashPlan
from repro.sim.events import EventQueue
from repro.sim.failure import FaultPlan
from repro.sim.network import Network, UniformLatency
from repro.sim.partition import PartitionPlan
from repro.sim.permute import (
    PermutePlan,
    SchedulePermuter,
    describe_payload,
)
from repro.sim.rngs import SeedLedger, derive_seed
from repro.sim.reliable import ReliabilityConfig
from repro.sim.simulator import INCOMPATIBLE_LAYERS, LAYERS, Kernel
from repro.stats import layer_report
from repro.verify.checker import leaf_contents
from repro.verify.permute import (
    checker_selftest,
    default_workload,
    permutation_audit,
)

DESIGN_MD = Path(__file__).resolve().parent.parent / "DESIGN.md"


def rins(key, node_id=1, action_id=None):
    return InsertAction(
        node_id=node_id,
        level=0,
        key=key,
        payload=f"v{key}",
        mode=Mode.RELAYED,
        action_id=action_id if action_id is not None else 100 + key,
        op=None,
    )


def rsplit(separator, node_id=1, action_id=300):
    return RelayedSplit(
        node_id=node_id,
        split=HalfSplit(
            action_id=action_id,
            separator=separator,
            sibling_id=99,
            sibling_pids=(0,),
            parent_hint=None,
        ),
    )


def make_permuted_net(plan, hold_filter=None):
    events = EventQueue()
    net = Network(
        events, latency_model=UniformLatency(base=10.0), rng=random.Random(0)
    )
    delivered = []
    net.install_delivery(
        landing(lambda dst, p: delivered.append((events.now, dst, p)))
    )
    permuter = SchedulePermuter(plan, events, hold_filter=hold_filter)
    net.install_permuter(permuter)
    return events, net, permuter, delivered


class TestPlanValidation:
    def test_rate_must_be_probability(self):
        with pytest.raises(ValueError):
            PermutePlan(rate=1.5)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            PermutePlan(window=0.0)


class TestPermuterMechanics:
    def test_commuting_arrival_overtakes_a_held_delivery(self):
        events, net, permuter, delivered = make_permuted_net(
            PermutePlan(seed=1, rate=1.0, window=30.0)
        )
        net.send(0, 1, rins(5))
        net.send(2, 1, rins(7))
        events.run()
        keys = [p.key for _t, _d, p in delivered]
        assert keys == [7, 5]  # the second insert overtook the held first
        assert permuter.stats.swaps == 1
        assert permuter.stats.timeout_releases == 1
        rec = permuter.swap_records[0]
        assert rec.delayed == describe_payload(rins(5))
        assert rec.overtook == describe_payload(rins(7))

    def test_non_commuting_arrival_flushes_in_fifo_order(self):
        events, net, permuter, delivered = make_permuted_net(
            PermutePlan(seed=1, rate=1.0, window=30.0)
        )
        net.send(0, 1, rins(5, action_id=1))
        net.send(2, 1, rins(5, action_id=2))  # same key: not claimed
        events.run()
        ids = [p.action_id for _t, _d, p in delivered]
        assert ids == [1, 2]
        assert permuter.stats.swaps == 0
        assert permuter.stats.ordered_flushes == 1

    def test_unswappable_payload_flushes_the_hold_first(self):
        events, net, permuter, delivered = make_permuted_net(
            PermutePlan(seed=1, rate=1.0, window=30.0)
        )
        net.send(0, 1, rins(5))
        net.send(2, 1, "control-message")
        events.run()
        assert [p for _t, _d, p in delivered][0].key == 5
        assert permuter.stats.ordered_flushes == 1

    def test_one_hold_displaces_past_many_commuting_deliveries(self):
        events, net, permuter, delivered = make_permuted_net(
            PermutePlan(seed=1, rate=1.0, window=30.0), hold_filter=frozenset({0})
        )
        net.send(0, 1, rins(5))
        for key in (7, 9, 11):
            net.send(2, 1, rins(key))
        events.run()
        keys = [p.key for _t, _d, p in delivered]
        assert keys == [7, 9, 11, 5]
        assert permuter.stats.swaps == 3

    def test_no_message_is_ever_lost(self):
        events, net, permuter, delivered = make_permuted_net(
            PermutePlan(seed=3, rate=0.5, window=25.0)
        )
        sent = 0
        for index in range(60):
            src = index % 3
            net.send(src, 3, rins(index * 2 + 1, action_id=index))
            sent += 1
        events.run()
        assert len(delivered) == sent
        assert net.stats.delivered == sent
        assert {p.action_id for _t, _d, p in delivered} == set(range(60))

    def test_deterministic_same_seed_same_schedule(self):
        runs = []
        for _ in range(2):
            events, net, permuter, delivered = make_permuted_net(
                PermutePlan(seed=11, rate=0.4, window=20.0)
            )
            for index in range(40):
                net.send(index % 3, 3, rins(index * 2 + 1, action_id=index))
            events.run()
            runs.append(
                (
                    [(t, p.action_id) for t, _d, p in delivered],
                    list(permuter.executed_holds),
                    permuter.stats.snapshot(),
                )
            )
        assert runs[0] == runs[1]

    def test_different_seed_different_schedule(self):
        schedules = []
        for seed in (1, 2):
            events, net, permuter, delivered = make_permuted_net(
                PermutePlan(seed=seed, rate=0.4, window=20.0)
            )
            for index in range(40):
                net.send(index % 3, 3, rins(index * 2 + 1, action_id=index))
            events.run()
            schedules.append(list(permuter.executed_holds))
        assert schedules[0] != schedules[1]

    def test_hold_filter_overrides_the_hash_gate(self):
        events, net, permuter, delivered = make_permuted_net(
            PermutePlan(seed=1, rate=1.0, window=30.0),
            hold_filter=frozenset({1}),
        )
        net.send(0, 1, rins(5))  # opportunity 0: not in filter
        net.send(0, 2, rins(7))  # opportunity 1: held
        events.run()
        assert permuter.executed_holds == [1]

    def test_full_rate_holds_every_arrival_that_finds_none_held(self):
        # Holds are not capped: each destination holds its arrival.
        events, net, permuter, delivered = make_permuted_net(
            PermutePlan(seed=1, rate=1.0, window=30.0)
        )
        for dst in range(1, 8):
            net.send(0, dst, rins(dst))
        events.run()
        assert permuter.stats.held == permuter.stats.considered == 7
        assert permuter.executed_holds == list(range(7))
        assert len(delivered) == 7

    def test_zero_rate_never_holds(self):
        events, net, permuter, delivered = make_permuted_net(
            PermutePlan(seed=1, rate=0.0)
        )
        for key in (5, 7, 9):
            net.send(0, 1, rins(key))
        events.run()
        assert [p.key for _t, _d, p in delivered] == [5, 7, 9]
        assert permuter.stats.held == 0


#: One switched-on plan per registered layer type.
LAYER_ON = {
    FaultPlan: FaultPlan(drop_p=0.1),
    ReliabilityConfig: ReliabilityConfig(),
    PermutePlan: PermutePlan(),
    # with an earned detector, so every pair that composes runs heartbeats
    CrashPlan: CrashPlan(
        schedule=((1, 50.0, 100.0),), detector="phi", detector_horizon=500.0
    ),
    PartitionPlan: PartitionPlan(splits=((1.0, 2.0, (0,)),)),
}
#: The facade keyword that passes each plan type (the reliable
#: transport's is ``reliability="enforced"``, not a plan).
KEYWORD = {
    FaultPlan: "fault_plan",
    ReliabilityConfig: "reliability",
    PermutePlan: "permute_plan",
    CrashPlan: "crash_plan",
    PartitionPlan: "partition_plan",
}


def facade_layers(*kinds):
    """The ``DBTreeCluster`` keywords that switch on ``kinds``."""
    return {
        KEYWORD[kind]: "enforced" if kind is ReliabilityConfig else LAYER_ON[kind]
        for kind in kinds
    }


class TestInstallGuards:
    def test_every_registered_layer_has_an_example(self):
        assert set(LAYER_ON) == set(KEYWORD) == set(LAYERS)

    def test_table_states_each_pair_once_over_known_layers(self):
        pairs = [frozenset(row[:2]) for row in INCOMPATIBLE_LAYERS]
        assert len(pairs) == len(set(pairs))
        assert set().union(*pairs) == set(LAYERS)

    @pytest.mark.parametrize(
        "first,second,reason",
        INCOMPATIBLE_LAYERS,
        ids=[f"{a.__name__}-{b.__name__}" for a, b, _why in INCOMPATIBLE_LAYERS],
    )
    def test_refused_pair(self, first, second, reason):
        message = f"{first.__name__} is incompatible with {second.__name__}: "
        with pytest.raises(ValueError) as refused:
            DBTreeCluster(**facade_layers(first, second))
        assert str(refused.value) == message + reason
        with pytest.raises(ValueError) as refused:
            Kernel(4, layers=(LAYER_ON[second], LAYER_ON[first]))
        assert str(refused.value) == message + reason
        # DESIGN §3 renders the table; it must not drift.
        manual = " ".join(DESIGN_MD.read_text(encoding="utf-8").split())
        assert f"| `{first.__name__}` | `{second.__name__}` | {reason} |" in manual

    def test_every_other_pair_composes(self):
        refused = {frozenset(row[:2]) for row in INCOMPATIBLE_LAYERS}
        for first, second in itertools.combinations(LAYERS, 2):
            if frozenset((first, second)) not in refused:
                DBTreeCluster(**facade_layers(first, second))
                Kernel(4, layers=(LAYER_ON[first], LAYER_ON[second]))


class TestSeedPlumbing:
    def test_derive_seed_is_deterministic_and_stream_distinct(self):
        assert derive_seed(0, "permute") == derive_seed(0, "permute")
        assert derive_seed(0, "permute") != derive_seed(1, "permute")
        assert derive_seed(0, "permute") != derive_seed(0, "network")

    def test_ledger_rejects_conflicting_registration(self):
        ledger = SeedLedger(root=0)
        ledger.register("network", 1)
        ledger.register("network", 1)  # idempotent
        with pytest.raises(ValueError):
            ledger.register("network", 2)

    def test_kernel_records_every_stream(self):
        kernel = Kernel(num_processors=2, seed=5)
        assert kernel.seeds.snapshot() == {"root": 5, "network": 6}
        crashed = Kernel(
            num_processors=3,
            seed=5,
            layers=(CrashPlan(schedule=((1, 50.0, 100.0),)),),
        )
        # A crash schedule draws nothing, so it adds no stream.
        assert crashed.seeds.snapshot() == {"root": 5, "network": 6}

    def test_cluster_records_gossip_and_permute_streams(self):
        cluster = DBTreeCluster(
            num_processors=4,
            seed=3,
            repair_period=150.0,
            permute_plan=PermutePlan(seed=41),
        )
        summary = cluster.seed_summary()
        assert summary["root"] == 3
        assert summary["network"] == 4
        assert summary["gossip"] == 6
        assert summary["permute"] == 41

    def test_standalone_network_records_its_fallback_seed(self):
        net = Network(EventQueue())
        assert net.rng_seed == 0
        seeded = Network(EventQueue(), rng=random.Random(9))
        assert seeded.rng_seed is None


class TestPermutationSummary:
    def test_disabled_without_permuter(self):
        cluster = DBTreeCluster(num_processors=2)
        assert layer_report(cluster)["permute"] == {"enabled": False}

    def test_enabled_reports_plan_and_seeds(self):
        cluster = DBTreeCluster(
            num_processors=4,
            capacity=4,
            seed=0,
            permute_plan=PermutePlan(seed=7, rate=0.5),
        )
        for key in range(30):
            cluster.insert(key * 5 + 1, "v", client=key % 4)
        cluster.run()
        summary = layer_report(cluster)["permute"]
        assert summary["enabled"]
        assert summary["plan"]["seed"] == 7
        assert summary["held"] > 0
        assert summary["seeds"]["permute"] == 7


class TestPermutationAudit:
    def test_semisync_converges_on_permuted_schedules(self):
        report = permutation_audit("semisync", 0, rounds=2)
        assert report.ok
        assert sum(len(r.swaps) for r in report.rounds) > 100
        assert "converged" in report.summary()

    def test_protocol_state_unperturbed_when_plan_absent(self):
        """The canonical run equals a plain cluster run: installing
        no permuter leaves the schedule untouched."""
        baseline = DBTreeCluster(
            num_processors=4, capacity=4, seed=0, trace_level="ops"
        )
        default_workload(baseline, 0, 24)
        audited = DBTreeCluster(
            num_processors=4, capacity=4, seed=0, trace_level="ops"
        )
        default_workload(audited, 0, 24)
        assert leaf_contents(baseline.engine) == leaf_contents(audited.engine)

    def test_naive_divergence_minimized_regression(self):
        """Regression for the checker's flagship catch: under plan
        seed derive_seed(0, "permute-round-0") the naive protocol
        loses key 71 -- hold 49 delays the insert_relayed of key 71
        past its primary copy's half-split (the paper's item-4 pair),
        and naive drops the out-of-range relay instead of re-issuing
        it (Figure 4).  The minimal hold set {32, 43, 49} reproduces
        the loss; semisync on the identical schedule does not."""
        plan = PermutePlan(
            seed=derive_seed(0, "permute-round-0"), rate=0.3, window=35.0
        )
        holds = frozenset({32, 43, 49})

        def run(protocol):
            cluster = DBTreeCluster(
                num_processors=4,
                protocol=protocol,
                capacity=4,
                seed=0,
                trace_level="ops",
                permute_plan=plan,
            )
            cluster.kernel.permuter.hold_filter = holds
            default_workload(cluster, 0, 48)
            return cluster

        naive = run("naive")
        assert 71 not in leaf_contents(naive.engine)
        culprit = [
            rec
            for rec in naive.kernel.permuter.swap_records
            if rec.delayed[:3] == ("insert_relayed", 1, 71)
        ]
        assert culprit, "the lost key's relay must appear as a delayed action"
        semisync = run("semisync")
        assert 71 in leaf_contents(semisync.engine)

    def test_selftest_catches_the_injected_mutation(self):
        # Every seed, at the default rounds: one round is a single
        # sample, and it misses naive on some seeds (0, 1 and 2 here).
        seeds = (0, 1, 2, 3, 4, 5)
        report = checker_selftest(seeds=seeds)
        assert report.registry_rejects_counterexample
        assert report.naive_detected == {seed: True for seed in seeds}
        assert report.control_clean == {seed: True for seed in seeds}
        assert report.ok
        assert "registry rejects" in report.summary()
