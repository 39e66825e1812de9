"""Anti-entropy repair: digests, gossip, executor, and placement.

Covers the :mod:`repro.repair` subsystem end to end: placement
policies (ring parity, rendezvous determinism and spread), digest
construction and edge cases (empty tree, single leaf, splits racing
an exchange), gossip round lifecycle (dormancy, crashed-peer aborts),
the repair executor (stale mirrors refreshed, tampered copies healed
by replay/rejoin), the UnjoinAck drain, and the adjacent-pid crash
regression that motivates rendezvous placement.
"""

from __future__ import annotations

import pytest

from repro import CrashPlan, DBTreeCluster, FaultPlan, RepairPlan
from repro.core.dbtree import LeafMirrors
from repro.core.node import NodeCopy
from repro.repair import copy_digest, make_placement, snapshot_digest
from repro.repair import digest as digest_module
from repro.repair import gossip as gossip_module
from repro.repair import repair as repair_module
from repro.repair.digest import MASK, bucket_sums, row_hash
from repro.repair.placement import (
    PLACEMENTS,
    RendezvousPlacement,
    RingPlacement,
    rendezvous_weight,
)
from repro.protocols.variable import VariableCopiesProtocol
from repro.repair.gossip import DigestDetail, DigestNodes, DigestOffer, GossipTick
from repro.repair.repair import MirrorPull, RepairService
from repro.sim.events import QuiescenceError
from repro.sim.network import Bundle
from repro.verify.checker import check_digest_convergence

# Every pair view the repair layer keeps is held to the from-scratch
# derivation on every call (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("checked_views")


def repair_cluster(
    schedule=(),
    seed=3,
    num_processors=4,
    replication_factor=2,
    repair_period=150.0,
    **kwargs,
):
    return DBTreeCluster(
        num_processors=num_processors,
        protocol="variable",
        capacity=4,
        seed=seed,
        crash_plan=CrashPlan(schedule=schedule) if schedule else None,
        op_timeout=3000.0 if schedule else None,
        op_retries=5,
        replication_factor=replication_factor,
        repair_period=repair_period,
        **kwargs,
    )


def spaced_inserts(cluster, count=120, spacing=10.0):
    expected = {}
    pids = cluster.kernel.pids
    for index in range(count):
        key = (index * 7) % 2003
        expected[key] = index
        cluster.schedule(
            index * spacing, "insert", key, index,
            client=pids[index % len(pids)],
        )
    return expected


def stale_all_mirrors(cluster):
    """Truncate every mirror snapshot by one entry (fault injection)."""
    staled = 0
    for proc in cluster.kernel.processors.values():
        mirrors = proc.state.get("mirror_store") or {}
        for node_id, (home, snap) in list(mirrors.items()):
            if len(snap.keys) > 1:
                mirrors[node_id] = (
                    home,
                    snap._replace(
                        keys=snap.keys[:-1],
                        payloads=snap.payloads[:-1],
                    ),
                )
                staled += 1
    return staled


# ----------------------------------------------------------------------
# placement policies
# ----------------------------------------------------------------------
class TestPlacement:
    def test_ring_matches_pid_successors(self):
        ring = RingPlacement()
        pids = [0, 1, 2, 3]
        assert ring.targets(1, 99, pids, 2) == (2,)
        assert ring.targets(3, 99, pids, 2) == (0,)
        assert ring.targets(1, 99, pids, 3) == (2, 3)
        # node_id is irrelevant: one failure domain per home.
        assert ring.targets(1, 7, pids, 2) == ring.targets(1, 1234, pids, 2)

    def test_ring_factor_one_means_no_mirrors(self):
        assert RingPlacement().targets(0, 5, [0, 1, 2], 1) == ()

    def test_rendezvous_deterministic_and_excludes_home(self):
        hrw = RendezvousPlacement()
        pids = [0, 1, 2, 3, 4]
        for node_id in range(50):
            targets = hrw.targets(2, node_id, pids, 3)
            assert targets == hrw.targets(2, node_id, pids, 3)
            assert len(targets) == 2
            assert 2 not in targets
            assert len(set(targets)) == len(targets)

    def test_rendezvous_spreads_over_all_peers(self):
        hrw = RendezvousPlacement()
        pids = [0, 1, 2, 3, 4]
        first_targets = {
            hrw.targets(0, node_id, pids, 2)[0] for node_id in range(200)
        }
        # Every non-home pid wins the draw for some leaf: no single
        # failure domain pairs with home 0 for all its leaves.
        assert first_targets == {1, 2, 3, 4}

    def test_rendezvous_weight_is_process_stable(self):
        assert rendezvous_weight(7, 3) == rendezvous_weight(7, 3)
        assert rendezvous_weight(7, 3) != rendezvous_weight(7, 4)
        assert rendezvous_weight(8, 3) != rendezvous_weight(7, 3)

    def test_make_placement(self):
        assert isinstance(make_placement("ring"), RingPlacement)
        assert isinstance(make_placement("rendezvous"), RendezvousPlacement)
        ring = RingPlacement()
        assert make_placement(ring) is ring
        assert set(PLACEMENTS) == {"ring", "rendezvous"}
        with pytest.raises(ValueError, match="unknown mirror placement"):
            make_placement("modular")


# ----------------------------------------------------------------------
# plan validation
# ----------------------------------------------------------------------
class TestRepairPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="period"):
            RepairPlan(period=0.0)

    def test_cluster_knob_shorthand(self):
        cluster = DBTreeCluster(
            num_processors=2, protocol="variable",
            repair_period=75.0,
        )
        assert cluster.engine.repair is not None
        assert cluster.engine.repair.plan.period == 75.0

    def test_unknown_placement_rejected_at_build(self):
        with pytest.raises(ValueError, match="unknown mirror placement"):
            DBTreeCluster(num_processors=2, mirror_placement="hash")


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
class TestDigests:
    def test_snapshot_digest_matches_copy_digest(self):
        cluster = repair_cluster(repair_period=None)
        for key in range(30):
            cluster.insert(key, f"v{key}")
        cluster.run()
        checked = 0
        for proc in cluster.kernel.processors.values():
            for copy in cluster.engine.store(proc).values():
                if not copy.is_leaf or copy.retired:
                    continue
                assert snapshot_digest(copy.snapshot()) == copy_digest(copy)
                checked += 1
        assert checked > 0

    def test_entry_mutation_changes_digest_and_mut(self):
        cluster = repair_cluster(repair_period=None)
        cluster.insert(1, "a")
        cluster.run()
        proc = cluster.kernel.processors[0]
        copy = next(
            c for c in cluster.engine.store(proc).values() if c.is_leaf
        )
        before, mut_before = copy_digest(copy), copy.mut
        copy.insert_entry(999, "z")
        assert copy.mut > mut_before
        assert copy_digest(copy) != before

    def test_bucket_sums_commute(self):
        rows = [(1, ("C", 111, 0, 5)), (9, ("M", 222, 0, 7)), (3, ("C", 333, 1, 2))]
        sums = bucket_sums(dict(rows))
        # Insertion order does not matter.
        assert bucket_sums(dict(reversed(rows))) == sums
        assert sums[1] != 0 and sums[3] != 0 and sums[2] == 0
        # Adding a row and taking it away again restores the sums.
        added = bucket_sums(dict(rows + [(17, ("L", 444, 0, 9))]))
        assert added[1] != sums[1] and added[3] == sums[3]
        assert (added[1] - row_hash(17, "L", 444)) & MASK == sums[1]
        # A home's leaf row and the holder's mirror row of it are one
        # comparison class; a replicated copy's row is another.
        leaf = bucket_sums({4: ("L", 555, 0, 1)})
        assert leaf == bucket_sums({4: ("M", 555, 0, 1)})
        assert leaf != bucket_sums({4: ("C", 555, 0, 1)})

    def test_digest_index_caches_until_mutation(self):
        cluster = repair_cluster()
        cluster.insert(1, "a")
        cluster.run()
        index = cluster.engine.repair.index
        proc = cluster.kernel.processors[0]
        copy = next(
            c for c in cluster.engine.store(proc).values() if c.is_leaf
        )
        first = index.node_digest(0, copy)
        assert index.node_digest(0, copy) == first == copy_digest(copy)
        copy.insert_entry(998, "y")
        assert index.node_digest(0, copy) != first

    def test_empty_tree_gossips_clean(self):
        cluster = repair_cluster()
        cluster.run()  # no operations at all
        summary = cluster.repair_summary()
        assert summary["rounds_started"] > 0
        assert summary["rounds_diverged"] == 0
        assert cluster.check().ok

    def test_single_leaf_gossips_clean(self):
        cluster = repair_cluster()
        cluster.insert(1, "only")
        cluster.run()
        summary = cluster.repair_summary()
        assert summary["rounds_started"] > 0
        assert summary["rounds_diverged"] == 0
        assert cluster.check().ok


# ----------------------------------------------------------------------
# gossip rounds: dormancy, aborts, racing structure changes
# ----------------------------------------------------------------------
class TestGossipRounds:
    def test_scheduler_goes_dormant_so_runs_quiesce(self):
        cluster = repair_cluster()
        spaced_inserts(cluster, count=60)
        cluster.run()  # would raise QuiescenceError if gossip ping-ponged
        counters = cluster.engine.repair.counters
        assert counters.get("gossip_dormant", 0) > 0

    def test_every_peer_is_visited_within_n_minus_1_ticks(self, monkeypatch):
        # A tick contacts one peer, the next in the rotation, so n - 1
        # ticks of one processor open a round with every other one.
        cluster = repair_cluster(num_processors=5)
        cluster.insert(1, "a")
        cluster.run()
        scheduler = cluster.engine.repair.scheduler
        peers = []
        monkeypatch.setattr(
            scheduler, "begin_round", lambda _proc, peer: peers.append(peer)
        )
        proc = cluster.kernel.processors[2]
        for _tick in range(4):
            scheduler.on_tick(proc, GossipTick(2))
        assert sorted(peers) == [0, 1, 3, 4]

    def test_dormancy_waits_stop_after_clean_sweeps(self, monkeypatch):
        # A sweep is the n - 1 periods the rotation needs.
        scheduler = repair_cluster(repair_period=40.0).engine.repair.scheduler
        assert scheduler._quiet_window() == 2 * 3 * 40.0
        monkeypatch.setattr(gossip_module, "STOP_AFTER_CLEAN", 5)
        assert scheduler._quiet_window() == 5 * 3 * 40.0

    def test_round_with_crashed_peer_aborts_cleanly(self):
        cluster = repair_cluster(schedule=((2, 800.0, None),))
        spaced_inserts(cluster, count=60)
        service = cluster.engine.repair

        def force_round_to_dying_peer():
            # Put a round in flight to pid 2 just before it dies: the
            # offer is dead-lettered and no reply ever arrives.
            service.scheduler.begin_round(cluster.kernel.processors[0], 2)
            service.scheduler._send_riders(0)

        def leave_rider_for_dead_peer():
            # A rider aimed at the long-dead pid 2 never leaves: pid 0
            # suspects it by its next tick, as at partner choice.
            service.scheduler.begin_round(cluster.kernel.processors[0], 2)
            service.scheduler.wake_all()

        cluster.kernel.events.schedule(799.0, force_round_to_dying_peer)
        cluster.kernel.events.schedule(2000.0, leave_rider_for_dead_peer)
        cluster.run()
        counters = service.counters
        assert counters.get("rounds_aborted", 0) >= 1
        # The executor never saw the aborted round: every open round
        # was expired or closed, not dead-lettered into repairs.
        assert not service.scheduler._open
        assert not service.scheduler._riders
        assert cluster.check().ok

    def test_initiator_crash_aborts_its_open_rounds(self):
        cluster = repair_cluster()
        cluster.insert(1, "a")
        cluster.run()
        service = cluster.engine.repair
        scheduler = service.scheduler
        proc = cluster.kernel.processors[1]
        # One round in flight (its offer left alone, as at a tick) and
        # one offer still waiting for a carrier.
        scheduler.begin_round(proc, 0)
        scheduler._send_riders(1)
        scheduler.begin_round(proc, 2)
        assert scheduler._open and scheduler._riders
        aborted = service.counters.get("rounds_aborted", 0)
        scheduler.on_processor_crash(1)
        assert not scheduler._open
        assert not scheduler._riders
        # Only the round in flight had started; the rider never did.
        assert service.counters["rounds_aborted"] == aborted + 1

    def test_stale_digest_nodes_for_split_or_unknown_node(self):
        """A DigestNodes computed before a half-split (or for a node
        that no longer exists) must resolve without damage."""
        cluster = repair_cluster()
        spaced_inserts(cluster, count=60)
        service = cluster.engine.repair

        def deliver_stale_drilldown():
            bogus = 10_000  # never allocated
            buckets = tuple(range(digest_module.BUCKETS))
            proc = cluster.kernel.processors[0]
            service.execute_repairs(
                proc,
                DigestNodes(
                    src_pid=1,
                    round_id=999_999,
                    buckets=buckets,
                    entries=(
                        (bogus, "C", 123, 1, 500),
                        (bogus + 1, "M", 456, 0, 700),
                        (bogus + 2, "L", 789, 0, 900),
                    ),
                ),
            )

        cluster.kernel.events.schedule(900.0, deliver_stale_drilldown)
        cluster.run()
        report = cluster.check()
        assert report.ok, report.problems
        # The unknown-mirror probe asked pid 1 for a leaf it cannot
        # return; the guard counted it instead of fabricating state.
        assert service.counters.get("returns_unavailable", 0) >= 1

    def test_half_splits_racing_digest_exchanges(self):
        """Gossip on a period much shorter than the insert spacing so
        rounds interleave with live half-splits: digests computed
        before a split arrive after it, and the exchange must neither
        corrupt the tree nor manufacture phantom repairs."""
        cluster = repair_cluster(repair_period=25.0)
        spaced_inserts(cluster, count=120, spacing=10.0)
        cluster.run()
        service = cluster.engine.repair
        assert service.counters.get("rounds_started", 0) > 10
        report = cluster.check()
        assert report.ok, report.problems
        assert not check_digest_convergence(cluster.engine)

    def test_local_only_sweep_visits_node_ids_ascending(self, monkeypatch):
        """The sweep sends messages, so its order is schedule: it must
        not depend on the order the store was filled in."""
        cluster = repair_cluster()
        spaced_inserts(cluster, count=60)
        cluster.run()
        service = cluster.engine.repair
        proc = cluster.kernel.processors[0]
        store = cluster.engine.store(proc)
        refilled = list(reversed(store.items()))
        store.clear()
        store.update(refilled)
        service.kick()  # the store moved behind the hooks' back
        visited = []
        monkeypatch.setattr(
            service,
            "_repair_local_only",
            lambda _proc, _peer, node_id, _role: visited.append(node_id) or False,
        )
        service.execute_repairs(
            proc,
            DigestNodes(
                src_pid=1,
                round_id=999_999,
                buckets=tuple(range(digest_module.BUCKETS)),
                entries=(),
            ),
        )
        assert len(visited) > 2
        assert visited == sorted(visited)


# ----------------------------------------------------------------------
# the round's messages: offers ride, agreement is silent
# ----------------------------------------------------------------------
def quiet_mirrored():
    """A mirrored cluster after its inserts, every gossip timer dormant."""
    cluster = mirrored_cluster()
    spaced_inserts(cluster)
    cluster.run()
    return cluster


def wire(cluster, monkeypatch):
    """Every message the network sends from now on, as
    ``(time, src, dst, payload)``."""
    scheduler = cluster.engine.repair.scheduler
    send = scheduler._send
    sent = []

    def recording(src, dst, payload):
        sent.append((cluster.now, src, dst, payload))
        send(src, dst, payload)

    monkeypatch.setattr(scheduler, "_send", recording)
    return sent


def items(payload):
    return list(payload.items) if type(payload) is Bundle else [payload]


def a_full_mirror(cluster):
    """Some ``(holder processor, node_id, home)`` whose mirror holds
    more than one entry."""
    for proc in cluster.kernel.processors.values():
        for node_id, (home, snap) in (proc.state.get("mirror_store") or {}).items():
            if len(snap.keys) > 1:
                return proc, node_id, home
    raise AssertionError("no mirror with two entries")


def stale_mirror(cluster, holder, node_id):
    """Drop the last entry of ``holder``'s mirror of ``node_id`` and
    report the node touched."""
    mirrors = holder.state["mirror_store"]
    home, snap = mirrors[node_id]
    mirrors[node_id] = (
        home,
        snap._replace(keys=snap.keys[:-1], payloads=snap.payloads[:-1]),
    )
    cluster.engine.repair.touch(holder.pid, node_id)


class TestRidingOffers:
    def test_an_offer_rides_the_next_message_to_its_peer(self, monkeypatch):
        cluster = quiet_mirrored()
        service = cluster.engine.repair
        holder, node_id, home = a_full_mirror(cluster)
        sent = wire(cluster, monkeypatch)
        piggybacked = service.counters.get("offers_piggybacked", 0)
        service.scheduler.begin_round(holder, home)
        opened = sum(service.shared_entries(holder, home)[1]) & MASK
        # The pair's view moves after the round was opened ...
        stale_mirror(cluster, holder, node_id)
        at_ride = sum(service.shared_entries(holder, home)[1]) & MASK
        assert at_ride != opened
        # ... and the offer takes its sums when a carrier leaves.
        cluster.kernel.route(holder.pid, home, MirrorPull(holder.pid, node_id))
        [(_at, src, dst, payload)] = sent
        assert (src, dst) == (holder.pid, home)
        carrier, offer = items(payload)
        assert isinstance(carrier, MirrorPull)
        assert isinstance(offer, DigestOffer) and offer.top == at_ride
        assert service.counters["offers_piggybacked"] == piggybacked + 1
        cluster.run()
        assert cluster.check().ok
        assert not check_digest_convergence(cluster.engine)

    def test_without_a_carrier_it_leaves_alone_at_the_next_tick(self, monkeypatch):
        cluster = quiet_mirrored()
        scheduler = cluster.engine.repair.scheduler
        sent = wire(cluster, monkeypatch)
        opened = cluster.now
        scheduler.begin_round(cluster.kernel.processors[0], 1)
        scheduler.wake(0)
        cluster.run()
        at, payload = next(
            (at, payload)
            for at, src, dst, payload in sent
            if (src, dst) == (0, 1)
        )
        assert isinstance(payload, DigestOffer)  # alone: not in a bundle
        # the tick fires one period on, and its action takes 1 vt
        assert at - opened <= scheduler.plan.period + 1.0

    def test_without_a_carrier_it_leaves_alone_when_the_timer_goes_dormant(
        self, monkeypatch
    ):
        cluster = quiet_mirrored()
        service = cluster.engine.repair
        scheduler = service.scheduler
        proc = cluster.kernel.processors[0]
        sent = wire(cluster, monkeypatch)
        scheduler.begin_round(proc, 1)
        dormant = service.counters["gossip_dormant"]
        scheduler._active[0] = True
        scheduler._timer_fired(0, proc.incarnation)  # quiet for long
        assert service.counters["gossip_dormant"] == dormant + 1
        [(_at, src, dst, payload)] = sent
        assert (src, dst) == (0, 1) and isinstance(payload, DigestOffer)
        assert not scheduler._riders

    def test_an_initiator_crash_drops_its_rider(self):
        cluster = repair_cluster(schedule=((1, 1000.0, 1400.0),))
        spaced_inserts(cluster, count=60)
        service = cluster.engine.repair
        scheduler = service.scheduler
        seen = {}

        def leave_rider():
            scheduler.begin_round(cluster.kernel.processors[1], 0)
            seen["started"] = service.counters.get("rounds_started", 0)

        def after_crash():
            seen["riding"] = (1, 0) in scheduler._riders
            seen["started_since"] = (
                service.counters.get("rounds_started", 0) - seen["started"]
            )

        cluster.kernel.events.schedule(999.9, leave_rider)
        cluster.kernel.events.schedule(1000.1, after_crash)
        cluster.run()
        assert seen == {"started": seen["started"], "riding": False, "started_since": 0}
        assert cluster.check().ok

    def test_under_a_kind_restricted_fault_plan_nothing_rides(self):
        # Such a plan judges every logical message alone, so processors
        # hold nothing, and an offer in a bundle would escape its verdict.
        cluster = mirrored_cluster(
            fault_plan=FaultPlan(reorder_p=0.5, only_kinds=frozenset({"digest_offer"}))
        )
        spaced_inserts(cluster, count=60)
        cluster.run()
        summary = cluster.repair_summary()
        assert summary["rounds_started"] > 0
        assert summary["offers_piggybacked"] == 0
        assert "send" not in vars(cluster.kernel.network)
        assert cluster.check().ok

    def test_a_clean_round_is_one_message_and_none_back(self):
        cluster = quiet_mirrored()
        service = cluster.engine.repair
        stats = cluster.kernel.network.stats
        sent, kinds = stats.sent, dict(stats.by_kind)
        clean = service.counters["rounds_clean"]
        service.scheduler.begin_round(cluster.kernel.processors[0], 1)
        service.scheduler._send_riders(0)
        cluster.run()
        assert stats.sent == sent + 1
        moved = {
            kind: count - kinds.get(kind, 0)
            for kind, count in stats.by_kind.items()
            if count != kinds.get(kind, 0)
        }
        assert moved == {"digest_offer": 1}
        assert service.counters["rounds_clean"] == clean + 1
        assert not service.scheduler._open

    def test_a_mismatch_still_drills_down(self, monkeypatch):
        cluster = quiet_mirrored()
        service = cluster.engine.repair
        counters = service.counters
        holder, node_id, home = a_full_mirror(cluster)
        stale_mirror(cluster, holder, node_id)
        diverged = counters.get("rounds_diverged", 0)
        refreshes = counters.get("mirror_refreshes", 0)
        sent = wire(cluster, monkeypatch)
        # The holder waits for a carrier to the home too: a peer that
        # finds divergence leaves the pair to the drill-down under way.
        service.scheduler.begin_round(holder, home)
        service.scheduler.begin_round(cluster.kernel.processors[home], holder.pid)
        service.scheduler._send_riders(home)
        cluster.run()
        kinds = [
            type(item) for _at, _src, _dst, payload in sent for item in items(payload)
        ]
        assert DigestDetail in kinds and DigestNodes in kinds
        assert counters["rounds_diverged"] == diverged + 1
        assert counters["mirror_refreshes"] == refreshes + 1
        detail = next(
            payload
            for _at, _src, _dst, payload in sent
            if any(isinstance(item, DigestDetail) for item in items(payload))
        )
        assert not any(isinstance(item, DigestOffer) for item in items(detail))
        assert cluster.check().ok
        assert not check_digest_convergence(cluster.engine)

    def test_the_bucket_count_reaches_sums_detail_and_drill_down(self, monkeypatch):
        # One bucket: the detail carries one sum, and the drill-down
        # ships every row the pair shares.
        monkeypatch.setattr(digest_module, "BUCKETS", 1)
        cluster = quiet_mirrored()
        service = cluster.engine.repair
        holder, node_id, home = a_full_mirror(cluster)
        stale_mirror(cluster, holder, node_id)
        sent = wire(cluster, monkeypatch)
        shared = len(service.shared_entries(holder, home)[0])
        service.scheduler.begin_round(holder, home)
        service.scheduler._send_riders(holder.pid)
        cluster.run()
        sent_items = [item for *_route, payload in sent for item in items(payload)]
        [detail] = [item for item in sent_items if isinstance(item, DigestDetail)]
        [nodes] = [item for item in sent_items if isinstance(item, DigestNodes)]
        assert len(detail.buckets) == 1
        assert nodes.buckets == (0,) and len(nodes.entries) == shared
        assert cluster.check().ok
        assert not check_digest_convergence(cluster.engine)


# ----------------------------------------------------------------------
# repair executor: convergence after injected divergence
# ----------------------------------------------------------------------
class TestRepairConvergence:
    @pytest.mark.parametrize("placement", ["ring", "rendezvous"])
    def test_stale_mirrors_converge(self, placement):
        cluster = repair_cluster(
            schedule=((1, 900.0, 1700.0),), mirror_placement=placement
        )
        spaced_inserts(cluster)
        staled = []

        def inject():
            staled.append(stale_all_mirrors(cluster))
            cluster.engine.repair.kick()

        cluster.kernel.events.schedule(2400.0, inject)
        cluster.run()
        assert staled[0] > 0
        report = cluster.check()
        assert report.ok, report.problems
        assert not check_digest_convergence(cluster.engine)
        summary = cluster.repair_summary()
        assert summary["repairs_by_kind"]["mirror_refreshes"] > 0

    def test_without_repair_same_injection_is_detected_divergence(self):
        cluster = repair_cluster(
            schedule=((1, 900.0, 1700.0),), repair_period=None
        )
        spaced_inserts(cluster)
        staled = []
        cluster.kernel.events.schedule(
            2400.0, lambda: staled.append(stale_all_mirrors(cluster))
        )
        cluster.run()
        assert staled[0] > 0
        problems = check_digest_convergence(cluster.engine)
        assert problems
        assert any("stale" in p for p in problems)

    def test_tampered_interior_copy_is_healed(self):
        cluster = repair_cluster(schedule=((1, 5000.0, 5100.0),))
        spaced_inserts(cluster)
        tampered = []

        def tamper():
            for proc in cluster.kernel.processors.values():
                for copy in cluster.engine.store(proc).values():
                    if (
                        copy.retired
                        or copy.is_pc
                        or len(copy.copy_versions) < 2
                        or not copy.keys()
                    ):
                        continue
                    copy.delete_entry(copy.keys()[0])
                    tampered.append((proc.pid, copy.node_id))
                    cluster.engine.repair.kick()
                    return

        cluster.kernel.events.schedule(2400.0, tamper)
        cluster.run()
        assert tampered, "no replicated non-PC interior copy to tamper"
        assert not check_digest_convergence(cluster.engine)
        counters = cluster.engine.repair.counters
        assert (
            counters.get("copy_pulls", 0)
            + counters.get("rejoins", 0)
            + counters.get("rejoin_advises", 0)
        ) > 0


# ----------------------------------------------------------------------
# pair views: kept between rounds, held to the derivation
# ----------------------------------------------------------------------
def mirrored_cluster(replication_factor=2, **kwargs):
    """Repair on and every leaf mirrored, but nothing ever crashes."""
    return DBTreeCluster(
        num_processors=4,
        protocol="variable",
        capacity=4,
        seed=3,
        crash_plan=CrashPlan(),
        replication_factor=replication_factor,
        repair_period=150.0,
        **kwargs,
    )


def muted(service, fn):
    """``fn``, run with the repair layer's touch report switched off:
    what the code would be had that seam forgotten its hook."""

    def call(*args, **kwargs):
        service.touch = lambda pid, node_id: None
        try:
            return fn(*args, **kwargs)
        finally:
            del service.touch

    return call


def a_mirror(cluster):
    """Some ``(holder processor, node_id, home_pid)`` among the mirrors."""
    for proc in cluster.kernel.processors.values():
        for node_id, (home, _snap) in (proc.state.get("mirror_store") or {}).items():
            return proc, node_id, home
    raise AssertionError("no mirror anywhere")


def every_view(cluster):
    """Ask for every pair view; ``(pid, peer) -> view``."""
    service = cluster.engine.repair
    views = {}
    for proc in cluster.kernel.processors.values():
        for peer in cluster.kernel.pids:
            if peer != proc.pid:
                views[proc.pid, peer] = service.shared_entries(proc, peer)[0]
    return views


class TestPairViews:
    def test_a_round_re_derives_only_what_was_touched(self, monkeypatch):
        cluster = mirrored_cluster()
        spaced_inserts(cluster)
        cluster.run()
        service = cluster.engine.repair
        proc = cluster.kernel.processors[0]
        rows = []
        real_row = service._row
        monkeypatch.setattr(
            service, "_row", lambda *args: rows.append(args[2]) or real_row(*args)
        )
        derivations = []
        monkeypatch.setattr(service, "derive_entries", derivations.append)
        service.shared_entries(proc, 1)
        assert rows == []  # nothing touched since the last round
        cluster.insert_sync(4, "again", client=0)
        service.shared_entries(proc, 1)
        assert rows and len(set(rows)) < len(cluster.engine.store(proc))
        assert derivations == []

    def test_kick_forgets_what_moved_behind_the_hooks(self):
        cluster = mirrored_cluster()
        spaced_inserts(cluster)
        cluster.run()
        service = cluster.engine.repair
        holder, node_id, home = a_mirror(cluster)
        fresh = service.shared_entries(holder, home)[0][node_id]
        assert stale_all_mirrors(cluster) > 0
        # The injection bypassed every seam, so a kept view is now
        # wrong; kick() is the outside signal that says so.  (Without
        # the forgetting, the cross-check fails the next line.)
        service.kick()
        staled = service.shared_entries(holder, home)[0][node_id]
        _home, snap = holder.state["mirror_store"][node_id]
        assert staled == ("M", snapshot_digest(snap), snap.level, snap.low)
        assert staled != fresh

    def test_unkicked_injection_is_what_the_cross_check_catches(self):
        cluster = mirrored_cluster()
        spaced_inserts(cluster)
        cluster.run()
        service = cluster.engine.repair
        holder, _node_id, home = a_mirror(cluster)
        assert stale_all_mirrors(cluster) > 0
        with pytest.raises(AssertionError, match="drifted"):
            service.shared_entries(holder, home)

    def test_crash_drops_exactly_the_crashed_processors_views(self, monkeypatch):
        cluster = repair_cluster(schedule=((1, 900.0, 1700.0),))
        spaced_inserts(cluster)
        service = cluster.engine.repair
        derived = []
        real_derive = service.derive_entries

        def recording(proc, peer):
            derived.append((proc.pid, peer, cluster.now))
            return real_derive(proc, peer)

        monkeypatch.setattr(service, "derive_entries", recording)
        cluster.run()
        assert cluster.check().ok
        by_pair = {}
        for pid, peer, at in derived:
            by_pair.setdefault((pid, peer), []).append(at)
        # The survivors never derive a view twice: pid 1's crash cost
        # them nothing.
        for (pid, peer), times in by_pair.items():
            if pid != 1:
                assert len(times) == 1, (pid, peer, times)
        # pid 1 derives each of its views once before the crash and
        # once more after the restart: its first rounds back start
        # from the store, not from anything remembered.
        for peer in (0, 2, 3):
            times = by_pair[(1, peer)]
            assert len(times) == 2 and times[0] < 900.0 and times[1] >= 1700.0


class TestTouchSeams:
    """One test per place that reports a node touched: take the hook
    away and the cross-check fixture must catch the drift.  The same
    holds for the bucket sums kept beside each view."""

    def drifts(self, cluster):
        with pytest.raises(AssertionError, match="drifted"):
            cluster.run()

    def test_incorporate(self, monkeypatch):
        cluster = mirrored_cluster()
        engine, service = cluster.engine, cluster.engine.repair
        # Keyed updates still report through log_update; splits, joins
        # and link-changes have only incorporate.
        monkeypatch.setattr(engine, "incorporate", muted(service, engine.incorporate))
        spaced_inserts(cluster)
        self.drifts(cluster)

    def test_log_update(self, monkeypatch):
        # With histories off a keyed update does not pass incorporate.
        cluster = mirrored_cluster(trace_level="off")
        service = cluster.engine.repair
        monkeypatch.setattr(service, "log_update", muted(service, service.log_update))
        spaced_inserts(cluster)
        self.drifts(cluster)

    def test_install_copy(self, monkeypatch):
        cluster = mirrored_cluster()
        engine, service = cluster.engine, cluster.engine.repair
        monkeypatch.setattr(engine, "install_copy", muted(service, engine.install_copy))
        spaced_inserts(cluster)
        self.drifts(cluster)

    def test_remove_copy(self, monkeypatch):
        cluster = mirrored_cluster()
        spaced_inserts(cluster)
        cluster.run()
        engine, service = cluster.engine, cluster.engine.repair
        proc = cluster.kernel.processors[2]
        shared, _sums = service.shared_entries(proc, 0)
        node_id = next(nid for nid, row in shared.items() if row[0] == "C")
        monkeypatch.setattr(engine, "remove_copy", muted(service, engine.remove_copy))
        engine.crash_copy(proc.pid, node_id)
        with pytest.raises(AssertionError, match="drifted"):
            service.shared_entries(proc, 0)

    def test_mirror_update(self, monkeypatch):
        from repro.core.actions import MirrorUpdate

        cluster = mirrored_cluster()
        engine, service = cluster.engine, cluster.engine.repair
        monkeypatch.setitem(
            engine._handlers,
            MirrorUpdate,
            muted(service, engine.mirrors.on_mirror_update),
        )
        spaced_inserts(cluster)
        self.drifts(cluster)

    def test_mirror_rehome(self, monkeypatch):
        # Three copies of every leaf: the second mirror holder is not
        # the successor, so re-homing only takes its mirror away.
        cluster = mirrored_cluster(replication_factor=3)
        spaced_inserts(cluster)
        cluster.run()
        engine, service = cluster.engine, cluster.engine.repair
        mirrors = engine.mirrors
        holder, home = next(
            (proc, home)
            for proc in cluster.kernel.processors.values()
            for home, _snap in mirrors.held(proc).values()
            if mirrors.targets(home, -1)[1] == proc.pid
        )
        view, _sums = service.shared_entries(holder, home)
        assert any(row[0] == "M" for row in view.values())
        monkeypatch.setattr(mirrors, "rehome", muted(service, mirrors.rehome))
        mirrors.rehome(holder, home)
        with pytest.raises(AssertionError, match="drifted"):
            service.shared_entries(holder, home)

    def test_home_resolve(self, monkeypatch):
        from repro.repair.repair import HomeResolve

        cluster = mirrored_cluster()
        spaced_inserts(cluster)
        cluster.run()
        engine, service = cluster.engine, cluster.engine.repair
        proc = cluster.kernel.processors[0]
        target = engine.mirrors.targets(proc.pid, -1)[0]
        shared, _sums = service.shared_entries(proc, target)
        node_id = next(nid for nid, row in shared.items() if row[0] == "L")
        copy = engine.copy_at(proc, node_id)
        monkeypatch.setattr(
            service, "_on_home_resolve", muted(service, service._on_home_resolve)
        )
        # A losing claim from the mirror holder: we win, and the
        # winner rewrites the leaf's membership in place.
        service._on_home_resolve(
            proc,
            HomeResolve(
                src_pid=target,
                node_id=node_id,
                version=copy.version - 1,
                have=frozenset(),
            ),
        )
        with pytest.raises(AssertionError, match="drifted"):
            service.shared_entries(proc, target)

    def test_bucket_sum_update(self, monkeypatch):
        cluster = mirrored_cluster()
        spaced_inserts(cluster)
        cluster.run()
        every_view(cluster)
        # The first term a re-derived row adds to or takes from its
        # bucket sum goes missing; the view itself stays right.
        skipped = []

        def skip_one(node_id, role, digest):
            if not skipped:
                skipped.append(node_id)
                return 0
            return row_hash(node_id, role, digest)

        monkeypatch.setattr(repair_module, "row_hash", skip_one)
        with pytest.raises(AssertionError, match="bucket sums .* drifted"):
            cluster.insert_sync(4, "again", client=0)
            every_view(cluster)
        assert skipped


def unchecked(monkeypatch):
    """Measure the service's own ``shared_entries``, without the
    ``checked_views`` cross-check (which re-derives and re-sums every
    view it sees)."""
    monkeypatch.setattr(
        RepairService, "shared_entries", RepairService.shared_entries.__wrapped__
    )


def counted(monkeypatch, module, name):
    """Record the arguments of every call of ``module.name``."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def row_hashes(monkeypatch):
    """Every row hash, whether a kept view's update or a fresh sum."""
    calls = counted(monkeypatch, digest_module, "row_hash")
    monkeypatch.setattr(repair_module, "row_hash", digest_module.row_hash)
    return calls


class TestRoundCost:
    """A gossip round costs what changed, not what the views hold."""

    def test_a_quiet_round_hashes_nothing(self, monkeypatch):
        unchecked(monkeypatch)
        cluster = mirrored_cluster()
        spaced_inserts(cluster)
        cluster.run()
        scheduler = cluster.engine.repair.scheduler
        proc, peer = cluster.kernel.processors[0], cluster.kernel.processors[1]
        sent = []
        monkeypatch.setattr(
            cluster.kernel, "route", lambda _src, _dst, action: sent.append(action)
        )
        counters = cluster.engine.repair.counters

        def round_trip():
            sent.clear()
            scheduler.begin_round(proc, peer.pid)
            scheduler._send_riders(proc.pid)
            offer = sent[-1]
            scheduler.on_offer(peer, offer)
            return offer

        round_trip()  # takes in whatever was touched since the last round
        rows = row_hashes(monkeypatch)
        parts = counted(monkeypatch, digest_module, "hash_parts")
        clean = counters.get("rounds_clean", 0)
        offer = round_trip()
        assert sent == [offer]  # the peer agreed: nothing travels back
        assert counters["rounds_clean"] == clean + 1
        assert offer.count > 10
        assert rows == [] and parts == []

    def test_an_insert_costs_two_row_hashes_per_view_holding_its_leaf(
        self, monkeypatch
    ):
        unchecked(monkeypatch)
        cluster = mirrored_cluster()
        spaced_inserts(cluster)
        cluster.run()
        every_view(cluster)
        leaf, key = next(
            (copy, key)
            for copy in cluster.engine.all_copies()
            if LeafMirrors.mirrored(copy) and copy.num_entries < copy.capacity - 1
            for key in range(2003)
            if copy.range.contains(key) and key not in copy.keys()
        )
        rows = row_hashes(monkeypatch)
        assert cluster.insert_sync(key, "new", client=leaf.home_pid)
        views = every_view(cluster)
        holding = sum(leaf.node_id in view for view in views.values())
        assert holding >= 2  # the home's "L" row and the mirror's "M" row
        assert {args[0] for args in rows} == {leaf.node_id}
        assert len(rows) <= 2 * holding

    def test_orphan_sweep_asks_once_per_home(self, monkeypatch):
        # Three copies of every leaf, and some leaves moved off pid 0,
        # so a holder mirrors leaves of more than one home.
        cluster = DBTreeCluster(
            num_processors=4, protocol="mobile", capacity=4, seed=3,
            crash_plan=CrashPlan(), replication_factor=3, repair_period=150.0,
        )
        spaced_inserts(cluster)
        cluster.run()
        engine = cluster.engine
        leaves = [copy for copy in engine.all_copies() if LeafMirrors.mirrored(copy)]
        for index, copy in enumerate(leaves[:12]):
            cluster.migrate_node(copy.node_id, copy.home_pid, 1 + index % 3)
        cluster.run()
        holder = max(
            cluster.kernel.processors.values(),
            key=lambda proc: len(LeafMirrors.held(proc)),
        )
        homes = {home for home, _snap in LeafMirrors.held(holder).values()}
        assert len(LeafMirrors.held(holder)) > len(homes) > 1
        asked = []
        monkeypatch.setattr(
            engine, "peer_up", lambda _observer, pid: asked.append(pid) or True
        )
        engine.repair.sweep_orphans(holder)
        assert asked == sorted(homes)

    def test_ring_targets_are_computed_once_per_home(self, monkeypatch):
        placement = RingPlacement()
        asked = counted(monkeypatch, placement, "targets")
        cluster = mirrored_cluster(mirror_placement=placement)
        mirrors = cluster.engine.mirrors
        lookups = counted(monkeypatch, mirrors, "targets")
        spaced_inserts(cluster)
        cluster.run()
        homes = [args[0] for args in asked]
        assert homes and len(homes) == len(set(homes))
        assert len(lookups) > 10 * len(homes)
        pids = cluster.kernel.pids
        for copy in cluster.engine.all_copies():
            if LeafMirrors.mirrored(copy):
                assert mirrors.targets(copy.home_pid, copy.node_id) == (
                    RingPlacement().targets(copy.home_pid, copy.node_id, pids, 2)
                )

    def test_rendezvous_targets_still_differ_per_leaf(self):
        cluster = mirrored_cluster(mirror_placement="rendezvous")
        spaced_inserts(cluster)
        cluster.run()
        mirrors = cluster.engine.mirrors
        pids = cluster.kernel.pids
        by_home = {}
        for copy in cluster.engine.all_copies():
            if LeafMirrors.mirrored(copy):
                targets = mirrors.targets(copy.home_pid, copy.node_id)
                assert targets == RendezvousPlacement().targets(
                    copy.home_pid, copy.node_id, pids, 2
                )
                by_home.setdefault(copy.home_pid, set()).add(targets)
        assert any(len(seen) > 1 for seen in by_home.values())


class TestDigestIndexForgets:
    """A digest row lives exactly as long as its copy or mirror."""

    @staticmethod
    def hash_everything(cluster):
        index = cluster.engine.repair.index
        for proc in cluster.kernel.processors.values():
            for copy in cluster.engine.store(proc).values():
                index.node_digest(proc.pid, copy)
        return index

    def assert_rows_are_copies(self, cluster):
        index = cluster.engine.repair.index
        for proc in cluster.kernel.processors.values():
            rows = set(index._nodes.get(proc.pid, ()))
            assert rows <= set(cluster.engine.store(proc)), proc.pid
            mirror_rows = set(index._mirrors.get(proc.pid, ()))
            assert mirror_rows <= set(LeafMirrors.held(proc)), proc.pid

    def test_migrated_copies_leave_no_row(self):
        cluster = DBTreeCluster(
            num_processors=4, protocol="mobile", capacity=4, seed=5,
            repair_period=150.0,
        )
        for index in range(120):
            cluster.insert((index * 7) % 2003, index, client=index % 4)
        cluster.run()
        self.hash_everything(cluster)
        movers = [c for c in cluster.engine.all_copies() if c.is_leaf][:6]
        for copy in movers:
            cluster.migrate_node(copy.node_id, copy.home_pid, (copy.home_pid + 1) % 4)
        cluster.run()
        assert cluster.trace.counters["migrations"] == len(movers)
        self.assert_rows_are_copies(cluster)

    def test_collected_zombies_leave_no_row(self):
        cluster = DBTreeCluster(
            num_processors=4,
            protocol=VariableCopiesProtocol(free_at_empty=True),
            capacity=4,
            seed=7,
            repair_period=150.0,
        )
        keys = [(index * 7) % 2003 for index in range(200)]
        for index, key in enumerate(keys):
            cluster.insert(key, index, client=index % 4)
        cluster.run()
        for index, key in enumerate(k for k in keys if 500 <= k < 1800):
            cluster.delete(key, client=index % 4)
        cluster.run()
        self.hash_everything(cluster)
        assert cluster.engine.gc_retired(older_than=float("inf")) > 0
        self.assert_rows_are_copies(cluster)

    def test_adopted_mirrors_leave_no_row(self):
        # The home of the mirrored leaves crashes; their adopter turns
        # its mirrors into copies and must drop the mirror rows too.
        cluster = repair_cluster(schedule=((0, 400.0, 900.0),))
        spaced_inserts(cluster, count=300)
        assert cluster.run().ok
        assert cluster.trace.counters["leaves_rehomed"] > 0
        self.assert_rows_are_copies(cluster)


# ----------------------------------------------------------------------
# UnjoinAck: the pending-unjoin stash drains at quiescence
# ----------------------------------------------------------------------
class TestUnjoinAck:
    def test_unjoin_request_is_acked_and_drained(self):
        cluster = repair_cluster(
            schedule=((1, 9000.0, 9100.0),), repair_period=None
        )
        spaced_inserts(cluster, count=120)
        cluster.run()
        # Unjoin a non-PC interior copy: with a crash plan active the
        # leaver records a pending entry until the PC's UnjoinAck.
        leaver = None
        for proc in cluster.kernel.processors.values():
            if proc.pid == 0:
                continue
            for copy in cluster.engine.store(proc).values():
                if not copy.is_leaf and not copy.is_pc and not copy.retired:
                    cluster.engine.protocol.request_unjoin(proc, copy)
                    leaver = proc
                    break
            if leaver is not None:
                break
        assert leaver is not None
        assert leaver.state.get("pending_unjoins"), (
            "crash-enabled unjoin must record a pending entry until "
            "the ack arrives"
        )
        cluster.run()
        assert cluster.trace.counters.get("unjoins_requested", 0) > 0
        assert cluster.trace.counters.get("unjoin_acks", 0) > 0
        for proc in cluster.kernel.processors.values():
            assert not proc.state.get("pending_unjoins"), (
                f"pid {proc.pid} still holds un-acked unjoins at "
                "quiescence"
            )

    def test_crash_scenario_stash_drains(self):
        cluster = repair_cluster(schedule=((1, 400.0, 900.0), (2, 1500.0, 2300.0)))
        spaced_inserts(cluster, count=120)
        cluster.run()
        assert cluster.check().ok
        for proc in cluster.kernel.processors.values():
            assert not proc.state.get("pending_unjoins")


# ----------------------------------------------------------------------
# the adjacent-pid crash regression (why rendezvous placement exists)
# ----------------------------------------------------------------------
class TestAdjacentCrashRegression:
    # The home processor (pid 0, where every leaf lives) and its ring
    # successor (pid 1, where ring placement puts every mirror) crash
    # together: under ring placement each leaf loses its only copy and
    # its only mirror at once, and not even pid 0's restart can bring
    # them back.  Rendezvous placement spreads the same leaves' mirrors
    # over the whole membership, so the survivors re-home every leaf
    # and the restarted home converges to a fully clean audit.
    SCHEDULE = ((0, 2000.0, 3000.0), (1, 2000.0, None))
    SEED = 5
    PROCS = 8

    def build(self, placement):
        cluster = repair_cluster(
            schedule=self.SCHEDULE,
            seed=self.SEED,
            num_processors=self.PROCS,
            repair_period=100.0,
            mirror_placement=placement,
        )
        expected = spaced_inserts(cluster, count=16, spacing=10.0)
        return cluster, expected

    def test_ring_placement_loses_leaves(self):
        cluster, _expected = self.build("ring")
        cluster.run(max_events=2_000_000)
        report = cluster.check()
        losses = [p for p in report.problems if "destroyed by" in p]
        assert losses, (
            "expected the adjacent-pid crash to destroy ring-mirrored "
            f"leaves; problems: {report.problems}"
        )
        assert cluster.trace.counters.get("leaves_rehomed", 0) == 0

    def test_rendezvous_same_seed_audits_clean(self):
        cluster, expected = self.build("rendezvous")
        cluster.run(max_events=2_000_000)
        report = cluster.check(expected=expected)
        assert report.ok, report.problems
        assert cluster.trace.counters.get("leaves_rehomed", 0) > 0
        service = cluster.engine.repair
        assert service.counters.get("membership_sweeps", 0) > 0


# ----------------------------------------------------------------------
# fixed copy sets: a lost copy has no join path to heal through
# ----------------------------------------------------------------------
class TestDoubleHomeOnPush:
    """A mirror push that lands on a second live home of its leaf.

    The mirror target of a leaf also holds it as its own single-copy
    home (a re-home raced against a live home: a false suspicion, or a
    partition).  The home's next push there is not stored as a mirror;
    with repair on, the target answers with its ``HomeResolve`` claim
    and the two settle on the larger ``(version, pid)``.  Gossip sees
    the clash only as a missing mirror and has the home push again, so
    were the push dropped the rounds would re-push for ever.
    """

    BUDGET = 2_000

    @staticmethod
    def double_homed(repair_period):
        cluster = DBTreeCluster(
            num_processors=4,
            protocol="variable",
            capacity=4,
            seed=3,
            crash_plan=CrashPlan(),
            replication_factor=2,
            repair_period=repair_period,
        )
        expected = {}
        for index in range(40):
            expected[index * 7] = index
            cluster.insert(index * 7, index, client=index % 4)
        assert cluster.run().ok
        engine = cluster.engine
        mirrors = engine.mirrors
        home = cluster.kernel.processors[0]
        leaf = next(c for c in engine.store(home).values() if mirrors.mirrored(c))
        target = cluster.kernel.processors[mirrors.targets(0, leaf.node_id)[0]]
        # Plant the second home as a re-home installs it, unannounced.
        _home, snapshot = mirrors.held(target)[leaf.node_id]
        planted = NodeCopy.from_snapshot(snapshot)
        planted.reseat(target.pid)
        engine.install_copy(target, planted, snapshot.birth_set, "rehome")
        if engine.repair is not None:
            engine.repair.kick()  # so gossip rounds run over the double home
        first, claim = (leaf.version, home.pid), (planted.version, target.pid)
        assert homes(cluster, leaf.node_id) == [first, claim]
        # An insert into the leaf at its first home pushes to the target.
        key = next(
            k for k in range(1, 10**4) if leaf.range.contains(k) and k not in expected
        )
        cluster.insert(key, "pushed", client=0)
        expected[key] = "pushed"
        return cluster, leaf.node_id, first, claim, expected

    def test_the_next_push_settles_one_home(self):
        cluster, node_id, first, claim, expected = self.double_homed(150.0)
        assert claim > first
        assert cluster.run(max_events=self.BUDGET).ok
        # The target's claim wins and is bumped past the loser's.
        assert homes(cluster, node_id) == [(claim[0] + 1, claim[1])]
        settled = cluster.repair_summary()["home_resolution"]
        assert settled["home_resolves_won"] == settled["home_resolves_ceded"] == 1
        assert cluster.kernel.network.stats.by_kind["home_resolve"] == 2
        report = cluster.check(expected)
        assert report.ok, report.problems

    def test_without_repair_the_push_is_dropped(self):
        cluster, node_id, first, claim, _expected = self.double_homed(None)
        assert cluster.run(max_events=self.BUDGET).ok
        assert homes(cluster, node_id) == [first, claim]
        assert cluster.kernel.network.stats.by_kind["home_resolve"] == 0
        target = cluster.kernel.processors[claim[1]]
        assert node_id not in LeafMirrors.held(target)


def homes(cluster, node_id):
    """``(version, pid)`` of every live copy of ``node_id``."""
    return sorted(
        (copy.version, pid)
        for pid, proc in cluster.kernel.processors.items()
        for held_id, copy in proc.state["store"].items()
        if held_id == node_id and not copy.retired
    )


class TestFixedMembershipLivelock:
    # Under semisync and sync a copy set never changes, so a copy lost
    # to a crash (or to amnesia) is `unrepairable`.  Yet every round
    # the holder still advises the loser to re-join, the advice counts
    # as a repair, and the round marks gossip dirty: it never goes
    # dormant and the run never quiesces (a 300,000-event budget runs
    # out at vt 605,676 under semisync).  The budget is twenty times
    # the 1,005 events ``variable`` runs the crashed setup in, loss
    # healed.  Strict: a fix makes these pass and must remove the marks.
    BUDGET = 20_000

    def crashed(self, protocol):
        cluster = DBTreeCluster(
            num_processors=4,
            protocol=protocol,
            capacity=4,
            seed=1,
            repair_period=100,
            crash_plan=CrashPlan(schedule=((1, 50.0, 400.0),)),
            op_timeout=300,
        )
        for index in range(60):
            cluster.schedule(5.0 * index, "insert", index, index, client=index % 4)
        return cluster

    def amnesiac(self, protocol):
        cluster = DBTreeCluster(
            num_processors=4, protocol=protocol, capacity=4, seed=1, repair_period=100
        )
        for index in range(60):
            cluster.insert(index, index, client=index % 4)
        assert cluster.run().ok
        engine = cluster.engine
        node = next(c for c in engine.all_copies() if c.level == 1 and c.is_pc)
        victim = next(p for p in node.copy_pids if p != node.pc_pid)
        engine.crash_copy(victim, node.node_id)
        engine.repair.kick()
        return cluster

    @pytest.mark.parametrize("setup", ["crashed", "amnesiac"])
    def test_variable_heals_the_loss_and_quiesces(self, setup):
        cluster = getattr(self, setup)("variable")
        assert cluster.run(max_events=self.BUDGET).ok
        assert cluster.check().ok

    @pytest.mark.xfail(
        strict=True,
        raises=QuiescenceError,
        reason="advice to re-join a fixed copy set keeps gossip awake",
    )
    @pytest.mark.parametrize("protocol", ["semisync", "sync"])
    @pytest.mark.parametrize("setup", ["crashed", "amnesiac"])
    def test_fixed_copy_sets_quiesce(self, setup, protocol):
        cluster = getattr(self, setup)(protocol)
        cluster.run(max_events=self.BUDGET)
