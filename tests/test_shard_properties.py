"""Property-based tests for the shard directory and sharded cluster.

Mirrors the style of ``tests/test_hash_properties.py``: pure
structural properties of the directory first (cheap, many cases),
then seeded whole-forest properties driving real sharded clusters
(fewer, heavier cases): router/directory agreement, no-gap/no-overlap
partitioning, and cross-shard ``scan_sync`` equal to a sorted
reference model.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tests.helpers import assert_clean, run_insert_workload
from repro import NEG_INF, POS_INF, DBTreeCluster, ShardedCluster
from repro.core.actions import CreateCopy, MigrateNode
from repro.core.dbtree.engine import BULK_FILL
from repro.sim.simulator import Kernel
from repro.shard import ShardDirectory
from repro.verify.checker import check_all, leaf_contents
from repro.verify.invariants import representative_nodes
from repro.shard.verify import (
    check_partition_soundness,
    check_routability,
    check_shard_coverage,
    check_version_convergence,
)


def apply_random_reconfigs(directory, keys, decisions):
    """Drive splits/merges from a hypothesis-chosen decision stream."""
    keys = sorted(keys)
    for choice, index in decisions:
        live = directory.live_shards()
        if choice == "split":
            shard = live[index % len(live)]
            inside = [
                k for k in keys
                if shard.range.contains(k) and k != shard.range.low
            ]
            if inside:
                directory.split(shard.shard_id, inside[len(inside) // 2])
        elif len(live) > 1:
            left = live[index % (len(live) - 1)]
            right = live[(index % (len(live) - 1)) + 1]
            directory.merge(left.shard_id, right.shard_id)


class TestDirectoryProperties:
    @given(
        keys=st.sets(st.integers(0, 10**6), min_size=2, max_size=50),
        decisions=st.lists(
            st.tuples(st.sampled_from(["split", "merge"]), st.integers(0, 10**3)),
            max_size=12,
        ),
    )
    def test_reconfigs_preserve_partition(self, keys, decisions):
        directory = ShardDirectory()
        apply_random_reconfigs(directory, keys, decisions)
        live = directory.live_shards()
        assert live[0].range.low is NEG_INF
        assert live[-1].range.high is POS_INF
        for left, right in zip(live, live[1:]):
            assert left.range.high == right.range.low

    @given(
        keys=st.sets(st.integers(0, 10**6), min_size=2, max_size=50),
        decisions=st.lists(
            st.tuples(st.sampled_from(["split", "merge"]), st.integers(0, 10**3)),
            max_size=12,
        ),
        probes=st.lists(st.integers(-10, 10**6 + 10), min_size=1, max_size=20),
    )
    def test_stale_views_always_recover(self, keys, decisions, probes):
        """A view of *any* historical version routes every probe to
        the covering shard via shed hints and forward pointers."""
        directory = ShardDirectory()
        snapshots = [directory.view()]
        for step in range(len(decisions)):
            apply_random_reconfigs(directory, keys, decisions[step : step + 1])
            snapshots.append(directory.view())
        for view in snapshots:
            for probe in probes:
                shard_id = view.route(probe)
                hops = 0
                while True:
                    info = directory.info(shard_id)
                    if info.retired:
                        target = info.shed_target(probe)
                        shard_id = (
                            target if target is not None else info.forward_to
                        )
                    elif not info.range.contains(probe):
                        shard_id = info.shed_target(probe)
                        assert shard_id is not None, (
                            f"no shed hint for {probe} at {info}"
                        )
                    else:
                        break
                    hops += 1
                    assert hops <= len(decisions) + 1
                assert directory.covering(probe) == shard_id

    @given(
        boundaries=st.lists(
            st.integers(1, 10**6), min_size=1, max_size=8, unique=True
        )
    )
    def test_initial_boundaries_tile_key_space(self, boundaries):
        directory = ShardDirectory(tuple(sorted(boundaries)))
        live = directory.live_shards()
        assert len(live) == len(boundaries) + 1
        view = directory.view()
        for boundary in boundaries:
            assert directory.covering(boundary) == view.route(boundary)
            assert directory.covering(boundary - 1) == view.route(boundary - 1)


class TestShardedClusterProperties:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10**6),
        split_threshold=st.integers(10, 40),
        extra=st.integers(0, 30),
    )
    def test_router_directory_agreement(self, seed, split_threshold, extra):
        """After load-driven splits, every key routes (from every
        client's possibly-stale view) to the shard that covers it,
        the partition has no gap or overlap, and the audit is clean.
        """
        # A shard splits only once it stores more keys than the
        # threshold, so the load is drawn from the threshold: the
        # ``shard_splits >= 1`` precondition is generated, not hoped for.
        count = split_threshold * 2 + extra
        forest = ShardedCluster(
            num_processors=4,
            protocol="semisync",
            capacity=4,
            seed=seed,
            shard_split_threshold=split_threshold,
            shard_merge_threshold=split_threshold // 3 or None,
        )
        expected = run_insert_workload(
            forest, count=count, key_fn=lambda i: (i * 13) % 4001,
            spread_clients=True,
        )
        assert forest.counters["shard_splits"] >= 1
        assert check_partition_soundness(forest) == []
        assert check_routability(forest) == []
        assert check_version_convergence(forest) == []
        for key in expected:
            covering = forest.directory.covering(key)
            for pid in forest.pids:
                assert forest._locate(pid, key) == covering
        assert_clean(forest, expected)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10**6),
        keys=st.sets(st.integers(0, 5000), min_size=20, max_size=80),
        bounds=st.tuples(st.integers(0, 5000), st.integers(0, 5000)),
        boundaries=st.sampled_from([(), (1700, 3400)]),
    )
    def test_cross_shard_scan_matches_model(
        self, seed, keys, bounds, boundaries
    ):
        """``scan_sync`` over the forest equals a sorted dict model,
        from one shard that splits under load or from three."""
        low, high = min(bounds), max(bounds)
        forest = ShardedCluster(
            num_processors=4,
            protocol="semisync",
            capacity=4,
            seed=seed,
            shards=len(boundaries) + 1,
            initial_boundaries=boundaries,
            shard_split_threshold=20,
        )
        model = {key: f"v{key}" for key in keys}
        assert forest.load(model).ok
        reference = tuple(
            (key, model[key]) for key in sorted(model) if low <= key < high
        )
        assert forest.scan_sync(low, high) == reference
        limit = max(1, len(reference) // 2)
        assert forest.scan_sync(low, high, limit=limit) == reference[:limit]
        assert check_shard_coverage(forest) == []

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(0, 10**6))
    def test_merge_drain_then_convergence(self, seed):
        """Deleting most keys merges shards away; views converge after
        spread traffic and the retired shards hold nothing."""
        forest = ShardedCluster(
            num_processors=4,
            protocol="semisync",
            capacity=4,
            seed=seed,
            shard_split_threshold=16,
            shard_merge_threshold=6,
        )
        expected = run_insert_workload(
            forest, count=60, key_fn=lambda i: i * 17, spread_clients=True
        )
        assert forest.num_shards > 1
        for index, key in enumerate(sorted(expected)[8:]):
            forest.delete(key, client=forest.pids[index % 4])
            del expected[key]
        assert forest.run().ok
        assert forest.counters["shard_merges"] >= 1
        # Spread searches repair every client's stale view.
        for index, key in enumerate(sorted(expected)):
            forest.search(key, client=forest.pids[index % 4])
        assert forest.run().ok
        forest.sync_directories()
        versions = {view.version for view in forest.views.values()}
        assert versions == {forest.directory.version}
        assert check_shard_coverage(forest) == []
        assert_clean(forest, expected)


class TestPlantedViolations:
    """A checker that can't fail is worthless: each test plants one
    violation into a healthy forest and asserts the coverage audit
    reports it."""

    @staticmethod
    def healthy():
        forest = ShardedCluster(
            num_processors=2,
            protocol="semisync",
            capacity=4,
            seed=5,
            shards=3,
            initial_boundaries=(300, 600),
        )
        run_insert_workload(forest, count=90, key_fn=lambda i: i * 10)
        assert check_shard_coverage(forest) == []
        return forest

    @staticmethod
    def plant(forest, shard_id, key):
        """Store ``key`` in one shard's tree, bypassing the router."""
        tree = forest.clusters[shard_id]
        tree.insert(key, "planted")
        assert tree.run().ok

    def test_gap_between_live_shards(self):
        forest = self.healthy()
        shard = forest.directory.info(0)
        shard.range = shard.range.shrink_high(250)
        problems = check_shard_coverage(forest)
        assert any("gap" in p and "shard 0" in p for p in problems), problems

    def test_key_left_in_a_retired_shard(self):
        forest = self.healthy()
        forest._merge_shards(1, 2)
        self.plant(forest, 2, 705)
        problems = check_shard_coverage(forest)
        assert any(
            "retired" in p and "shard 2" in p and "705" in p for p in problems
        ), problems

    def test_key_outside_its_live_shard(self):
        forest = self.healthy()
        key = next(
            k for k in range(10**4, 10**5)
            if forest.directory.covering(k) != 0
        )
        self.plant(forest, 0, key)
        problems = check_shard_coverage(forest)
        assert any(
            "shard 0" in p and repr(key) in p and "outside" in p
            for p in problems
        ), problems

    def test_shed_fact_pointing_at_the_wrong_shard(self):
        forest = self.healthy()
        assert forest._split_shard(0)
        shard = forest.directory.info(0)
        ((separator, _target),) = shard.shed
        shard.shed = [(separator, 2)]
        problems = check_shard_coverage(forest)
        assert any(
            p.startswith(f"point {separator!r} from view of client")
            for p in problems
        ), problems

    def test_router_and_audit_share_one_dead_end(self):
        """A retired shard without a forward pointer is a corrupt
        directory: the router says so, and the routability audit
        reports the router's own error."""
        forest = self.healthy()
        forest.directory.merge(1, 2)
        forest.directory.info(2).forward_to = None
        key = next(
            k for k in range(10**4, 10**5)
            if forest.views[0].route(k) == 2
        )
        self.plant(forest, 1, key)
        with pytest.raises(RuntimeError) as dead_end:
            forest._locate(0, key)
        problems = check_routability(forest)
        assert any(str(dead_end.value) in p for p in problems), problems



class TestShardLoad:
    """The balancer's load is the shard's stored entries, counted
    from the leaves' entry counts (repair on or off) once per
    ``_maintain`` and again only where a migration moved keys."""

    @pytest.fixture
    def splits(self, monkeypatch):
        """Assert, at every quiescent point the balancer sees -- each
        ``_maintain`` and each migration's end -- that every live
        shard's count equals its stored entries.  Yields each split's
        migration as ``(moved, before, after)``: the source's and the
        new shard's counts around it."""
        migrate = ShardedCluster._migrate
        maintain = ShardedCluster._maintain
        seen = []

        def assert_loads(forest, kept=False):
            for shard in forest.directory.live_shards():
                sid = shard.shard_id
                stored = len(leaf_contents(forest.clusters[sid].engine))
                assert forest.entry_count(sid) == stored
                if kept:
                    assert forest._load(sid) == stored

        def checked_maintain(self):
            assert_loads(self)
            maintain(self)
            assert_loads(self)

        def checked_migrate(self, source_id, target_id, items):
            before = (self._load(source_id), self._load(target_id))
            migrate(self, source_id, target_id, items)
            assert_loads(self, kept=True)
            live = {shard.shard_id for shard in self.directory.live_shards()}
            if source_id in live:  # a merge's source is already retired
                after = (self._load(source_id), self._load(target_id))
                seen.append((len(items), before, after))

        monkeypatch.setattr(ShardedCluster, "_maintain", checked_maintain)
        monkeypatch.setattr(ShardedCluster, "_migrate", checked_migrate)
        return seen

    @pytest.mark.parametrize("repair_period", [None, 50.0])
    def test_counts_match_contents_through_splits_and_merges(
        self, splits, repair_period
    ):
        forest = ShardedCluster(
            num_processors=4,
            protocol="variable",
            capacity=4,
            seed=13,
            shard_split_threshold=16,
            shard_merge_threshold=6,
            repair_period=repair_period,
        )
        expected = run_insert_workload(
            forest, count=60, key_fn=lambda i: i * 17, spread_clients=True
        )
        for index, key in enumerate(sorted(expected)[8:]):
            forest.delete(key, client=forest.pids[index % 4])
            del expected[key]
        assert forest.run().ok
        assert forest.counters["shard_merges"] >= 1
        assert len(splits) == forest.counters["shard_splits"] >= 1
        for moved, (before, fresh), (after, landed) in splits:
            # The source's count falls by exactly the keys moved: the
            # count taken before the migration was not reused.
            assert fresh == 0
            assert after == before - moved and landed == moved
        assert_clean(forest, expected)


class TestMigrationHolder:
    """A migration moves whole leaves: each new leaf of the target tree
    is shipped as one ``CreateCopy`` from the processor holding its
    first key's source leaf -- the primary copy where leaves are
    replicated -- and neither tree gets a per-key op."""

    @pytest.fixture
    def migrations(self, monkeypatch):
        """Record each shipped leaf as ``(sender, holder)`` -- the
        holder of its first key's source leaf -- the ops each
        ``_migrate`` adds to either tree's trace, and the items every
        ``_maintain`` puts on the wire, by kind."""
        migrate = ShardedCluster._migrate
        maintain = ShardedCluster._maintain
        route = Kernel.route
        shipped, ops = [], []
        wire = Counter()
        holders = {}

        def items_on_wire(forest):
            total = Counter()
            for tree in forest.clusters.values():
                total.update(tree.kernel.network.stats.by_kind)
            return total

        def recorded_route(self, src_pid, dst_pid, action):
            # (only while a migration runs: data balancing also migrates)
            if holders and type(action) is CreateCopy and action.snapshot.level == 0:
                shipped.append((src_pid, holders[action.snapshot.keys[0]]))
            route(self, src_pid, dst_pid, action)

        def recorded_migrate(self, source_id, target_id, items):
            holders.update(
                (key, copy.home_pid)
                for copy in representative_nodes(
                    self.clusters[source_id].engine
                ).values()
                if copy.is_leaf
                for key, _ in copy.iter_entries()
            )
            trees = (self.clusters[source_id], self.clusters[target_id])
            marks = [len(tree.trace.operations) for tree in trees]
            migrate(self, source_id, target_id, items)
            holders.clear()
            for tree, mark in zip(trees, marks):
                ops.extend(list(tree.trace.operations.values())[mark:])

        def recorded_maintain(self):
            before = items_on_wire(self)
            maintain(self)
            wire.update(items_on_wire(self) - before)

        monkeypatch.setattr(Kernel, "route", recorded_route)
        monkeypatch.setattr(ShardedCluster, "_migrate", recorded_migrate)
        monkeypatch.setattr(ShardedCluster, "_maintain", recorded_maintain)
        return shipped, ops, wire

    @staticmethod
    def spread_leaves(forest):
        """Move every shard's leaves round-robin over the processors
        (the variable protocol's data balancing), so the holders
        differ from key to key."""
        for tree in forest.clusters.values():
            leaves = [c for c in tree.engine.all_copies() if c.is_leaf]
            for index, leaf in enumerate(leaves):
                to_pid = forest.pids[index % len(forest.pids)]
                if to_pid != leaf.home_pid:
                    tree.kernel.processor(leaf.home_pid).submit(
                        MigrateNode(node_id=leaf.node_id, to_pid=to_pid)
                    )
            assert tree.run().ok

    @pytest.mark.parametrize(
        "protocol, spread",
        [("variable", False), ("semisync", False), ("variable", True)],
    )
    def test_split_and_merge_ship_each_leaf_from_its_holder(
        self, migrations, protocol, spread
    ):
        shipped, ops, wire = migrations
        forest = ShardedCluster(
            num_processors=4,
            protocol=protocol,
            capacity=4,
            seed=3,
            shard_split_threshold=30,
            shard_merge_threshold=10,
        )
        expected = run_insert_workload(forest, count=25, key_fn=lambda i: i * 11)
        if spread:
            self.spread_leaves(forest)
        # Keys between the first ones land in the leaves spread above.
        for index in range(15):
            forest.insert(index * 11 + 5, index, client=forest.pids[index % 4])
            expected[index * 11 + 5] = index
        assert forest.run().ok
        assert forest.counters["shard_splits"] == 1
        if spread:
            self.spread_leaves(forest)
        # Every fourth key survives, in both shards, so the merge moves some.
        for index, key in enumerate(sorted(expected)):
            if index % 4:
                forest.delete(key, client=forest.pids[index % 4])
                del expected[key]
        assert forest.run().ok
        assert forest.counters["shard_merges"] == 1
        assert forest.counters["keys_migrated"] > 20

        assert ops == [], ops[:5]
        assert shipped, "no leaf was shipped"
        strays = [pair for pair in shipped if pair[0] != pair[1]]
        assert strays == [], strays[:5]
        # The split spreads its new leaves over the processors, so the
        # merge ships them back from more than one holder either way.
        senders = {sender for sender, _holder in shipped}
        assert len(senders) > 1, senders
        # No migrated key navigates, or answers, across the network.
        assert wire["search"] == 0 and wire["return"] == 0, wire
        assert_clean(forest, expected)


    @pytest.mark.parametrize("protocol", ["variable", "mobile", "semisync"])
    def test_a_split_places_its_new_leaves_in_one_run_per_processor(
        self, migrations, protocol
    ):
        """Leaf ``i`` of a split's ``n`` new leaves is created on
        processor ``i * P // n``: in key order they form one run per
        live processor, each leaf shipped from the source holder of its
        first key.  A single-copy leaf moves whole; a replicated one
        moves its primary and keeps a copy on every processor."""
        shipped, ops, _wire = migrations
        forest = ShardedCluster(
            num_processors=4,
            protocol=protocol,
            capacity=4,
            seed=3,
            shard_split_threshold=60,
        )
        expected = run_insert_workload(forest, count=60, key_fn=lambda i: i * 11)
        assert forest.counters["shard_splits"] == 1
        tree = forest.clusters[forest.directory.live_shards()[-1].shard_id]
        leaves = sorted(
            (c for c in representative_nodes(tree.engine).values() if c.is_leaf),
            key=lambda leaf: leaf.range.low,
        )
        # The first leaf is the new tree's own, filled where it lives.
        placed = leaves[1:]
        homes = [leaf.pc_pid for leaf in placed]
        assert homes == [forest.pids[i * 4 // len(placed)] for i in range(len(placed))]
        runs = [pid for i, pid in enumerate(homes) if i == 0 or pid != homes[i - 1]]
        assert runs == forest.pids, homes
        copies = [leaf.copy_pids for leaf in placed]
        if protocol == "semisync":
            assert copies == [tuple(forest.pids)] * len(placed)
        else:
            assert copies == [(pid,) for pid in homes]
        assert len(shipped) == sum(len(pids) for pids in copies)
        assert [pair for pair in shipped if pair[0] != pair[1]] == []
        assert ops == [], ops[:5]
        assert_clean(forest, expected)


def holdings(tree):
    """A tree's ``(key, value, holder)`` entries in key order, as
    ``ShardedCluster._holdings`` collects a shard's."""
    return sorted(
        (key, value, copy.home_pid)
        for copy in representative_nodes(tree.engine).values()
        if copy.is_leaf
        for key, value in copy.iter_entries()
    )


def assert_cut(tree, low):
    """No copy in the tree starts at or above ``low``, and each level
    ends at a node that runs to ``+inf`` with no right link."""
    copies = tree.engine.all_copies()
    assert [c.node_id for c in copies if c.range.low >= low] == []
    last = {}
    for copy in copies:
        if copy.level not in last or last[copy.level].range.low < copy.range.low:
            last[copy.level] = copy
    for copy in last.values():
        assert copy.range.high is POS_INF and copy.right_id is None


def nodes_per_level(tree):
    return Counter(node.level for node in representative_nodes(tree.engine).values())


class TestBulkInstall:
    """A shard split's bulk install, and the merge that brings the keys
    back, build trees that audit clean on every protocol -- routability
    and replication metadata included -- and hold what a one-key-at-a-
    time load of the same items holds.  The split cuts the source's
    right spine, so the merge back installs fresh leaves after the
    source's last one and leaves the target one node per level."""

    @staticmethod
    def audited(tree, expected):
        report = check_all(tree.engine, expected)
        assert report.ok, "\n".join(report.problems[:20])
        assert {"routability", "replication-metadata"} <= set(report.checks_run)
        # Right links alone keep a node reachable, so the audit passes
        # a node its parent never learned of; an install names each one.
        nodes = representative_nodes(tree.engine)
        named = {
            child for node in nodes.values() if not node.is_leaf
            for _key, child in node.iter_entries()
        }
        top = max(node.level for node in nodes.values())
        assert {
            node_id for node_id, node in nodes.items() if node.level < top
        } <= named

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        protocol=st.sampled_from(["variable", "semisync", "sync", "mobile"]),
        keys=st.sets(st.integers(0, 10**4), min_size=2, max_size=150),
        cut=st.integers(0, 10**6),
        capacity=st.sampled_from([2, 4, 8]),
        seed=st.integers(0, 10**6),
    )
    # The cut ends the source's first leaf at +inf again, over keys it
    # re-homed by half-splits: the audit must excuse the inserts of
    # those keys that some of its copies never applied.
    @example(protocol="semisync", keys=set(range(6)), cut=0, capacity=2, seed=0)
    def test_split_then_merge_back_matches_a_per_key_load(
        self, protocol, keys, cut, capacity, seed
    ):
        def tree(offset):
            return DBTreeCluster(
                num_processors=4, protocol=protocol, capacity=capacity,
                seed=seed + offset,
            )

        everything = {key: f"v{key}" for key in keys}
        source = tree(0)
        assert source.load(everything).ok
        ordered = sorted(keys)
        split = ordered[cut % len(ordered)]
        moved = {key: value for key, value in everything.items() if key >= split}
        kept = {key: value for key, value in everything.items() if key < split}
        reference = tree(1)
        assert reference.load(moved).ok

        # The split: a fresh tree takes the upper keys, the source drops them.
        target = tree(2)
        target.engine.install_leaves(
            [item for item in holdings(source) if item[0] >= split]
        )
        source.engine.cut(split)
        assert source.run().ok and target.run().ok
        assert leaf_contents(target.engine) == leaf_contents(reference.engine)
        self.audited(target, moved)
        self.audited(source, kept)
        assert_cut(source, split)
        assert target.trace.operations == {}

        # The merge back: new leaves follow the source's last one.
        source.engine.install_leaves(holdings(target))
        target.engine.cut(split)
        assert source.run().ok and target.run().ok
        self.audited(source, everything)
        self.audited(target, {})
        per_node = max(2, int(capacity * BULK_FILL))
        holding_moved = [
            leaf for leaf in representative_nodes(source.engine).values()
            if leaf.is_leaf and leaf.entries_between(split, POS_INF)
        ]
        assert len(holding_moved) <= -(-len(moved) // per_node) + 1
        assert set(nodes_per_level(target).values()) == {1}

    def test_a_cut_leaves_no_stale_leaf_hint(self):
        """A cut purges the hints its processors held at or above the
        cut key, so after a split and a merge back every search under
        semisync (a copy of every node on every processor) is answered
        where it starts, with no recovery from a hint to a gone leaf."""

        def tree(seed):
            return DBTreeCluster(
                num_processors=4, protocol="semisync", capacity=4, seed=seed,
                leaf_cache=True,
            )

        everything = {key: f"v{key}" for key in range(0, 600, 3)}
        source, target = tree(0), tree(1)
        assert source.load(everything).ok
        # Every processor learns a hint for every leaf.
        for key in everything:
            for pid in source.pids:
                source.search(key, client=pid)
        assert source.run().ok
        split = 300
        target.engine.install_leaves(
            [item for item in holdings(source) if item[0] >= split]
        )
        source.engine.cut(split)
        assert source.run().ok and target.run().ok
        source.engine.install_leaves(holdings(target))
        target.engine.cut(split)
        assert source.run().ok and target.run().ok

        counters = source.trace.counters
        sent = source.kernel.network.stats.sent
        recoveries = counters.get("missing_node_recovery", 0)
        for key in everything:
            for pid in source.pids:
                source.search(key, client=pid)
        assert source.run().ok
        assert source.kernel.network.stats.sent - sent == 0
        assert counters.get("missing_node_recovery", 0) - recoveries == 0
        self.audited(source, everything)


class TestForestCut:
    """A forest that splits and then merges back leaves every retired
    shard's tree one node per level, and no live shard's tree holds a
    node wholly above its directory range."""

    def test_split_then_merge_leaves_retired_trees_one_node_per_level(self):
        forest = ShardedCluster(
            num_processors=4,
            protocol="variable",
            capacity=4,
            seed=5,
            shard_split_threshold=24,
            shard_merge_threshold=8,
        )
        expected = run_insert_workload(forest, count=80, key_fn=lambda i: i * 7)
        assert forest.counters["shard_splits"] >= 2
        for index, key in enumerate(sorted(expected)):
            if index % 10:
                forest.delete(key, client=forest.pids[index % 4])
                del expected[key]
        assert forest.run().ok
        assert forest.counters["shard_merges"] >= 2
        retired = [
            info for info in forest.directory.shards.values() if info.retired
        ]
        assert retired
        for info in retired:
            tree = forest.clusters[info.shard_id]
            assert set(nodes_per_level(tree).values()) == {1}
            assert leaf_contents(tree.engine) == {}
        for info in forest.directory.live_shards():
            tree = forest.clusters[info.shard_id]
            if info.range.high is not POS_INF:
                assert_cut(tree, info.range.high)
        assert_clean(forest, expected)


def chain_reference(forest, model, low, high, limit):
    """What a forest scan should return, and how many parts it should
    issue: one per live shard in key order, from the one holding
    ``low`` until ``high`` is reached or the limit is met."""
    rows, parts = [], 0
    for shard in forest.directory.live_shards():
        span = shard.range
        if not (low < high and low < span.high and span.low < high):
            continue
        if limit is not None and len(rows) >= limit:
            break
        parts += 1
        rows += [
            (key, model[key])
            for key in sorted(model)
            if low <= key < high and span.contains(key)
        ]
    return tuple(rows[:limit]), parts


def edge_limit(forest, model, low, high):
    """A limit that runs out exactly at the high end of the first shard
    span of ``[low, high)`` holding a key (None if none does)."""
    for shard in forest.directory.live_shards():
        span = shard.range
        if low < high and low < span.high and span.low < high:
            held = [key for key in model if low <= key < high and key < span.high]
            if held:
                return len(held)
    return None


def assert_chains(forest, model, scans):
    """Submit ``scans`` -- ``(low, high, limit)``, a limit of "edge"
    meaning :func:`edge_limit` -- in one run: each returns the sorted
    model's rows, issues exactly the parts its chain needs (and
    ``scan_fanout`` counts them), and each part after the first is
    submitted, relative to its shard's clock at the start of the run,
    no earlier than the part before it completed relative to its own."""
    starts = {sid: tree.now for sid, tree in forest.clusters.items()}
    fanout = forest.counters["scan_fanout"]
    chains = []
    for index, (low, high, limit) in enumerate(scans):
        if limit == "edge":
            limit = edge_limit(forest, model, low, high)
        op = forest.scan(low, high, limit, client=forest.pids[index % 4])
        parts = forest._pending[op][0]
        chains.append((op, parts, chain_reference(forest, model, low, high, limit)))
    results = forest.run()
    assert results.ok
    for op, parts, (rows, count) in chains:
        assert results.completed[op] == rows
        assert len(parts) == count
        records = [
            (sid, forest.clusters[sid].trace.operations[part]) for sid, part in parts
        ]
        for (i, left), (j, right) in zip(records, records[1:]):
            assert right.submitted_at - starts[j] >= left.completed_at - starts[i]
    assert forest.counters["scan_fanout"] - fanout == sum(
        len(parts) for _, parts, _ in chains
    )


class TestForestScanChain:
    """A forest scan is one chain of per-shard parts in key order that
    stops at its limit (the forest's B-link walk along the leaf chain)."""

    BOUNDARIES = (1000, 2000, 3000, 4000)

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10**6),
        keys=st.sets(st.integers(0, 4999), min_size=10, max_size=80),
        empty=st.sets(st.integers(0, 4), max_size=3),
        reshape=st.booleans(),
        scans=st.lists(
            st.tuples(
                st.integers(0, 5000),
                st.integers(0, 5000),
                st.sampled_from([None, "edge", 1, 3, 10, 40]),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @example(
        seed=0, keys=set(range(0, 5000, 50)), empty={1, 2}, reshape=False,
        scans=[(500, 4500, None), (500, 4500, "edge"), (1500, 3500, 5)],
    )
    def test_chain_matches_sorted_model(self, seed, keys, empty, reshape, scans):
        """Scans with no limit, with limits met mid-shard or exactly at
        a shard boundary, starting in or passing through empty shards,
        over the initial shards or (``reshape``) over a forest that
        split and merged under load."""
        model = {key: f"v{key}" for key in keys if key // 1000 not in empty}
        threshold = max(4, len(model) // 5) if reshape else None
        forest = ShardedCluster(
            num_processors=4,
            protocol="semisync",
            capacity=4,
            seed=seed,
            shards=len(self.BOUNDARIES) + 1,
            initial_boundaries=self.BOUNDARIES,
            shard_split_threshold=threshold,
            shard_merge_threshold=threshold and threshold // 2,
        )
        assert forest.load(model).ok
        assert_chains(forest, model, scans)
        assert check_shard_coverage(forest) == []

    def test_chain_after_splits_and_merges_follows_key_order(self):
        """Shard ids out of key order: the chain follows the directory's
        key order, not the ids."""
        forest = ShardedCluster(
            num_processors=4,
            protocol="semisync",
            capacity=4,
            seed=1,
            shard_split_threshold=12,
            shard_merge_threshold=4,
        )
        model = run_insert_workload(forest, count=60, key_fn=lambda i: i * 17)
        for index, key in enumerate(sorted(model)[20:40]):
            forest.delete(key, client=forest.pids[index % 4])
            del model[key]
        assert forest.run().ok
        assert forest.counters["shard_merges"] >= 1
        ids = [shard.shard_id for shard in forest.directory.live_shards()]
        assert ids != sorted(ids)
        assert_chains(
            forest,
            model,
            [(0, 2000, None), (0, 2000, 25), (0, 2000, "edge"), (200, 900, 3)],
        )
