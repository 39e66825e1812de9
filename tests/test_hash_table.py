"""The lazy distributed hash table, end to end."""

import pytest

from repro.hash import LazyHashTable


def load(table, count=300, prefix="key"):
    expected = {}
    for index in range(count):
        key = f"{prefix}-{index}"
        expected[key] = index
        table.insert(key, index, client=index % len(table.kernel.pids))
    table.run()
    return expected


class TestBasics:
    def test_mode_validated(self):
        with pytest.raises(ValueError):
            LazyHashTable(mode="eventually-maybe")

    def test_unknown_op_rejected(self):
        table = LazyHashTable(seed=1)
        with pytest.raises(ValueError):
            table.engine.submit_operation("upsert", "k")

    def test_burst_correct(self):
        table = LazyHashTable(num_processors=4, capacity=4, seed=3)
        expected = load(table)
        report = table.check(expected=expected)
        assert report.ok, "\n".join(report.problems[:10])
        assert table.trace.counters.get("hash_splits", 0) > 20

    def test_searches_from_every_client(self):
        table = LazyHashTable(num_processors=4, capacity=4, seed=3)
        expected = load(table, count=100)
        for pid in table.kernel.pids:
            assert table.search_sync("key-42", client=pid) == 42

    def test_deterministic(self):
        def run():
            table = LazyHashTable(num_processors=4, capacity=4, seed=9)
            load(table, count=200)
            return (
                table.kernel.network.stats.sent,
                table.trace.counters.get("hash_splits"),
                sorted(
                    (b.bucket_id, b.prefix, b.local_depth, len(b.entries))
                    for b in table.engine.all_buckets()
                ),
            )

        assert run() == run()


class TestModes:
    @pytest.mark.parametrize("mode", ["lazy", "correction", "sync"])
    def test_all_modes_correct(self, mode):
        table = LazyHashTable(num_processors=4, capacity=4, mode=mode, seed=5)
        expected = load(table)
        report = table.check(expected=expected)
        assert report.ok, "\n".join(report.problems[:10])

    def test_lazy_never_blocks(self):
        table = LazyHashTable(num_processors=4, capacity=4, mode="lazy", seed=5)
        load(table)
        assert table.trace.counters.get("hash_ops_blocked", 0) == 0

    def test_sync_blocks_and_costs_more(self):
        lazy = LazyHashTable(num_processors=4, capacity=4, mode="lazy", seed=5)
        load(lazy)
        sync = LazyHashTable(num_processors=4, capacity=4, mode="sync", seed=5)
        load(sync)
        assert sync.trace.counters.get("hash_ops_blocked", 0) > 0
        assert sync.kernel.network.stats.sent > lazy.kernel.network.stats.sent

    def test_correction_mode_repairs_stale_replicas(self):
        table = LazyHashTable(num_processors=4, capacity=4, mode="correction", seed=7)
        expected = load(table)
        # Misroutes happened and were repaired.
        assert table.trace.counters.get("hash_forwarded", 0) > 0
        assert table.trace.counters.get("hash_corrections_sent", 0) > 0
        # After a paced search sweep, replicas have learned enough
        # that repeat searches mostly go straight to the bucket.
        before = table.trace.counters.get("hash_forwarded", 0)
        for key in list(expected)[:50]:
            table.search_sync(key, client=1)
        first_pass = table.trace.counters.get("hash_forwarded", 0) - before
        mid = table.trace.counters.get("hash_forwarded", 0)
        for key in list(expected)[:50]:
            table.search_sync(key, client=1)
        second_pass = table.trace.counters.get("hash_forwarded", 0) - mid
        assert second_pass <= first_pass

    def test_directories_converge_in_lazy_mode(self):
        table = LazyHashTable(num_processors=4, capacity=4, mode="lazy", seed=5)
        load(table)
        fingerprints = {
            table.kernel.processor(pid).state["directory"].fingerprint()
            for pid in table.kernel.pids
        }
        assert len(fingerprints) == 1


class TestDistribution:
    def test_buckets_spread_across_processors(self):
        table = LazyHashTable(num_processors=8, capacity=4, seed=3)
        load(table, count=400)
        holders = {b.home_pid for b in table.engine.all_buckets()}
        assert holders == set(range(8))

    def test_value_overwrite(self):
        table = LazyHashTable(num_processors=2, capacity=4, seed=1)
        table.insert_sync("k", "old")
        table.insert_sync("k", "new")
        assert table.search_sync("k") == "new"

    def test_integer_and_tuple_keys(self):
        table = LazyHashTable(num_processors=2, capacity=4, seed=1)
        table.insert_sync(42, "int")
        table.insert_sync((1, "a"), "tuple")
        assert table.search_sync(42) == "int"
        assert table.search_sync((1, "a")) == "tuple"
