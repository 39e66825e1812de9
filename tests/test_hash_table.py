"""The lazy distributed hash table, end to end."""

import copy

import pytest

from repro.hash import LazyHashTable
from repro.sim.failure import FaultPlan


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


class TestDuplicatingSubstrate:
    """A substrate that duplicates messages (assumed reliability) can
    land an op's return twice; the home keeps the first."""

    def test_duplicated_returns_complete_each_op_once(self):
        table = LazyHashTable(
            num_processors=4, seed=1, fault_plan=FaultPlan(duplicate_p=0.3)
        )
        for key in range(60):
            table.insert(key, key, client=key % 4)
        results = table.run()
        assert results.completed == {key + 1: True for key in range(60)}
        assert not results.incomplete
        assert table.trace.counters["duplicate_return_ignored"] > 0
        report = table.check(expected={key: key for key in range(60)})
        assert report.ok, "\n".join(report.problems[:10])
        for key in (0, 17, 59):
            assert table.search_sync(key, client=key % 4) == key


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


class TestPlantedViolations:
    """A checker that can't fail is worthless: each test plants one
    violation into a healthy table and asserts the audit reports it."""

    def healthy(self):
        table = LazyHashTable(num_processors=4, capacity=4, seed=3)
        expected = load(table, count=120)
        assert table.check(expected=expected).ok
        return table, expected

    def test_key_outside_its_bucket(self):
        table, _expected = self.healthy()
        source, target = [b for b in table.engine.all_buckets() if b.entries][:2]
        key = next(iter(source.entries))
        target.entries[key] = source.entries.pop(key)
        problems = table.check().problems
        assert any(
            f"bucket {target.bucket_id}" in p and repr(key) in p
            for p in problems
        ), problems

    def test_overfull_bucket(self):
        table, _expected = self.healthy()
        bucket = max(table.engine.all_buckets(), key=lambda b: len(b.entries))
        bucket.capacity = len(bucket.entries) - 1
        problems = table.check().problems
        assert any(
            f"bucket {bucket.bucket_id}" in p and "overfull" in p
            for p in problems
        ), problems

    def test_replica_missing_a_directory_fact(self):
        table, _expected = self.healthy()
        proc = table.kernel.processor(table.kernel.pids[1])
        facts = list(proc.state["directory"].facts())
        replica = type(proc.state["directory"])()
        for fact in facts[:-1]:
            replica.learn(*fact)
        proc.state["directory"] = replica
        problems = table.check().problems
        assert any(
            p.startswith("[directory-convergence]") and "diverge" in p
            for p in problems
        ), problems

    def test_expected_key_whose_bucket_is_gone(self):
        table, expected = self.healthy()
        proc, bucket_id = next(
            (proc, bucket_id)
            for proc in table.kernel.processors.values()
            for bucket_id, bucket in proc.state["buckets"].items()
            if bucket.entries
        )
        key = next(iter(proc.state["buckets"].pop(bucket_id).entries))
        problems = table.check(expected=expected).problems
        assert any(
            "unresolvable" in p and repr(key) in p for p in problems
        ), problems

    def test_bucket_stored_twice(self):
        table, expected = self.healthy()
        bucket = table.engine.all_buckets()[0]
        other = next(p for p in table.kernel.pids if p != bucket.home_pid)
        clone = copy.deepcopy(bucket)
        clone.home_pid = other
        table.kernel.processor(other).state["buckets"][bucket.bucket_id] = clone
        low, high = sorted((bucket.home_pid, other))
        want = f"bucket {bucket.bucket_id} stored on pids {low} and {high}"
        for report in (table.check(), table.check(expected=expected)):
            assert any(want in p for p in report.problems), report.problems

    def test_audit_builds_its_bucket_index_once(self, monkeypatch):
        table, expected = self.healthy()
        calls = []
        all_buckets = table.engine.all_buckets
        monkeypatch.setattr(
            table.engine, "all_buckets", lambda: calls.append(1) or all_buckets()
        )

        def audit_calls(keys):
            calls.clear()
            table.check(expected={key: expected[key] for key in keys})
            return len(calls)

        keys = list(expected)
        assert audit_calls(keys[:10]) == audit_calls(keys)
