"""The lazy distributed burst trie."""

import pytest

from repro.trie import LazyTrie
from repro.trie.node import TERMINAL, Container, Interior
from repro.workloads import string_keys


def load_words(trie, words):
    expected = {}
    for index, word in enumerate(words):
        expected[word] = index
        trie.insert(word, index, client=index % len(trie.kernel.pids))
    trie.run()
    return expected


class TestNodes:
    def test_container_basics(self):
        c = Container(node_id=1, prefix="ca", capacity=2, home_pid=0)
        assert c.insert("cat", 1)
        assert not c.insert("cat", 2)
        assert c.lookup("cat") == 2
        assert c.delete("cat") and not c.delete("cat")
        with pytest.raises(ValueError):
            c.insert("dog", 1)  # outside prefix

    def test_container_capacity_validated(self):
        with pytest.raises(ValueError):
            Container(node_id=1, prefix="", capacity=0, home_pid=0)

    def test_partition_for_burst(self):
        c = Container(node_id=1, prefix="ca", capacity=2, home_pid=0)
        for key in ("ca", "cat", "cart", "cab"):
            c.entries[key] = key
        groups = c.partition_for_burst()
        assert groups[TERMINAL] == {"ca": "ca"}
        assert set(groups["t"]) == {"cat"}
        assert set(groups["r"]) == {"cart"}
        assert set(groups["b"]) == {"cab"}

    def test_interior_routing(self):
        node = Interior(
            node_id=1, prefix="ca", pc_pid=0, copy_pids=(0,), home_pid=0
        )
        node.add_edge("t", 10)
        node.add_edge(TERMINAL, 11)
        assert node.child_for("cat") == 10
        assert node.child_for("ca") == 11
        assert node.child_for("cab") is None
        with pytest.raises(ValueError):
            node.label_for("dog")

    def test_edge_conflict_detected(self):
        node = Interior(
            node_id=1, prefix="", pc_pid=0, copy_pids=(0,), home_pid=0
        )
        node.add_edge("a", 10)
        assert not node.add_edge("a", 10)  # duplicate, fine
        with pytest.raises(ValueError):
            node.add_edge("a", 99)


class TestTrieEndToEnd:
    def test_empty_string_key(self):
        trie = LazyTrie(num_processors=2, capacity=4, seed=1)
        assert trie.insert_sync("", "root-value")
        assert trie.search_sync("") == "root-value"

    def test_prefix_chains(self):
        trie = LazyTrie(num_processors=4, capacity=2, seed=2)
        words = ["a", "ab", "abc", "abcd", "abcde", "abcdef"]
        expected = load_words(trie, words)
        for word, value in expected.items():
            assert trie.search_sync(word) == value
        report = trie.check(expected=expected)
        assert report.ok, "\n".join(report.problems[:5])

    def test_non_string_key_rejected(self):
        trie = LazyTrie(seed=1)
        with pytest.raises(TypeError):
            trie.insert(42, "x")

    def test_unknown_kind_rejected(self):
        trie = LazyTrie(seed=1)
        with pytest.raises(ValueError):
            trie.engine.submit_operation("upsert", "k")

    def test_concurrent_burst_audit_clean(self):
        trie = LazyTrie(num_processors=4, capacity=4, seed=3)
        words = string_keys(400, seed=7, length=6)
        expected = load_words(trie, words)
        report = trie.check(expected=expected)
        assert report.ok, "\n".join(report.problems[:5])
        assert trie.trace.counters.get("trie_bursts", 0) > 10

    def test_bursts_spread_containers(self):
        trie = LazyTrie(num_processors=8, capacity=4, seed=3)
        load_words(trie, string_keys(400, seed=7, length=6))
        holders = {
            n.home_pid
            for n in trie.engine.all_nodes()
            if isinstance(n, Container)
        }
        assert holders == set(range(8))

    def test_stale_root_replicas_corrected(self):
        trie = LazyTrie(num_processors=4, capacity=4, seed=5)
        words = string_keys(200, seed=9, length=5)
        load_words(trie, words)
        counters = trie.trace.counters
        # Replicas missed edges during the burst, forwarded to the
        # PC, and were taught the edges.
        assert counters.get("trie_forwarded_to_pc", 0) > 0
        assert counters.get("trie_corrections_sent", 0) > 0
        # At quiescence all root replicas agree (lazy convergence).
        report = trie.check()
        assert report.ok

    def test_reads_after_corrections_go_direct(self):
        trie = LazyTrie(num_processors=4, capacity=4, seed=5)
        words = string_keys(200, seed=9, length=5)
        expected = load_words(trie, words)
        before = trie.trace.counters.get("trie_forwarded_to_pc", 0)
        for word in words[:50]:
            assert trie.search_sync(word, client=2) == expected[word]
        after = trie.trace.counters.get("trie_forwarded_to_pc", 0)
        assert after == before  # all edges known everywhere by now

    def test_deterministic(self):
        def run():
            trie = LazyTrie(num_processors=4, capacity=4, seed=11)
            load_words(trie, string_keys(150, seed=2, length=5))
            return (
                trie.kernel.network.stats.sent,
                trie.trace.counters.get("trie_bursts"),
                sorted(
                    (n.node_id, n.prefix, len(n.entries))
                    for n in trie.engine.all_nodes()
                    if isinstance(n, Container)
                ),
            )

        assert run() == run()

    def test_shared_long_prefixes(self):
        # Worst case: every key shares a long prefix; bursts recurse.
        trie = LazyTrie(num_processors=4, capacity=3, seed=4)
        words = [f"prefix/{i:03d}" for i in range(60)]
        expected = load_words(trie, words)
        report = trie.check(expected=expected)
        assert report.ok, "\n".join(report.problems[:5])
        assert trie.search_sync("prefix/042") == 42


class TestPlantedViolations:
    """A checker that can't fail is worthless: each test plants one
    violation into a healthy trie and asserts the audit reports it."""

    def healthy(self):
        trie = LazyTrie(num_processors=4, capacity=4, seed=3)
        expected = load_words(trie, string_keys(150, seed=7, length=5))
        assert trie.check(expected=expected).ok
        return trie, expected

    @staticmethod
    def containers(trie):
        return [n for n in trie.engine.all_nodes() if isinstance(n, Container)]

    @staticmethod
    def root_replicas(trie):
        return [
            n for n in trie.engine.all_nodes()
            if n.node_id == trie.engine.ROOT_ID
        ]

    def test_key_outside_its_container(self):
        trie, expected = self.healthy()
        containers = self.containers(trie)
        target = next(c for c in containers if c.prefix)
        key = next(k for k in expected if not k.startswith(target.prefix))
        source = next(c for c in containers if key in c.entries)
        target.entries[key] = source.entries.pop(key)
        problems = trie.check().problems
        assert any(
            f"container {target.node_id}" in p and repr(key) in p
            and "outside" in p
            for p in problems
        ), problems

    def test_overfull_container(self):
        trie, _expected = self.healthy()
        container = max(self.containers(trie), key=lambda c: len(c.entries))
        container.capacity = len(container.entries) - 1
        problems = trie.check().problems
        assert any(
            f"container {container.node_id}" in p and "overfull" in p
            for p in problems
        ), problems

    def test_root_replica_with_an_extra_edge(self):
        trie, _expected = self.healthy()
        replica = next(r for r in self.root_replicas(trie) if not r.is_pc)
        replica.edges["~"] = 10**6
        problems = trie.check().problems
        assert any(
            f"interior {replica.node_id}" in p and "diverge" in p
            for p in problems
        ), problems

    def test_expected_key_behind_a_missing_edge(self):
        trie, expected = self.healthy()
        key = next(iter(expected))
        for root in self.root_replicas(trie):
            del root.edges[root.label_for(key)]
        problems = trie.check(expected=expected).problems
        assert any(
            "unresolvable" in p and repr(key) in p for p in problems
        ), problems

    def test_audit_builds_its_node_index_once(self, monkeypatch):
        trie, expected = self.healthy()
        calls = []
        all_nodes = trie.engine.all_nodes
        monkeypatch.setattr(
            trie.engine, "all_nodes", lambda: calls.append(1) or all_nodes()
        )

        def audit_calls(keys):
            calls.clear()
            trie.check(expected={key: expected[key] for key in keys})
            return len(calls)

        keys = list(expected)
        assert audit_calls(keys[:10]) == audit_calls(keys)
