"""Property-based tests (hypothesis) on core structures and invariants."""

import bisect
import copy
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DBTreeCluster
from repro.core.actions import Mode
from repro.core.history import (
    HAction,
    History,
    SimpleNode,
    SimpleNodeSemantics,
    commutes,
    compatible,
)
from repro.core.keys import NEG_INF, POS_INF, KeyRange
from repro.core.node import NodeCopy

SEM = SimpleNodeSemantics()

keys_st = st.integers(min_value=-1000, max_value=1000)
bounds_st = st.one_of(st.just(NEG_INF), keys_st, st.just(POS_INF))


def key_lt(a, b):
    """``a < b`` in the extended key order, computed apart from the
    sentinels' own operators: the order the library used to compute
    with this helper, and the reference its native ``<`` is held to."""
    a_ext = a is NEG_INF or a is POS_INF
    b_ext = b is NEG_INF or b is POS_INF
    if a_ext and b_ext:
        return a is NEG_INF and b is POS_INF
    if a_ext:
        return a is NEG_INF
    if b_ext:
        return b is POS_INF
    return a < b


def key_le(a, b):
    """``a <= b`` in the extended key order (reference, as above)."""
    return not key_lt(b, a)


def _bounds(ordinary):
    return st.one_of(st.just(NEG_INF), ordinary, st.just(POS_INF))


#: Two bounds of one key type (ints, strings or tuples), either of
#: which may be a sentinel.
same_type_pairs_st = st.one_of(
    *(
        st.tuples(_bounds(ordinary), _bounds(ordinary))
        for ordinary in (
            keys_st,
            st.text(max_size=4),
            st.tuples(keys_st, st.text(max_size=2)),
        )
    )
)


class TestKeyOrderProperties:
    @given(a=bounds_st, b=bounds_st)
    def test_trichotomy(self, a, b):
        relations = [a < b, b < a, a == b]
        assert sum(bool(r) for r in relations) == 1

    @given(a=bounds_st, b=bounds_st, c=bounds_st)
    def test_transitivity(self, a, b, c):
        if a < b and b < c:
            assert a < c

    @given(a=bounds_st, b=bounds_st)
    def test_le_is_negation_of_reverse_lt(self, a, b):
        assert (a <= b) == (not b < a)

    @given(pair=same_type_pairs_st)
    def test_native_order_is_the_reference_order(self, pair):
        for a, b in (pair, pair[::-1]):
            assert (a < b) == key_lt(a, b)
            assert (a <= b) == key_le(a, b)
            assert (a > b) == key_lt(b, a)
            assert (a >= b) == key_le(b, a)

    @given(keys=st.lists(keys_st, unique=True, max_size=30))
    def test_insort_into_interior_keys(self, keys):
        # An interior node's first separator is NEG_INF; every later
        # separator is bisected in behind it.
        separators = [NEG_INF]
        for key in keys:
            bisect.insort(separators, key)
        assert separators[0] is NEG_INF
        assert separators[1:] == sorted(keys)


class TestKeyRangeProperties:
    @given(pair=same_type_pairs_st, key=st.one_of(keys_st, st.text(max_size=4)))
    def test_constructs_exactly_the_ordered_bounds(self, pair, key):
        low, high = pair
        if key_lt(high, low):
            with pytest.raises(ValueError):
                KeyRange(low, high)
            return
        r = KeyRange(low, high)
        assert r.low is low and r.high is high
        if type(key) is type(low) or type(key) is type(high):
            assert r.contains(key) == (key_le(low, key) and key_lt(key, high))

    @given(pair=same_type_pairs_st)
    def test_is_an_immutable_value_of_its_own_type(self, pair):
        low, high = pair if key_le(*pair) else pair[::-1]
        r = KeyRange(low, high)
        with pytest.raises(AttributeError):
            r.low = high
        for clone in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r)):
            assert clone == r and hash(clone) == hash(r)
            assert type(clone) is KeyRange
            assert (clone.low is NEG_INF) == (low is NEG_INF)
            assert (clone.high is POS_INF) == (high is POS_INF)
        assert r != (low, high) and (low, high) != r
        assert not r == (low, high)
        assert len({r, (low, high)}) == 2

    @given(low=bounds_st, high=bounds_st, key=keys_st)
    def test_split_partitions_membership(self, low, high, key):
        if not low < high:
            return
        r = KeyRange(low, high)
        # Pick a separator strictly inside when possible.
        if not low < key < high:
            return
        lower, upper = r.split_at(key)
        for probe in range(-1000, 1001, 97):
            assert r.contains(probe) == (
                lower.contains(probe) or upper.contains(probe)
            )
            assert not (lower.contains(probe) and upper.contains(probe))


class TestNodeVsDictModel:
    @given(
        operations=st.lists(
            st.tuples(st.sampled_from(["insert", "delete"]), keys_st),
            max_size=60,
        )
    )
    def test_node_matches_dict(self, operations):
        node = NodeCopy(
            node_id=1,
            level=0,
            key_range=KeyRange.full(),
            pc_pid=0,
            copy_versions={0: 0},
            capacity=10**9,
        )
        model = {}
        for kind, key in operations:
            if kind == "insert":
                node.insert_entry(key, key * 2)
                model[key] = key * 2
            else:
                node.delete_entry(key)
                model.pop(key, None)
        assert dict(node.entries()) == model
        assert list(node.keys()) == sorted(model)

    @given(
        keys=st.sets(keys_st, min_size=2, max_size=40),
    )
    def test_split_conserves_entries(self, keys):
        node = NodeCopy(
            node_id=1,
            level=0,
            key_range=KeyRange.full(),
            pc_pid=0,
            copy_versions={0: 0},
            capacity=10**9,
        )
        for key in keys:
            node.insert_entry(key, key)
        separator = node.choose_separator()
        moved = node.apply_half_split(separator, sibling_id=2)
        kept = set(node.keys())
        gone = {k for k, _v in moved}
        assert kept | gone == keys
        assert not kept & gone
        assert all(k < separator for k in kept)
        assert all(separator <= k for k in gone)


class TestHistoryAlgebra:
    actions_st = st.lists(
        st.builds(
            HAction,
            name=st.just("insert"),
            param=keys_st,
            mode=st.sampled_from([Mode.INITIAL, Mode.RELAYED]),
            action_id=st.integers(min_value=1, max_value=50),
        ),
        max_size=20,
    )

    @given(actions=actions_st)
    def test_insert_histories_are_permutation_compatible(self, actions):
        start = SimpleNode(NEG_INF, POS_INF, frozenset())
        h1 = History.of(start, actions)
        h2 = History.of(start, list(reversed(actions)))
        # All inserts on a full-range node commute: any permutation
        # is compatible (same final value, same uniform updates).
        assert compatible(h1, h2, SEM)

    @given(
        key_a=keys_st,
        key_b=keys_st,
        mode_a=st.sampled_from([Mode.INITIAL, Mode.RELAYED]),
        mode_b=st.sampled_from([Mode.INITIAL, Mode.RELAYED]),
    )
    def test_insert_commutativity_is_universal(self, key_a, key_b, mode_a, mode_b):
        start = SimpleNode(NEG_INF, POS_INF, frozenset())
        a = HAction("insert", key_a, mode_a, 1)
        b = HAction("insert", key_b, mode_b, 2)
        assert commutes(start, a, b, SEM)

    @given(
        keys=st.sets(keys_st, min_size=1, max_size=10),
        separator=keys_st,
    )
    def test_relayed_split_commutes_with_relayed_inserts(self, keys, separator):
        start = SimpleNode(NEG_INF, POS_INF, frozenset(keys))
        split = HAction("half_split", (separator, 9), Mode.RELAYED, 99)
        for index, key in enumerate(sorted(keys)):
            insert = HAction("insert", key + 1, Mode.RELAYED, 100 + index)
            assert commutes(start, split, insert, SEM)


class TestEndToEndProperties:
    """Random concurrent workloads must always pass the full audit."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        protocol=st.sampled_from(["semisync", "sync", "variable", "mobile"]),
        key_seed=st.integers(min_value=0, max_value=10**6),
        count=st.integers(min_value=20, max_value=120),
        capacity=st.sampled_from([4, 6, 8]),
    )
    def test_random_insert_bursts_are_audit_clean(
        self, seed, protocol, key_seed, count, capacity
    ):
        import random

        cluster = DBTreeCluster(
            num_processors=4, protocol=protocol, capacity=capacity, seed=seed
        )
        rng = random.Random(key_seed)
        keys = rng.sample(range(100_000), count)
        expected = {}
        for index, key in enumerate(keys):
            expected[key] = index
            cluster.insert(key, index, client=index % 4)
        cluster.run()
        report = cluster.check(expected=expected)
        assert report.ok, "\n".join(report.problems[:10])

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        band=st.tuples(
            st.integers(min_value=0, max_value=50_000),
            st.integers(min_value=100, max_value=40_000),
        ),
    )
    def test_free_at_empty_random_band_deletions_audit_clean(self, seed, band):
        import random

        from repro.protocols.variable import VariableCopiesProtocol

        cluster = DBTreeCluster(
            num_processors=4,
            protocol=VariableCopiesProtocol(free_at_empty=True),
            capacity=4,
            seed=seed,
        )
        rng = random.Random(seed + 5)
        keys = rng.sample(range(100_000), 120)
        expected = {}
        for index, key in enumerate(keys):
            expected[key] = index
            cluster.insert(key, index, client=index % 4)
        cluster.run()
        low, span = band
        victims = [k for k in sorted(expected) if low <= k < low + span]
        for index, key in enumerate(victims):
            cluster.delete(key, client=index % 4)
            del expected[key]
        cluster.run()
        cluster.engine.gc_retired(older_than=float("inf"))
        report = cluster.check(expected=expected)
        assert report.ok, "\n".join(report.problems[:10])

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        delete_every=st.integers(min_value=2, max_value=5),
    )
    def test_random_insert_delete_mixes_are_audit_clean(self, seed, delete_every):
        import random

        cluster = DBTreeCluster(
            num_processors=4, protocol="semisync", capacity=4, seed=seed
        )
        rng = random.Random(seed + 1)
        keys = rng.sample(range(100_000), 80)
        expected = {}
        for index, key in enumerate(keys):
            expected[key] = index
            cluster.insert(key, index, client=index % 4)
        cluster.run()
        for index, key in enumerate(list(expected)[::delete_every]):
            cluster.delete(key, client=index % 4)
            del expected[key]
        cluster.run()
        report = cluster.check(expected=expected)
        assert report.ok, "\n".join(report.problems[:10])


class TestResolveProperties:
    """The engine's routability walk, held to the hop bound the shard
    directory's walk has (``tests/test_shard_properties.py``)."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        protocol=st.sampled_from(["semisync", "variable", "mobile"]),
        seed=st.integers(0, 10**6),
        count=st.integers(1, 150),
        probes=st.lists(keys_st, min_size=1, max_size=8),
    )
    def test_every_walk_reaches_the_covering_leaf_in_one_node_per_level(
        self, protocol, seed, count, probes
    ):
        cluster = DBTreeCluster(
            num_processors=4, protocol=protocol, capacity=4, seed=seed
        )
        for index in range(count):
            cluster.insert((index * 37) % 2003 - 1000, index, client=index % 4)
        cluster.run()
        engine = cluster.engine
        height = engine.current_root_level() + 1
        for probe in probes:
            covering = {leaf.node_id for leaf in engine.leaves() if leaf.in_range(probe)}
            assert len(covering) == 1
            for pid in cluster.kernel.pids:
                leaves, nodes = engine.resolve(pid, probe)
                assert {leaf.node_id for leaf in leaves} == covering
                assert nodes == height
