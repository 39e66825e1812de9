"""NodeCopy: entries, navigation, half-splits, snapshots."""

import pytest

from repro.core.keys import NEG_INF, POS_INF, KeyRange
from repro.core.node import NodeCopy


def make_leaf(capacity=4, low=NEG_INF, high=POS_INF, pc=0, pids=(0,)):
    return NodeCopy(
        node_id=1,
        level=0,
        key_range=KeyRange(low, high),
        pc_pid=pc,
        copy_versions={pid: 0 for pid in pids},
        capacity=capacity,
    )


def make_interior(entries, capacity=8, low=NEG_INF, high=POS_INF):
    node = NodeCopy(
        node_id=2,
        level=1,
        key_range=KeyRange(low, high),
        pc_pid=0,
        copy_versions={0: 0},
        capacity=capacity,
    )
    for key, child in entries:
        node.insert_entry(key, child)
    return node


class TestEntries:
    def test_insert_keeps_sorted_order(self):
        leaf = make_leaf()
        for key in (5, 1, 3, 2, 4):
            assert leaf.insert_entry(key, f"v{key}")
        assert leaf.keys() == (1, 2, 3, 4, 5)

    def test_insert_is_idempotent(self):
        leaf = make_leaf()
        assert leaf.insert_entry(1, "a")
        assert not leaf.insert_entry(1, "b")  # overwrite, not new
        assert leaf.num_entries == 1
        assert leaf.lookup(1) == "b"

    def test_delete(self):
        leaf = make_leaf()
        leaf.insert_entry(1, "a")
        leaf.insert_entry(2, "b")
        assert leaf.delete_entry(1)
        assert not leaf.delete_entry(1)
        assert leaf.keys() == (2,)

    def test_lookup_missing_raises(self):
        leaf = make_leaf()
        with pytest.raises(KeyError):
            leaf.lookup(42)
        assert not leaf.has_key(42)

    @pytest.mark.parametrize(
        "low, high",
        [
            (NEG_INF, POS_INF),
            (NEG_INF, 5),
            (3, POS_INF),
            (3, 7),
            (4, 4),
            (2, 3),
            (8, 2),
            (0, 100),
            (POS_INF, POS_INF),
            (NEG_INF, NEG_INF),
        ],
    )
    def test_entries_between_is_the_filtered_entries(self, low, high):
        leaf = make_leaf(capacity=16)
        for key in (9, 1, 7, 3, 5):
            leaf.insert_entry(key, f"v{key}")
        assert leaf.entries_between(low, high) == tuple(
            (key, value)
            for key, value in leaf.entries()
            if low <= key < high
        )

    def test_snapshot_round_trip_adopts_sorted_entries(self):
        leaf = make_leaf(capacity=16)
        for key in (9, 1, 7, 3, 5):
            leaf.insert_entry(key, f"v{key}")
        clone = NodeCopy.from_snapshot(leaf.snapshot())
        assert clone.entries() == leaf.entries()
        assert clone.insert_entry(4, "v4")  # still bisectable
        assert clone.keys() == (1, 3, 4, 5, 7, 9)
        assert leaf.keys() == (1, 3, 5, 7, 9)  # nothing shared

    def test_overfull(self):
        leaf = make_leaf(capacity=2)
        leaf.insert_entry(1, "a")
        leaf.insert_entry(2, "b")
        assert not leaf.is_overfull
        leaf.insert_entry(3, "c")
        assert leaf.is_overfull

    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            make_leaf(capacity=1)


class TestNavigation:
    def test_child_for_routes_by_separator(self):
        node = make_interior([(NEG_INF, 10), (50, 11), (100, 12)])
        assert node.child_for(-(10**9)) == 10
        assert node.child_for(49) == 10
        assert node.child_for(50) == 11
        assert node.child_for(99) == 11
        assert node.child_for(100) == 12
        assert node.child_for(10**9) == 12

    def test_child_for_on_leaf_rejected(self):
        with pytest.raises(ValueError):
            make_leaf().child_for(1)

    def test_child_for_empty_interior_rejected(self):
        node = make_interior([])
        with pytest.raises(ValueError):
            node.child_for(5)

    def test_child_for_below_first_separator_rejected(self):
        node = make_interior([(50, 11)], low=50)
        with pytest.raises(ValueError):
            node.child_for(10)


class TestHalfSplit:
    def test_separator_is_median(self):
        leaf = make_leaf()
        for key in (1, 2, 3, 4, 5):
            leaf.insert_entry(key, key)
        assert leaf.choose_separator() == 3

    def test_too_small_to_split(self):
        leaf = make_leaf()
        leaf.insert_entry(1, "a")
        with pytest.raises(ValueError):
            leaf.choose_separator()

    def test_apply_half_split_moves_upper_entries(self):
        leaf = make_leaf()
        for key in (1, 2, 3, 4, 5, 6):
            leaf.insert_entry(key, key * 10)
        dropped = leaf.apply_half_split(4, sibling_id=99)
        assert [k for k, _v in dropped] == [4, 5, 6]
        assert leaf.keys() == (1, 2, 3)
        assert leaf.range == KeyRange(NEG_INF, 4)
        assert leaf.right_id == 99

    def test_split_preserves_payloads(self):
        leaf = make_leaf()
        for key in (1, 2, 3, 4):
            leaf.insert_entry(key, f"v{key}")
        dropped = dict(leaf.apply_half_split(3, sibling_id=7))
        assert dropped == {3: "v3", 4: "v4"}

    def test_peers_and_copy_pids(self):
        node = make_leaf(pids=(0, 1, 2), pc=1)
        assert node.copy_pids == (0, 1, 2)
        assert node.peers_of(1) == (0, 2)


class TestFingerprint:
    def test_equal_values_equal_fingerprints(self):
        a, b = make_leaf(), make_leaf()
        for key in (1, 2):
            a.insert_entry(key, key)
            b.insert_entry(key, key)
        assert a.value_fingerprint() == b.value_fingerprint()

    def test_fingerprint_sees_entries_range_and_right(self):
        a, b = make_leaf(), make_leaf()
        a.insert_entry(1, "x")
        b.insert_entry(1, "y")
        assert a.value_fingerprint() != b.value_fingerprint()
        c = make_leaf()
        c.insert_entry(1, "x")
        c.right_id = 9
        assert a.value_fingerprint() != c.value_fingerprint()


class TestSnapshot:
    def test_roundtrip(self):
        node = make_interior([(NEG_INF, 10), (5, 11)])
        node.right_id = 3
        node.parent_id = 4
        node.version = 7
        node.link_versions["left"] = 2
        node.incorporated_ids.update({101, 102})
        snap = node.snapshot()
        clone = NodeCopy.from_snapshot(snap)
        assert clone.value_fingerprint() == node.value_fingerprint()
        assert clone.version == 7
        assert clone.parent_id == 4
        assert clone.link_versions == {"left": 2}
        assert clone.incorporated_ids == {101, 102}

    def test_snapshot_birth_set_override(self):
        node = make_leaf()
        node.incorporated_ids.add(55)
        snap = node.snapshot(birth_set=[1, 2])
        assert snap.birth_set == frozenset({1, 2})

    def test_is_pc_depends_on_home(self):
        node = make_leaf(pids=(0, 1), pc=1)
        node.home_pid = 1
        assert node.is_pc
        node.home_pid = 0
        assert not node.is_pc


class TestReseat:
    @pytest.mark.parametrize("past", [0, 3, 9])
    def test_one_holder_at_a_version_above_both(self, past):
        node = make_leaf(pids=(0, 1), pc=0)
        node.version = 5
        node.home_pid = 2
        version = node.reseat(2, past)
        assert version == node.version == max(5, past) + 1
        assert node.version > 5 and node.version > past
        assert node.copy_versions == {2: version}
        assert node.copy_pids == (2,)
        assert node.pc_pid == 2 and node.is_pc
