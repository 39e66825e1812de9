"""Keys, sentinels, and KeyRange."""

import pickle

import pytest

from repro.core.keys import NEG_INF, POS_INF, KeyRange
from tests.test_properties import key_le, key_lt


class TestSentinels:
    def test_neg_inf_below_everything(self):
        assert NEG_INF < 0
        assert NEG_INF < -(10**18)
        assert NEG_INF < "aardvark"
        assert NEG_INF < POS_INF

    def test_pos_inf_above_everything(self):
        assert POS_INF > 0
        assert POS_INF > 10**18
        assert POS_INF > "zzz"
        assert POS_INF > NEG_INF

    def test_reflected_comparisons(self):
        assert 5 > NEG_INF
        assert 5 < POS_INF
        assert not (5 < NEG_INF)
        assert not (5 > POS_INF)

    def test_self_comparison(self):
        assert not NEG_INF < NEG_INF
        assert not POS_INF < POS_INF
        assert NEG_INF == NEG_INF
        assert POS_INF != NEG_INF

    def test_hashable_and_distinct(self):
        assert len({NEG_INF, POS_INF, NEG_INF}) == 2

    def test_pickle_preserves_identity(self):
        assert pickle.loads(pickle.dumps(NEG_INF)) == NEG_INF
        assert pickle.loads(pickle.dumps(POS_INF)) == POS_INF

    def test_sorting_mixed_list(self):
        values = [3, POS_INF, 1, NEG_INF, 2]
        assert sorted(values) == [NEG_INF, 1, 2, 3, POS_INF]


class TestKeyHelpers:
    """The reference order the sentinels' operators are held to."""

    def test_key_lt_ordinary(self):
        assert key_lt(1, 2)
        assert not key_lt(2, 1)
        assert not key_lt(2, 2)

    def test_key_lt_with_sentinels(self):
        assert key_lt(NEG_INF, 0)
        assert key_lt(0, POS_INF)
        assert key_lt(NEG_INF, POS_INF)
        assert not key_lt(POS_INF, NEG_INF)

    def test_key_le(self):
        assert key_le(2, 2)
        assert key_le(NEG_INF, NEG_INF)
        assert key_le(NEG_INF, 0)
        assert not key_le(POS_INF, 0)


class TestKeyRange:
    def test_full_range_contains_everything(self):
        full = KeyRange.full()
        assert full.contains(0)
        assert full.contains(-(10**9))
        assert full.contains(NEG_INF)
        assert not full.contains(POS_INF)  # half-open at the top

    def test_half_open_semantics(self):
        r = KeyRange(10, 20)
        assert r.contains(10)
        assert not r.contains(20)
        assert r.contains(19)
        assert not r.contains(9)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            KeyRange(20, 10)

    def test_empty_range_allowed(self):
        r = KeyRange(5, 5)
        assert r.is_empty
        assert not r.contains(5)

    def test_split_at(self):
        lower, upper = KeyRange(NEG_INF, 100).split_at(40)
        assert lower == KeyRange(NEG_INF, 40)
        assert upper == KeyRange(40, 100)

    def test_split_at_boundary_rejected(self):
        with pytest.raises(ValueError):
            KeyRange(10, 20).split_at(10)
        with pytest.raises(ValueError):
            KeyRange(10, 20).split_at(20)
        with pytest.raises(ValueError):
            KeyRange(10, 20).split_at(25)

    def test_shrink_high(self):
        r = KeyRange(0, POS_INF).shrink_high(50)
        assert r == KeyRange(0, 50)
        with pytest.raises(ValueError):
            KeyRange(0, 50).shrink_high(60)

    def test_contains_range(self):
        outer = KeyRange(0, 100)
        assert outer.contains_range(KeyRange(10, 20))
        assert outer.contains_range(KeyRange(0, 100))
        assert not outer.contains_range(KeyRange(0, 101))
        assert not KeyRange(10, 20).contains_range(outer)

    def test_string_keys(self):
        r = KeyRange("apple", "mango")
        assert r.contains("banana")
        assert not r.contains("zebra")
        lower, upper = r.split_at("grape")
        assert lower.contains("apple")
        assert upper.contains("kiwi")

    def test_ranges_are_hashable_values(self):
        assert KeyRange(1, 2) == KeyRange(1, 2)
        assert len({KeyRange(1, 2), KeyRange(1, 2), KeyRange(1, 3)}) == 2
