"""Atomic action sequences: the distributed lock analogue."""

import pytest

from repro.core.aas import AASRegistry


class TestAASRegistry:
    def test_begin_marks_active(self):
        reg = AASRegistry()
        assert not reg.any_active
        reg.begin(1)
        assert reg.any_active

    def test_double_begin_rejected(self):
        reg = AASRegistry()
        reg.begin(1)
        with pytest.raises(ValueError):
            reg.begin(1)

    def test_finish_releases_deferred(self):
        reg = AASRegistry()
        reg.begin(1)
        reg.defer(10)
        reg.defer(11)
        released = reg.finish(1)
        assert released == [10, 11]
        assert not reg.any_active
        assert not reg.pending

    def test_finish_unknown_rejected(self):
        with pytest.raises(ValueError):
            AASRegistry().finish(42)

    def test_overlapping_aas_keep_blocking(self):
        reg = AASRegistry()
        reg.begin(1)
        reg.begin(2)
        reg.defer(7)
        reg.defer(9)
        # AAS 2 is still active, so nothing is released yet.
        assert reg.finish(1) == []
        assert reg.pending == [7, 9]
        assert reg.finish(2) == [7, 9]
        assert not reg.pending
