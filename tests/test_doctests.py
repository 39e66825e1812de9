"""Run the doctests embedded in public docstrings.

Documented examples must stay true; each module with runnable
examples is exercised here.
"""

import doctest

import pytest

import repro.core.keys
import repro.hash.table
import repro.sim.events
import repro.stats.report
import repro.trie.table

MODULES = [
    repro.core.keys,
    repro.hash.table,
    repro.sim.events,
    repro.stats.report,
    repro.trie.table,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} lost its doctests"
    assert result.failed == 0
