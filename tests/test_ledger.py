"""The operation ledger the dB-tree, the hash table and the trie share.

An op's first return stands.  A second copy of a return counts as
``duplicate_return_ignored``; a return for an op that already has a
verdict counts as ``late_return_ignored``.  The returns are handed in
directly, so each engine is driven the same way whatever its substrate
can do.
"""

from __future__ import annotations

import pytest

from repro import DBTreeCluster
from repro.core.actions import ReturnValue
from repro.hash.table import HashReturn, LazyHashTable
from repro.trie.table import LazyTrie, TrieReturn

ENGINES = {
    "dbtree": (
        lambda: DBTreeCluster(num_processors=4, capacity=4, seed=5),
        lambda op, result: ReturnValue(op, result, None),
    ),
    "hash-table": (
        lambda: LazyHashTable(num_processors=4, capacity=4, seed=5),
        lambda op, result: HashReturn(op=op, result=result),
    ),
    "trie": (
        lambda: LazyTrie(num_processors=4, capacity=4, seed=5),
        lambda op, result: TrieReturn(op=op, result=result),
    ),
}


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_the_first_result_stands(name):
    build, make_return = ENGINES[name]
    structure = build()
    engine = structure.engine
    counters = engine.trace.counters
    for word in ("date", "fig", "kiwi", "lime", "pear"):
        structure.insert(word, word.upper(), client=0)
    assert structure.run().ok

    # A second copy of a return already delivered.
    op_id = structure.search("fig", client=1)
    op = engine.in_flight[op_id]
    assert structure.run().completed[op_id] == "FIG"
    assert op_id not in engine.in_flight
    engine.handle(structure.kernel.processor(op.home_pid), make_return(op, "STALE"))
    assert counters.get("duplicate_return_ignored", 0) == 1
    assert counters.get("late_return_ignored", 0) == 0
    assert structure.run().completed[op_id] == "FIG"

    # The op's return arrives after its verdict.
    late_id = structure.search("kiwi", client=2)
    engine.fail_op(engine.in_flight[late_id], "failed")
    results = structure.run()
    assert results.failed == (late_id,)
    assert late_id not in results.completed
    assert engine.op_verdicts[late_id] == "failed"
    assert counters.get("late_return_ignored", 0) == 1
    assert counters.get("duplicate_return_ignored", 0) == 1
    assert not engine.in_flight
