"""One conformance script for the client surface, five backends.

``insert / search / delete``, every ``*_sync``, ``load`` and the
``RunResults`` partitioning are written once
(:class:`repro.core.client.ClientSurface`); this runs the same script
against every structure that inherits them, so a backend cannot
drift from the others again.
"""

import inspect

import pytest

from repro import DBTreeCluster, ShardedCluster
from repro.core.client import ClientSurface, RunResults
from repro.hash import LazyHashTable
from repro.trie import LazyTrie

BACKENDS = {
    "dbtree": lambda: DBTreeCluster(num_processors=4, capacity=4, seed=5),
    "range-forest": lambda: ShardedCluster(
        num_processors=4, capacity=4, seed=5, shards=2, initial_boundaries=("k",)
    ),
    "three-shard-forest": lambda: ShardedCluster(
        num_processors=4, capacity=4, seed=5, shards=3, initial_boundaries=("f", "m")
    ),
    "hash-table": lambda: LazyHashTable(num_processors=4, capacity=4, seed=5),
    "trie": lambda: LazyTrie(num_processors=4, capacity=4, seed=5),
}
WORDS = ["pear", "apple", "mango", "fig", "lime", "kiwi", "date", "plum",
         "quince", "cherry", "grape", "melon"]


@pytest.fixture(params=sorted(BACKENDS))
def structure(request):
    return BACKENDS[request.param]()


def test_one_script_every_backend(structure):
    assert isinstance(structure, ClientSurface)
    pids = list(structure.pids)
    assert pids == [0, 1, 2, 3]

    # asynchronous submission: run() partitions every op exactly once
    inserts = {
        structure.insert(word, word.upper(), client=pids[i % 4]): word
        for i, word in enumerate(WORDS)
    }
    results = structure.run()
    assert isinstance(results, RunResults) and results.ok
    assert results.completed == dict.fromkeys(inserts, True)
    assert results.incomplete == results.failed == results.timed_out == ()
    hit, miss = structure.search("fig", client=2), structure.search("nope")
    gone = structure.delete("pear", client=1)
    results = structure.run()
    assert results.result_of(hit) == "FIG"
    assert results.result_of(miss) is None
    assert results.result_of(gone) is True

    # result_of names the disposition of an op it has no result for
    with pytest.raises(KeyError, match="operation 987654 .*never submitted"):
        results.result_of(987654)

    # the synchronous conveniences submit, run, and return the result
    assert structure.search_sync("pear") is None
    assert structure.insert_sync("pear", "again", client=3) is True
    assert structure.search_sync("pear", client=1) == "again"
    assert structure.delete_sync("pear") is True
    assert structure.delete_sync("pear") is False
    assert structure.search_sync("pear", client=2) is None

    # load: a mapping or pairs, spread over the clients
    before = len(structure.trace.operations) if hasattr(structure, "trace") else None
    assert structure.load({"a1": 1, "a2": 2, "a3": 3, "a4": 4, "a5": 5}).ok
    assert structure.load([("z1", 1), ("z2", 2)]).ok
    assert structure.search_sync("a5") == 5 and structure.search_sync("z2") == 2
    if before is not None:
        loaded = list(structure.trace.operations.values())[before:before + 7]
        assert [op.home_pid for op in loaded] == [0, 1, 2, 3, 0, 0, 1]

    expected = {w: w.upper() for w in WORDS if w != "pear"}
    expected.update(a1=1, a2=2, a3=3, a4=4, a5=5, z1=1, z2=2)
    report = structure.check(expected=expected)
    assert report.ok, "\n".join(report.problems[:10])


def test_surface_methods_are_defined_once():
    """No backend carries its own copy of a shared method."""
    shared = ("insert", "search", "delete", "insert_sync", "search_sync",
              "delete_sync", "scan_sync", "load")
    for build in BACKENDS.values():
        cls = type(build())
        for name in shared:
            assert inspect.getattr_static(cls, name) is vars(ClientSurface)[name], (
                f"{cls.__name__}.{name} shadows the shared surface"
            )


def test_structures_without_key_order_refuse_scans():
    with pytest.raises(ValueError, match="unknown operation kind 'scan'"):
        LazyHashTable(seed=1).scan("a", "b")
    with pytest.raises(ValueError, match="unknown operation kind 'scan'"):
        LazyTrie(seed=1).scan("a", "b")
