"""Correctness audit for the lazy distributed trie.

An instance of the shared checks in :mod:`repro.verify.checker`:
containers are the leaves (scope: their prefix), replicated interiors
(the root) the replica groups, and resolvability descends from the
authoritative root.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.trie.node import Container, Interior
from repro.verify import checker

if TYPE_CHECKING:
    from repro.trie.table import LazyTrieEngine

MAX_DEPTH = 256


def resolver(engine: "LazyTrieEngine") -> Callable[[str], Container | None]:
    """``resolve(key)`` over a node index built once: the PC copy
    stands for each replicated interior."""
    index: dict[int, Any] = {}
    for node in engine.all_nodes():
        if node.node_id not in index or (isinstance(node, Interior) and node.is_pc):
            index[node.node_id] = node

    def resolve(key: str) -> Container | None:
        node = index.get(engine.ROOT_ID)
        for _ in range(MAX_DEPTH):
            if node is None or isinstance(node, Container):
                return node
            child_id = node.child_for(key)
            if child_id is None:
                return None
            node = index.get(child_id)
        return None

    return resolve


def resolve(engine: "LazyTrieEngine", key: str) -> Container | None:
    """Descend from the authoritative root to the key's container."""
    return resolver(engine)(key)


def check_trie(
    engine: "LazyTrieEngine", expected: Mapping[str, Any] | None = None
) -> checker.CheckReport:
    nodes = engine.all_nodes()
    report = checker.CheckReport()
    report.extend("complete-ops", checker.check_complete_operations(engine))
    placement, contents = checker.placement_problems(
        [
            (n.node_id, n.home_pid, f"prefix {n.prefix!r}", n.covers,
             n.entries, n.capacity)
            for n in nodes
            if isinstance(n, Container)
        ],
        "container",
    )
    report.extend("placement", placement)
    replicas: dict[str, dict[int, frozenset]] = {}
    for node in nodes:
        if isinstance(node, Interior):
            group = replicas.setdefault(f"interior {node.node_id}", {})
            group[node.home_pid] = node.fingerprint()
    divergence = checker.divergence_problems(replicas, "replica edge maps")
    report.extend("replica-convergence", divergence)
    if expected is not None:
        report.extend(
            "expected-contents", checker.contents_problems(contents, expected)
        )
        descend = resolver(engine)

        def reach(_root: None, key: str) -> dict | None:
            container = descend(key)
            return None if container is None else container.entries

        report.extend(
            "resolvability",
            checker.resolvability_problems({"the root": None}, expected, reach),
        )
    return report
