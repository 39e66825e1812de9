"""Correctness audit for the lazy distributed trie."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.trie.node import Container, Interior
from repro.verify.checker import (
    CheckReport,
    check_complete_operations,
    contents_problems,
)

if TYPE_CHECKING:
    from repro.trie.table import LazyTrieEngine

MAX_DEPTH = 256


def _node_index(engine: "LazyTrieEngine") -> dict[int, Any]:
    """Authoritative node per id (the PC for replicated interiors)."""
    index: dict[int, Any] = {}
    for node in engine.all_nodes():
        current = index.get(node.node_id)
        if current is None or (isinstance(node, Interior) and node.is_pc):
            index[node.node_id] = node
    return index


def check_containers(engine: "LazyTrieEngine") -> list[str]:
    problems = []
    for node in engine.all_nodes():
        if not isinstance(node, Container):
            continue
        for key in node.entries:
            if not key.startswith(node.prefix):
                problems.append(
                    f"container {node.node_id} ({node.prefix!r}): key "
                    f"{key!r} outside prefix"
                )
        if node.is_overfull:
            problems.append(
                f"container {node.node_id}: overfull at quiescence "
                f"({len(node.entries)} > {node.capacity})"
            )
    return problems


def check_partition(engine: "LazyTrieEngine") -> list[str]:
    problems = []
    seen: dict[str, int] = {}
    for node in engine.all_nodes():
        if not isinstance(node, Container):
            continue
        for key in node.entries:
            if key in seen:
                problems.append(
                    f"key {key!r} in containers {seen[key]} and {node.node_id}"
                )
            seen[key] = node.node_id
    return problems


def resolve(engine: "LazyTrieEngine", key: str) -> Container | None:
    """Descend from the authoritative root to the key's container."""
    index = _node_index(engine)
    node = index.get(engine.ROOT_ID)
    depth = 0
    while node is not None and depth < MAX_DEPTH:
        if isinstance(node, Container):
            return node
        child_id = node.child_for(key)
        if child_id is None:
            return None
        node = index.get(child_id)
        depth += 1
    return None


def check_resolvability(
    engine: "LazyTrieEngine", expected: Mapping[str, Any]
) -> list[str]:
    problems = []
    for key, value in expected.items():
        container = resolve(engine, key)
        if container is None:
            problems.append(f"key {key!r} unresolvable")
        elif container.entries.get(key) != value:
            problems.append(
                f"key {key!r}: value {container.entries.get(key)!r} != "
                f"expected {value!r}"
            )
    return problems


def check_replica_convergence(engine: "LazyTrieEngine") -> list[str]:
    """Replicated interiors (the root) agree at quiescence."""
    by_node: dict[int, set] = {}
    for node in engine.all_nodes():
        if isinstance(node, Interior):
            by_node.setdefault(node.node_id, set()).add(node.fingerprint())
    problems = []
    for node_id, fingerprints in by_node.items():
        if len(fingerprints) > 1:
            problems.append(
                f"interior {node_id}: replica edge maps diverge "
                f"({len(fingerprints)} distinct)"
            )
    return problems


def check_trie(
    engine: "LazyTrieEngine", expected: Mapping[str, Any] | None = None
) -> CheckReport:
    report = CheckReport()
    report.extend("complete-ops", check_complete_operations(engine.trace))
    report.extend("containers", check_containers(engine))
    report.extend("partition", check_partition(engine))
    report.extend("replica-convergence", check_replica_convergence(engine))
    if expected is not None:
        contents: dict[str, Any] = {}
        for node in engine.all_nodes():
            if isinstance(node, Container):
                contents.update(node.entries)
        report.extend("expected-contents", contents_problems(contents, expected))
        report.extend("resolvability", check_resolvability(engine, expected))
    return report
