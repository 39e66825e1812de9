"""Structural B-link invariants over the final simulation state.

These checks read global state (every processor's node store), which
no distributed protocol could do -- they are the auditor's omniscient
view, run at quiescence:

* **copy convergence** -- all live copies of a node have the same
  value (the observable consequence of compatible histories),
* **level chains** -- at each level, node ranges partition the key
  space and right links thread them in order,
* **parent/child consistency** -- every interior entry's separator is
  its child's low bound,
* **reachability** -- every leaf is reachable from the root by
  child links plus right links (tree navigability, which the paper's
  protocols promise never to break).
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from repro.core.keys import NEG_INF
from repro.core.node import NodeCopy

if TYPE_CHECKING:
    from repro.core.dbtree import DBTreeEngine


def group_copies(engine: "DBTreeEngine") -> dict[int, list[NodeCopy]]:
    """All live copies grouped by logical node id."""
    groups: dict[int, list[NodeCopy]] = defaultdict(list)
    for copy in engine.all_copies():
        groups[copy.node_id].append(copy)
    return dict(groups)


def representative_nodes(engine: "DBTreeEngine") -> dict[int, NodeCopy]:
    """One copy per live (non-retired) node, the primary if present.

    Retired free-at-empty zombies are not part of the logical tree --
    they are forwarding conveniences awaiting garbage collection.
    """
    nodes: dict[int, NodeCopy] = {}
    for copy in engine.all_copies():
        if copy.retired:
            continue
        current = nodes.get(copy.node_id)
        if current is None or copy.is_pc:
            nodes[copy.node_id] = copy
    return nodes


def check_copy_convergence(engine: "DBTreeEngine") -> list[str]:
    """Every live copy of a node must hold the same final value."""
    from repro.verify.checker import divergence_problems

    return divergence_problems(
        {
            f"node {node_id}": {c.home_pid: c.value_fingerprint() for c in copies}
            for node_id, copies in group_copies(engine).items()
        },
        "copies",
    )


def check_level_chains(engine: "DBTreeEngine") -> list[str]:
    """Each level's nodes must partition (-inf, +inf) left to right."""
    from repro.verify.checker import tiling_problems

    problems = []
    by_level: dict[int, list[NodeCopy]] = defaultdict(list)
    for node in representative_nodes(engine).values():
        by_level[node.level].append(node)
    for level, nodes in sorted(by_level.items()):
        ordered = sorted(nodes, key=lambda n: (n.range.low is not NEG_INF, n.range.low))
        problems.extend(
            tiling_problems(
                [(f"node {n.node_id}", n.range.low, n.range.high) for n in ordered],
                f"level {level}",
            )
        )
        if ordered[-1].right_id is not None:
            problems.append(f"level {level}: rightmost node has a right link")
        for left, right in zip(ordered, ordered[1:]):
            if left.right_id != right.node_id:
                problems.append(
                    f"level {level}: node {left.node_id} right link is "
                    f"{left.right_id}, expected {right.node_id}"
                )
        for node in ordered:
            for key in node.keys():
                if key is not NEG_INF and not node.range.contains(key):
                    problems.append(
                        f"level {level}: node {node.node_id} holds key "
                        f"{key!r} outside range {node.range}"
                    )
    return problems


def check_parent_child(engine: "DBTreeEngine") -> list[str]:
    """Interior separators must equal their child's low bound.

    Entries naming a retired (free-at-empty) zombie are legitimate:
    immortal leftmost entries keep pointing at their retired child,
    whose links forward to the absorber.
    """
    problems = []
    nodes = representative_nodes(engine)
    retired_ids = {c.node_id for c in engine.all_copies() if c.retired}
    for node in nodes.values():
        if node.is_leaf:
            continue
        for separator, child_id in node.iter_entries():
            child = nodes.get(child_id)
            if child is None:
                if child_id in retired_ids:
                    continue  # zombie forwarder, expected
                problems.append(
                    f"node {node.node_id}: entry {separator!r} names "
                    f"missing child {child_id}"
                )
                continue
            if child.level != node.level - 1:
                problems.append(
                    f"node {node.node_id} (level {node.level}): child "
                    f"{child_id} is level {child.level}"
                )
            if child.range.low != separator:
                problems.append(
                    f"node {node.node_id}: separator {separator!r} != "
                    f"child {child_id} low bound {child.range.low!r}"
                )
    return problems


def check_reachability(engine: "DBTreeEngine") -> list[str]:
    """Every leaf must be reachable from the root via child/right links."""
    problems = []
    nodes = representative_nodes(engine)
    retired_ids = {c.node_id for c in engine.all_copies() if c.retired}
    root_level = engine.current_root_level()
    roots = [n for n in nodes.values() if n.level == root_level]
    if not roots:
        return [f"no node at root level {root_level}"]
    reached: set[int] = set()
    frontier = [min(roots, key=lambda n: (n.range.low is not NEG_INF,)).node_id]
    while frontier:
        node_id = frontier.pop()
        if node_id in reached:
            continue
        reached.add(node_id)
        node = nodes.get(node_id)
        if node is None:
            if node_id not in retired_ids:
                problems.append(f"dangling link to missing node {node_id}")
            continue
        if node.right_id is not None:
            frontier.append(node.right_id)
        if not node.is_leaf:
            frontier.extend(child for _key, child in node.iter_entries())
    for node in nodes.values():
        if node.node_id not in reached:
            problems.append(
                f"node {node.node_id} (level {node.level}, "
                f"range {node.range}) unreachable from root"
            )
    return problems


def check_structure(engine: "DBTreeEngine") -> list[str]:
    """All structural invariants; empty list means a healthy tree."""
    problems = []
    problems.extend(check_copy_convergence(engine))
    problems.extend(check_level_chains(engine))
    problems.extend(check_parent_child(engine))
    problems.extend(check_reachability(engine))
    return problems
