"""Human-readable renderings of a dB-tree's distributed state.

These read global simulation state (every processor's store), so they
are debugging/inspection aids, not part of any distributed protocol.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from repro.core.keys import NEG_INF
from repro.verify.invariants import representative_nodes

if TYPE_CHECKING:
    from repro.core.dbtree import DBTreeEngine


def _bound(value) -> str:
    return repr(value)


def dump_tree(engine: "DBTreeEngine", show_entries: bool = False) -> str:
    """Render the logical tree level by level, left to right.

    Each node line shows id, range, entry count, holders, and the
    primary copy; ``show_entries`` additionally prints the entries
    (use only on small trees).
    """
    nodes = representative_nodes(engine)
    holders: dict[int, list[int]] = defaultdict(list)
    for copy in engine.all_copies():
        holders[copy.node_id].append(copy.home_pid)

    by_level: dict[int, list] = defaultdict(list)
    for node in nodes.values():
        by_level[node.level].append(node)

    lines = []
    for level in sorted(by_level, reverse=True):
        row = sorted(
            by_level[level],
            key=lambda n: (n.range.low is not NEG_INF, n.range.low),
        )
        label = "root" if level == max(by_level) else (
            "leaf" if level == 0 else f"L{level}"
        )
        lines.append(f"level {level} ({label}): {len(row)} node(s)")
        for node in row:
            pids = ",".join(str(p) for p in sorted(holders[node.node_id]))
            lines.append(
                f"  node {node.node_id:<5} "
                f"[{_bound(node.range.low)}, {_bound(node.range.high)}) "
                f"n={node.num_entries:<3} right={node.right_id} "
                f"pc={node.pc_pid} on[{pids}]"
            )
            if show_entries:
                for key, payload in node.iter_entries():
                    lines.append(f"      {key!r} -> {payload!r}")
    return "\n".join(lines)


def cluster_summary(engine: "DBTreeEngine") -> str:
    """One-paragraph overview of the whole cluster."""
    nodes = representative_nodes(engine)
    num_leaves = sum(1 for n in nodes.values() if n.is_leaf)
    num_interior = len(nodes) - num_leaves
    copies = len(engine.all_copies())
    entries = sum(n.num_entries for n in nodes.values() if n.is_leaf)
    stats = engine.kernel.network.stats
    return (
        f"dB-tree @ t={engine.now:.0f}: height={engine.current_root_level()}, "
        f"{num_leaves} leaves ({entries} entries), {num_interior} interior "
        f"nodes, {copies} physical copies across "
        f"{len(engine.kernel.processors)} processors; "
        f"{stats.sent} messages sent "
        f"({engine.trace.counters.get('half_splits', 0)} splits, "
        f"{engine.trace.counters.get('migrations', 0)} migrations)"
    )
