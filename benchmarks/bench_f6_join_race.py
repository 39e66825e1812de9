"""Experiment F6 -- Figure 6: incomplete histories from join races.

The figure's failure: a copy performs an initial insert concurrently
with another processor joining the replication; the inserting copy
does not yet know the joiner, so its relay never reaches the new
copy, whose history is permanently incomplete.

Section 4.3's fix: every join registration bumps the node's version
at the primary copy; relayed inserts carry the sender's version, and
the PC re-relays each one to every member whose join version is newer
-- closing the race.

Staging the race: interior nodes receive initial inserts from child
splits, so the scenario (1) migrates a leaf to a non-PC member of an
interior node, (2) slows the primary copy's outbound channels so the
relayed-join announcement travels slowly (a wide race window), then
(3) fires a join together with an insert burst that splits the
migrated leaf repeatedly -- the member's parent-pointer inserts race
the join exactly as in the figure.  A variant with the re-relay
disabled shows the figure's failure actually corrupts the joiner.
"""

from common import emit, insert_burst
from repro import DBTreeCluster
from repro.core.actions import JoinRequest, MigrateNode
from repro.core.keys import NEG_INF
from repro.protocols.variable import VariableCopiesProtocol
from repro.sim.network import TopologyLatency
from repro.stats import format_table
from repro.verify.invariants import check_copy_convergence


class NoRerelayVariable(VariableCopiesProtocol):
    """Variable-copies protocol with the Figure 6 fix disabled."""

    name = "variable_no_rerelay"

    def _after_relayed_insert(self, proc, copy, action):
        # Deliberately skip the PC's re-relay to late joiners.
        self.engine.trace.bump("rerelay_suppressed")


def force_race(fixed: bool, seed: int, procs: int = 4) -> dict:
    protocol = VariableCopiesProtocol() if fixed else NoRerelayVariable()
    # The bootstrap creator (pid 0) is the PC of every interior node;
    # slowing its outbound channels widens the window during which a
    # member has not yet heard about the join.
    slow_from_pc = {(0, pid): 150.0 for pid in range(1, procs)}
    cluster = DBTreeCluster(
        num_processors=procs,
        protocol=protocol,
        capacity=4,
        seed=seed,
        latency_model=TopologyLatency(pairs=slow_from_pc, default=10.0),
    )
    insert_burst(cluster, count=120)
    engine = cluster.engine

    # Pick the leftmost interior node and move its leftmost leaf to a
    # non-PC member, so that member will perform initial parent
    # inserts; the leftmost leaf has unbounded key headroom (negative
    # keys), guaranteeing in-range split fodder.
    node = next(
        c
        for c in engine.all_copies()
        if c.level == 1
        and c.is_pc
        and c.num_entries >= 2
        and c.range.low is NEG_INF
    )
    member = next(p for p in node.copy_pids if p != node.pc_pid)
    leaf_id = node.entries()[0][1]
    leaf = next(c for c in engine.all_copies() if c.node_id == leaf_id)
    cluster.kernel.processor(leaf.home_pid).submit(
        MigrateNode(node_id=leaf_id, to_pid=member)
    )
    cluster.run()

    # Shrink the node so there is a processor left to join.
    leaver = next(
        p for p in node.copy_pids if p not in (node.pc_pid, member)
    )
    proc = cluster.kernel.processor(leaver)
    copy = engine.copy_at(proc, node.node_id)
    if copy is not None:
        cluster.protocol.request_unjoin(proc, copy)
        cluster.run()

    # Fire the join and, simultaneously, a burst that splits the
    # migrated leaf over and over: the member's parent-pointer
    # inserts race the join announcement.
    cluster.kernel.processor(node.pc_pid).submit(
        JoinRequest(node.node_id, node.level, node.range.low, leaver)
    )
    for index in range(12):
        cluster.insert(-(10**6) - index, f"race-{index}", client=member)
    cluster.run()

    diverged = [
        p for p in check_copy_convergence(engine) if f"node {node.node_id}:" in p
    ]
    return {
        "fixed": fixed,
        "diverged": bool(diverged),
        "rerelays": cluster.trace.counters.get("rerelayed_to_joiners", 0),
        "suppressed": cluster.trace.counters.get("rerelay_suppressed", 0),
        "audit_ok": cluster.check().ok,
    }


def run_experiment() -> str:
    rows = []
    seeds = (31, 47, 83, 101, 211)
    for fixed in (False, True):
        diverged_trials = 0
        rerelays = 0
        clean = 0
        for seed in seeds:
            result = force_race(fixed, seed)
            diverged_trials += int(result["diverged"])
            rerelays += result["rerelays"]
            clean += int(result["audit_ok"])
        rows.append(
            [
                "version re-relay ON" if fixed else "re-relay OFF (Figure 6 bug)",
                len(seeds),
                diverged_trials,
                rerelays,
                clean,
            ]
        )
    table = format_table(
        ["variant", "trials", "joiner diverged", "re-relays fired", "audits clean"],
        rows,
        title="F6 (Figure 6): join/insert race -- version-number re-relay closes it",
    )
    return emit("f6_join_race", table)


def test_f6_join_race(benchmark):
    fixed = benchmark.pedantic(
        lambda: force_race(True, seed=31), rounds=3, iterations=1
    )
    broken = force_race(False, seed=31)
    assert not fixed["diverged"]
    assert fixed["audit_ok"]
    assert fixed["rerelays"] > 0, "the race window must actually open"
    assert broken["diverged"], "suppressing the re-relay must reproduce Figure 6"
    run_experiment()


if __name__ == "__main__":
    run_experiment()
