"""Experiment X2 (extension) -- fault-tolerant lazy updates.

The paper's final future-work item (Section 5): "Finally, we will
investigate fault-tolerant lazy updates."

The scenario: interior-node copies are lost (processor amnesia)
without any protocol action.  Healing is itself lazy: the next
relayed update addressed to a missing copy triggers an id-addressed
re-join; the primary resends the current value and the version
re-relay covers racing updates.  No synchronization, no heartbeats,
no global recovery protocol.

The experiment crashes a growing number of interior copies after a
load phase, continues the workload, and reports: operations lost
(zero -- availability is never affected because other copies serve),
healed copies, heal messages, and whether the full audit passes.
"""

from common import emit, insert_burst
from repro import DBTreeCluster
from repro.core.keys import NEG_INF
from repro.stats import format_table


def measure(crashes: int, seed: int = 3, procs: int = 4) -> dict:
    cluster = DBTreeCluster(
        num_processors=procs, protocol="variable", capacity=4, seed=seed
    )
    expected = insert_burst(cluster, count=250)
    engine = cluster.engine

    # Crash non-PC copies of level-1 nodes (healing is driven by the
    # keyed relays that leaf splits send to them).
    victims = []
    for copy in sorted(
        (c for c in engine.all_copies() if c.level == 1 and not c.is_pc),
        key=lambda c: (c.node_id, c.home_pid),
    ):
        if len(victims) >= crashes:
            break
        victims.append((copy.node_id, copy.home_pid))
    for node_id, pid in victims:
        engine.crash_copy(pid, node_id)

    # Continue the workload with traffic under *each* victim's node:
    # healing is lazy, so it needs the relays that leaf splits send
    # to the damaged node's copy group.
    messages_before = cluster.kernel.network.stats.sent
    node_index = {c.node_id: c for c in engine.all_copies() if c.is_pc}
    submitted = 0
    # Two waves: a heal request can bounce if it is routed to a
    # fellow victim; the second wave's relays retry it (healing is
    # lazy -- it rides on traffic).
    for _wave in range(2):
        for node_id, _pid in victims:
            node = node_index[node_id]
            produced = 0
            candidate = -1 if node.range.low is NEG_INF else node.range.low
            step = -1 if node.range.low is NEG_INF else 1
            while produced < 12:
                candidate += step
                if not node.range.contains(candidate):
                    break
                if candidate in expected:
                    continue
                expected[candidate] = f"post-{candidate}"
                cluster.insert(
                    candidate, f"post-{candidate}", client=submitted % procs
                )
                produced += 1
                submitted += 1
        cluster.run()
    heal_messages = cluster.kernel.network.stats.sent - messages_before

    healed = 0
    for node_id, pid in victims:
        holders = {
            c.home_pid for c in engine.all_copies() if c.node_id == node_id
        }
        if pid in holders:
            healed += 1
    report = cluster.check(expected=expected)
    return {
        "crashes": len(victims),
        "healed": healed,
        "ops_lost": len(cluster.engine.in_flight),
        "rejoins": cluster.trace.counters.get("heal_rejoins_requested", 0),
        "phase_messages": heal_messages,
        "audit_ok": report.ok,
        "problems": report.problems,
    }


def run_experiment() -> str:
    rows = []
    for crashes in (1, 2, 4, 8):
        result = measure(crashes)
        rows.append(
            [
                result["crashes"],
                result["healed"],
                result["ops_lost"],
                result["rejoins"],
                result["phase_messages"],
                "yes" if result["audit_ok"] else "NO",
            ]
        )
    table = format_table(
        [
            "copies crashed",
            "healed",
            "ops lost",
            "heal rejoins",
            "post-crash msgs",
            "audit ok",
        ],
        rows,
        title=(
            "X2 (extension): fault-tolerant lazy updates -- lost copies "
            "heal on the next relay; zero operations lost"
        ),
    )
    return emit("x2_fault_tolerance", table)


def test_x2_fault_tolerance(benchmark):
    result = benchmark.pedantic(lambda: measure(4), rounds=2, iterations=1)
    assert result["ops_lost"] == 0
    assert result["audit_ok"], "\n".join(result["problems"][:5])
    assert result["rejoins"] >= 1
    run_experiment()


if __name__ == "__main__":
    run_experiment()
