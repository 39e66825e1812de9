"""Experiment X9 (extension) -- earned detection under partitions.

Swaps the crash plan's oracle detector (ground truth,
``detection_delay`` after a crash) for an earned one, with no crash
scheduled: processors *earn* their suspicions from heartbeat
arrivals, so a network partition makes correct processors suspect
each other, act on the false verdict (forced unjoins, mirror
re-homes), and must reconcile when the partition heals.  Two questions:

* **Partition tolerance.**  Under a healed 2-way split with
  ``replication_factor=2`` and anti-entropy repair on, does every
  correct protocol converge back to a clean full audit -- digest
  convergence, zero lost leaves, and *no false kill* (no live
  processor still written off at quiescence)?
* **Detector quality.**  Under a gray failure (one processor's links
  inflated x10, nothing actually down), how do the ``timeout``
  detector and the phi-accrual detector compare on false-suspicion
  rate?  The accrual detector learns the inflated inter-arrival
  distribution and adapts; a fixed timeout cannot.

Reported: per-protocol audit verdicts, false suspicions raised and
rescinded, forced unjoins and repair re-joins for the partition
scenario; suspicions / false suspicions / completed operations per
detector mode for the gray-failure scenario.
"""

from common import emit
from repro import CrashPlan, DBTreeCluster, PartitionPlan
from repro.stats import format_table, layer_report

SEEDS = (3, 5, 7)

PROTOCOLS = ("sync", "semisync", "mobile", "variable")

INSERTS = 60
SPACING = 10.0

#: Processors {0, 1} cut off from {2, 3} for 600 time units, healed.
SPLIT = PartitionPlan(splits=((800.0, 1400.0, (0, 1)),))

#: Every link out of processor 1 runs 10x slow for 2000 time units.
GRAY = PartitionPlan(gray=((500.0, 2500.0, 1, None, 10.0),))


def measure_partition(protocol, seed):
    """One healed-split run: audit verdict + reconciliation work."""
    cluster = DBTreeCluster(
        num_processors=4,
        protocol=protocol,
        capacity=16,
        seed=seed,
        partition_plan=SPLIT,
        crash_plan=CrashPlan(detector="timeout", detector_horizon=6000.0),
        op_timeout=300.0,
        op_retries=10,
        replication_factor=2,
        repair_period=100.0,
    )
    expected = {}
    pids = cluster.kernel.pids
    for index in range(INSERTS):
        key = (index * 7) % 2003
        expected[key] = index
        cluster.schedule(
            index * SPACING, "insert", key, index,
            client=pids[index % len(pids)],
        )
    results = cluster.run()
    report = cluster.check(expected=expected)
    layers = layer_report(cluster)
    avail, partition = layers["crash"], layers["partition"]
    repair = layers["repair"]
    return {
        "audit_ok": report.ok,
        "ops_ok": results.ok,
        "false_suspicions": avail["false_suspicions"],
        "rescinds": avail["rescinds"],
        "blocked": partition["messages_blocked"],
        "forced_unjoins": avail.get("forced_unjoins", 0),
        "rejoins": repair["repairs_by_kind"].get("rejoins", 0),
    }


def measure_gray(mode, seed):
    """One gray-failure run: did the detector cry wolf?"""
    cluster = DBTreeCluster(
        num_processors=4,
        protocol="semisync",
        capacity=8,
        seed=seed,
        partition_plan=GRAY,
        crash_plan=CrashPlan(detector=mode, detector_horizon=4000.0),
        op_timeout=500.0,
        op_retries=10,
    )
    expected = {}
    pids = cluster.kernel.pids
    for index in range(INSERTS):
        key = (index * 7) % 2003
        expected[key] = index
        cluster.schedule(
            index * SPACING, "insert", key, index,
            client=pids[index % len(pids)],
        )
    results = cluster.run()
    report = cluster.check(expected=expected)
    detector = layer_report(cluster)["crash"]
    return {
        "audit_ok": report.ok,
        "completed": len(results.completed),
        "suspicions": detector["suspicions"],
        "false_suspicions": detector["false_suspicions"],
        "rescinds": detector["rescinds"],
    }


def sweep():
    """Both scenarios over the seeds."""
    partition_cells = []
    for protocol in PROTOCOLS:
        runs = [measure_partition(protocol, seed) for seed in SEEDS]
        partition_cells.append(
            {
                "protocol": protocol,
                "audits_ok": sum(r["audit_ok"] for r in runs),
                "ops_ok": sum(r["ops_ok"] for r in runs),
                "seeds": len(SEEDS),
                "false_suspicions": sum(r["false_suspicions"] for r in runs),
                "rescinds": sum(r["rescinds"] for r in runs),
                "blocked": sum(r["blocked"] for r in runs),
                "forced_unjoins": sum(r["forced_unjoins"] for r in runs),
                "rejoins": sum(r["rejoins"] for r in runs),
            }
        )
    gray_cells = []
    for mode in ("timeout", "phi"):
        runs = [measure_gray(mode, seed) for seed in SEEDS]
        gray_cells.append(
            {
                "mode": mode,
                "audits_ok": sum(r["audit_ok"] for r in runs),
                "seeds": len(SEEDS),
                "completed": sum(r["completed"] for r in runs),
                "submitted": INSERTS * len(SEEDS),
                "suspicions": sum(r["suspicions"] for r in runs),
                "false_suspicions": sum(r["false_suspicions"] for r in runs),
                "rescinds": sum(r["rescinds"] for r in runs),
            }
        )
    return partition_cells, gray_cells


def run_experiment() -> str:
    partition_cells, gray_cells = sweep()
    partition_rows = [
        [
            cell["protocol"],
            f"{cell['audits_ok']}/{cell['seeds']}",
            f"{cell['ops_ok']}/{cell['seeds']}",
            cell["blocked"],
            f"{cell['false_suspicions']} ({cell['rescinds']} rescinded)",
            cell["forced_unjoins"],
            cell["rejoins"],
        ]
        for cell in partition_cells
    ]
    partition_table = format_table(
        [
            "protocol",
            "audits ok",
            "all ops ok",
            "msgs swallowed",
            "false suspicions",
            "forced unjoins",
            "repair rejoins",
        ],
        partition_rows,
        title=(
            "X9a: healed 2-way partition (0,1 | 2,3 for 600 units), "
            "earned timeout detection, rf=2, repair on -- both sides "
            "falsely suspect each other, act on it, and reconcile to "
            "a clean full audit (digest convergence + no false kill) "
            "on every seed (totals over three seeds)"
        ),
    )
    gray_rows = [
        [
            cell["mode"],
            f"{cell['audits_ok']}/{cell['seeds']}",
            f"{cell['completed']}/{cell['submitted']}",
            cell["suspicions"],
            cell["false_suspicions"],
            cell["rescinds"],
        ]
        for cell in gray_cells
    ]
    gray_table = format_table(
        [
            "detector",
            "audits ok",
            "ops completed",
            "suspicions",
            "false suspicions",
            "rescinds",
        ],
        gray_rows,
        title=(
            "X9b: gray failure (processor 1's links 10x slow, nothing "
            "down) -- the fixed timeout false-suspects a live "
            "processor on every seed; phi-accrual learns the inflated "
            "inter-arrival distribution and never cries wolf (totals "
            "over three seeds)"
        ),
    )
    return emit("x9_partition", partition_table + "\n\n" + gray_table)


def test_x9_partition(benchmark):
    partition_cells, gray_cells = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )

    # X9a: every correct protocol reconciles a healed partition to a
    # clean audit on every seed, and the reconciliation is real work
    # (false suspicions raised and rescinded, messages swallowed).
    for cell in partition_cells:
        assert cell["audits_ok"] == cell["seeds"], cell
        assert cell["ops_ok"] == cell["seeds"], cell
        assert cell["false_suspicions"] > 0, cell
        assert cell["rescinds"] == cell["false_suspicions"], cell
        assert cell["blocked"] > 0, cell

    # X9b: the fixed timeout demonstrably false-suspects under gray
    # latency inflation; phi-accrual never does, and both stay
    # correct (every suspicion rescinded, audits clean).
    by_mode = {cell["mode"]: cell for cell in gray_cells}
    timeout, phi = by_mode["timeout"], by_mode["phi"]
    assert timeout["false_suspicions"] > 0, timeout
    assert timeout["rescinds"] == timeout["false_suspicions"], timeout
    assert phi["false_suspicions"] == 0, phi
    assert phi["suspicions"] == 0, phi
    for cell in gray_cells:
        assert cell["audits_ok"] == cell["seeds"], cell
        assert cell["completed"] == cell["submitted"], cell
    run_experiment()


if __name__ == "__main__":
    run_experiment()
