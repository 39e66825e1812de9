"""Experiment X7 (extension) -- anti-entropy repair of replica drift.

The lazy-update protocols guarantee convergence for every action that
is *delivered*; a crashed mirror holder, a dead-lettered refresh, or
a corrupted snapshot leaves replica state the message layer will
never fix on its own.  X7 injects exactly that drift -- every mirror
snapshot is truncated by one entry mid-run, under a crash plan, at
rf=2 -- and measures the :mod:`repro.repair` subsystem's response:
Merkle-style range digests gossiped on a background period, drill-down
only on mismatching subtrees, repairs executed through the paper's
own machinery (mirror refreshes from the home copy, relayed-action
replay, re-joins).

Three scenarios, each over three seeds:

* ``repair off`` -- the injection goes unnoticed by the message
  layer; the digest audit must *detect* the divergence at the end.
* ``repair on / ring`` -- digest gossip finds the stale mirrors and
  refreshes every one before quiescing; the full audit is clean.
* ``repair on / rendezvous`` -- same convergence under
  rendezvous-hash mirror placement.

Reported per scenario: audits passed, mirrors staled by the
injection, residual digest divergences, gossip rounds started /
diverged, mirror refreshes executed, digest bytes shipped, and the
mean time from last divergence to quiescence.
"""

from common import emit
from repro import CrashPlan, DBTreeCluster
from repro.stats import format_table
from repro.verify.checker import check_digest_convergence

SEEDS = (3, 5, 7)

INSERTS = 120
SPACING = 10.0

CRASHES = ((1, 900.0, 1700.0),)
INJECT_AT = 2400.0

SCENARIOS = [
    # label, repair_period, mirror_placement
    ("repair off", None, "ring"),
    ("repair on / ring", 150.0, "ring"),
    ("repair on / rendezvous", 150.0, "rendezvous"),
]


def stale_all_mirrors(cluster):
    """Truncate every mirror snapshot by one entry (fault injection)."""
    staled = 0
    for proc in cluster.kernel.processors.values():
        mirrors = proc.state.get("mirror_store") or {}
        for node_id, (home, snap) in list(mirrors.items()):
            if len(snap.keys) > 1:
                mirrors[node_id] = (
                    home,
                    snap._replace(
                        keys=snap.keys[:-1],
                        payloads=snap.payloads[:-1],
                    ),
                )
                staled += 1
    return staled


def measure(repair_period, placement, seed):
    """One run: audit verdict, residual divergence, repair accounting."""
    cluster = DBTreeCluster(
        num_processors=4,
        protocol="variable",
        capacity=4,
        seed=seed,
        crash_plan=CrashPlan(schedule=CRASHES),
        op_timeout=3000.0,
        op_retries=5,
        replication_factor=2,
        repair_period=repair_period,
        mirror_placement=placement,
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
    staled = []

    def inject():
        staled.append(stale_all_mirrors(cluster))
        if cluster.engine.repair is not None:
            cluster.engine.repair.kick()

    cluster.kernel.events.schedule(INJECT_AT, inject)
    cluster.run()
    report = cluster.check(expected=expected)
    divergences = check_digest_convergence(cluster.engine)
    summary = cluster.repair_summary()
    return {
        "audit_ok": report.ok,
        "staled": staled[0] if staled else 0,
        "divergences": len(divergences),
        "rounds": summary.get("rounds_started", 0),
        "rounds_diverged": summary.get("rounds_diverged", 0),
        "refreshes": summary.get("repairs_by_kind", {}).get(
            "mirror_refreshes", 0
        ),
        "digest_bytes": summary.get("digest_bytes", 0),
        "convergence": summary.get("time_to_convergence", 0.0),
    }


def sweep() -> list[dict]:
    """All scenarios, aggregated over the seeds."""
    cells = []
    for label, repair_period, placement in SCENARIOS:
        runs = [measure(repair_period, placement, seed) for seed in SEEDS]
        cells.append(
            {
                "scenario": label,
                "audits_ok": sum(r["audit_ok"] for r in runs),
                "seeds": len(SEEDS),
                "staled": sum(r["staled"] for r in runs),
                "divergences": sum(r["divergences"] for r in runs),
                "rounds": sum(r["rounds"] for r in runs),
                "rounds_diverged": sum(r["rounds_diverged"] for r in runs),
                "refreshes": sum(r["refreshes"] for r in runs),
                "digest_bytes": sum(r["digest_bytes"] for r in runs),
                "convergence": sum(r["convergence"] for r in runs)
                / len(runs),
            }
        )
    return cells


def run_experiment() -> str:
    rows = []
    for cell in sweep():
        rows.append(
            [
                cell["scenario"],
                f"{cell['audits_ok']}/{cell['seeds']}",
                cell["staled"],
                cell["divergences"],
                f"{cell['rounds']} ({cell['rounds_diverged']} diverged)",
                cell["refreshes"],
                cell["digest_bytes"],
                f"{cell['convergence']:.0f}",
            ]
        )
    table = format_table(
        [
            "scenario",
            "audits ok",
            "mirrors staled",
            "residual divergence",
            "gossip rounds",
            "mirror refreshes",
            "digest bytes",
            "mean convergence",
        ],
        rows,
        title=(
            "X7: anti-entropy repair -- injected mirror drift the "
            "message layer never notices; digest gossip detects it, "
            "drills down only on mismatching subtrees, and refreshes "
            "every stale mirror through the lazy-update machinery to "
            "a clean audit on every seed; with repair off the same "
            "injection survives as detected divergence (totals over "
            "three seeds)"
        ),
    )
    return emit("x7_anti_entropy", table)


def test_x7_anti_entropy(benchmark):
    cells = benchmark.pedantic(sweep, rounds=1, iterations=1)
    by_label = {cell["scenario"]: cell for cell in cells}

    # With repair off the injection is never healed: the digest audit
    # must report the stale mirrors as divergence at the end.
    off = by_label["repair off"]
    assert off["staled"] > 0, off
    assert off["divergences"] > 0, off
    assert off["refreshes"] == 0, off

    # With repair on, both placements converge to digest-equal
    # replicas with a clean full audit on every seed, and the fix is
    # real work (mirror refreshes), not a vacuous pass.
    for label in ("repair on / ring", "repair on / rendezvous"):
        on = by_label[label]
        assert on["staled"] > 0, on
        assert on["audits_ok"] == on["seeds"], on
        assert on["divergences"] == 0, on
        assert on["refreshes"] >= on["staled"], on
        assert on["rounds_diverged"] > 0, on
    run_experiment()


if __name__ == "__main__":
    run_experiment()
