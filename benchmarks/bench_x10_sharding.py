"""Experiment X10 (extension) -- a forest of dB-trees behind a
shard directory.

One dB-tree tops out at one root's growth path; the sharded facade
runs many trees over the same processor pool behind a B-link-style
partition directory (splits shed rightward with a hint, merges
retire with a forward pointer, client views are lazily refreshed).
Two questions:

* **Elasticity.**  Under a mixed workload (spread inserts, live
  searches, cross-shard scans, then a heavy delete wave), does the
  forest grow and shrink by itself -- at least one load-driven shard
  split and one underflow-driven merge per run -- while the *full*
  audit (per-shard ``check_all`` plus ``check_shard_coverage``:
  no gap, no overlap, every key routable from every client's stale
  view, directory versions converge) stays clean on every seed?
* **Routing cost.**  What does laziness cost?  Stale views recover
  via shed hints and forward pointers instead of blocking on
  directory broadcasts; we count recoveries and hint hops, which
  bound the extra routing work a client ever pays.

Reported per starting size (a pre-carved 8-shard forest and a single
shard left to grow organically): audit/ops verdicts, splits, merges,
keys migrated and the messages that moved them, stale-route
recoveries and hint hops, and the final live shard count (totals over
three seeds).
"""

from common import emit
from repro import ShardedCluster
from repro.stats import format_table

SEEDS = (3, 5, 7)

#: Starting shard counts: a pre-carved 8-shard forest (the ISSUE's
#: acceptance scenario) and organic growth from a single shard.
STARTS = (8, 1)

INSERTS = 420
KEY_SPACE = 6007  # prime; i*17 mod KEY_SPACE is distinct for i < KEY_SPACE
SPLIT_THRESHOLD = 40
MERGE_THRESHOLD = 12


def build_forest(shards, seed):
    boundaries = tuple(
        index * KEY_SPACE // shards for index in range(1, shards)
    )
    return ShardedCluster(
        num_processors=8,
        protocol="semisync",
        capacity=8,
        seed=seed,
        shards=shards,
        initial_boundaries=boundaries,
        shard_split_threshold=SPLIT_THRESHOLD,
        shard_merge_threshold=MERGE_THRESHOLD,
    )


def measure(shards, seed):
    """One full grow-scan-shrink run; returns verdicts + counters."""
    forest = build_forest(shards, seed)
    pids = forest.pids
    ops_ok = True

    # Mixed load: spread inserts with live searches riding along.
    expected = {}
    keys = [(index * 17) % KEY_SPACE for index in range(INSERTS)]
    for index, key in enumerate(keys):
        expected[key] = index
        forest.insert(key, index, client=pids[index % len(pids)])
        if index % 7 == 0:
            forest.search(keys[index // 2], client=pids[(index + 3) % len(pids)])
    ops_ok &= forest.run().ok
    splits = forest.counters["shard_splits"]

    # Cross-shard scans: stitched per-shard B-link walks must equal
    # the sorted model over a range spanning every live shard.
    ordered = sorted(expected)
    low, high = ordered[10], ordered[-10]
    reference = tuple(
        (key, expected[key]) for key in ordered if low <= key < high
    )
    scans_ok = forest.scan_sync(low, high) == reference
    scans_ok &= forest.scan_sync(low, high, limit=25) == reference[:25]

    # Delete wave: shrink the forest back down (underflow merges).
    survivors = 0
    for index, key in enumerate(ordered):
        if index % 8 == 0:
            survivors += 1
            continue
        forest.delete(key, client=pids[index % len(pids)])
        del expected[key]
    ops_ok &= forest.run().ok
    merges = forest.counters["shard_merges"]

    report = forest.check(expected=expected)
    summary = forest.shard_summary()
    return {
        "audit_ok": report.ok,
        "ops_ok": ops_ok,
        "scans_ok": scans_ok,
        "splits": splits,
        "merges": merges,
        "migrated": summary["keys_migrated"],
        "migration_msgs": summary["migration_msgs"],
        "stale_routes": summary["stale_routes"],
        "hint_hops": summary["hint_hops"] + summary["forwards"],
        "live_shards": summary["live_shards"],
    }


def sweep():
    cells = []
    for shards in STARTS:
        runs = [measure(shards, seed) for seed in SEEDS]
        cells.append(
            {
                "start": shards,
                "seeds": len(SEEDS),
                "audits_ok": sum(r["audit_ok"] for r in runs),
                "ops_ok": sum(r["ops_ok"] for r in runs),
                "scans_ok": sum(r["scans_ok"] for r in runs),
                "min_splits": min(r["splits"] for r in runs),
                "min_merges": min(r["merges"] for r in runs),
                "splits": sum(r["splits"] for r in runs),
                "merges": sum(r["merges"] for r in runs),
                "migrated": sum(r["migrated"] for r in runs),
                "migration_msgs": sum(r["migration_msgs"] for r in runs),
                "stale_routes": sum(r["stale_routes"] for r in runs),
                "hint_hops": sum(r["hint_hops"] for r in runs),
                "live_shards": [r["live_shards"] for r in runs],
            }
        )
    return cells


def run_experiment() -> str:
    cells = sweep()
    rows = [
        [
            f"{cell['start']} shard{'s' if cell['start'] > 1 else ''}",
            f"{cell['audits_ok']}/{cell['seeds']}",
            f"{cell['ops_ok']}/{cell['seeds']}",
            f"{cell['scans_ok']}/{cell['seeds']}",
            cell["splits"],
            cell["merges"],
            cell["migrated"],
            cell["migration_msgs"],
            f"{cell['stale_routes']} ({cell['hint_hops']} hops)",
            "/".join(str(n) for n in cell["live_shards"]),
        ]
        for cell in cells
    ]
    table = format_table(
        [
            "start size",
            "audits ok",
            "all ops ok",
            "scans match",
            "splits",
            "merges",
            "keys migrated",
            "migration msgs",
            "stale routes",
            "final shards",
        ],
        rows,
        title=(
            "X10: sharded forest under a mixed grow-scan-shrink "
            "workload (420 inserts + searches, cross-shard scans, "
            "7/8 deleted) -- load-driven splits and underflow merges "
            "on every seed, full audit incl. shard coverage clean, "
            "stale client views recover via shed hints / forward "
            "pointers (totals over three seeds)"
        ),
    )
    return emit("x10_sharding", table)


def test_x10_sharding(benchmark):
    cells = benchmark.pedantic(sweep, rounds=1, iterations=1)

    for cell in cells:
        # Every seed converges to a clean full audit -- per-shard
        # tree invariants plus directory coverage -- and the mixed
        # workload (including the cross-shard scans) succeeds.
        assert cell["audits_ok"] == cell["seeds"], cell
        assert cell["ops_ok"] == cell["seeds"], cell
        assert cell["scans_ok"] == cell["seeds"], cell
        # The forest is elastic on every seed: the load drives at
        # least one split, the delete wave at least one merge, and
        # rebalancing actually moved keys.
        assert cell["min_splits"] >= 1, cell
        assert cell["min_merges"] >= 1, cell
        assert cell["migrated"] > 0, cell

    # Laziness was exercised: some client routed through a stale
    # view and recovered via the B-link-style chain.
    assert sum(cell["stale_routes"] for cell in cells) > 0, cells
    run_experiment()


if __name__ == "__main__":
    run_experiment()
