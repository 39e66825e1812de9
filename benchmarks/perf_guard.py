"""CI guard: the no-fault fast path must match BENCH_core.json exactly.

Re-runs the standard insert-burst in the pinned fast configuration
(``repro bench``'s deterministic workload: semisync, accounting
"aggregate", tracing off, leaf cache on, seed 0) and compares the two
deterministic per-op metrics -- events/op and messages/op -- against
the ``fast`` block of the committed ``BENCH_core.json``.  Both
quantities are pure functions of the code and the seed, so any
difference, in either direction, is a real change and fails the
guard: a refactor that claims to be byte-identical is, and a
deliberate change re-pins the baseline via ``repro bench`` in the
same commit.

Wall-clock throughput is intentionally NOT compared: CI machines are
noisy and the virtual-event counts already pin the work done.

Usage: PYTHONPATH=src python benchmarks/perf_guard.py [--ops N]

``--ops`` must match the baseline's op count for the comparison to be
meaningful (events/op shifts with amortization of tree growth), so
the default is taken from BENCH_core.json itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

METRICS = ("events_per_op", "msgs_per_op")


def main() -> int:
    repo_root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=str(repo_root / "BENCH_core.json"),
        help="pinned baseline (default: the committed BENCH_core.json)",
    )
    parser.add_argument(
        "--ops",
        type=int,
        default=None,
        help="op count (default: the baseline's own; must match to compare)",
    )
    args = parser.parse_args()

    sys.path.insert(0, str(repo_root / "src"))
    from repro.perf import run_insert_burst

    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)
    pinned = baseline["fast"]
    num_ops = args.ops if args.ops is not None else baseline["ops"]
    if num_ops != baseline["ops"]:
        print(
            f"warning: running {num_ops} ops against a baseline pinned at "
            f"{baseline['ops']} ops; per-op metrics are not strictly "
            "comparable",
            file=sys.stderr,
        )

    config = pinned["config"]
    result = run_insert_burst(
        num_ops,
        num_processors=config["num_processors"],
        capacity=config["capacity"],
        depth=config["depth"],
        seed=config["seed"],
        protocol=config["protocol"],
        trace_level=config["trace_level"],
        accounting=config["accounting"],
        leaf_cache=config["leaf_cache"],
    )

    failed = False
    for metric in METRICS:
        measured = result[metric]
        reference = pinned[metric]
        verdict = "ok"
        if measured != reference:
            verdict = "CHANGED"
            failed = True
        print(f"{metric}: measured {measured!r} vs pinned {reference!r} {verdict}")
    print(
        f"throughput (informational, not guarded): "
        f"{result['ops_per_sec']:,.0f} ops/s over {num_ops:,} ops"
    )
    if failed:
        print(
            "fast path is not byte-identical to the pinned baseline; if the "
            "change is intentional, re-pin BENCH_core.json via `repro bench`",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
