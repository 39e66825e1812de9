"""CI guard: the pinned bursts must match BENCH_core.json exactly.

Re-runs the standard insert-burst in each pinned configuration and
compares the deterministic metrics -- events/op, messages/op, physical
frames/op, messages piggybacked/op, actions/op, the busy spread (the
busiest processor's busy time over the mean: work moved onto one
processor slows a closed loop even when the totals fall) and the
virtual time at the end -- against the committed ``BENCH_core.json``: the ``fast`` block (``repro bench``'s workload: semisync, accounting
"aggregate", tracing off, leaf cache on, seed 0, no faults) and the
``enforced`` block (the same burst, shorter, over a substrate that
drops one frame in ten with the reliable-delivery layer on, where a
retransmit-timer flood would show as events/op) and the ``repair``
block (the burst under ``variable`` with anti-entropy gossiping every
150 vt, where the rounds started, the rounds that diverged and the
digest bytes sent pin the gossip schedule as well) and the ``crash`` block (the ``variable``
burst with op timers, two copies of every leaf and one 800-vt crash of
a client's home mid-run: the path operations take when their home
dies) and the ``read`` block (a ``variable`` tree preloaded with
inserts, then a closed loop of 95 % searches: the read path, counted
after the preload, though its final virtual time includes it) and the
``sync``, ``variable`` and ``mobile`` blocks (the fault-free burst,
a tenth as long, under each other protocol).  Each block's
``final_virtual_time`` is compared as well: per-op counts do not show
a channel that repairs its losses too slowly and falls behind (the
``enforced`` burst once needed 133,231 vt for work that takes 43,680),
the virtual time the closed loop needs to finish does.  The
quantities are pure functions of the code and the seed, so any
difference, in either direction, is a real change and fails the
guard: a refactor that claims to be byte-identical is, and a
deliberate change re-pins the baseline via ``repro bench`` in the same
commit.

Wall-clock throughput is intentionally NOT compared: CI machines are
noisy and the virtual-event counts already pin the work done.  The
host work is pinned another way: the ``opcodes`` block holds the Python
opcodes a 2,000-op slice of each of the eight rows executes, in total
and per ``repro`` subpackage (``repro.perf.count_opcodes``).
Bytecode differs between interpreters, so those counts are compared,
exactly, only under the interpreter that pinned them; under any other
the guard says it skipped them.  On a failure its closing line names
the rows whose simulated quantities moved apart from the rows whose
opcode counts moved, so a host-cost-only drift reads as one.

Usage: PYTHONPATH=src python benchmarks/perf_guard.py [--ops N]

``--ops`` must match a block's op count for the comparison to be
meaningful (events/op shifts with amortization of tree growth), so
the default is taken from each block of BENCH_core.json itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

METRICS = (
    "events_per_op",
    "msgs_per_op",
    "frames_per_op",
    "piggybacked_per_op",
    "actions_per_op",
    "busy_spread",
    "final_virtual_time",
)
#: block -> the quantities pinned for it
BLOCKS = {
    "fast": METRICS,
    "enforced": METRICS,
    "repair": METRICS + ("rounds_started", "rounds_diverged", "digest_bytes"),
    "crash": METRICS,
    "read": METRICS,
    "sync": METRICS,
    "variable": METRICS,
    "mobile": METRICS,
}


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
    from repro.perf import OPCODE_ROWS, count_opcodes, python_version, run_insert_burst

    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)
    #: rows whose simulated quantities / opcode counts differ
    sim_moved: dict[str, None] = {}
    opcodes_moved: dict[str, None] = {}
    for block, metrics in BLOCKS.items():
        pinned = baseline[block]
        num_ops = args.ops if args.ops is not None else pinned["ops_completed"]
        if num_ops != pinned["ops_completed"]:
            print(
                f"warning: running {num_ops} ops against a {block} block pinned "
                f"at {pinned['ops_completed']} ops; per-op metrics are not "
                "strictly comparable",
                file=sys.stderr,
            )
        result = run_insert_burst(num_ops, **pinned["config"])
        for metric in metrics:
            measured = result[metric]
            reference = pinned[metric]
            verdict = "ok"
            if measured != reference:
                verdict = "CHANGED"
                sim_moved[block] = None
            print(
                f"{block} {metric}: measured {measured!r} "
                f"vs pinned {reference!r} {verdict}"
            )
        print(
            f"{block} throughput (informational, not guarded): "
            f"{result['ops_per_sec']:,.0f} ops/s over {num_ops:,} ops"
        )
    opcodes = baseline["opcodes"]
    if opcodes["python"] != python_version():
        opcodes_note = "opcodes skipped"
        print(
            f"opcodes: skipped (pinned under {opcodes['python']}, "
            f"running {python_version()})"
        )
    else:
        for row in OPCODE_ROWS:
            pinned = opcodes[row]
            measured = count_opcodes(pinned["ops"], pinned["config"])
            ours = {"total": measured["total"], **measured["by_subpackage"]}
            theirs = {"total": pinned["total"], **pinned["by_subpackage"]}
            for label in dict.fromkeys([*theirs, *ours]):
                got, want = ours.get(label, 0), theirs.get(label, 0)
                verdict = "ok"
                if got != want:
                    verdict = "CHANGED"
                    opcodes_moved[row] = None
                print(
                    f"{row} opcodes {label}: measured {got!r} "
                    f"vs pinned {want!r} {verdict}"
                )
        opcodes_note = (
            f"opcodes moved in: {', '.join(opcodes_moved)}"
            if opcodes_moved
            else "opcodes exact"
        )
    if sim_moved or opcodes_moved:
        simulated = (
            f"simulated quantities moved in: {', '.join(sim_moved)}"
            if sim_moved
            else "simulated quantities exact"
        )
        print(
            f"{simulated}; {opcodes_note}; if the change is intentional, "
            "re-pin BENCH_core.json via `repro bench`",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
