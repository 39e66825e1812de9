"""The benchmark: ``python3 bench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the root of a checkout.

One process runs one workload.  ``--trace 0`` measures the end-to-end
metrics on untraced passes repeated until ``--seconds`` are spent;
``--trace 1`` makes one untraced and one span-traced pass on the same
inputs (plus a profiled pass or the layer-cost ledger where the
workload has one) and reports the per-layer metrics.  Either way every
metric is printed by name with its unit, every output is checked, and
the last line of standard output is the result as one JSON object.
Without ``--workload`` every workload is run both ways, each in a
process of its own, and the set is written to ``--out`` for
``bench/compare.py``.

Host time.  Timed phases are measured with ``time.process_time()`` (the
simulator is one thread and does no I/O) and priced in runs of the
frozen slice in ``calibrate.py``, which the runner executes every 25 ms
in the gaps of the phase itself (from the drivers' completion
callbacks), so a pass costs "so many calibration loops", which moves
far less with machine load than seconds do.  Raw seconds are printed
under ``info`` and are not metrics.

Exit status is non-zero, with no result line, when the program cannot
be imported, an audit fails, or two passes on the same inputs disagree
on any simulated quantity.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from calibrate import LOOP_SLICES, NOMINAL_LOOP_S, calibration_slice  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

#: Workloads whose traced run adds a cProfile pass.
PROFILED = ("insert_burst", "read_hot")
LEDGER_WORKLOAD = "layers_on"
#: A set-up shorter than this is timed this many times more after
#: each pass.
SHORT_SETUP_S = 0.25
EXTRA_SETUPS = 3
#: A ledger row runs in a fraction of a second and so gets only a
#: handful of calibration slices; its cost is the median of a few.
LEDGER_PASSES = 3
WORKLOAD_NAMES = ("insert_burst", "read_hot", "sharded_mixed", "layers_on")


class BenchmarkError(RuntimeError):
    """The run is invalid: nothing it measured may be reported."""


@dataclass
class Pass:
    """One fresh cluster taken through set-up, timed phase and audit."""

    ops: int
    completed: int
    wrong: int
    vt: float
    latencies: list[float]  # sorted; emptied on repeat passes once compared
    lat_p50: float
    lat_p99: float
    events: int
    msgs: int
    wire: int
    layers: dict[str, float]
    spans: dict[str, float]
    cpu_s: float  # of the timed phase, calibration slices excluded
    cost: float  # cpu_s in calibration loops
    setup_s: float
    info: dict[str, Any]
    examples: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.ops - self.completed + self.wrong

    def simulated(self) -> tuple:
        """Everything that must repeat exactly on the same inputs."""
        return (
            self.ops,
            self.completed,
            self.wrong,
            self.vt,
            self.events,
            self.msgs,
            self.wire,
            self.lat_p50,
            self.lat_p99,
            sorted(self.layers.items()),
        )


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a sorted list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


class Yardstick:
    """Runs the frozen calibration slice in the gaps of a timed phase.

    Drivers call :meth:`pulse` at every completed operation; whenever
    ``INTERVAL`` has passed since the last slice, one more runs.  The
    slices' CPU time is kept apart from the phase's.  The collector is
    held off while a slice runs: a slice frees all it allocates, but
    its allocations could still be the ones that tip a full collection
    of the simulator's heap (0.1-0.3 s here), which would then be
    charged to the yardstick and not to the program that owns the heap.
    """

    INTERVAL = 0.025

    def __init__(self) -> None:
        self.slices: list[float] = []
        self._due = 0.0

    def pulse(self) -> None:
        if time.perf_counter() >= self._due:
            self.slice()

    def slice(self) -> None:
        gc.disable()
        try:
            self.slices.append(calibration_slice())
        finally:
            gc.enable()
        self._due = time.perf_counter() + self.INTERVAL

    def loop_s(self) -> float:
        """CPU seconds of one calibration loop at the pace seen."""
        return LOOP_SLICES * statistics.mean(self.slices)


def set_up(workload: Any, seed: int, scale: float) -> tuple[Any, Any, float]:
    """Generate the inputs and build (and preload) the cluster.

    Returns both and the set-up's CPU seconds *at the yardstick's
    nominal pace*: raw seconds come in a fast and a slow mode on this
    box (the same preload took 1.25 s to 2.07 s), so the set-up is
    priced in calibration loops like any timed phase -- a slice before,
    a slice after, slices every 25 ms in between where the set-up runs
    the cluster -- and converted back at ``NOMINAL_LOOP_S`` per loop.
    """
    gc.collect()
    yardstick = Yardstick()
    yardstick.slice()
    started = time.process_time()
    inputs = workload.generate(seed, scale)
    cluster = workload.build(inputs, yardstick.pulse)
    cpu_s = time.process_time() - started - sum(yardstick.slices[1:])
    yardstick.slice()
    return inputs, cluster, NOMINAL_LOOP_S * cpu_s / yardstick.loop_s()


def measure(
    workload: Any,
    seed: int,
    scale: float,
    tracer: Any = None,
    profiler: cProfile.Profile | None = None,
) -> Pass:
    """Set up, run and audit one pass; raises if the audit fails."""
    from counters import layer_metrics, snapshot
    from workloads import identity, no_pulse

    # A profiled pass counts calls, so it must not make any of its own.
    yardstick = Yardstick() if profiler is None else None
    inputs, cluster, setup_s = set_up(workload, seed, scale)
    before = snapshot(cluster)
    if tracer is not None:
        tracer.start_phase()
    if profiler is not None:
        profiler.enable()
    cpu = time.process_time()
    outcome = workload.drive(
        cluster,
        inputs,
        tracer.wrap_driver if tracer is not None else identity,
        yardstick.pulse if yardstick is not None else no_pulse,
    )
    cpu_s = time.process_time() - cpu
    if profiler is not None:
        profiler.disable()
    if yardstick is not None:
        cpu_s -= sum(yardstick.slices)
        if not yardstick.slices:  # nothing completed, so nothing pulsed
            yardstick.pulse()
    spans = tracer.end_phase(outcome.submitted) if tracer is not None else {}
    after = snapshot(cluster)
    problems = workload.audit(cluster, inputs, outcome)
    if problems:
        raise BenchmarkError(
            f"{workload.name} (seed {seed}) failed its audit:\n  "
            + "\n  ".join(problems[:10])
        )
    outcome.latencies.sort()
    return Pass(
        ops=outcome.submitted,
        completed=outcome.completed,
        wrong=outcome.wrong,
        vt=outcome.vt_end - outcome.vt_start,
        latencies=outcome.latencies,
        lat_p50=percentile(outcome.latencies, 0.50),
        lat_p99=percentile(outcome.latencies, 0.99),
        events=int(after["events"] - before["events"]),
        msgs=int(after["sent"] - before["sent"]),
        wire=int(after["physical_sent"] - before["physical_sent"]),
        layers=layer_metrics(
            cluster, before, after, outcome.submitted, outcome.info.get("scans", 0)
        ),
        spans=spans,
        cpu_s=cpu_s,
        cost=cpu_s / yardstick.loop_s() if yardstick is not None else 0.0,
        setup_s=setup_s,
        info=outcome.info,
        examples=outcome.examples,
    )


class Streams:
    """Which seed each lane of a run uses.

    Normally ``lane_seed(seed, lane)``.  When the program cannot finish
    a lane's op stream (``StreamUnusable``), the lane moves on to the
    next seed of its own sequence, the same one every time, so the
    inputs remain a function of ``--seed`` alone.
    """

    MAX_ATTEMPTS = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempt: dict[int, int] = {}
        self.replaced: list[str] = []

    def measure(self, workload: Any, lane: int, scale: float, **how: Any) -> Pass:
        from workloads import StreamUnusable, lane_seed

        while True:
            attempt = self.attempt.setdefault(lane, 0)
            try:
                return measure(workload, lane_seed(self.seed, lane, attempt), scale, **how)
            except StreamUnusable as exc:
                if attempt + 1 >= self.MAX_ATTEMPTS:
                    raise BenchmarkError(f"lane {lane}: {exc}, and so were its replacements")
                self.replaced.append(str(exc))
                self.attempt[lane] = attempt + 1


def require_same(reference: Pass, other: Pass, what: str) -> None:
    if reference.simulated() != other.simulated():
        raise BenchmarkError(
            f"determinism check failed: {what} disagrees with the first pass "
            f"on the same inputs\n  first: {reference.simulated()[:9]}\n"
            f"  other: {other.simulated()[:9]}"
        )


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def run_end_to_end(workload: Any, seed: int, seconds: float, scale: float) -> dict[str, Any]:
    streams = Streams(seed)
    deadline = time.perf_counter() + seconds
    lanes: list[list[Pass]] = [[] for _ in range(workload.lanes)]
    setups: list[float] = []
    count = 0
    while True:
        lane = count % workload.lanes
        began = time.perf_counter()
        result = streams.measure(workload, lane, scale)
        if lanes[lane]:
            require_same(lanes[lane][0], result, f"pass {count + 1}")
            # Only the first pass's samples are reported; holding every
            # pass's would make peak RSS grow with the number of passes.
            result.latencies = []
        lanes[lane].append(result)
        count += 1
        # Set-up is timed once per pass; where it is short, time it a
        # few times more here (inputs and cluster built, then dropped),
        # so that the samples are many and spread over the whole run.
        setups.append(result.setup_s)
        for _ in range(EXTRA_SETUPS):
            if result.setup_s < SHORT_SETUP_S:
                setups.append(set_up(workload, seed, scale)[2])
        spent = time.perf_counter() - began
        if count >= max(3, workload.lanes) and time.perf_counter() + spent > deadline:
            break
    firsts = [passes[0] for passes in lanes]
    every = [result for passes in lanes for result in passes]
    ops = sum(first.ops for first in firsts)
    latencies = sorted(value for first in firsts for value in first.latencies)
    cost = sum(statistics.median(p.cost for p in passes) for passes in lanes)
    cpu_s = sum(statistics.median(p.cpu_s for p in passes) for passes in lanes)
    return {
        "attempted": ops,
        "failed": sum(first.failed for first in firsts),
        "wrong": sum(first.wrong for first in firsts),
        "examples": [text for first in firsts for text in first.examples][:5],
        "metrics": {
            "ops_per_cal": ops / cost,
            "sim_ops_per_kvt": 1000.0 * ops / sum(first.vt for first in firsts),
            "sim_lat_p50": percentile(latencies, 0.50),
            "sim_lat_p99": percentile(latencies, 0.99),
            "msgs_per_op": sum(first.msgs for first in firsts) / ops,
            "wire_per_op": sum(first.wire for first in firsts) / ops,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        },
        "info": {
            "passes": count,
            "lanes": workload.lanes,
            "replaced_streams": streams.replaced,
            "setup_samples_s": [round(value, 5) for value in setups],
            "latency_samples": len(latencies),
            "failed_op_share": sum(first.failed for first in firsts) / ops,
            "ops_per_s": ops / cpu_s,
            "timed_cpu_s": cpu_s,
            "pass_cpu_s": [round(p.cpu_s, 4) for p in every],
            "pass_cost_cal": [round(p.cost, 4) for p in every],
            "events_per_op": sum(first.events for first in firsts) / ops,
            **firsts[0].info,
        },
    }


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def run_per_layer(workload: Any, seed: int, scale: float) -> dict[str, Any]:
    from repro.protocols import make_protocol
    from spans import SpanTracer
    from workloads import LayersOn

    streams = Streams(seed)
    reference = streams.measure(workload, 0, scale)
    tracer = SpanTracer()
    tracer.install(type(make_protocol(workload.protocol)))
    try:
        traced = streams.measure(workload, 0, scale, tracer=tracer)
    finally:
        tracer.uninstall()
    require_same(reference, traced, "the span-traced pass")
    RESULTS_DIR.mkdir(exist_ok=True)
    tracer.write_raw(str(RESULTS_DIR / f"trace-{workload.name}.jsonl"))
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(reference.layers)
    metrics.update(traced.spans)
    metrics["trace.overhead_ratio"] = traced.cost / reference.cost
    info: dict[str, Any] = {
        "untraced_cost_cal": reference.cost,
        "traced_cost_cal": traced.cost,
        "replaced_streams": streams.replaced,
        **tracer.info,
    }
    failed = reference.failed
    if workload.name in PROFILED:
        profiler = cProfile.Profile()
        profiled = streams.measure(workload, 0, scale, profiler=profiler)
        require_same(reference, profiled, "the profiled pass")
        calls = sum(entry.callcount for entry in profiler.getstats())
        metrics["sim.events.py_calls_per_event"] = calls / profiled.events
        info["profiled_calls"] = calls
    if workload.name == LEDGER_WORKLOAD:
        rows = {}
        for variant in LayersOn.variants:
            passes = [
                streams.measure(LayersOn(variant), 0, scale) for _ in range(LEDGER_PASSES)
            ]
            require_same(passes[0], passes[-1], f"ledger row {variant}")
            rows[variant] = (passes[0], statistics.median(p.cost for p in passes))
            failed += passes[0].failed
        bare, bare_cost = rows.pop("bare")
        for variant, (row, cost) in rows.items():
            metrics[f"ledger.{variant}.events_ratio"] = row.events / bare.events
            metrics[f"ledger.{variant}.cost_ratio"] = cost / bare_cost
        info["ledger_bare_events_per_op"] = bare.events / bare.ops
        info["ledger_bare_cost_cal"] = bare_cost
    return {
        "attempted": reference.ops,
        "failed": failed,
        "wrong": reference.wrong,
        "examples": reference.examples,
        "metrics": metrics,
        "info": info,
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def report(name: str, args: argparse.Namespace, result: dict[str, Any]) -> None:
    catalogue = PER_LAYER if args.trace else END_TO_END
    print(
        f"workload {name}  seed {args.seed}  scale {args.scale}  "
        f"trace {args.trace}  attempted {result['attempted']}  failed {result['failed']}"
    )
    width = max(len(metric) for metric in result["metrics"])
    for metric, value in result["metrics"].items():
        unit, better = catalogue[metric][:2]
        print(f"  {metric:<{width}}  {value:>16.6f}  {unit:<12} {better} is better")
    print("info (not metrics):")
    for key, value in result["info"].items():
        print(f"  {key}: {value}")
    for text in result["examples"]:
        print(f"  wrong result: {text}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["wrong"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    metric: {"value": value, "unit": catalogue[metric][0]}
                    for metric, value in result["metrics"].items()
                },
            }
        )
    )


def run_set(args: argparse.Namespace) -> int:
    """Every workload, both ways, one process each; write the set."""
    collected: dict[str, Any] = {"seed": args.seed, "scale": args.scale, "workloads": {}}
    for name in WORKLOAD_NAMES:
        entry: dict[str, Any] = {}
        for trace in (0, 1):
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--scale", str(args.scale),
                "--trace", str(trace),
            ]  # fmt: skip
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            if done.returncode != 0:
                print(f"{name} --trace {trace} exited {done.returncode}", file=sys.stderr)
                return done.returncode
            entry["per_layer" if trace else "end_to_end"] = json.loads(
                done.stdout.strip().splitlines()[-1]
            )
        collected["workloads"][name] = entry
    out = Path(args.out) if args.out else RESULTS_DIR / f"set-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(collected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all, as a set")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument(
        "--seconds",
        type=float,
        default=20.0,
        help="untraced passes repeat until this much time is spent (default 20)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="common factor on every op count; 1.0 is the benchmark",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1, help="same as --trace 1"
    )
    parser.add_argument("--out", help="where a full set is written (without --workload)")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if args.workload is None:
        return run_set(args)
    try:
        import repro  # noqa: F401  (the program under test, from src/)
    except ImportError as exc:
        print(f"cannot import the program under test (src/repro): {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            result = run_per_layer(workload, args.seed, args.scale)
        else:
            result = run_end_to_end(workload, args.seed, args.seconds, args.scale)
    except BenchmarkError as exc:
        print(f"INVALID RUN: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args, result)
    return 0


if __name__ == "__main__":
    # Set iteration order must not depend on the interpreter's hash seed.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(
            sys.executable,
            [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    sys.exit(main())
