"""Tests of the benchmark itself: ``python -m pytest bench -q``.

Kept out of ``tests/`` (tier 1 is the program's suite, this is the
ruler's) and not named ``bench_*.py`` (``pyproject.toml`` would collect
that as a pytest-benchmark file).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402
from metrics import benchmark_json_metrics  # noqa: E402
from spans import ENTRY_POINTS, SpanTracer  # noqa: E402
from workloads import WORKLOADS, lane_seed  # noqa: E402

SMOKE_SCALE = 0.02


def last_json(capsys: pytest.CaptureFixture) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_end_to_end(name: str, capsys: pytest.CaptureFixture) -> None:
    status = run.main(
        ["--workload", name, "--scale", str(SMOKE_SCALE), "--seconds", "0", "--trace", "0"]
    )
    assert status == 0
    result = last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_traced(name: str, capsys: pytest.CaptureFixture) -> None:
    before = entry_point_table()
    status = run.main(["--workload", name, "--scale", str(SMOKE_SCALE), "--traced"])
    assert status == 0
    result = last_json(capsys)
    assert result["correct"] is True and result["failed"] == 0
    metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    # the layers every workload goes through were seen working
    for layer in ("sim.events", "sim.processor", "core.dbtree", "protocols"):
        assert metrics[f"{layer}.calls_per_op"] > 0
        assert 0 < metrics[f"{layer}.self_share"] < 1
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["repair.residual_divergence"] == 0
    if name == run.LEDGER_WORKLOAD:
        assert metrics["sim.reliable.events_scheduled_per_op"] > 0
        for layer in ("tracing", "reliable", "crash", "repair"):
            assert metrics[f"ledger.{layer}.events_ratio"] >= 1.0
            assert metrics[f"ledger.{layer}.cost_ratio"] > 0
    if name in run.PROFILED:
        assert metrics["sim.events.py_calls_per_event"] > 1
    if name == "sharded_mixed":
        assert metrics["shard.calls_per_op"] > 0
    trace_file = run.RESULTS_DIR / f"trace-{name}.jsonl"
    spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert spans and {"id", "parent", "name", "start", "end", "op"} <= set(spans[0])
    assert any(span["op"] is not None for span in spans)
    # the traced pass left nothing behind
    assert entry_point_table() == before


def entry_point_table() -> dict[str, object]:
    """What every wrappable attribute currently is, by identity."""
    import importlib

    table: dict[str, object] = {}
    for _, module_name, class_name, names, _ in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        for name, value in vars(owner).items():
            if any(name == n or (n.endswith("*") and name.startswith(n[:-1])) for n in names):
                table[f"{module_name}.{class_name}.{name}"] = value
    from repro.protocols import PROTOCOLS, make_protocol

    for protocol in PROTOCOLS:
        cls = type(make_protocol(protocol))
        table[f"protocol {protocol}"] = tuple(sorted(vars(cls)))
    return table


def test_span_wrappers_are_removed_even_when_the_pass_fails() -> None:
    from repro.protocols import make_protocol
    from repro.sim.events import EventQueue

    before = entry_point_table()
    tracer = SpanTracer()
    tracer.install(type(make_protocol("variable")))
    try:
        assert entry_point_table() != before
        assert EventQueue.push.__wrapped__ is before["repro.sim.events.EventQueue.push"]
    finally:
        tracer.uninstall()
    assert entry_point_table() == before
    assert tracer.missing == []


def test_missing_entry_point_is_reported_not_fatal(monkeypatch: pytest.MonkeyPatch) -> None:
    import spans

    monkeypatch.setattr(
        spans,
        "ENTRY_POINTS",
        spans.ENTRY_POINTS
        + (
            ("repair", "repro.repair.no_such_module", "Gone", ("method",), None),
            ("sim.events", "repro.sim.events", "EventQueue", ("no_such_method",), None),
        ),
    )
    tracer = SpanTracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == [
        "repro.repair.no_such_module.Gone",
        "repro.sim.events.EventQueue.no_such_method",
    ]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_are_a_pure_function_of_the_seed(name: str) -> None:
    workload = WORKLOADS[name]
    first = workload.generate(7, SMOKE_SCALE)
    again = workload.generate(7, SMOKE_SCALE)
    other = workload.generate(8, SMOKE_SCALE)
    assert first == again
    assert first != other


def test_lanes_draw_distinct_seeds() -> None:
    seeds = [lane_seed(3, lane) for lane in range(4)]
    assert seeds[0] == 3 and len(set(seeds)) == 4
    assert seeds == [lane_seed(3, lane) for lane in range(4)]


def test_insert_burst_is_the_pinned_standard_burst() -> None:
    """Same submission order as ``repro.perf.run_insert_burst``: the
    benchmark's numbers continue BENCH_core.json's, not a lookalike's."""
    from repro.perf import run_insert_burst

    ours = run.measure(WORKLOADS["insert_burst"], 0, 0.05)
    theirs = run_insert_burst(ours.ops, seed=0)
    assert ours.events == theirs["events_executed"]
    assert ours.msgs == theirs["messages_sent"]
    assert ours.vt == theirs["final_virtual_time"]


def test_a_wrong_result_is_counted_and_a_failed_audit_is_fatal(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
) -> None:
    from repro.core.node import NodeCopy

    genuine = NodeCopy.lookup
    monkeypatch.setattr(NodeCopy, "lookup", lambda self, key: genuine(self, key) + 1)
    status = run.main(["--workload", "read_hot", "--scale", str(SMOKE_SCALE), "--seconds", "0"])
    assert status == 0  # stored contents are intact: the audit passes
    result = last_json(capsys)
    assert result["correct"] is False and result["failed"] > 0
    monkeypatch.undo()

    genuine_insert = NodeCopy.insert_entry

    def lossy(self: NodeCopy, key: int, payload: object) -> bool:
        return True if self.is_leaf and key == 5 else genuine_insert(self, key, payload)

    monkeypatch.setattr(NodeCopy, "insert_entry", lossy)
    status = run.main(["--workload", "insert_burst", "--scale", str(SMOKE_SCALE), "--seconds", "0"])
    captured = capsys.readouterr()
    assert status != 0
    assert "INVALID RUN" in captured.err and not captured.out.strip().endswith("}")


def test_a_pass_that_does_not_repeat_is_fatal(monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    genuine = run.measure
    calls = []

    def drifting(*args, **kwargs):
        result = genuine(*args, **kwargs)
        calls.append(result)
        result.msgs += len(calls)
        return result

    monkeypatch.setattr(run, "measure", drifting)
    status = run.main(["--workload", "insert_burst", "--scale", str(SMOKE_SCALE), "--seconds", "0"])
    assert status != 0
    assert "determinism check failed" in capsys.readouterr().err


def test_an_unusable_stream_is_replaced_once_and_for_all(monkeypatch: pytest.MonkeyPatch) -> None:
    from workloads import StreamUnusable

    genuine = run.measure
    seeds_tried = []

    def first_seed_never_finishes(workload, seed, scale, **how):
        seeds_tried.append(seed)
        if seed == 11:
            raise StreamUnusable(f"seed {seed}: livelock")
        return genuine(workload, seed, scale, **how)

    monkeypatch.setattr(run, "measure", first_seed_never_finishes)
    result = run.run_end_to_end(WORKLOADS["insert_burst"], 11, 0.0, SMOKE_SCALE)
    replacement = lane_seed(11, 0, 1)
    assert seeds_tried == [11, replacement, replacement, replacement]
    assert result["info"]["replaced_streams"] == ["seed 11: livelock"]
    assert result["failed"] == 0


def test_benchmark_json_matches_the_catalogue() -> None:
    manifest = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    expected = benchmark_json_metrics()
    assert manifest["end_to_end"] == expected["end_to_end"]
    assert manifest["per_layer"] == expected["per_layer"]
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOAD_NAMES)
    assert manifest["paths"] == ["bench"]


def test_compare_verdicts(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    def one_set(ops_per_cal: float, msgs: float) -> dict:
        metrics = {"ops_per_cal": {"value": ops_per_cal}, "msgs_per_op": {"value": msgs}}
        return {
            "seed": 0,
            "scale": 1.0,
            "workloads": {"insert_burst": {"end_to_end": {"metrics": metrics}}},
        }

    def write(name: str, content: dict) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(content))
        return str(path)

    base = write("a.json", one_set(100.0, 5.0))
    assert compare.main([base, write("same.json", one_set(99.0, 5.0))]) == 0
    out = capsys.readouterr().out
    assert "2 ok, 0 worse" in out and "1 identical, 0 differ" in out
    assert compare.main([base, write("slow.json", one_set(60.0, 7.0))]) == 1
    out = capsys.readouterr().out
    assert "0 ok, 2 worse" in out and "0 identical, 1 differ" in out
    # one side too spread out to say anything
    noisy = ",".join(
        write(f"n{i}.json", one_set(value, 5.0)) for i, value in enumerate((60, 100, 140, 180))
    )
    assert compare.main([base, noisy]) == 0
    assert "1 ok, 0 worse, 1 unresolved" in capsys.readouterr().out
