"""Compare two sets of benchmark runs: ``python3 bench/compare.py A.json B.json``.

A set is what ``bench/run.py --out FILE`` (no ``--workload``) writes.
Either side may be several sets, comma-separated
(``a1.json,a2.json b1.json,b2.json``); each side is then summarised by
its median, and the spread between its quartiles decides what can be
said.  One row per (workload, metric):

    A  B  ratio B/A (base A)  bound  verdict

Verdicts for end-to-end metrics, against the bounds in
``BENCHMARK.json``:

* ``ok`` -- B's median is not worse than A's by more than the bound;
* ``worse`` -- it is;
* ``unresolved`` -- the runs of one side spread wider than the bound,
  so neither of the above can be claimed (unless every run of B reads
  better than every run of A, which is ``ok``).

Per-layer metrics have no bound; their verdict is ``same`` or
``moved``.  Metrics that are simulated quantities or call counts must
repeat exactly on one seed; when both sides ran the same seed and
scale the last column says whether they did (``=`` / ``differs``).

Exit status 1 when any end-to-end metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, repeats_exactly


def load(spec: str) -> list[dict]:
    return [json.loads(Path(path).read_text(encoding="utf-8")) for path in spec.split(",")]


def values(sets: list[dict], workload: str, block: str, metric: str) -> list[float]:
    found = []
    for one in sets:
        entry = one["workloads"].get(workload, {}).get(block, {}).get("metrics", {})
        if metric in entry:
            found.append(entry[metric]["value"])
    return found


def spread(runs: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(runs) < 2 or statistics.median(runs) == 0:
        return 0.0
    low, _, high = statistics.quantiles(runs, n=4)
    return (high - low) / abs(statistics.median(runs))


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> str:
    med_a, med_b = statistics.median(a), statistics.median(b)
    if bound is None:
        return "same" if a == b else "moved"
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (med_b - med_a) / abs(med_a) if med_a else sign * (med_b - med_a)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved"
    return "worse" if worsening > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    side_a, side_b = load(argv[0]), load(argv[1])
    manifest = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
    )
    bounds = {entry["name"]: entry["bound"] for entry in manifest["end_to_end"]}
    same_inputs = (
        len({(one["seed"], one["scale"]) for one in side_a + side_b}) == 1
    )
    counts = {"ok": 0, "worse": 0, "unresolved": 0, "same": 0, "moved": 0}
    identical = differing = 0
    print(
        f"{'workload':<14} {'metric':<40} {'A':>14} {'B':>14} "
        f"{'B/A':>9} {'bound':>6}  verdict"
    )
    workloads = [w["name"] for w in manifest["workloads"]]
    for workload in workloads:
        for block, catalogue in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            for metric, spec in catalogue.items():
                a = values(side_a, workload, block, metric)
                b = values(side_b, workload, block, metric)
                if not a or not b:
                    continue
                bound = bounds.get(metric) if block == "end_to_end" else None
                outcome = verdict(a, b, spec[1], bound)
                counts[outcome] += 1
                med_a, med_b = statistics.median(a), statistics.median(b)
                ratio = f"{med_b / med_a:9.4f}" if med_a else "        -"
                exact = ""
                if same_inputs and repeats_exactly(metric):
                    if len(set(a + b)) == 1:
                        identical += 1
                        exact = "  ="
                    else:
                        differing += 1
                        exact = "  differs"
                shown = f"{bound:6.2f}" if bound is not None else "     -"
                print(
                    f"{workload:<14} {metric:<40} {med_a:14.6f} {med_b:14.6f} "
                    f"{ratio} {shown}  {outcome}{exact}"
                )
    print(
        f"end-to-end: {counts['ok']} ok, {counts['worse']} worse, "
        f"{counts['unresolved']} unresolved; per-layer: {counts['same']} same, "
        f"{counts['moved']} moved"
    )
    if same_inputs:
        print(
            f"metrics that must repeat exactly on one seed: {identical} identical, "
            f"{differing} differ"
        )
    else:
        print("the sets ran different seeds or scales: exact repetition not checked")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
