"""The benchmark's host-speed yardstick.  FROZEN: never edit this file.

``ops_per_cal`` and every ``cost_ratio`` divide the CPU time of a timed
phase by the CPU time of :func:`calibration_slice`, which the runner
executes every few tens of milliseconds *inside* that phase, so that
whatever slows the machine down slows numerator and denominator
together.  Any edit to the slice -- even one that leaves its result
unchanged -- re-bases every number ever reported, so a later PR that
needs a different yardstick adds a new file and a new metric name
instead of touching this one.

The slice is a miniature of the simulator's own hot path (see
``repro.sim.events``): a binary heap of ``(float, int, partial(bound
method))`` tuples, popped in time order, each firing doing one dict
read and one dict write and scheduling its successor.  It allocates
what the kernel allocates (a tuple and a partial per event), so the
interpreter and the allocator weigh on both alike.

Why slices and not one loop before and after.  On this shared 2-core
box the CPU time of a fixed piece of work wanders by 40 % in stretches
that last from tens of milliseconds to several seconds (a loop of
0.3 s came out either near 0.23 s or near 0.32 s with little in
between; identical 3 s insert bursts took 2.9 s to 4.3 s).  A reading
taken next to a 3 s phase says little about the conditions during it:
dividing by it made ``ops_per_cal`` wander 12 % between identical runs.
Slices taken every 25 ms through the phase see what the phase sees;
the same ratio then stays within 3.4 % (quartiles 2.3 %) over six runs
whose raw seconds spread 30 %.
"""

from __future__ import annotations

import heapq
import time
from functools import partial

#: Events per slice; about 2.5 ms here.
SLICE_ITERATIONS = 2_500
#: Slices per "calibration loop", the unit ``ops_per_cal`` is stated
#: in: 300,000 events, about 0.3 s here.
LOOP_SLICES = 120
#: Seconds one loop took, undisturbed, on the box the benchmark was
#: written on.  Only ``setup_s`` uses it: a set-up's cost in loops times
#: this constant is its CPU time with the machine's mood taken out,
#: still in seconds.
NOMINAL_LOOP_S = 0.27
_FANOUT = 64
_CHECKSUM = sum(range(SLICE_ITERATIONS))  # proves the slice ran whole


class _Sink:
    __slots__ = ("table", "total")

    def __init__(self) -> None:
        self.table: dict[int, int] = {}
        self.total = 0

    def fire(self, slot: int, payload: int) -> None:
        table = self.table
        table[slot] = table.get(slot, 0) + 1
        self.total += payload


def calibration_slice() -> float:
    """Run the frozen slice once; return its CPU seconds."""
    sink = _Sink()
    heap: list = []
    push = heapq.heappush
    pop = heapq.heappop
    started = time.process_time()
    seq = 0
    while seq < _FANOUT:
        push(heap, (float(seq % 7), seq, partial(sink.fire, seq % _FANOUT, seq)))
        seq += 1
    while heap:
        event = pop(heap)
        event[2]()
        if seq < SLICE_ITERATIONS:
            push(
                heap,
                (
                    event[0] + 1.0 + (seq % 11),
                    seq,
                    partial(sink.fire, seq % _FANOUT, seq),
                ),
            )
            seq += 1
    elapsed = time.process_time() - started
    if sink.total != _CHECKSUM:
        raise RuntimeError("calibration slice did not run to completion")
    return elapsed
