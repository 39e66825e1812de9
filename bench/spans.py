"""Span tracing from outside the program.

The simulator has no tracing hooks of its own yet (ROADMAP aim 4), so
the benchmark records spans around the *public* entry points of each
layer by wrapping them at class level.  The wrappers must be in place
before a cluster is constructed -- the engine hands ``self.handle`` to
every processor at construction, and a bound method captured then is
whatever the class held then -- and :meth:`SpanTracer.uninstall` puts
every original back.

What a span can and cannot see: time spent in a layer's *private*
callbacks (the kernel's pop loop, ``Processor._complete_in_service``,
``Network._fire``, retransmit timers) lands in the nearest enclosing
public span, which for anything fired by the event loop is
``EventQueue.run``.  So ``sim.events.self_share`` is "kernel loop plus
delivery glue", not the heap alone.  Finer attribution needs spans
inside the program, which is a later change.

Each span carries name, start, end, parent and -- when the call was
handed an action that belongs to a client operation, or runs inside
such a call -- that operation's id.  Totals are aggregated per layer
as the spans close; raw spans are kept only until the traced engine
has issued :data:`RAW_OPS` operation ids in the phase (a span that
*started* inside that window is kept whenever it ends).
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from functools import partial, wraps
from typing import Any, Callable

#: Raw spans are kept for the first this-many operations.
RAW_OPS = 200

#: (layer, module, class or None for a module-level function, names,
#: index of the positional argument that may carry ``.op``).  A name
#: ending in ``*`` matches every attribute with that prefix.
ENTRY_POINTS: tuple[tuple[str, str, str | None, tuple[str, ...], int | None], ...] = (
    ("sim.events", "repro.sim.events", "EventQueue", ("run", "push", "schedule"), None),
    ("sim.processor", "repro.sim.processor", "Processor", ("submit",), 1),
    ("sim.network", "repro.sim.network", "Network", ("send", "send_datagram"), 3),
    ("sim.reliable", "repro.sim.reliable", "ReliableTransport", ("send", "on_frame"), None),
    ("core.dbtree", "repro.core.dbtree", "DBTreeEngine", ("submit_operation", "handle"), 2),
    ("core.leafcache", "repro.core.leafcache", "LeafHintCache", ("lookup", "learn"), None),
    (
        "core.node",
        "repro.core.node",
        "NodeCopy",
        ("insert_entry", "delete_entry", "lookup", "child_for", "apply_half_split"),
        None,
    ),
    ("sim.tracing", "repro.sim.tracing", "Trace", ("record_*",), None),
    ("repair", "repro.repair.digest", "DigestIndex", ("node_digest",), None),
    ("repair", "repro.repair.digest", None, ("copy_digest",), None),
    (
        "shard",
        "repro.shard.cluster",
        "ShardedCluster",
        ("insert", "search", "delete", "scan", "run"),
        None,
    ),
    ("shard", "repro.shard.directory", "DirectoryView", ("route", "refresh"), None),
)

#: Layers that get ``self_share`` / ``calls_per_op``; ``protocols`` is
#: wrapped from the protocol class the workload uses.
SPAN_LAYERS: tuple[str, ...] = (
    "sim.events",
    "sim.processor",
    "sim.network",
    "sim.reliable",
    "core.dbtree",
    "protocols",
    "core.leafcache",
    "core.node",
    "sim.tracing",
    "repair",
    "shard",
)

#: Buckets for ``events_scheduled_per_op``: the span layers, plus the
#: crash controller (it schedules but has no per-action entry point),
#: plus everything else.
SCHEDULE_LAYERS: tuple[str, ...] = SPAN_LAYERS + ("sim.crash", "other")

#: The benchmark's own listeners and submit loops, kept out of the
#: program's layers.
DRIVER_LAYER = "bench.driver"

_SCHEDULING = ("push", "schedule")  # EventQueue methods whose arg 2 is a callback


def layer_of_module(module: str | None) -> str:
    """The schedule bucket of a callback's defining module."""
    if not module or not module.startswith("repro."):
        return "other"
    parts = module.split(".")
    if parts[1] in ("repair", "shard", "protocols"):
        layer = parts[1]
    else:
        layer = ".".join(parts[1:3])
    return layer if layer in SCHEDULE_LAYERS else "other"


class SpanTracer:
    """Wraps entry points, aggregates span totals, keeps early raw spans."""

    def __init__(self) -> None:
        self._layers: list[str] = list(SPAN_LAYERS) + [DRIVER_LAYER]
        self._self_time = [0.0] * len(self._layers)
        self._calls = [0] * len(self._layers)
        self._scheduled: dict[str | None, int] = {}
        # [child_time, op_id, span_id]; the root frame is never popped.
        self._stack: list[list] = [[0.0, None, 0]]
        # [raw window open, last span id, op id that closes the window]
        self._state: list = [False, 0, None]
        self._raw: list[tuple] = []
        self._origin = 0.0
        self._installed: list[tuple[Any, str, bool, Any]] = []
        #: Entry points named in ENTRY_POINTS that this source tree
        #: does not have; their layers read as zero calls.
        self.missing: list[str] = []
        #: Phase facts that are not metrics (set by :meth:`end_phase`).
        self.info: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        op_index: int | None = None,
        op_from_result: bool = False,
        callback_index: int | None = None,
    ) -> Callable:
        """A span-recording stand-in for ``fn``."""
        index = self._layers.index(layer)
        stack = self._stack
        state = self._state
        self_time = self._self_time
        calls = self._calls
        scheduled = self._scheduled
        raw = self._raw
        clock = time.perf_counter

        @wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            op = parent[1]
            if op_index is not None and len(args) > op_index:
                context = getattr(args[op_index], "op", None)
                if context is not None:
                    op = context.op_id
            if callback_index is not None:
                callback = args[callback_index]
                if type(callback) is partial:
                    callback = callback.func
                module = getattr(callback, "__module__", None)
                scheduled[module] = scheduled.get(module, 0) + 1
            state[1] = span_id = state[1] + 1
            keep = state[0]
            frame = [0.0, op, span_id]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                self_time[index] += duration - frame[0]
                calls[index] += 1
                if op_from_result and result is not None:
                    op = result
                    if state[2] is None:
                        state[2] = result + RAW_OPS
                    elif result >= state[2]:
                        state[0] = False
                if keep:
                    raw.append((span_id, parent[2], name, start, end, op))

        return span

    def wrap_driver(self, fn: Callable) -> Callable:
        """Wrap one of the benchmark's own callbacks."""
        return self.wrap(fn, DRIVER_LAYER, f"bench.{fn.__name__}")

    def _replace(self, owner: Any, name: str, layer: str, label: str, **how: Any) -> None:
        original = inspect.getattr_static(owner, name)
        if not inspect.isfunction(original):
            return  # properties, static/class methods: not action entry points
        own = name in vars(owner)
        self._installed.append((owner, name, own, original))
        setattr(owner, name, self.wrap(original, layer, label, **how))

    def install(self, protocol_class: type | None = None) -> None:
        """Wrap every entry point that exists; note the ones that do not."""
        for layer, module_name, class_name, names, op_index in ENTRY_POINTS:
            try:
                owner: Any = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{class_name or '*'}")
                continue
            prefix = f"{class_name}." if class_name else ""
            for pattern in names:
                if pattern.endswith("*"):
                    matches = [n for n in vars(owner) if n.startswith(pattern[:-1])]
                else:
                    matches = [pattern] if hasattr(owner, pattern) else []
                if not matches:
                    self.missing.append(f"{module_name}.{prefix}{pattern}")
                for name in matches:
                    self._replace(
                        owner,
                        name,
                        layer,
                        prefix + name,
                        op_index=op_index if name != "submit_operation" else None,
                        op_from_result=name == "submit_operation",
                        callback_index=(
                            2 if layer == "sim.events" and name in _SCHEDULING else None
                        ),
                    )
        if protocol_class is not None:
            for name in dir(protocol_class):
                if not name.startswith("_"):
                    self._replace(
                        protocol_class,
                        name,
                        "protocols",
                        f"{protocol_class.__name__}.{name}",
                    )

    def uninstall(self) -> None:
        """Put every original back (inherited ones by deleting the override)."""
        while self._installed:
            owner, name, own, original = self._installed.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # ------------------------------------------------------------------
    # one traced phase
    # ------------------------------------------------------------------
    def start_phase(self) -> None:
        """Zero the totals (set-up spans are not the timed phase's) and
        open the raw window."""
        self._self_time[:] = [0.0] * len(self._layers)
        self._calls[:] = [0] * len(self._layers)
        self._scheduled.clear()
        self._raw.clear()
        self._stack[0][0] = 0.0
        self._state[0] = True
        self._state[2] = None
        self._origin = time.perf_counter()

    def end_phase(self, ops: int) -> dict[str, float]:
        """Close the window; per-layer metrics of the phase just run."""
        elapsed = time.perf_counter() - self._origin
        self._state[0] = False
        driver = self._layers.index(DRIVER_LAYER)
        # Shares are of the phase less the benchmark's own callbacks
        # (which include the calibration slices).
        program = elapsed - self._self_time[driver]
        buckets = dict.fromkeys(SCHEDULE_LAYERS, 0)
        for module, count in self._scheduled.items():
            buckets[layer_of_module(module)] += count
        metrics: dict[str, float] = {}
        for index, layer in enumerate(self._layers):
            if layer == DRIVER_LAYER:
                continue
            metrics[f"{layer}.self_share"] = self._self_time[index] / program
            metrics[f"{layer}.calls_per_op"] = self._calls[index] / ops
        for layer, count in buckets.items():
            metrics[f"{layer}.events_scheduled_per_op"] = count / ops
        self.info = {
            "traced_phase_wall_s": elapsed,
            "bench_driver_self_share": self._self_time[driver] / elapsed,
            "untracked_share": 1.0 - sum(self._self_time) / elapsed,  # of the whole phase
            "spans": sum(self._calls),
            "raw_spans_kept": len(self._raw),
            "missing_entry_points": list(self.missing),
        }
        return metrics

    def write_raw(self, path: str) -> None:
        """The kept spans as JSON lines, times in seconds from the start
        of the phase."""
        origin = self._origin
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, op in self._raw:
                span = {
                    "id": span_id,
                    "parent": parent or None,
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "op": op,
                }
                out.write(json.dumps(span) + "\n")
