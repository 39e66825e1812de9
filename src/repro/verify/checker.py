"""History-requirement checkers (paper, Section 3) over a trace.

The engine records every update application (initial vs relayed, with
a globally unique action id), every copy birth (with the *birth set*
of already-incorporated update ids -- the mechanical backwards
extension), and every copy deletion.  At quiescence these checks
audit the three correctness requirements:

**Complete histories** -- every issued operation produced its return
value, and every key the workload expects is present in exactly one
leaf (so no subsequent action was lost; the Figure 4 naive protocol
fails precisely here).

**Compatible histories** -- for every node ``n`` and live copy ``c``:
``birth(c) + applied(c)`` accounts for every action in ``M_n``, where
an absence is *excused* only when the paper's rewriting arguments
apply: a keyed update whose key was re-homed rightward by a
half-split (the key must then be found in the right-sibling chain) or
that a later cut at or below its key gave to another tree (a shard
migration), or a link-change superseded by a higher-versioned one.
Together with value convergence (structural check) this is
single-copy equivalence at end of computation.

**Ordered histories** -- the ordered action class (link-changes,
joins/unjoins) was applied in version order at every copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.core.keys import NEG_INF, POS_INF, Key
from repro.core.node import NodeCopy
from repro.sim.tracing import TraceLevel, TraceLevelError
from repro.verify.invariants import check_structure, group_copies, representative_nodes

if TYPE_CHECKING:
    from repro.core.dbtree import DBTreeEngine
    from repro.core.engine import Engine
    from repro.sim.tracing import CopyHistory, Trace


def _require_full(trace: "Trace", checker: str) -> None:
    """History checkers audit per-copy update histories, which only a
    FULL-level trace records; anything else would vacuously pass."""
    level = getattr(trace, "level", TraceLevel.FULL)
    if level is not TraceLevel.FULL:
        raise TraceLevelError(
            f"{checker} needs a FULL trace, but this run recorded "
            f"level={level.value!r}; rerun with trace_level='full' "
            "to audit histories"
        )


@dataclass
class CheckReport:
    """Outcome of the full audit."""

    problems: list[str] = field(default_factory=list)
    checks_run: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def extend(self, name: str, problems: list[str]) -> None:
        self.checks_run.append(name)
        self.problems.extend(f"[{name}] {p}" for p in problems)

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.problems)} problem(s)"
        return f"CheckReport({status}; checks: {', '.join(self.checks_run)})"


# ----------------------------------------------------------------------
# complete histories
# ----------------------------------------------------------------------
def check_complete_operations(engine: "Engine") -> list[str]:
    """Every submitted operation must have completed.

    Reads the engine's ledger, the ops still owed a result.  An op the
    failure layer disposed of (a ``failed`` / ``timed_out`` verdict
    under a crash plan or per-op timeout) has left it: it is accounted
    for in the run results rather than silently lost, which is what
    this check exists to catch.
    """
    return [
        f"operation {op.op_id} ({op.kind} {op.key!r} from pid "
        f"{op.home_pid}) never completed"
        for op in engine.in_flight.values()
    ]


def leaf_contents(engine: "DBTreeEngine") -> dict[Key, Any]:
    """Union of all leaf entries (one representative copy per leaf)."""
    contents: dict[Key, Any] = {}
    for node in representative_nodes(engine).values():
        if not node.is_leaf:
            continue
        for key, value in node.iter_entries():
            # A key in two leaves is a partition violation; the
            # structural checks flag it, so keep the first sighting.
            contents.setdefault(key, value)
    return contents


def check_expected_contents(
    engine: "DBTreeEngine",
    expected: Mapping[Key, Any],
    uncertain: set[Key] | None = None,
) -> list[str]:
    """The leaves must contain exactly the oracle's items.

    Keys touched only by operations with a ``failed`` / ``timed_out``
    verdict are *uncertain*: the update may or may not have applied
    before the verdict (e.g. a timed-out insert whose return value
    died with its home processor).  Either outcome is a correct
    single-copy behaviour for an unacknowledged operation, so those
    keys are excused from the exact-match requirement.
    """
    actual = leaf_contents(engine)
    if uncertain:
        expected = {k: v for k, v in expected.items() if k not in uncertain}
        actual = {k: v for k, v in actual.items() if k not in uncertain}
    return contents_problems(actual, expected)


def contents_problems(
    actual: Mapping[Any, Any], expected: Mapping[Any, Any]
) -> list[str]:
    """What a structure stores against the sequential oracle: every
    expected key present with its value, nothing else.  Shared by
    every audit and by the permutation replay."""
    problems = []
    missing = [k for k in expected if k not in actual]
    extra = [k for k in actual if k not in expected]
    if missing:
        shown = ", ".join(repr(k) for k in sorted(missing)[:10])
        problems.append(f"{len(missing)} expected key(s) missing: {shown}")
    if extra:
        shown = ", ".join(repr(k) for k in sorted(extra)[:10])
        problems.append(f"{len(extra)} unexpected key(s) present: {shown}")
    for key, value in expected.items():
        if key in actual and actual[key] != value:
            problems.append(
                f"key {key!r}: value {actual[key]!r} != expected {value!r}"
            )
    return problems


# ----------------------------------------------------------------------
# the shared checks: each correctness property stated once, over plain
# data; the tree, hash, trie and forest audits are instances of them
# ----------------------------------------------------------------------
def placement_problems(leaves: Iterable[tuple], noun: str) -> tuple[list[str], dict]:
    """Every stored key sits in exactly one leaf, inside that leaf's
    scope, and no leaf is overfull at quiescence.

    ``leaves`` yields ``(leaf_id, pid, scope, in_scope, entries,
    capacity)``: ``scope`` describes what ``in_scope(key)`` admits
    (``"prefix 'ab'"``), and a ``capacity`` of ``None`` bounds nothing.
    Returns the problems and the union of the leaves' contents (first
    sighting wins), which is what :func:`contents_problems` compares
    with the oracle.
    """
    problems: list[str] = []
    contents: dict[Any, Any] = {}
    holders: dict[Any, Any] = {}  # key -> the leaf it was first seen in
    homes: dict[Any, Any] = {}  # leaf id -> the pid that stores it
    for leaf, pid, scope, in_scope, entries, capacity in leaves:
        if leaf in homes:
            problems.append(f"{noun} {leaf} stored on pids {homes[leaf]} and {pid}")
            continue
        homes[leaf] = pid
        for key, value in entries.items():
            if not in_scope(key):
                problems.append(f"{noun} {leaf} ({scope}): key {key!r} outside it")
            if key in holders:
                problems.append(f"key {key!r} in {noun}s {holders[key]} and {leaf}")
            else:
                holders[key] = leaf
                contents[key] = value
        if capacity is not None and len(entries) > capacity:
            problems.append(
                f"{noun} {leaf}: overfull at quiescence ({len(entries)} > {capacity})"
            )
    return problems, contents


def tiling_problems(spans: list[tuple[str, Key, Key]], where: str) -> list[str]:
    """Ranges ordered by low bound tile ``[NEG_INF, POS_INF)``: the
    first starts at NEG_INF, each ends where the next starts, and the
    last ends at POS_INF.  ``spans`` holds ``(name, low, high)``."""
    if not spans:
        return [f"{where}: no range covers the key space"]
    problems = []
    (first, low, _), (last, _, high) = spans[0], spans[-1]
    if low is not NEG_INF:
        problems.append(f"{where}: {first} starts at {low!r}, not NEG_INF")
    if high is not POS_INF:
        problems.append(f"{where}: {last} ends at {high!r}, not POS_INF")
    for (left, _, high), (right, low, _) in zip(spans, spans[1:]):
        if high != low:
            kind = "overlap" if low < high else "gap"
            problems.append(
                f"{where}: {kind} between {left} (high={high!r}) and "
                f"{right} (low={low!r})"
            )
    return problems


def divergence_problems(groups: Mapping[str, Mapping], what: str) -> list[str]:
    """Every replica group shares one fingerprint.  ``groups`` maps a
    group's name to ``{pid: fingerprint}``; one problem per group whose
    replicas disagree."""
    problems = []
    for name, replicas in groups.items():
        if len(set(replicas.values())) > 1:
            problems.append(f"{name}: {what} diverge across pids {sorted(replicas)}")
    return problems


def resolvability_problems(
    origins: Mapping[str, Any], expected: Mapping[Any, Any], resolve: Callable
) -> list[str]:
    """From every origin, every expected key reaches a leaf that holds
    it with its value.  ``origins`` maps a name to where a walk starts;
    ``resolve(start, key)`` returns the entries of the leaf the walk
    reaches, or ``None`` at a dead end."""
    problems = []
    for origin, start in origins.items():
        for key, value in expected.items():
            entries = resolve(start, key)
            if entries is None:
                problems.append(f"key {key!r} unresolvable from {origin}")
            elif key not in entries:
                problems.append(f"key {key!r} from {origin} reaches a leaf without it")
            elif entries[key] != value:
                problems.append(
                    f"key {key!r} from {origin}: value {entries[key]!r} != "
                    f"expected {value!r}"
                )
    return problems


# ----------------------------------------------------------------------
# compatible histories
# ----------------------------------------------------------------------
def _engine_copy(
    engine: "DBTreeEngine", node_id: int, pid: int
) -> NodeCopy | None:
    return engine.copy_at(engine.kernel.processor(pid), node_id)


def _key_rehomed(
    engine: "DBTreeEngine",
    nodes: dict[int, NodeCopy],
    node_id: int,
    key: Key,
    payload_check: Any,
    kind: str,
) -> bool:
    """Whether ``key`` legitimately moved right out of node ``node_id``.

    Walk the right-sibling chain from the node; the key is excused if
    some node on the chain now covers it (and, for inserts, actually
    contains it unless it was later deleted -- content equality is
    separately checked against the oracle, so coverage suffices here).
    """
    node = nodes.get(node_id)
    hops = 0
    while node is not None and hops < 1_000:
        if node.range.contains(key):
            return node.node_id != node_id
        if node.right_id is None:
            return False
        node = nodes.get(node.right_id)
        hops += 1
    return False


def _cut_after(copy_history: "CopyHistory", action_id: int, key: Key) -> bool:
    """Whether the copy's own history holds a cut (a ``drain``) later
    than ``action_id`` at or below ``key``.  A cut ends the node it
    passes through at ``+inf``, so the node covers again a key it had
    re-homed by a half-split; the key has since left for another tree."""
    return any(
        update.kind == "drain" and update.action_id > action_id
        and update.params[1] <= key
        for update in copy_history.applied
    )


def check_compatible_histories(engine: "DBTreeEngine") -> list[str]:
    """Birth set + applied updates must account for M_n at every copy."""
    trace = engine.trace
    _require_full(trace, "check_compatible_histories")
    problems = []
    nodes = representative_nodes(engine)
    for node_id, issued in trace.issued.items():
        live = trace.live_copies(node_id)
        for copy_history in live:
            known = copy_history.known_ids()
            engine_copy = _engine_copy(engine, node_id, copy_history.pid)
            if engine_copy is None:
                problems.append(
                    f"node {node_id}: trace says pid {copy_history.pid} "
                    f"holds a live copy but the store disagrees"
                )
                continue
            for action_id, (kind, params) in issued.items():
                if action_id in known:
                    continue
                if kind in ("insert", "delete"):
                    key = params[1]
                    if not engine_copy.in_range(key) and _key_rehomed(
                        engine, nodes, node_id, key, params, kind
                    ):
                        continue  # excused: re-homed by a half-split
                    if _cut_after(copy_history, action_id, key):
                        continue  # excused: a later cut gave the key away
                    problems.append(
                        f"node {node_id} copy@pid {copy_history.pid}: "
                        f"missing {kind} action {action_id} ({params!r}) "
                        f"with no re-homing excuse"
                    )
                elif kind == "link_change":
                    slot, _target, version = params[1], params[2], params[3]
                    superseded = any(
                        u.kind == "link_change"
                        and u.params[1] == slot
                        and u.params[3] > version
                        for u in copy_history.applied
                    )
                    if not superseded:
                        problems.append(
                            f"node {node_id} copy@pid {copy_history.pid}: "
                            f"link_change {action_id} ({params!r}) neither "
                            f"applied nor superseded"
                        )
                elif kind in ("join", "unjoin", "half_split", "absorb"):
                    problems.append(
                        f"node {node_id} copy@pid {copy_history.pid}: "
                        f"missing {kind} action {action_id} ({params!r})"
                    )
                else:
                    problems.append(
                        f"node {node_id}: unknown update kind {kind!r} "
                        f"in issued set"
                    )
    return problems


def check_replication_metadata(engine: "DBTreeEngine") -> list[str]:
    """Copy sets and versions must converge across a node's copies."""
    groups = group_copies(engine)
    views = {
        f"node {node_id}": {
            c.home_pid: tuple(sorted(c.copy_versions.items())) for c in copies
        }
        for node_id, copies in groups.items()
    }
    problems = divergence_problems(
        {
            f"node {node_id}": {c.home_pid: c.version for c in copies}
            for node_id, copies in groups.items()
        },
        "copy versions",
    )
    problems.extend(divergence_problems(views, "copy-set views"))
    for name, members in views.items():
        distinct = set(members.values())
        if len(distinct) == 1:
            declared = {pid for pid, _version in distinct.pop()}
            if declared != set(members):
                problems.append(
                    f"{name}: declared members {sorted(declared)} != "
                    f"actual holders {sorted(members)}"
                )
    return problems


# ----------------------------------------------------------------------
# ordered histories
# ----------------------------------------------------------------------
def check_ordered_histories(trace: "Trace") -> list[str]:
    """Ordered-class actions must be applied in version order per copy.

    Link-changes are ordered per slot; join/unjoin registrations are
    ordered per node (the PC serializes them and relays FIFO).
    """
    _require_full(trace, "check_ordered_histories")
    problems = []
    for (node_id, pid), copy_history in trace.copies.items():
        last_by_slot: dict[str, int] = {}
        last_membership = -1
        for update in copy_history.applied:
            if update.kind == "link_change":
                slot = update.params[1]
                version = update.params[3]
                if version <= last_by_slot.get(slot, -1):
                    problems.append(
                        f"node {node_id} copy@pid {pid}: link_change on "
                        f"slot {slot!r} applied out of order "
                        f"(version {version})"
                    )
                last_by_slot[slot] = version
            elif update.kind in ("join", "unjoin"):
                version = update.params[2]
                if version <= last_membership:
                    problems.append(
                        f"node {node_id} copy@pid {pid}: {update.kind} "
                        f"version {version} applied out of order"
                    )
                last_membership = version
    return problems


# ----------------------------------------------------------------------
# crash losses
# ----------------------------------------------------------------------
def check_crash_losses(engine: "DBTreeEngine") -> list[str]:
    """Report nodes whose every copy died in a crash, unrecovered.

    With ``replication_factor=1`` a crash destroys the only copy of
    each leaf the dead processor homed; unless a mirror re-homed it,
    the keys it held are gone.  The audit *declares* the loss (the
    run is not silently wrong -- the data is known-lost), which is
    the single-copy trade-off the paper's Section 5 fault-tolerance
    agenda addresses and ``replication_factor >= 2`` avoids.
    """
    trace = engine.trace
    _require_full(trace, "check_crash_losses")
    problems = []
    histories: dict[int, list] = {}
    for (node_id, _pid), history in trace.copies.items():
        histories.setdefault(node_id, []).append(history)
    for history in trace.archived_copies:
        histories.setdefault(history.node_id, []).append(history)
    for node_id in sorted(histories):
        group = histories[node_id]
        if any(h.alive for h in group):
            continue
        last = max(group, key=lambda h: h.deleted_at)
        if last.deleted_reason != "crash":
            continue  # retired/migrated away on purpose
        problems.append(
            f"node {node_id}: last copy (pid {last.pid}) destroyed by "
            f"crash at t={last.deleted_at} and never re-homed; its "
            "keys are lost (replication_factor >= 2 prevents this)"
        )
    return problems


def check_routability(engine: "DBTreeEngine", expected: Mapping[Key, Any]) -> list[str]:
    """From every live, rooted processor, every expected key resolves by
    the engine's step rule (:meth:`~repro.core.dbtree.DBTreeEngine.resolve`)
    to leaves that all hold it: a search begun anywhere ends, and finds it."""

    def walk(pid: int, key: Key) -> dict | None:
        try:
            leaves = engine.resolve(pid, key)[0]
        except RuntimeError:
            return None
        if not all(leaf.has_key(key) for leaf in leaves):
            return {}
        return {key: leaves[0].lookup(key)}

    origins = {
        f"pid {pid}": pid
        for pid, proc in engine.kernel.processors.items()
        if proc.alive and proc.state["root_id"] is not None
    }
    return resolvability_problems(origins, expected, walk)


# ----------------------------------------------------------------------
# digest convergence (anti-entropy audit)
# ----------------------------------------------------------------------
def _alive(kernel, pid: int) -> bool:
    """Whether ``pid`` is up (always, without a crash plan)."""
    controller = kernel.crash_controller
    return controller is None or controller.is_alive(pid)


def check_digest_convergence(engine: "DBTreeEngine") -> list[str]:
    """After a converged repair round, replicas must be digest-equal.

    Audits the anti-entropy subsystem's own invariant with its own
    digests (:mod:`repro.repair.digest`): every alive copy of a node
    hashes identically, and -- when leaf mirroring is on -- every
    single-copy leaf's mirror at an alive placement target is fresh
    (digest-equal to the home copy), in-placement, and not stale
    (holding a node its home no longer owns as a single-copy leaf).
    Mirrors whose home is dead are excused: they are repair *input*
    (the orphan sweep re-homes them), not divergence.
    """
    from repro.repair.digest import copy_digest, snapshot_digest

    kernel = engine.kernel
    groups: dict[int, dict[int, NodeCopy]] = {}
    for copy in engine.all_copies():
        if _alive(kernel, copy.home_pid):
            groups.setdefault(copy.node_id, {})[copy.home_pid] = copy
    problems = divergence_problems(
        {
            f"node {node_id}": {
                pid: copy_digest(c) for pid, c in copies.items()
            }
            for node_id, copies in sorted(groups.items())
        },
        "replica digests",
    )
    mirrors = engine.mirrors
    if mirrors is None:
        return problems
    for proc in kernel.processors.values():
        if not _alive(kernel, proc.pid):
            continue
        for node_id, (home, snap) in sorted(mirrors.held(proc).items()):
            if not _alive(kernel, home):
                continue  # orphan awaiting the re-homing sweep
            home_copy = groups.get(node_id, {}).get(home)
            if (
                home_copy is None
                or home_copy.retired
                or not home_copy.is_leaf
                or len(home_copy.copy_versions) != 1
            ):
                problems.append(
                    f"pid {proc.pid}: stray mirror of node {node_id} "
                    f"(pid {home} no longer homes it as a single-copy "
                    "live leaf)"
                )
                continue
            if proc.pid not in mirrors.targets(home, node_id):
                problems.append(
                    f"pid {proc.pid}: mirror of node {node_id} held "
                    f"off-placement (home pid {home})"
                )
                continue
            if snapshot_digest(snap) != copy_digest(home_copy):
                problems.append(
                    f"pid {proc.pid}: mirror of node {node_id} is stale "
                    f"(digest mismatch vs home pid {home})"
                )
    for proc in kernel.processors.values():
        if not _alive(kernel, proc.pid):
            continue
        for copy in engine.store(proc).values():
            if (
                not copy.is_leaf
                or copy.retired
                or len(copy.copy_versions) != 1
            ):
                continue
            for target in mirrors.targets(proc.pid, copy.node_id):
                if not _alive(kernel, target):
                    continue
                holder = kernel.processor(target)
                if copy.node_id not in mirrors.held(holder):
                    problems.append(
                        f"node {copy.node_id}: single-copy leaf at pid "
                        f"{proc.pid} has no mirror at alive target "
                        f"pid {target}"
                    )
    return problems


# ----------------------------------------------------------------------
# no false kill (crash-layer audit)
# ----------------------------------------------------------------------
def check_false_kill(engine: "DBTreeEngine") -> list[str]:
    """A belief that a peer is down -- an earned detector's (possibly
    wrong) suspicion, or an oracle verdict the peer has since
    restarted past -- must not *stick*.

    At quiescence every pair of (ground-truth) alive processors must
    have reconciled: neither still suspects the other at the detector
    layer, and neither still lists the other in its engine-level
    ``dead_peers`` set.  A violation means a live processor stays
    written off -- a "false kill", the one failure mode rescission,
    recovery announcements and anti-entropy are supposed to make
    impossible.  Needs the crash layer (``engine.crash``), and with it
    the detector.
    """
    problems = []
    kernel = engine.kernel
    live = sorted(pid for pid in kernel.processors if _alive(kernel, pid))
    for observer in live:
        for peer in kernel.detector.suspected_by(observer):
            if _alive(kernel, peer):
                problems.append(
                    f"pid {observer}: detector still suspects "
                    f"alive pid {peer} at quiescence"
                )
        for peer in sorted(engine.crash.dead_peers(kernel.processor(observer))):
            if _alive(kernel, peer):
                problems.append(
                    f"pid {observer}: alive pid {peer} still in "
                    "dead_peers at quiescence (false kill)"
                )
    return problems


# ----------------------------------------------------------------------
# store/trace consistency
# ----------------------------------------------------------------------
def check_trace_store_agreement(engine: "DBTreeEngine") -> list[str]:
    """A copy is live in the trace iff it is in a node store."""
    trace = engine.trace
    _require_full(trace, "check_trace_store_agreement")
    problems = []
    stored = {
        (copy.node_id, copy.home_pid) for copy in engine.all_copies()
    }
    live = {
        key for key, history in trace.copies.items() if history.alive
    }
    for key in stored - live:
        problems.append(f"copy {key} stored but not live in trace")
    for key in live - stored:
        problems.append(f"copy {key} live in trace but not stored")
    return problems


# ----------------------------------------------------------------------
# the full audit
# ----------------------------------------------------------------------
def check_all(
    engine: "DBTreeEngine",
    expected: Mapping[Key, Any] | None = None,
) -> CheckReport:
    """Run every checker; a clean report means the computation met the
    complete, compatible, and ordered history requirements and the
    tree is structurally sound."""
    _require_full(engine.trace, "check_all")
    trace = engine.trace
    verdicts = engine.op_verdicts
    report = CheckReport()
    report.extend("complete-ops", check_complete_operations(engine))
    report.extend("structure", check_structure(engine))
    report.extend("trace-store", check_trace_store_agreement(engine))
    report.extend("compatible", check_compatible_histories(engine))
    report.extend("replication-metadata", check_replication_metadata(engine))
    report.extend("ordered", check_ordered_histories(trace))
    if engine.crash is not None:
        report.extend("crash-losses", check_crash_losses(engine))
    if engine.repair is not None:
        report.extend(
            "digest-convergence", check_digest_convergence(engine)
        )
    if engine.crash is not None:
        report.extend("false-kill", check_false_kill(engine))
    if expected is not None:
        uncertain = {
            trace.operations[op_id].key
            for op_id in verdicts
            if op_id in trace.operations
            and trace.operations[op_id].kind in ("insert", "delete")
        }
        report.extend(
            "expected-contents",
            check_expected_contents(engine, expected, uncertain or None),
        )
        certain = {k: v for k, v in expected.items() if k not in uncertain}
        report.extend("routability", check_routability(engine, certain))
    return report
