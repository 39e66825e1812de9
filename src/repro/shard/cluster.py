"""ShardedCluster: a forest of dB-trees behind a shard directory.

One :class:`~repro.core.client.DBTreeCluster` simulates one dB-tree
over a processor pool.  :class:`ShardedCluster` runs N of them -- one
per shard of the key space -- behind a :class:`ShardDirectory`, with
the same ``insert / search / delete / scan`` surface, so a workload
written against one tree runs unchanged against the forest.

Architecture (the Maia part-tree model): each shard is an independent
tree with its own deterministic event kernel over the *same logical
processor ids*, seeded by :func:`~repro.sim.rngs.derive_seed` from
the facade seed so shard simulations are decorrelated but the whole
forest is reproducible from one seed.  Fault plans (crashes,
partitions, message faults, detectors, repair) are passed through to
every shard, so a scheduled fault hits the same processor at the same
virtual time in every tree -- the sharded analogue of a machine
failing with all its tenants.

Routing replays the B-link discipline one level up (see
:mod:`repro.shard.directory`): every client pid routes through its own
cached directory view; a stale route lands on a shard that has since
split or merged and recovers by following shed hints / forward
pointers, then refreshes the view from the reply.  The facade counts
every hop (``shard_stale_routes``, ``shard_hint_hops``,
``shard_forwards``, ``directory_refreshes``).

Shard split/merge is *load-driven*: after each ``run()`` the facade
compares per-shard entry counts against the configured thresholds,
splits the heaviest half at its median key, and drains underloaded
shards into their left neighbours.  A shard's load is the sum of its
leaves' entry counts, counted once per quiescent point and again only
after a migration moves its keys.  Migration runs at quiescence and
moves leaves, not keys: the target tree installs the moved entries as
whole leaves along its right spine, each shipped from the processor
that held its first key, and the source tree is cut at the moved
range's low key, at every level -- the nodes above it leave, the ones
it passes through become the right spine -- all of it kernel actions
and messages, so every audited invariant keeps holding through a
reconfiguration and its cost stays in every metric.  A retired
shard's tree is left one node per level.

A cross-shard scan is one walk across the shards in key order, as a
B-link scan is one walk along the leaf chain: a part per shard, each
clamped to its shard's range and submitted only once the parts before
it have completed short of the limit, for the rows still wanted.  The
parts' B-link leaf walks concatenate into one ordered result, and no
shard past the one where the limit was met is scanned.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Mapping

from repro.core.client import ClientSurface, DBTreeCluster, RunResults
from repro.core.keys import Key
from repro.shard.directory import (
    MAX_ROUTE_HOPS,
    DirectoryView,
    ShardDirectory,
)
from repro.sim.rngs import derive_seed
from repro.sim.tracing import TraceLevel
from repro.verify.checker import leaf_contents
from repro.verify.invariants import representative_nodes


#: How a multi-part operation (a cross-shard scan) combines its
#: parts' outcomes: the worst one wins.
_SEVERITY = {"completed": 0, "timed_out": 1, "failed": 2, "incomplete": 3}


class ShardedCluster(ClientSurface):
    """N independent dB-trees partitioned behind a shard directory.

    Parameters
    ----------
    num_processors:
        Logical processor pool size, shared by every shard's kernel.
    shards:
        Initial shard count.  ``shards > 1`` requires
        ``initial_boundaries`` (the key space's shape is the caller's
        knowledge).
    initial_boundaries:
        Strictly increasing keys splitting the initial range
        partition; ``len(initial_boundaries) == shards - 1``.
    partitioning:
        ``"range"``, the only scheme: the key space is partitioned
        directly, so cross-shard scans concatenate in key order.
    shard_split_threshold:
        Entry count at which a shard is split at its median key.
        ``None`` (default) disables load-driven splits.
    shard_merge_threshold:
        Combined entry count under which two adjacent shards are
        merged.  Must be strictly below ``shard_split_threshold``
        (when both are set) or every split would immediately undo
        itself.  ``None`` (default) disables merges.
    seed:
        Facade seed; shard ``i`` runs on
        ``derive_seed(seed, "shard-<i>")``.
    **tree_kwargs:
        Forwarded verbatim to every per-shard
        :class:`~repro.core.client.DBTreeCluster` (protocol, capacity,
        fault plans, reliability, replication factor, repair, ...),
        except ``trace_level="off"``: a shard at ``"off"`` keeps no
        results, and a facade op's outcome is read from them.
    """

    def __init__(
        self,
        num_processors: int = 4,
        shards: int = 1,
        initial_boundaries: tuple[Key, ...] = (),
        partitioning: str = "range",
        shard_split_threshold: int | None = None,
        shard_merge_threshold: int | None = None,
        seed: int = 0,
        **tree_kwargs: Any,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if partitioning != "range":
            raise ValueError(f"unknown partitioning {partitioning!r}")
        if TraceLevel.coerce(tree_kwargs.get("trace_level", "full")) is TraceLevel.OFF:
            raise ValueError(
                'a forest cannot run at trace_level="off": its shards would '
                "keep no results, so no facade op would ever settle"
            )
        if (
            shard_split_threshold is not None
            and shard_merge_threshold is not None
            and shard_merge_threshold >= shard_split_threshold
        ):
            raise ValueError(
                "shard_merge_threshold must be strictly below "
                "shard_split_threshold, or splits would oscillate"
            )
        self.partitioning = partitioning
        self.split_threshold = shard_split_threshold
        self.merge_threshold = shard_merge_threshold
        self.seed = seed
        self._num_processors = num_processors
        self._tree_kwargs = dict(tree_kwargs)
        boundaries = tuple(initial_boundaries)
        if len(boundaries) != shards - 1:
            raise ValueError(
                f"range partitioning into {shards} shards needs "
                f"{shards - 1} boundaries, got {len(boundaries)}"
            )
        self.directory = ShardDirectory(boundaries)
        self.clusters: dict[int, DBTreeCluster] = {}
        for shard in self.directory.live_shards():
            self.clusters[shard.shard_id] = self._make_cluster(shard.shard_id)
        #: One cached directory view per client processor -- the lazy
        #: replicas of the routing layer.
        self.views: dict[int, DirectoryView] = {
            pid: self.directory.view() for pid in self.pids
        }
        self.counters: dict[str, int] = {
            "shard_splits": 0,
            "shard_merges": 0,
            "keys_migrated": 0,
            "migration_msgs": 0,
            "migration_failures": 0,
            "shard_direct_routes": 0,
            "shard_stale_routes": 0,
            "shard_hint_hops": 0,
            "shard_forwards": 0,
            "directory_refreshes": 0,
            # sub-scans issued: one per shard a scan's chain reached
            "scan_fanout": 0,
        }
        self._next_op = 0
        #: facade op id -> (parts, chain): the (shard_id, shard_op_id)
        #: pairs it waits on -- one for a keyed op, one per part issued
        #: so far for a scan, the last ``(shard_id, None)`` while it
        #: waits for its submission time -- and, for a scan, ``[resume,
        #: high, limit, client]``: the rest of its range is
        #: ``[resume, high)``.
        self._pending: dict[int, tuple] = {}
        self._events_seen: dict[int, int] = {
            sid: 0 for sid in self.clusters
        }
        #: shard id -> entry count while ``_maintain`` runs: each live
        #: shard is counted once, and a migration drops its source's
        #: and target's counts.
        self._loads: dict[int, int] = {}

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _make_cluster(self, shard_id: int) -> DBTreeCluster:
        return DBTreeCluster(
            num_processors=self._num_processors,
            seed=derive_seed(self.seed, f"shard-{shard_id}"),
            **self._tree_kwargs,
        )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def pids(self) -> tuple[int, ...]:
        first = next(iter(self.clusters.values()))
        return first.kernel.pids

    @property
    def num_processors(self) -> int:
        return self._num_processors

    @property
    def num_shards(self) -> int:
        """Live shard count."""
        return len(self.directory.live_shards())

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _locate(self, client: int, key: Key) -> int:
        """Route ``key`` from ``client``'s cached view through the
        directory's recovery walk and return the live shard id."""
        view = self.views[client]
        shard_id, forwards, hint_hops = self.directory.resolve(view.route(key), key)
        counters = self.counters
        if forwards or hint_hops:
            # The reply that bounced us piggybacks the current
            # directory, so the client converges to the live version
            # (like a B-link traversal updating its parent hint).
            counters["shard_forwards"] += forwards
            counters["shard_hint_hops"] += hint_hops
            counters["shard_stale_routes"] += 1
            counters["directory_refreshes"] += 1
            view.refresh(self.directory)
        else:
            counters["shard_direct_routes"] += 1
        return shard_id

    def sync_directories(self) -> None:
        """Refresh every client view to the authoritative version."""
        for view in self.views.values():
            if view.version != self.directory.version:
                view.refresh(self.directory)
                self.counters["directory_refreshes"] += 1

    # ------------------------------------------------------------------
    # asynchronous operation submission
    # ------------------------------------------------------------------
    def _record(self, parts: tuple | list, chain: list | None = None) -> int:
        """Register a facade operation; ``run()`` settles it."""
        op_id = self._next_op
        self._next_op += 1
        self._pending[op_id] = (parts, chain)
        return op_id

    def _submit(self, kind: str, key: Key, value: Any, client: int) -> int:
        shard_id = self._locate(client, key)
        shard_op = self.clusters[shard_id]._submit(kind, key, value, client)
        return self._record(((shard_id, shard_op),))

    def schedule(
        self, time: float, kind: str, key: Key, value: Any = None, client: int = 0
    ) -> None:
        """Schedule an operation submission at a future virtual time.

        The shard is chosen by the client's view *now* (submission
        time); at ``time`` on that shard's clock the operation is
        submitted to its tree and registered with the facade, so it
        lands in the next ``run()``'s results like any other.
        Cross-shard scans need live directory consultation and cannot
        be pre-scheduled; use :meth:`scan` instead.
        """
        if kind == "scan":
            raise ValueError(
                "scheduled scans are not supported on a sharded "
                "cluster; submit with scan()"
            )
        shard_id = self._locate(client, key)
        cluster = self.clusters[shard_id]
        cluster.kernel.events.schedule(
            time,
            lambda: self._record(
                ((shard_id, cluster._submit(kind, key, value, client)),)
            ),
        )

    def scan(
        self,
        low: Key,
        high: Key,
        limit: int | None = None,
        client: int = 0,
    ) -> int:
        """Submit a cross-shard range scan over ``[low, high)``.

        Only the first part, clamped to the shard holding ``low``, is
        submitted now.  ``run()`` submits each next part on the next
        shard in key order once the parts before it have completed with
        fewer than ``limit`` rows, asking for the rows still wanted, and
        drops the rest of the range once the limit is met.  The parts'
        rows concatenate, in key order, into one result.
        """
        parts: list[tuple[int, int | None]] = []
        chain = [low, high, limit, client]
        if low < high:
            parts.append((self.directory.covering(low), None))
            self._issue(parts, chain, limit)
        return self._record(parts, chain)

    def _issue(self, parts: list, chain: list, limit: int | None) -> None:
        """Submit a scan's next part in place of its placeholder, the
        last of ``parts``: the rest of the scan's range, clamped to the
        placeholder's shard, for ``limit`` rows."""
        shard_id = parts[-1][0]
        low, high, _, client = chain
        bound = self.directory.shards[shard_id].range.high
        chain[0] = high = high if high <= bound else bound
        parts[-1] = (shard_id, self.clusters[shard_id].scan(low, high, limit, client))
        self.counters["scan_fanout"] += 1

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, max_events: int | None = None) -> RunResults:
        """Run every shard to quiescence, settle pending facade ops,
        then apply load-driven splits/merges at the quiescent point.
        """
        results = self._run_shards(max_events)
        merged = self._settle(results)
        self._maintain()
        return merged

    def _run_shards(self, max_events: int | None = None) -> dict[int, RunResults]:
        """Run the live shard trees in key order, then the retired ones;
        just before a live shard runs, extend the scans whose rest of
        range starts on it (:meth:`_extend_scans`)."""
        starts = {shard_id: tree.now for shard_id, tree in self.clusters.items()}
        order = [shard.shard_id for shard in self.directory.live_shards()]
        order += sorted(self.clusters.keys() - set(order))
        results = {}
        for shard_id in order:
            self._extend_scans(shard_id, starts)
            results[shard_id] = self.clusters[shard_id].run(max_events=max_events)
        return results

    def _extend_scans(self, shard_id: int, starts: dict[int, float]) -> None:
        """Give each pending scan whose rest of range starts on live
        shard ``shard_id``, and whose parts have all completed with
        fewer rows than its limit, its next part there; a scan whose
        limit is met issues no more parts.

        ``starts`` holds each tree's clock when this run began.  A part
        is submitted as long after its shard's start as the latest
        earlier part completed after its own, so no part starts, in
        virtual time, before the part it continues has finished.
        """
        shard = self.directory.shards[shard_id]
        for parts, chain in self._pending.values():
            if chain is None or not (chain[0] < chain[1] and shard.covers(chain[0])):
                continue
            rows, delay = 0, 0.0
            for sid, op in parts:
                record = self.clusters[sid].trace.operations.get(op)
                if record is None or record.completed_at is None:
                    break
                rows += len(record.result)
                delay = max(delay, record.completed_at - starts[sid])
            else:
                limit = chain[2]
                if limit is None or rows < limit:
                    parts.append((shard_id, None))
                    rest = None if limit is None else limit - rows
                    issue = partial(self._issue, parts, chain, rest)
                    tree = self.clusters[shard_id]
                    tree.kernel.events.schedule(starts[shard_id] + delay, issue)

    def _settle(self, results: dict[int, RunResults]) -> RunResults:
        """Translate per-shard outcomes into facade op outcomes.

        Each shard's ``RunResults`` already partitions that tree's
        operations; a facade op takes its shard op's partition, a
        scan the worst of its parts (and stays pending while any part
        is incomplete).
        """
        verdicts = {
            shard_id: {
                **dict.fromkeys(res.failed, "failed"),
                **dict.fromkeys(res.timed_out, "timed_out"),
            }
            for shard_id, res in results.items()
        }
        settled: dict[str, list[int]] = {
            "incomplete": [], "failed": [], "timed_out": []
        }
        completed: dict[int, Any] = {}
        for op_id in sorted(self._pending):
            parts, chain = self._pending[op_id]
            state = "completed"
            for sid, op in parts:
                if op not in results[sid].completed:
                    part = verdicts[sid].get(op, "incomplete")
                    if _SEVERITY[part] > _SEVERITY[state]:
                        state = part
            if state != "completed":
                settled[state].append(op_id)
                if state == "incomplete":
                    continue
            elif chain is None:
                ((sid, op),) = parts
                completed[op_id] = results[sid].completed[op]
            else:
                completed[op_id] = tuple(
                    row for sid, op in parts for row in results[sid].completed[op]
                )
            del self._pending[op_id]
        executed = 0
        for shard_id, cluster in self.clusters.items():
            total = cluster.kernel.events.executed
            executed += total - self._events_seen.get(shard_id, 0)
            self._events_seen[shard_id] = total
        return RunResults(
            events_executed=executed,
            elapsed=max(res.elapsed for res in results.values()),
            completed=completed,
            incomplete=tuple(settled["incomplete"]),
            failed=tuple(settled["failed"]),
            timed_out=tuple(settled["timed_out"]),
            reliability_error=next(
                (
                    res.reliability_error
                    for res in results.values()
                    if res.reliability_error is not None
                ),
                None,
            ),
        )

    # ------------------------------------------------------------------
    # load measurement and shard reconfiguration
    # ------------------------------------------------------------------
    def entry_count(self, shard_id: int) -> int:
        """Entries held by a shard's tree: the sum of its live leaves'
        entry counts, equal to ``len(shard_contents(shard_id))`` at
        quiescence."""
        engine = self.clusters[shard_id].engine
        return sum(
            copy.num_entries
            for copy in representative_nodes(engine).values()
            if copy.is_leaf
        )

    def _load(self, shard_id: int) -> int:
        """``entry_count(shard_id)``, counted once per ``_maintain``."""
        count = self._loads.get(shard_id)
        if count is None:
            count = self._loads[shard_id] = self.entry_count(shard_id)
        return count

    def shard_contents(self, shard_id: int) -> dict[Key, Any]:
        """The shard tree's current leaf contents."""
        return leaf_contents(self.clusters[shard_id].engine)

    def _maintain(self) -> None:
        """Split overloaded shards, merge underloaded neighbours.

        Runs at the quiescent point after a ``run()``: a migration
        moves whole leaves between the affected shard trees (a
        collective operation in the Maia part-tree sense, see
        :meth:`_migrate`), and nothing concurrent has to commute with
        it; then the directory version is bumped so in-flight client
        views go stale and exercise the recovery path.
        """
        if self.split_threshold is None and self.merge_threshold is None:
            return
        try:
            for _ in range(MAX_ROUTE_HOPS):
                if self.split_threshold is not None and self._split_pass():
                    continue
                if self.merge_threshold is not None and self._merge_pass():
                    continue
                break
        finally:
            self._loads.clear()

    def _split_pass(self) -> bool:
        for shard in self.directory.live_shards():
            if self._load(shard.shard_id) < self.split_threshold:
                continue
            if self._split_shard(shard.shard_id):
                return True
        return False

    def _merge_pass(self) -> bool:
        live = self.directory.live_shards()
        for left, right in zip(live, live[1:]):
            combined = self._load(left.shard_id) + self._load(right.shard_id)
            if combined <= self.merge_threshold:
                self._merge_shards(left.shard_id, right.shard_id)
                return True
        return False

    def _split_shard(self, shard_id: int) -> bool:
        """Split a shard at its median stored key; False if too small."""
        held = self._holdings(shard_id)
        if len(held) < 2:
            return False
        half = len(held) // 2
        new_id = self.directory.split(shard_id, held[half][0])
        self.clusters[new_id] = self._make_cluster(new_id)
        self._events_seen[new_id] = 0
        self._migrate(shard_id, new_id, held[half:])
        self.counters["shard_splits"] += 1
        return True

    def _merge_shards(self, left_id: int, right_id: int) -> None:
        """Drain the right shard into its left neighbour, retire it."""
        held = self._holdings(right_id)
        self.directory.merge(left_id, right_id)
        self._migrate(right_id, left_id, held)
        self.counters["shard_merges"] += 1

    def _holdings(self, shard_id: int) -> list[tuple[Key, Any, int]]:
        """The shard's ``(key, value, holder)`` entries in key order.

        The holder is the processor storing the key's leaf: the copy
        ``representative_nodes`` picks, the primary where leaves are
        replicated.
        """
        held: dict[Key, tuple[Key, Any, int]] = {}
        engine = self.clusters[shard_id].engine
        for copy in representative_nodes(engine).values():
            if copy.is_leaf:
                for key, value in copy.iter_entries():
                    held.setdefault(key, (key, value, copy.home_pid))
        return [held[key] for key in sorted(held)]

    def _migrate(
        self, source_id: int, target_id: int, items: list[tuple[Key, Any, int]]
    ) -> None:
        """Move ``(key, value, holder)`` items, the upper end of the
        source's keys, between shard trees a leaf at a time: the target
        installs them as whole leaves shipped from their holders
        (:meth:`~repro.core.dbtree.DBTreeEngine.install_leaves`), and
        the source is cut where the moved range starts
        (:meth:`~repro.core.dbtree.DBTreeEngine.cut`): at the low of
        a split's new shard, or of a merge's retired one."""
        self._loads.pop(source_id, None)
        self._loads.pop(target_id, None)
        source = self.clusters[source_id]
        target = self.clusters[target_id]
        shards = self.directory.shards
        moved = shards[source_id if shards[source_id].retired else target_id]
        wires = (source.kernel.network.stats, target.kernel.network.stats)
        sent = sum(wire.sent for wire in wires)
        target.engine.install_leaves(items)
        source.engine.cut(moved.range.low)
        # Run both trees, then judge: a failed source run must not
        # leave the target's install unfinished.
        source_ok = source.run().ok
        target_ok = target.run().ok
        if not (source_ok and target_ok):
            self.counters["migration_failures"] += 1
        self.counters["keys_migrated"] += len(items)
        self.counters["migration_msgs"] += sum(wire.sent for wire in wires) - sent

    # ------------------------------------------------------------------
    # verification and statistics
    # ------------------------------------------------------------------
    def check(self, expected: Mapping[Key, Any] | None = None):
        """Full audit: per-shard ``check_all`` plus shard coverage."""
        from repro.shard.verify import check_sharded

        return check_sharded(self, expected=expected)

    def shard_summary(self) -> dict[str, Any]:
        """Routing/reconfiguration accounting; see repro.stats."""
        from repro.stats.metrics import shard_summary

        return shard_summary(self)

    def seed_summary(self) -> dict[str, dict[str, int]]:
        """Per-shard seed ledgers, keyed by shard id."""
        return {
            f"shard-{shard_id}": cluster.kernel.seeds.snapshot()
            for shard_id, cluster in sorted(self.clusters.items())
        }
