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
shards into their left neighbours.  Entry counts come from the
anti-entropy layer's digest caches when repair is enabled
(digest-driven rebalancing: the gossip rounds double as load
measurement) and from a direct leaf sweep otherwise.  Migration runs
at quiescence through the ordinary insert/delete paths, so every
audited invariant keeps holding through a reconfiguration.

Cross-shard scans fan a clamped sub-scan out to every overlapping
shard and stitch the per-shard B-link leaf walks back into one
ordered result.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.core.client import ClientSurface, DBTreeCluster, RunResults
from repro.core.keys import POS_INF, Key, key_le, key_lt
from repro.repair.digest import hash_parts
from repro.shard.directory import (
    MAX_ROUTE_HOPS,
    DirectoryView,
    ShardDirectory,
)
from repro.sim.rngs import derive_seed
from repro.verify.checker import leaf_contents
from repro.verify.invariants import representative_nodes


#: How a multi-part operation (a cross-shard scan) combines its
#: parts' outcomes: the worst one wins.
_SEVERITY = {"completed": 0, "timed_out": 1, "failed": 2, "incomplete": 3}


def hash_point(key: Key) -> int:
    """Stable 64-bit routing point for hash partitioning."""
    return hash_parts(("shard-route", key))


class ShardedCluster(ClientSurface):
    """N independent dB-trees partitioned behind a shard directory.

    Parameters
    ----------
    num_processors:
        Logical processor pool size, shared by every shard's kernel.
    shards:
        Initial shard count.  Range partitioning with ``shards > 1``
        requires ``initial_boundaries`` (the key space's shape is the
        caller's knowledge); hash partitioning carves the 64-bit hash
        ring evenly.
    initial_boundaries:
        Strictly increasing keys splitting the initial range
        partition; ``len(initial_boundaries) == shards - 1``.
    partitioning:
        ``"range"`` (default) partitions the key space directly and
        supports ordered cross-shard scans by concatenation;
        ``"hash"`` partitions the blake2b image of the key (uniform
        load without boundary knowledge) and scans degrade to an
        all-shard fan-out merged by key.
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
        fault plans, reliability, replication factor, repair, ...).
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
        if partitioning not in ("range", "hash"):
            raise ValueError(f"unknown partitioning {partitioning!r}")
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
        if partitioning == "hash":
            if initial_boundaries:
                raise ValueError(
                    "hash partitioning carves the hash ring evenly; "
                    "initial_boundaries only applies to range mode"
                )
            boundaries = tuple(
                (index * (1 << 64)) // shards for index in range(1, shards)
            )
        else:
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
            "migration_failures": 0,
            "shard_direct_routes": 0,
            "shard_stale_routes": 0,
            "shard_hint_hops": 0,
            "shard_forwards": 0,
            "directory_refreshes": 0,
            "scan_fanout": 0,
        }
        self._next_op = 0
        #: facade op id -> (parts, scan): the (shard_id, shard_op_id)
        #: pairs it waits on -- one for a keyed op, one per overlapping
        #: shard for a scan -- and, for a scan, ``(limit,)``.
        self._pending: dict[int, tuple] = {}
        self._events_seen: dict[int, int] = {
            sid: 0 for sid in self.clusters
        }

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
    def _point(self, key: Key) -> Key:
        """The routing coordinate of a key (identity in range mode)."""
        if self.partitioning == "hash":
            return hash_point(key)
        return key

    def _locate(self, client: int, key: Key) -> int:
        """Route ``key`` from ``client``'s cached view through the
        directory's recovery walk and return the live shard id."""
        point = self._point(key)
        view = self.views[client]
        shard_id, forwards, hint_hops = self.directory.resolve(view.route(point), point)
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
    def _record(self, parts: tuple, scan: tuple | None = None) -> int:
        """Register a facade operation; ``run()`` settles it."""
        op_id = self._next_op
        self._next_op += 1
        self._pending[op_id] = (parts, scan)
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

        In range mode the sub-scans go to the overlapping shards with
        clamped bounds and the per-shard B-link walks concatenate, in
        key order, into one result.  In hash mode key order is
        uncorrelated with shard order, so every live shard is scanned
        with the full bounds and the results are merged by key.
        """
        parts: list[tuple[int, int]] = []
        if self.partitioning == "range":
            for shard in self.directory.live_shards():
                r = shard.range
                if not key_lt(low, high):
                    break
                if key_le(r.high, low) or key_le(high, r.low):
                    continue
                sub_low = low if key_le(r.low, low) else r.low
                sub_high = high if key_le(high, r.high) else r.high
                shard_op = self.clusters[shard.shard_id].scan(
                    sub_low, sub_high, limit, client=client
                )
                parts.append((shard.shard_id, shard_op))
        else:
            for shard in self.directory.live_shards():
                shard_op = self.clusters[shard.shard_id].scan(
                    low, high, limit, client=client
                )
                parts.append((shard.shard_id, shard_op))
        self.counters["scan_fanout"] += len(parts)
        return self._record(tuple(parts), scan=(limit,))

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
        results = {}
        for shard_id, cluster in sorted(self.clusters.items()):
            results[shard_id] = cluster.run(max_events=max_events)
        return results

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
            parts, scan = self._pending[op_id]
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
            elif scan is None:
                ((sid, op),) = parts
                completed[op_id] = results[sid].completed[op]
            else:
                rows = [
                    row for sid, op in parts for row in results[sid].completed[op]
                ]
                if self.partitioning == "hash":
                    rows.sort(key=lambda pair: pair[0])
                completed[op_id] = tuple(rows[: scan[0]])
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
        """Entries held by a shard's tree.

        When anti-entropy repair is running, the count comes from the
        repair layer's :class:`~repro.repair.digest.DigestIndex`
        (digest-driven rebalancing): the balancer revalidates each
        live leaf through the cache -- O(changed) tuple comparisons,
        re-hashing only mutated leaves, exactly the gossip rounds'
        own discipline -- and sums the cached per-leaf entry counts.
        Without repair it falls back to a direct leaf sweep.  Both
        agree at quiescence.
        """
        cluster = self.clusters[shard_id]
        repair = cluster.engine.repair
        if repair is not None:
            index = repair.index
            for copy in representative_nodes(cluster.engine).values():
                if copy.is_leaf:
                    index.node_digest(copy.home_pid, copy)
            return index.leaf_entry_estimate()
        return len(leaf_contents(cluster.engine))

    def shard_contents(self, shard_id: int) -> dict[Key, Any]:
        """The shard tree's current leaf contents."""
        return leaf_contents(self.clusters[shard_id].engine)

    def _maintain(self) -> None:
        """Split overloaded shards, merge underloaded neighbours.

        Runs at the quiescent point after a ``run()``: migrations use
        the ordinary insert/delete operation paths inside the affected
        shard trees (a collective operation in the Maia part-tree
        sense), then the directory version is bumped so in-flight
        client views go stale and exercise the recovery path.
        """
        if self.split_threshold is None and self.merge_threshold is None:
            return
        for _ in range(MAX_ROUTE_HOPS):
            if self.split_threshold is not None and self._split_pass():
                continue
            if self.merge_threshold is not None and self._merge_pass():
                continue
            break

    def _split_pass(self) -> bool:
        for shard in self.directory.live_shards():
            count = self.entry_count(shard.shard_id)
            if count < self.split_threshold:
                continue
            if self._split_shard(shard.shard_id):
                return True
        return False

    def _merge_pass(self) -> bool:
        live = self.directory.live_shards()
        for left, right in zip(live, live[1:]):
            combined = self.entry_count(left.shard_id) + self.entry_count(
                right.shard_id
            )
            if combined <= self.merge_threshold:
                self._merge_shards(left.shard_id, right.shard_id)
                return True
        return False

    def _split_shard(self, shard_id: int) -> bool:
        """Split a shard at its median stored key; False if too small."""
        contents = self.shard_contents(shard_id)
        points = sorted(
            {self._point(key) for key in contents},
            key=lambda p: (p is POS_INF, p),
        )
        if len(points) < 2:
            return False
        separator = points[len(points) // 2]
        new_id = self.directory.split(shard_id, separator)
        self.clusters[new_id] = self._make_cluster(new_id)
        self._events_seen[new_id] = 0
        moved = {
            key: value
            for key, value in contents.items()
            if key_le(separator, self._point(key))
        }
        self._migrate(shard_id, new_id, moved)
        self.counters["shard_splits"] += 1
        return True

    def _merge_shards(self, left_id: int, right_id: int) -> None:
        """Drain the right shard into its left neighbour, retire it."""
        moved = self.shard_contents(right_id)
        self.directory.merge(left_id, right_id)
        self._migrate(right_id, left_id, moved)
        self.counters["shard_merges"] += 1

    def _migrate(
        self, source_id: int, target_id: int, items: Mapping[Key, Any]
    ) -> None:
        """Move items between shard trees through the normal op paths."""
        if not items:
            return
        source = self.clusters[source_id]
        target = self.clusters[target_id]
        pids = self.pids
        for index, (key, value) in enumerate(sorted(items.items())):
            client = pids[index % len(pids)]
            target.insert(key, value, client=client)
            source.delete(key, client=client)
        # Run both trees, then judge: a failed source run must not
        # leave the target's inserts pending.
        source_ok = source.run().ok
        target_ok = target.run().ok
        if not (source_ok and target_ok):
            self.counters["migration_failures"] += 1
        self.counters["keys_migrated"] += len(items)

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
