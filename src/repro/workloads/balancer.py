"""Diffusive leaf data-balancing (the C6 experiment's subject).

The paper (and its companion report [14]) argues that leaf-level data
balancing is effective and low-overhead on a dB-tree because leaves
are single-copy and migrate cheaply.  This balancer is deliberately
*distributed*: each processor periodically probes one random peer
with its local load; an underloaded peer answers with a pull request;
the overloaded processor migrates leaves covering about half the
surplus.  Every probe/pull is a real (counted) network message, so
the experiment measures the true overhead.

Works only with protocols that support leaf migration (mobile,
variable-copies).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.actions import MigrateNode
from repro.core.client import DBTreeCluster

if TYPE_CHECKING:
    from repro.sim.processor import Processor


@dataclass(frozen=True)
class BalanceProbe:
    """Gossip: "my leaf-entry load is ``load``; pull if you're light"."""

    kind = "balance_probe"

    from_pid: int
    load: int


@dataclass(frozen=True)
class BalancePull:
    """Reply: "I am lighter by more than the threshold; send leaves"."""

    kind = "balance_pull"

    from_pid: int
    load: int


class DiffusiveBalancer:
    """Pairwise random-gossip leaf balancer.

    Parameters
    ----------
    period:
        Virtual time between a processor's probe rounds.
    rounds:
        Probe rounds per processor (finite so runs reach quiescence).
    threshold:
        Minimum entry-count difference that triggers migration.
    """

    def __init__(
        self,
        cluster: DBTreeCluster,
        period: float = 200.0,
        rounds: int = 10,
        threshold: int = 8,
        seed: int = 0,
    ) -> None:
        if not hasattr(cluster.protocol, "migrate"):
            raise ValueError("balancer requires a migration-capable protocol")
        self.cluster = cluster
        self.period = period
        self.rounds = rounds
        self.threshold = threshold
        self._rng = random.Random(seed)
        self.migrated_leaves = 0
        cluster.engine.on(BalanceProbe, self._on_probe)
        cluster.engine.on(BalancePull, self._on_pull)

    # ------------------------------------------------------------------
    def start(self, at: float | None = None) -> None:
        """Begin probe rounds on every processor, staggered slightly."""
        kernel = self.cluster.kernel
        base = kernel.now if at is None else at
        for index, pid in enumerate(kernel.pids):
            first = base + self.period * (index + 1) / len(kernel.pids)
            self._schedule_round(pid, first, remaining=self.rounds)

    def _schedule_round(self, pid: int, time: float, remaining: int) -> None:
        if remaining <= 0:
            return
        self.cluster.kernel.events.schedule(
            time, lambda: self._probe(pid, remaining)
        )

    def _probe(self, pid: int, remaining: int) -> None:
        kernel = self.cluster.kernel
        peers = [p for p in kernel.pids if p != pid]
        if peers:
            peer = self._rng.choice(peers)
            kernel.route(
                pid, peer, BalanceProbe(from_pid=pid, load=self._load(pid))
            )
        self._schedule_round(pid, kernel.now + self.period, remaining - 1)

    # ------------------------------------------------------------------
    def _load(self, pid: int) -> int:
        proc = self.cluster.kernel.processor(pid)
        return sum(
            copy.num_entries
            for copy in self.cluster.engine.store(proc).values()
            if copy.is_leaf
        )

    def _on_probe(self, proc: "Processor", action: BalanceProbe) -> None:
        my_load = self._load(proc.pid)
        if action.load > my_load + self.threshold:
            self.cluster.kernel.route(
                proc.pid,
                action.from_pid,
                BalancePull(from_pid=proc.pid, load=my_load),
            )

    def _on_pull(self, proc: "Processor", action: BalancePull) -> None:
        self._ship_leaves(proc, to_pid=action.from_pid, peer_load=action.load)

    def _ship_leaves(self, proc: "Processor", to_pid: int, peer_load: int) -> None:
        """Migrate leaves covering about half the load surplus."""
        engine = self.cluster.engine
        my_load = self._load(proc.pid)
        surplus = my_load - peer_load
        if surplus <= self.threshold:
            return
        target = surplus // 2
        moved = 0
        leaves = sorted(
            (c for c in engine.store(proc).values() if c.is_leaf),
            key=lambda c: c.num_entries,
        )
        for leaf in leaves:
            if moved >= target:
                break
            if leaf.num_entries == 0:
                continue
            proc.submit(MigrateNode(node_id=leaf.node_id, to_pid=to_pid))
            moved += leaf.num_entries
            self.migrated_leaves += 1
