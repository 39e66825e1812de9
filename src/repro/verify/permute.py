"""The permutation-replay checker: convergence under permuted schedules.

Theorem 2's guarantee is *order-independence*: any delivery schedule
the reliable network can produce must converge every copy to the same
final state.  One simulation run tests one schedule; this module
tests a neighbourhood of them.

For a protocol and workload seed it runs one **canonical** schedule
(permuter off), then ``rounds`` **permuted** schedules of the *same*
workload -- each with a :class:`~repro.sim.permute.PermutePlan` whose
seed is derived from the workload seed -- and asserts, per permuted
run:

* **replica convergence** -- the repair subsystem's
  :class:`~repro.repair.digest.DigestIndex` digests agree across
  every replica group (:func:`repro.verify.checker
  .check_digest_convergence`, the same oracle anti-entropy gossip
  ships on the wire);
* **content convergence** -- the digest of the union of leaf entries
  equals the canonical run's.  Tree *shape* may legally differ (a
  swap can shift a split's timing and separator); the key/value
  content may not.

Any divergence is then **minimized**: the failing round is replayed
with delta-debugged subsets of its executed holds
(``SchedulePermuter.hold_filter``) until a minimal set of swaps --
ideally one -- still reproduces it, and the offending action pair is
reported from the minimal run's swap records.

:func:`checker_selftest` proves the machinery has teeth, in two
layers: the registry rejects the paper's item-4 counterexample claim
(initial half-split vs relayed insert), and the live ``naive``
protocol -- the semi-synchronous protocol *minus* its history
rewrite, i.e. exactly a protocol whose handling violates that
non-commuting pair's obligation -- is flagged on every seed while
``semisync`` stays clean on the same workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.client import DBTreeCluster
from repro.repair.digest import hash_parts
from repro.sim.permute import PermutePlan
from repro.sim.rngs import derive_seed
from repro.verify.checker import (
    check_digest_convergence,
    contents_problems,
    leaf_contents,
)

#: Default shape of the audit workload: small capacity forces many
#: splits, clients spread over all processors race their relays, and
#: a second phase mixes fresh inserts with deletes of settled keys.
DEFAULT_PROCESSORS = 4
DEFAULT_CAPACITY = 4
DEFAULT_OPS = 48

#: Default permuted-schedule parameters.  The window spans a few
#: remote hops so a held relay can genuinely be overtaken.
DEFAULT_ROUNDS = 6
DEFAULT_RATE = 0.3
DEFAULT_WINDOW = 35.0

#: Probe budget for delta-debugging one divergence.
MINIMIZE_BUDGET = 200


@dataclass
class RoundResult:
    """One permuted schedule's verdict."""

    round_index: int
    plan_seed: int
    holds: tuple[int, ...]
    swaps: tuple[dict, ...]
    problems: tuple[str, ...]
    minimized: dict | None = None

    @property
    def diverged(self) -> bool:
        return bool(self.problems)


@dataclass
class PermutationReport:
    """Verdict of one protocol x workload-seed audit."""

    protocol: str
    seed: int
    canonical_content: int
    canonical_problems: tuple[str, ...]
    rounds: list[RoundResult] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        """Whether any permuted schedule diverged."""
        return any(r.diverged for r in self.rounds)

    @property
    def ok(self) -> bool:
        """Clean canonical run and no permuted divergence."""
        return not self.canonical_problems and not self.detected

    def summary(self) -> str:
        diverged = [r.round_index for r in self.rounds if r.diverged]
        swaps = sum(len(r.swaps) for r in self.rounds)
        state = "DIVERGED" if self.detected else "converged"
        detail = f" rounds={diverged}" if diverged else ""
        return (
            f"{self.protocol} seed={self.seed}: {state} "
            f"({len(self.rounds)} permuted schedules, {swaps} swaps"
            f"{detail})"
        )


def default_workload(cluster: DBTreeCluster, seed: int, ops: int) -> None:
    """The audit workload: racing inserts, then mixed inserts/deletes.

    Phase 1 spreads ``ops`` shuffled inserts over every processor and
    runs to quiescence -- with a small node capacity this races many
    relayed inserts against many relayed splits.  Phase 2 interleaves
    fresh inserts with deletes of settled phase-1 keys (disjoint key
    sets, so every cross pair is claimed-commuting) and runs again.
    """
    rng = random.Random(derive_seed(seed, "permute-workload"))
    pids = cluster.kernel.pids
    keys = [k * 7 + 1 for k in range(ops)]
    rng.shuffle(keys)
    for index, key in enumerate(keys):
        cluster.insert(key, f"v{key}", client=pids[index % len(pids)])
    cluster.run()
    victims = rng.sample(keys, max(1, ops // 4))
    fresh = [ops * 7 + 1 + k * 7 for k in range(max(1, ops // 4))]
    for index, (victim, key) in enumerate(zip(victims, fresh)):
        cluster.delete(victim, client=pids[index % len(pids)])
        cluster.insert(key, f"v{key}", client=pids[(index + 1) % len(pids)])
    cluster.run()


WorkloadFn = Callable[[DBTreeCluster, int, int], None]


def _run_schedule(
    protocol: str,
    seed: int,
    *,
    num_processors: int,
    capacity: int,
    ops: int,
    workload: WorkloadFn,
    plan: PermutePlan | None,
    hold_filter: frozenset[int] | None = None,
) -> tuple[DBTreeCluster, list[str]]:
    """Build a cluster, run the workload, return it plus run problems."""
    cluster = DBTreeCluster(
        num_processors=num_processors,
        protocol=protocol,
        capacity=capacity,
        seed=seed,
        trace_level="ops",
        permute_plan=plan,
    )
    if hold_filter is not None:
        cluster.kernel.permuter.hold_filter = hold_filter  # type: ignore[union-attr]
    workload(cluster, seed, ops)
    problems = list(check_digest_convergence(cluster.engine))
    return cluster, problems


def _content_digest(cluster: DBTreeCluster) -> int:
    """Order-independent digest of the union of leaf entries."""
    return hash_parts(tuple(sorted(leaf_contents(cluster.engine).items())))


def _ddmin(
    test: Callable[[frozenset[int]], bool],
    failing: tuple[int, ...],
    budget: int = MINIMIZE_BUDGET,
) -> tuple[int, ...]:
    """Classic delta debugging: shrink ``failing`` while ``test`` holds.

    ``test(subset)`` returns True when the divergence still
    reproduces with exactly ``subset`` held.  Returns a 1-minimal
    subset (removing any single chunk at the final granularity no
    longer reproduces), or the best-so-far when the probe budget runs
    out.
    """
    current = list(failing)
    probes = 0
    granularity = 2
    while len(current) >= 2 and granularity <= len(current):
        chunk = max(1, len(current) // granularity)
        subsets = [
            current[start : start + chunk]
            for start in range(0, len(current), chunk)
        ]
        reduced = False
        for index, subset in enumerate(subsets):
            complement = [
                item
                for other, sub in enumerate(subsets)
                if other != index
                for item in sub
            ]
            for candidate in (subset, complement):
                if not candidate or len(candidate) == len(current):
                    continue
                probes += 1
                if probes > budget:
                    return tuple(current)
                if test(frozenset(candidate)):
                    current = candidate
                    granularity = 2
                    reduced = True
                    break
            if reduced:
                break
        if not reduced:
            granularity *= 2
    return tuple(current)


def permutation_audit(
    protocol: str,
    seed: int = 0,
    *,
    rounds: int = DEFAULT_ROUNDS,
    num_processors: int = DEFAULT_PROCESSORS,
    capacity: int = DEFAULT_CAPACITY,
    ops: int = DEFAULT_OPS,
    rate: float = DEFAULT_RATE,
    window: float = DEFAULT_WINDOW,
    workload: WorkloadFn = default_workload,
    minimize: bool = True,
) -> PermutationReport:
    """Replay ``rounds`` permuted schedules; compare to the canonical.

    Every permuted round uses a plan seed derived from ``seed`` and
    the round index, so the whole audit is a pure function of its
    arguments.  Divergent rounds are delta-debugged down to a minimal
    hold set when ``minimize`` is on.
    """
    shape = dict(
        num_processors=num_processors,
        capacity=capacity,
        ops=ops,
        workload=workload,
    )
    canonical, canonical_problems = _run_schedule(
        protocol, seed, plan=None, **shape
    )
    canonical_map = leaf_contents(canonical.engine)
    report = PermutationReport(
        protocol=protocol,
        seed=seed,
        canonical_content=_content_digest(canonical),
        canonical_problems=tuple(canonical_problems),
    )
    for round_index in range(rounds):
        plan = PermutePlan(
            seed=derive_seed(seed, f"permute-round-{round_index}"),
            rate=rate,
            window=window,
        )

        def probe(hold_filter: frozenset[int] | None) -> tuple[list[str], Any]:
            cluster, problems = _run_schedule(
                protocol, seed, plan=plan, hold_filter=hold_filter, **shape
            )
            problems = [f"replica divergence: {p}" for p in problems]
            problems.extend(
                contents_problems(leaf_contents(cluster.engine), canonical_map)
            )
            return problems, cluster

        problems, cluster = probe(None)
        permuter = cluster.kernel.permuter
        result = RoundResult(
            round_index=round_index,
            plan_seed=plan.seed,
            holds=tuple(permuter.executed_holds),
            swaps=tuple(
                rec for rec in permuter.snapshot()["swap_records"]
            ),
            problems=tuple(problems),
        )
        if result.diverged and minimize:
            minimal_holds = _ddmin(
                lambda subset: bool(probe(subset)[0]), result.holds
            )
            minimal_problems, minimal_cluster = probe(frozenset(minimal_holds))
            minimal_permuter = minimal_cluster.kernel.permuter
            minimal_map = leaf_contents(minimal_cluster.engine)
            # Attribute the divergence: swaps whose *delayed* action
            # carries a key the minimal run lost or corrupted are the
            # offending pair -- a relayed update pushed past the
            # delivery (or the local split decision) that made it
            # out-of-range at its destination.
            suspect_keys = (set(canonical_map) - set(minimal_map)) | {
                key
                for key in set(canonical_map) & set(minimal_map)
                if canonical_map[key] != minimal_map[key]
            }
            culprits = [
                rec
                for rec in minimal_permuter.swap_records
                if rec.delayed[2] in suspect_keys
            ]
            result.minimized = {
                "holds": list(minimal_holds),
                "problems": minimal_problems,
                "swaps": minimal_permuter.snapshot()["swap_records"],
                "pairs": sorted(
                    {
                        (rec.delayed[0], rec.overtook[0])
                        for rec in minimal_permuter.swap_records
                    }
                ),
                "culprits": [
                    {
                        "time": rec.time,
                        "dst": rec.dst,
                        "hold_index": rec.hold_index,
                        "delayed": rec.delayed,
                        "overtook": rec.overtook,
                    }
                    for rec in culprits
                ],
            }
        report.rounds.append(result)
    return report


@dataclass
class SelfTestReport:
    """Verdict of the checker's own self-test."""

    registry_rejects_counterexample: bool
    naive_detected: dict[int, bool]
    control_clean: dict[int, bool]

    @property
    def ok(self) -> bool:
        return (
            self.registry_rejects_counterexample
            and all(self.naive_detected.values())
            and all(self.control_clean.values())
        )

    def summary(self) -> str:
        caught = sum(self.naive_detected.values())
        clean = sum(self.control_clean.values())
        return (
            f"registry rejects item-4 counterexample: "
            f"{self.registry_rejects_counterexample}; naive flagged on "
            f"{caught}/{len(self.naive_detected)} seeds; semisync clean on "
            f"{clean}/{len(self.control_clean)} seeds"
        )


def checker_selftest(
    seeds: tuple[int, ...] = (0, 1, 2),
    *,
    rounds: int = DEFAULT_ROUNDS,
    ops: int = DEFAULT_OPS,
) -> SelfTestReport:
    """Prove the checker catches the known non-commuting mutation.

    The injected mutation is the paper's initial-half-split vs
    relayed-insert pair, in both its forms: as a *claim* (the
    registry must reject it on witness replay) and as *handling* (the
    naive protocol drops the relayed insert a swap pushes past a
    split -- Figure 4 -- and the audit must flag the divergence on
    every seed, while the semi-synchronous history rewrite stays
    clean on identical workloads and plans).
    """
    from repro.core.commutativity import (
        paper_counterexample_claim,
        verify_claims,
    )

    rejects = bool(verify_claims((paper_counterexample_claim(),)))
    naive: dict[int, bool] = {}
    control: dict[int, bool] = {}
    for seed in seeds:
        naive[seed] = permutation_audit(
            "naive", seed, rounds=rounds, ops=ops, minimize=False
        ).detected
        control[seed] = permutation_audit(
            "semisync", seed, rounds=rounds, ops=ops, minimize=False
        ).ok
    return SelfTestReport(
        registry_rejects_counterexample=rejects,
        naive_detected=naive,
        control_clean=control,
    )
