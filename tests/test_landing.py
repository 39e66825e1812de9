"""A landed message reaches its processor through one table.

The network keeps one table, pid -> that processor's ``submit``, built
when the kernel installs delivery.  The plain substrate (no plan, one
fixed latency: a transmission is one push) and the judged one (an
inert ``FaultPlan()``: every transmission is judged and lands through
the channel clock) both land through it, so a whole cluster run must
be the same run on either: every op completes at the same virtual
time with the same result, and the events, the messages and the
final virtual time agree.
"""

from __future__ import annotations

import random

import pytest

from repro import DBTreeCluster
from repro.sim.failure import FaultPlan
from repro.sim.permute import PermutePlan
from tests.helpers import count_executed


def read_mostly(cluster: DBTreeCluster) -> None:
    """A preload of inserts, then a batch of 95 % searches."""
    rng = random.Random(5)
    keys = rng.sample(range(10_000), 300)
    for index, key in enumerate(keys[:240]):
        cluster.insert(key, key, client=index % 4)
    cluster.run()
    fresh = iter(keys[240:])
    for index in range(600):
        if rng.random() < 0.95:
            cluster.search(rng.choice(keys[:240]), client=index % 4)
        else:
            key = next(fresh)
            cluster.insert(key, key, client=index % 4)


def insert_burst(cluster: DBTreeCluster) -> None:
    """Distinct-key inserts from every client at once."""
    for key in random.Random(6).sample(range(10_000), 400):
        cluster.insert(key, key, client=key % 4)


def observe(protocol: str, drive, fault_plan: FaultPlan | None) -> dict:
    cluster = DBTreeCluster(
        num_processors=4,
        protocol=protocol,
        capacity=4,
        seed=3,
        leaf_cache=True,
        fault_plan=fault_plan,
    )
    executed = count_executed(cluster.kernel.processors.values())
    completions = []
    cluster.engine.op_completion_listeners.append(
        lambda op, result: completions.append((op.op_id, cluster.now, result))
    )
    drive(cluster)
    results = cluster.run()
    assert not results.incomplete
    assert cluster.kernel.network._plain is (fault_plan is None)
    stats = cluster.kernel.network.stats
    return {
        "completions": completions,
        "events": cluster.kernel.events.executed,
        "sent": stats.sent,
        "delivered": stats.delivered,
        "piggybacked": stats.piggybacked,
        "by_kind": dict(stats.by_kind),
        "executed": {pid: dict(counts) for pid, counts in executed.items()},
        "now": cluster.now,
    }


@pytest.mark.parametrize(
    "protocol, drive",
    [("variable", read_mostly), ("semisync", insert_burst)],
    ids=["read-mostly-variable", "insert-burst-semisync"],
)
def test_plain_and_judged_substrates_run_the_same_cluster_run(protocol, drive):
    plain = observe(protocol, drive, None)
    judged = observe(protocol, drive, FaultPlan())
    assert len(plain["completions"]) >= 400
    assert plain == judged


@pytest.mark.parametrize(
    "layers",
    [{}, {"fault_plan": FaultPlan()}, {"permute_plan": PermutePlan(seed=1)}],
    ids=["plain", "judged", "permuted"],
)
def test_unknown_processor_message_rejected(layers):
    # The table has one row per processor; a message for any other pid
    # is a wiring bug, raised where it lands, whichever path took it.
    cluster = DBTreeCluster(num_processors=2, seed=1, **layers)
    cluster.kernel.network.send(0, 99, object())
    with pytest.raises(RuntimeError, match="unknown processor 99"):
        cluster.kernel.run_to_quiescence()
