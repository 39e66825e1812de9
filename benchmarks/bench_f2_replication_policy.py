"""Experiment F2 -- Figure 2: the dB-tree replication policy.

The figure depicts the policy: the root is stored everywhere, each
leaf on a single processor, intermediate nodes at a moderate level of
replication -- and, as a side effect, "an operation can perform much
of its searching locally, reducing the number of messages passed."

The experiment builds a dB-tree under the variable-copies protocol
and reports copies-per-node by level plus search locality (fraction
of descent steps that were processor-local).
"""

import pytest
from common import emit, insert_burst
from repro import DBTreeCluster
from repro.stats import format_table, replication_profile, search_locality


def build_profile(procs: int = 8, count: int = 600, seed: int = 3) -> dict:
    from repro.workloads import DiffusiveBalancer

    cluster = DBTreeCluster(
        num_processors=procs, protocol="variable", capacity=8, seed=seed
    )
    expected = insert_burst(cluster, count=count)
    # Balance the leaves; the resulting migrations trigger the lazy
    # path-rule joins/unjoins that shape interior replication.
    balancer = DiffusiveBalancer(cluster, period=100.0, rounds=10, threshold=8, seed=5)
    balancer.start()
    cluster.run()
    report = cluster.check(expected=expected)
    if not report.ok:
        raise AssertionError(report.problems[0])
    # Measure locality on a post-load search phase.
    cluster.kernel.network.reset_stats()
    keys = list(expected)
    for index, key in enumerate(keys[:200]):
        cluster.search(key, client=index % procs)
    cluster.run()
    profile = replication_profile(cluster.engine)
    locality = search_locality(cluster.trace, cluster.kernel)
    longest = max(
        op.hops for op in cluster.trace.operations.values() if op.kind == "search"
    )
    return {
        "profile": profile,
        "locality": locality,
        "longest_search": longest,
        "procs": procs,
    }


def run_experiment() -> str:
    result = build_profile()
    rows = []
    for level, row in sorted(result["profile"].items(), reverse=True):
        label = "root" if level == max(result["profile"]) else (
            "leaf" if level == 0 else "interior"
        )
        rows.append(
            [level, label, row["nodes"], row["avg_copies"], row["max_copies"]]
        )
    table = format_table(
        ["level", "role", "nodes", "avg copies", "max copies"],
        rows,
        title=(
            f"F2 (Figure 2): replication by level on {result['procs']} "
            f"processors  |  search locality = "
            f"{result['locality']['locality']:.3f} "
            f"({result['locality']['avg_hops']:.2f} hops/search)"
        ),
    )
    return emit("f2_replication_policy", table)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "three of the 200 searches take 111, 108 and 47 hops: they hit "
        "missing-node recovery, which ranks an out-of-range local leaf above "
        "the covering interior copy, and crawl 283 forward_left hops between "
        "them (EXPERIMENTS.md, F2).  Locality still reads 0.506.  Strict: the "
        "marker goes with the bug."
    ),
)
def test_f2_replication_policy(benchmark):
    result = benchmark.pedantic(build_profile, rounds=2, iterations=1)
    profile = result["profile"]
    root_level = max(profile)
    # The paper's policy shape: root everywhere, leaves single-copy,
    # interior in between.
    assert profile[root_level]["avg_copies"] == result["procs"]
    assert profile[0]["avg_copies"] == 1.0
    if root_level > 1:
        assert 1.0 < profile[1]["avg_copies"] <= result["procs"]
    # Most searching is local (the figure's side effect).
    assert result["locality"]["locality"] > 0.5
    # And no search crawls: a descent visits each level about once.
    assert result["longest_search"] <= 2 * (root_level + 1)
    run_experiment()


if __name__ == "__main__":
    run_experiment()
