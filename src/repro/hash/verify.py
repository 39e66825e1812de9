"""Correctness audit for the lazy hash table.

An instance of the shared checks in :mod:`repro.verify.checker`:

* **placement** -- buckets are the leaves and a bucket's scope is its
  prefix at its local depth: every key lives in exactly one bucket,
  inside that scope; no bucket is overfull at quiescence; no bucket is
  stored twice;
* **directory convergence** -- in "lazy"/"sync" modes all replicas
  hold the same facts at quiescence ("correction" mode is exempt:
  replicas there only ever learn what they personally misrouted);
* **expected contents** against a sequential oracle;
* **resolvability** (the complete-history analogue) -- from *every*
  processor's directory replica, every key resolves to its bucket in
  a bounded number of split-link hops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.hash.bucket import Bucket, hash_key
from repro.verify import checker

if TYPE_CHECKING:
    from repro.hash.table import LazyHashEngine

#: Upper bound on forwarding hops before the audit calls it a cycle.
MAX_FORWARD_HOPS = 64


def resolver(engine: "LazyHashEngine") -> Callable[[Any, Any], dict | None]:
    """``resolve(directory, key)``: the entries of the bucket a key
    reaches from one directory replica, following split links, over a
    bucket index built once per audit."""
    index: dict[int, Bucket] = {b.bucket_id: b for b in engine.all_buckets()}

    def resolve(directory, key: Any) -> dict | None:
        hashed = hash_key(key)
        target = directory.lookup(hashed)
        bucket = None if target is None else index.get(target[0])
        for _ in range(MAX_FORWARD_HOPS):
            if bucket is None:
                return None
            link = bucket.forward_target(hashed)
            if link is None:
                return bucket.entries if bucket.owns(hashed) else None
            bucket = index.get(link.buddy_id)
        return None

    return resolve


def check_hash_table(
    engine: "LazyHashEngine", expected: Mapping[Any, Any] | None = None
) -> checker.CheckReport:
    report = checker.CheckReport()
    report.extend("complete-ops", checker.check_complete_operations(engine))
    placement, contents = checker.placement_problems(
        [
            (b.bucket_id, b.home_pid, f"prefix {b.prefix:b}/{b.local_depth}",
             lambda key, b=b: b.owns(hash_key(key)), b.entries, b.capacity)
            for b in engine.all_buckets()
        ],
        "bucket",
    )
    report.extend("placement", placement)
    directories = {
        pid: engine.kernel.processor(pid).state["directory"]
        for pid in engine.kernel.pids
    }
    if engine.mode in ("lazy", "sync"):
        facts = {pid: d.fingerprint() for pid, d in directories.items()}
        report.extend(
            "directory-convergence",
            checker.divergence_problems({"directory": facts}, "replicas"),
        )
    if expected is not None:
        report.extend(
            "expected-contents", checker.contents_problems(contents, expected)
        )
        origins = {f"pid {pid}": d for pid, d in directories.items()}
        report.extend(
            "resolvability",
            checker.resolvability_problems(origins, expected, resolver(engine)),
        )
    return report
