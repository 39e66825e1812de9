"""Correctness audit for the lazy hash table.

The same spirit as :mod:`repro.verify` for the dB-tree, adapted to
hashing:

* **bucket soundness** -- every entry's hash matches its bucket's
  prefix at the bucket's local depth; no bucket is overfull at
  quiescence; bucket ids are globally unique;
* **partition** -- every key lives in exactly one bucket;
* **resolvability** (the complete-history analogue) -- from *every*
  processor's directory replica, every key resolves to its bucket in
  a bounded number of split-link hops;
* **directory convergence** -- in "lazy"/"sync" modes all replicas
  hold the same facts at quiescence ("correction" mode is exempt:
  replicas there only ever learn what they personally misrouted);
* **expected contents** against a sequential oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.hash.bucket import Bucket, hash_key
from repro.verify.checker import (
    CheckReport,
    check_complete_operations,
    contents_problems,
)

if TYPE_CHECKING:
    from repro.hash.table import LazyHashEngine

#: Upper bound on forwarding hops before the audit calls it a cycle.
MAX_FORWARD_HOPS = 64


def _bucket_index(engine: "LazyHashEngine") -> dict[int, Bucket]:
    index: dict[int, Bucket] = {}
    for bucket in engine.all_buckets():
        if bucket.bucket_id in index:
            raise AssertionError(
                f"bucket id {bucket.bucket_id} stored on two processors"
            )
        index[bucket.bucket_id] = bucket
    return index


def check_bucket_soundness(engine: "LazyHashEngine") -> list[str]:
    problems = []
    for bucket in engine.all_buckets():
        mask = (1 << bucket.local_depth) - 1
        for key in bucket.entries:
            if hash_key(key) & mask != bucket.prefix:
                problems.append(
                    f"bucket {bucket.bucket_id}: key {key!r} hash does not "
                    f"match prefix {bucket.prefix:b}/{bucket.local_depth}"
                )
        if bucket.is_overfull:
            problems.append(
                f"bucket {bucket.bucket_id}: overfull at quiescence "
                f"({len(bucket.entries)} > {bucket.capacity})"
            )
    return problems


def check_partition(engine: "LazyHashEngine") -> list[str]:
    problems = []
    seen: dict[Any, int] = {}
    for bucket in engine.all_buckets():
        for key in bucket.entries:
            if key in seen:
                problems.append(
                    f"key {key!r} in buckets {seen[key]} and {bucket.bucket_id}"
                )
            seen[key] = bucket.bucket_id
    return problems


def resolve(engine: "LazyHashEngine", pid: int, key: Any) -> Bucket | None:
    """Resolve a key from one replica's view, following split links."""
    index = _bucket_index(engine)
    hashed = hash_key(key)
    target = engine.kernel.processor(pid).state["directory"].lookup(hashed)
    if target is None:
        return None
    bucket = index.get(target[0])
    hops = 0
    while bucket is not None and hops < MAX_FORWARD_HOPS:
        link = bucket.forward_target(hashed)
        if link is None:
            return bucket if bucket.owns(hashed) else None
        bucket = index.get(link.buddy_id)
        hops += 1
    return None


def check_resolvability(
    engine: "LazyHashEngine", expected: Mapping[Any, Any]
) -> list[str]:
    problems = []
    for pid in engine.kernel.pids:
        for key, value in expected.items():
            bucket = resolve(engine, pid, key)
            if bucket is None:
                problems.append(
                    f"pid {pid}: key {key!r} unresolvable from this replica"
                )
            elif key not in bucket.entries:
                problems.append(
                    f"pid {pid}: key {key!r} resolves to bucket "
                    f"{bucket.bucket_id} which lacks it"
                )
            elif bucket.entries[key] != value:
                problems.append(
                    f"key {key!r}: value {bucket.entries[key]!r} != "
                    f"expected {value!r}"
                )
    return problems


def check_directory_convergence(engine: "LazyHashEngine") -> list[str]:
    fingerprints = {
        pid: engine.kernel.processor(pid).state["directory"].fingerprint()
        for pid in engine.kernel.pids
    }
    distinct = set(fingerprints.values())
    if len(distinct) > 1:
        sizes = {pid: len(fp) for pid, fp in fingerprints.items()}
        return [f"directory replicas diverge at quiescence: sizes {sizes}"]
    return []


def check_hash_table(
    engine: "LazyHashEngine", expected: Mapping[Any, Any] | None = None
) -> CheckReport:
    report = CheckReport()
    report.extend("complete-ops", check_complete_operations(engine.trace))
    report.extend("bucket-soundness", check_bucket_soundness(engine))
    report.extend("partition", check_partition(engine))
    if engine.mode in ("lazy", "sync"):
        report.extend("directory-convergence", check_directory_convergence(engine))
    if expected is not None:
        contents: dict[Any, Any] = {}
        for bucket in engine.all_buckets():
            contents.update(bucket.entries)
        report.extend("expected-contents", contents_problems(contents, expected))
        report.extend("resolvability", check_resolvability(engine, expected))
    return report
