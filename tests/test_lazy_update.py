"""The lazy update, written once (paper, Sections 3 and 4.1).

An update is performed at one copy, relayed to the others, applied
there at most once, and lands in each copy's history.  The engine has
one function for each of those steps -- ``incorporate``,
``duplicate_relay``, ``relay`` -- and every kind of update goes
through them.  These tests state what that buys:

* a copy's ``incorporated_ids`` and its recorded history agree, under
  every protocol and under a crash / mirror / repair schedule;
* a half-split leaves a non-PC copy in the same state whichever
  message carried it;
* a relay delivered twice is applied once and counted once, whatever
  it relays;
* ``relay`` reaches every other copy and never the sender.
"""

from __future__ import annotations

import random

import pytest

from repro import DBTreeCluster
from repro.baselines.available_copies import ApplyUnlock, AvailableCopiesProtocol
from repro.baselines.eager_broadcast import EagerBroadcastProtocol
from repro.core.actions import (
    DeleteAction,
    HalfSplit,
    InsertAction,
    Mode,
    RelayedMembership,
    RelayedSplit,
    SplitEnd,
    SplitStart,
)
from repro.core.keys import NEG_INF, POS_INF
from repro.protocols.mobile import MigrationMixin
from repro.protocols.variable import VariableCopiesProtocol
from repro.sim.crash import CrashPlan

LEAF, ROOT = 1, 2  # the bootstrap tree: node ids are allocated in this order


# ----------------------------------------------------------------------
# incorporated_ids == recorded history, at every live copy
# ----------------------------------------------------------------------
PROTOCOLS = {
    "sync": lambda: "sync",
    "semisync": lambda: "semisync",
    "naive": lambda: "naive",
    "mobile": lambda: "mobile",
    "variable": lambda: "variable",
    "variable-free-at-empty": lambda: VariableCopiesProtocol(free_at_empty=True),
    "available_copies": AvailableCopiesProtocol,
    "eager_broadcast": EagerBroadcastProtocol,
}


def assert_histories_match_ids(cluster) -> int:
    trace = cluster.trace
    copies = cluster.engine.all_copies()
    for copy in copies:
        history = trace.copies[(copy.node_id, copy.home_pid)]
        assert history.alive, (copy, "stored but recorded as deleted")
        assert history.known_ids() == copy.incorporated_ids, (
            copy,
            sorted(history.known_ids() ^ copy.incorporated_ids),
        )
    return len(copies)


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_history_and_incorporated_ids_agree(name):
    cluster = DBTreeCluster(
        num_processors=4, protocol=PROTOCOLS[name](), capacity=4, seed=3
    )
    rng = random.Random(5)
    keys = list(range(300))
    rng.shuffle(keys)
    for index, key in enumerate(keys):
        cluster.insert(key, index, client=index % 4)
    cluster.run()
    for index, key in enumerate(rng.sample(keys, 150)):
        cluster.delete(key, client=index % 4)
    cluster.run()
    if isinstance(cluster.protocol, MigrationMixin):
        for leaf in cluster.engine.leaves():
            cluster.migrate_node(leaf.node_id, leaf.home_pid, (leaf.home_pid + 1) % 4)
        assert cluster.run().ok
        assert cluster.trace.counters["migrations"] > 20
    assert assert_histories_match_ids(cluster) > 100


def test_history_and_incorporated_ids_agree_across_crash_and_repair():
    # Processor 0 holds every leaf and is primary for every interior
    # node when it dies: leaves come back from their mirrors, interior
    # copies from donations, and repair gossips throughout.
    cluster = DBTreeCluster(
        num_processors=4,
        protocol="variable",
        capacity=4,
        seed=3,
        crash_plan=CrashPlan(schedule=((0, 300.0, 600.0),)),
        replication_factor=2,
        op_timeout=400.0,
        op_retries=8,
        repair_period=150.0,
    )
    keys = list(range(200))
    random.Random(5).shuffle(keys)
    for index, key in enumerate(keys):
        cluster.schedule(8.0 * index, "insert", key, index, client=index % 4)
    assert cluster.run().ok
    counters = cluster.trace.counters
    assert counters["processor_restarts"] == 1
    assert counters["leaves_rehomed"] > 0 and counters["pc_donations"] > 0
    assert cluster.repair_summary()["rounds_started"] > 0
    assert assert_histories_match_ids(cluster) > 100


# ----------------------------------------------------------------------
# (a) one half-split, three wire forms, one application
# ----------------------------------------------------------------------
def _relayed_split(engine, proc, split, nonce):
    engine.handle(proc, RelayedSplit(LEAF, split))


def _split_end(engine, proc, split, nonce):
    engine.handle(proc, SplitStart(LEAF, split_id=nonce, pc_pid=0))
    engine.handle(proc, SplitEnd(LEAF, nonce, split))


def _apply_unlock(engine, proc, split, nonce):
    engine.handle(proc, ApplyUnlock(LEAF, round_id=nonce, payload=split))


WIRE_FORMS = {
    "RelayedSplit": ("semisync", _relayed_split),
    "SplitEnd": ("sync", _split_end),
    "ApplyUnlock": (AvailableCopiesProtocol, _apply_unlock),
}

SPLIT_COUNTERS = (
    "relayed_half_split",
    "duplicate_relay_ignored",
    "relayed_split_out_of_range",
)


def apply_one_split(form: str) -> dict:
    """What the non-PC copy of the bootstrap leaf looks like after the
    same half-split arrives as ``form``, arrives again, and is followed
    by a split whose separator the copy no longer covers."""
    protocol, deliver = WIRE_FORMS[form]
    cluster = DBTreeCluster(
        num_processors=2,
        protocol=protocol if isinstance(protocol, str) else protocol(),
        capacity=4,
        seed=1,
        leaf_cache=True,
    )
    engine = cluster.engine
    proc = cluster.kernel.processor(1)
    copy = engine.copy_at(proc, LEAF)
    assert not copy.is_pc and copy.copy_pids == (0, 1)
    for key in (10, 20, 30, 40, 50):
        copy.insert_entry(key, f"v{key}")
    split = HalfSplit(
        action_id=9001, separator=30, sibling_id=99, sibling_pids=(0, 1), parent_hint=7
    )
    deliver(engine, proc, split, 501)
    deliver(engine, proc, split, 502)  # duplicated
    late = HalfSplit(9002, separator=40, sibling_id=98, sibling_pids=(0,), parent_hint=8)
    deliver(engine, proc, late, 503)  # reordered past the split that covers it
    cache = engine._leaf_caches[1]
    counters = cluster.trace.counters
    return {
        "range": (copy.range.low, copy.range.high),
        "keys": copy.keys(),
        "right": copy.right_id,
        "parent": copy.parent_id,
        "ids": sorted(copy.incorporated_ids),
        "history": cluster.trace.copies[(LEAF, 1)].applied,
        "sibling_at": proc.state["locator"].get(99),
        "hints": [cache.lookup(key) for key in (10, 29, 30, 60)],
        "counters": {name: counters.get(name, 0) for name in SPLIT_COUNTERS},
    }


def test_relayed_split_is_applied_the_same_however_it_travels():
    seen = {form: apply_one_split(form) for form in WIRE_FORMS}
    reference = seen["RelayedSplit"]
    assert reference["range"] == (NEG_INF, 30)
    assert reference["keys"] == (10, 20)
    assert (reference["right"], reference["parent"]) == (99, 7)
    assert reference["ids"] == [9001]
    assert [(u.action_id, u.kind, u.mode, u.params) for u in reference["history"]] == [
        (9001, "half_split", "relayed", ("half_split", 30, 99))
    ]
    assert reference["sibling_at"] == (0, (0, 1))
    assert reference["hints"] == [
        (LEAF, NEG_INF, 30),
        (LEAF, NEG_INF, 30),
        (99, 30, POS_INF),
        (99, 30, POS_INF),
    ]
    assert reference["counters"] == {
        "relayed_half_split": 1,
        "duplicate_relay_ignored": 1,
        "relayed_split_out_of_range": 1,
    }
    for form, observed in seen.items():
        assert observed == reference, form


# ----------------------------------------------------------------------
# (b) a relay delivered twice is applied once and counted once
# ----------------------------------------------------------------------
def relayed_insert(key):
    return InsertAction(LEAF, 0, key, f"v{key}", Mode.RELAYED, action_id=9000 + key)


DUPLICATED = {
    "insert": ("semisync", LEAF, [relayed_insert(5)]),
    "delete": (
        "semisync",
        LEAF,
        [relayed_insert(5), DeleteAction(LEAF, 0, 5, Mode.RELAYED, action_id=9100)],
    ),
    "split": (
        "semisync",
        LEAF,
        [
            relayed_insert(5),
            relayed_insert(6),
            RelayedSplit(LEAF, HalfSplit(9200, 6, 99, (0, 1, 2), None)),
        ],
    ),
    "unjoin": ("variable", ROOT, [RelayedMembership(ROOT, 9300, "unjoin", pid=2, version=1)]),
    "join": (
        "variable",
        ROOT,
        [
            RelayedMembership(ROOT, 9300, "unjoin", pid=2, version=1),
            RelayedMembership(ROOT, 9400, "join", pid=2, version=2),
        ],
    ),
}


@pytest.mark.parametrize("kind", sorted(DUPLICATED))
def test_duplicated_relay_is_applied_once_and_counted_once(kind):
    protocol, node_id, messages = DUPLICATED[kind]
    cluster = DBTreeCluster(num_processors=3, protocol=protocol, capacity=4, seed=1)
    engine = cluster.engine
    proc = cluster.kernel.processor(1)
    copy = engine.copy_at(proc, node_id)
    assert not copy.is_pc and len(copy.copy_pids) == 3
    for message in messages:
        engine.handle(proc, message)

    def state():
        return (
            copy.value_fingerprint(),
            copy.version,
            dict(copy.copy_versions),
            set(copy.incorporated_ids),
            list(cluster.trace.copies[(node_id, 1)].applied),
        )

    applied_once = state()
    assert cluster.trace.counters.get("duplicate_relay_ignored", 0) == 0
    engine.handle(proc, messages[-1])
    assert state() == applied_once
    assert cluster.trace.counters["duplicate_relay_ignored"] == 1
    last = getattr(messages[-1], "split", messages[-1]).action_id
    assert [u.action_id for u in applied_once[4]].count(last) == 1
    assert last in copy.incorporated_ids


# ----------------------------------------------------------------------
# (c) relay: every other copy, never the sender
# ----------------------------------------------------------------------
class Recorder:
    def __init__(self):
        self.sent = []

    def __call__(self, src, dst, message):
        self.sent.append((src, dst, message))


def test_relay_reaches_every_peer_and_never_the_sender(monkeypatch):
    cluster = DBTreeCluster(num_processors=4, protocol="semisync", seed=1)
    engine = cluster.engine
    routed = Recorder()
    monkeypatch.setattr(cluster.kernel, "route", routed)
    for pid in cluster.pids:
        proc = cluster.kernel.processor(pid)
        copy = engine.copy_at(proc, ROOT)
        others = tuple(p for p in cluster.pids if p != pid)
        routed.sent.clear()
        assert tuple(engine.relay(proc, copy, "m")) == others
        assert routed.sent == [(pid, dst, "m") for dst in others]
    # A narrowed fan-out goes exactly where it is told.
    routed.sent.clear()
    assert engine.relay(proc, copy, "m", [0, 2]) == [0, 2]
    assert routed.sent == [(3, 0, "m"), (3, 2, "m")]
    # A single-copy node has nobody to tell.
    routed.sent.clear()
    copy.copy_versions = {3: 0}
    assert tuple(engine.relay(proc, copy, "m")) == ()
    assert routed.sent == []


def test_every_relay_an_action_makes_is_held(monkeypatch):
    # Whatever it relays, a relay made while its processor acts waits
    # for the action's end, to share each peer's one message.
    cluster = DBTreeCluster(num_processors=3, protocol="semisync", seed=1)
    engine = cluster.engine
    proc = cluster.kernel.processor(0)
    held, sent = [], Recorder()
    monkeypatch.setattr(proc, "hold", lambda dst, message: held.append((dst, message)))
    monkeypatch.setattr(cluster.kernel.network, "send", sent)
    monkeypatch.setattr(cluster.kernel, "acting", proc)
    copy = engine.copy_at(proc, LEAF)
    insert = relayed_insert(5)
    delete = DeleteAction(LEAF, 0, 5, Mode.RELAYED, action_id=9100)
    split = RelayedSplit(LEAF, HalfSplit(9200, 6, 99, (0, 1, 2), None))
    for message in (insert, delete, split):
        engine.relay(proc, copy, message)
    assert held == [
        (1, insert), (2, insert), (1, delete), (2, delete), (1, split), (2, split)
    ]
    assert sent.sent == []
