"""Action vocabulary: kinds, modes, retargeting."""

from dataclasses import replace

from repro.core.actions import (
    CreateCopy,
    DeleteAction,
    HalfSplit,
    InsertAction,
    JoinRequest,
    LinkChange,
    Mode,
    OpContext,
    RelayedSplit,
    SearchStep,
    SplitEnd,
)
from repro.core.keys import KeyRange
from repro.core.node import NodeCopy


def make_insert(mode=Mode.INITIAL):
    return InsertAction(
        node_id=1, level=0, key=5, payload="v", mode=mode, action_id=42
    )


class TestKinds:
    def test_insert_kind_reflects_mode(self):
        assert make_insert(Mode.INITIAL).kind == "insert_initial"
        assert make_insert(Mode.RELAYED).kind == "insert_relayed"

    def test_delete_kind(self):
        action = DeleteAction(
            node_id=1, level=0, key=5, mode=Mode.RELAYED, action_id=1
        )
        assert action.kind == "delete_relayed"

    def test_link_change_kind_includes_slot(self):
        action = LinkChange(
            node_id=1,
            level=0,
            key=5,
            slot="location",
            target_id=2,
            target_pids=(1,),
            version=3,
            action_id=9,
        )
        assert action.kind == "link_change_location"

    def test_create_copy_kind_includes_reason(self):
        snap = NodeCopy(
            node_id=3,
            level=0,
            key_range=KeyRange.full(),
            pc_pid=0,
            copy_versions={0: 0},
            capacity=4,
        ).snapshot()
        action = CreateCopy(snap, "join")
        assert action.kind == "create_copy_join"
        assert action.node_id == 3

    def test_static_kinds(self):
        op = OpContext(1, "search", 5, None, 0)
        assert SearchStep(node_id=1, op=op).kind == "search"
        split = HalfSplit(2, 3, 4, (0,), None)
        assert RelayedSplit(1, split).kind == "relayed_split"
        assert SplitEnd(1, 2, split).kind == "split_end"
        assert JoinRequest(1, 1, 5, 2).kind == "join_request"


class TestRetargeting:
    def test_replace_preserves_other_fields(self):
        action = make_insert()
        moved = replace(action, node_id=77)
        assert moved.node_id == 77
        assert moved.key == action.key
        assert moved.action_id == action.action_id

    def test_mode_flip_for_relay(self):
        relayed = replace(make_insert(), mode=Mode.RELAYED, op=None)
        assert relayed.kind == "insert_relayed"
        assert relayed.op is None

    def test_actions_are_frozen(self):
        action = make_insert()
        try:
            action.key = 9  # type: ignore[misc]
        except AttributeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("InsertAction should be immutable")
