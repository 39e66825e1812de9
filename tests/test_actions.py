"""Action vocabulary: kinds, modes, retargeting, the value contract."""

import inspect

import pytest

from repro.core import actions
from repro.core.actions import (
    CreateCopy,
    DeleteAction,
    HalfSplit,
    InsertAction,
    JoinRequest,
    LinkChange,
    Mode,
    OpContext,
    PeerFailure,
    PeerRescind,
    RecoveryAnnounce,
    RelayedMembership,
    RelayedSplit,
    ScanStep,
    SearchStep,
    SplitEnd,
    UnjoinAck,
)
from repro.core.dbtree.engine import Drain, Graft, InitiateSplit
from repro.core.keys import KeyRange
from repro.core.node import NodeCopy

#: Every action class, and the values they carry (OpContext, HalfSplit).
ACTION_CLASSES = sorted(
    (
        obj
        for obj in vars(actions).values()
        if inspect.isclass(obj)
        and issubclass(obj, tuple)
        and obj.__module__ == actions.__name__
    ),
    key=lambda cls: cls.__name__,
) + [InitiateSplit, Graft, Drain]


def sample(cls):
    """An instance of ``cls`` whose fields are 1, 2, 3, ..."""
    return cls._make(range(1, len(cls._fields) + 1))


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

    def test_relayed_membership_kind_names_the_change(self):
        assert RelayedMembership(1, 9, "join", 2, 3).kind == "relayed_join"
        assert RelayedMembership(1, 9, "unjoin", 2, 3).kind == "relayed_unjoin"

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
        moved = action._replace(node_id=77)
        assert moved.node_id == 77
        assert moved.key == action.key
        assert moved.action_id == action.action_id

    def test_mode_flip_for_relay(self):
        relayed = make_insert()._replace(mode=Mode.RELAYED, op=None)
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


class TestValueContract:
    """Actions are immutable named tuples that behave as values of
    their own type: equal only to the same type with equal fields."""

    def test_the_vocabulary_is_every_action_class(self):
        # 23 actions, 2 carried values, the engine's InitiateSplit, Graft, Drain
        assert len(ACTION_CLASSES) == 28

    @pytest.mark.parametrize("cls", ACTION_CLASSES, ids=lambda cls: cls.__name__)
    def test_rejects_attribute_assignment(self, cls):
        action = sample(cls)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(action, name, 0)
        with pytest.raises(AttributeError):
            action.extra = 0
        assert action == sample(cls)

    @pytest.mark.parametrize("cls", ACTION_CLASSES, ids=lambda cls: cls.__name__)
    def test_equality_and_hash_take_the_type(self, cls):
        action = sample(cls)
        assert action == sample(cls) and not action != sample(cls)
        assert hash(action) == hash(sample(cls))
        fields = tuple(action)
        assert action != fields and fields != action
        assert not action == fields
        assert len({action, fields}) == 2
        assert action != action._replace(**{cls._fields[0]: 0})

    def test_same_fields_of_another_type_differ(self):
        one_pid = [PeerFailure(1), PeerRescind(1), RecoveryAnnounce(1), UnjoinAck(1)]
        one_pid.append(InitiateSplit(1))
        for index, first in enumerate(one_pid):
            for second in one_pid[index + 1:]:
                assert first != second and not first == second
        assert len(set(one_pid)) == len(one_pid)

    @pytest.mark.parametrize("cls", ACTION_CLASSES, ids=lambda cls: cls.__name__)
    def test_repr_names_every_field(self, cls):
        action = sample(cls)
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, action))
        assert repr(action) == f"{cls.__name__}({shown})"

    def test_nested_repr_reads_as_before(self):
        op = OpContext(7, "search", 5, None, 2)
        assert repr(SearchStep(3, op, True)) == (
            "SearchStep(node_id=3, op=OpContext(op_id=7, kind='search', key=5, "
            "value=None, home_pid=2), cached=True, detoured=0)"
        )

    @pytest.mark.parametrize("cls", ACTION_CLASSES, ids=lambda cls: cls.__name__)
    def test_replace_keeps_every_other_field(self, cls):
        action = sample(cls)
        for index, name in enumerate(cls._fields):
            changed = action._replace(**{name: "new"})
            assert type(changed) is cls
            assert changed[index] == "new"
            assert [v for i, v in enumerate(changed) if i != index] == [
                v for i, v in enumerate(action) if i != index
            ]

    @pytest.mark.parametrize(
        "cls",
        [cls for cls in ACTION_CLASSES if hasattr(cls, "with_node")],
        ids=lambda cls: cls.__name__,
    )
    def test_with_node_keeps_every_other_field(self, cls):
        action = sample(cls)
        moved = action.with_node(99)
        assert type(moved) is cls
        assert moved == action._replace(node_id=99)

    def test_relayed_keeps_every_field_but_mode_version_and_op(self):
        op = OpContext(1, "insert", 5, "v", 0)
        insert = InsertAction(1, 2, 5, "v", Mode.INITIAL, 42, 3, (0, 1), op, 0b10)
        assert insert.relayed(7) == insert._replace(
            mode=Mode.RELAYED, origin_version=7, op=None, detoured=0
        )
        delete = DeleteAction(1, 0, 5, Mode.INITIAL, 43, op, 0b10)
        assert delete.relayed() == delete._replace(mode=Mode.RELAYED, op=None, detoured=0)

    def test_scan_advance_and_search_uncache(self):
        op = OpContext(1, "scan", 5, (9, None), 0)
        scan = ScanStep(4, 0, 5, op, (1,), 0b1)
        assert scan.advanced(7, (1, 2)) == scan._replace(key=7, collected=(1, 2), detoured=0)
        step = SearchStep(4, op, True, 0b1)
        assert step.uncached() == step._replace(cached=False)
        assert step.uncached().uncached() == step._replace(cached=False)
