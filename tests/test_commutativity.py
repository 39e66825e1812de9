"""The commutativity registry: claims vs the Section 3 formalism."""

import pytest

from repro.core.actions import (
    DeleteAction,
    HalfSplit,
    InsertAction,
    Mode,
    RelayedSplit,
    SearchStep,
)
from repro.core.commutativity import (
    BASE_CLAIMS,
    REGISTRY,
    SWAPPABLE_KINDS,
    CommutativityError,
    PairClaim,
    ProtocolClaims,
    claims_for,
    paper_counterexample_claim,
    verify_claims,
)
from repro.core.history import HAction, SimpleNode, SimpleNodeSemantics, commutes
from repro.core.keys import POS_INF, KeyRange
from repro.core.node import NodeCopy
from repro.protocols import PROTOCOLS, make_protocol


def relayed_insert(key, node_id=1, action_id=100):
    return InsertAction(
        node_id=node_id,
        level=0,
        key=key,
        payload=f"v{key}",
        mode=Mode.RELAYED,
        action_id=action_id,
        op=None,
    )


def relayed_delete(key, node_id=1, action_id=200):
    return DeleteAction(
        node_id=node_id,
        level=0,
        key=key,
        mode=Mode.RELAYED,
        action_id=action_id,
        op=None,
    )


def relayed_split(separator, node_id=1, action_id=300):
    return RelayedSplit(
        node_id=node_id,
        split=HalfSplit(
            action_id=action_id,
            separator=separator,
            sibling_id=99,
            sibling_pids=(0,),
            parent_hint=None,
        ),
    )


class TestRegistryCrossCheck:
    def test_all_claims_verify_against_the_formalism(self):
        assert verify_claims() == []

    def test_every_commuting_claim_has_a_passing_witness(self):
        semantics = SimpleNodeSemantics()
        node = SimpleNode(low=0, high=10, keys=frozenset({1, 4, 7}))
        checked = 0
        for claim in BASE_CLAIMS:
            if not claim.commutes:
                continue
            for params in claim.witnesses:
                from repro.core.commutativity import _witness_actions

                first, second = _witness_actions(claim, params)
                assert commutes(node, first, second, semantics), claim
                checked += 1
        assert checked >= 6

    def test_every_protocol_claims_a_failing_pair(self):
        """At least one claimed-non-commuting pair per protocol fails
        the formalism's commutes() -- the claims have teeth."""
        semantics = SimpleNodeSemantics()
        node = SimpleNode(low=0, high=10, keys=frozenset({1, 4, 7}))
        for name in PROTOCOLS:
            claims = claims_for(name)
            negative = [c for c in claims.claims if not c.commutes]
            assert negative, name
            from repro.core.commutativity import _witness_actions

            failing = 0
            for claim in negative:
                for params in claim.witnesses:
                    first, second = _witness_actions(claim, params)
                    if not commutes(node, first, second, semantics):
                        failing += 1
            assert failing >= 1, name

    def test_paper_counterexample_claim_is_rejected(self):
        """The self-test's injected mutation: claiming the paper's
        item-4 pair (initial half-split vs relayed insert) commutes
        must be caught by the witness replay."""
        problems = verify_claims((paper_counterexample_claim(),))
        assert len(problems) == 1
        assert "half_split_initial" in problems[0]

    def test_item4_is_declared_non_commuting(self):
        claims = claims_for("semisync")
        (claim,) = [
            claim
            for claim in claims.claims
            if claim.covers("half_split_initial", "insert_relayed")
        ]
        assert claim.commutes is False

    def test_import_raises_on_contradictory_registry(self):
        """A module-level contradiction is a refusal to load; simulate
        by running the import-time check on a poisoned claim set."""
        poisoned = BASE_CLAIMS + (paper_counterexample_claim(),)
        problems = verify_claims(poisoned)
        assert problems
        with pytest.raises(CommutativityError):
            raise CommutativityError("\n".join(problems))


class TestWireGate:
    CLAIMS = claims_for("semisync")

    def test_swappable_kinds_are_exactly_the_relayed_updates(self):
        assert SWAPPABLE_KINDS == {
            "insert_relayed",
            "delete_relayed",
            "relayed_split",
        }
        assert self.CLAIMS.swappable(relayed_insert(5))
        assert self.CLAIMS.swappable(relayed_delete(5))
        assert self.CLAIMS.swappable(relayed_split(5))

    def test_initial_and_control_messages_never_swap(self):
        initial = InsertAction(
            node_id=1,
            level=0,
            key=5,
            payload="v",
            mode=Mode.INITIAL,
            action_id=1,
            op=None,
        )
        assert not self.CLAIMS.swappable(initial)
        assert not self.CLAIMS.swappable(SearchStep(1, None))
        assert not self.CLAIMS.commutes_wire(initial, relayed_insert(7))

    def test_distinct_key_inserts_commute_same_key_do_not(self):
        assert self.CLAIMS.commutes_wire(relayed_insert(5), relayed_insert(7))
        assert not self.CLAIMS.commutes_wire(relayed_insert(5), relayed_insert(5))

    def test_same_key_insert_delete_do_not_commute(self):
        assert not self.CLAIMS.commutes_wire(relayed_insert(5), relayed_delete(5))
        assert self.CLAIMS.commutes_wire(relayed_insert(5), relayed_delete(7))

    def test_deletes_always_commute(self):
        assert self.CLAIMS.commutes_wire(relayed_delete(5), relayed_delete(5))

    def test_splits_never_commute_with_each_other(self):
        assert not self.CLAIMS.commutes_wire(relayed_split(3), relayed_split(5))

    def test_updates_commute_with_relayed_splits(self):
        assert self.CLAIMS.commutes_wire(relayed_insert(2), relayed_split(5))
        assert self.CLAIMS.commutes_wire(relayed_insert(8), relayed_split(5))
        assert self.CLAIMS.commutes_wire(relayed_delete(8), relayed_split(5))

    def test_different_nodes_always_commute(self):
        a = relayed_split(5, node_id=1)
        b = relayed_split(3, node_id=2)
        assert self.CLAIMS.commutes_wire(a, b)

    def test_a_split_never_swaps_with_an_update_on_the_sibling_it_carries(self):
        sibling = NodeCopy(
            node_id=99,
            level=0,
            key_range=KeyRange(5, POS_INF),
            pc_pid=0,
            copy_versions={0: 0},
            capacity=4,
        ).snapshot(birth_set=frozenset())
        plain = relayed_split(5, node_id=1)
        carrying = RelayedSplit(1, plain.split._replace(sibling=sibling))
        for update in (
            relayed_insert(7, node_id=99),
            relayed_delete(7, node_id=99),
            relayed_split(8, node_id=99),
        ):
            assert not self.CLAIMS.commutes_wire(carrying, update)
            assert not self.CLAIMS.commutes_wire(update, carrying)
            # The same pair on a node the split did not create swaps.
            unrelated = update._replace(node_id=42)
            assert self.CLAIMS.commutes_wire(carrying, unrelated)
            assert self.CLAIMS.commutes_wire(unrelated, carrying)

    def test_unknown_condition_rejected(self):
        claim = PairClaim(
            kinds=("insert_relayed", "insert_relayed"),
            commutes=True,
            condition="bogus",
            paper="-",
            witnesses=(),
        )
        wrapped = ProtocolClaims(protocol="x", claims=(claim,))
        with pytest.raises(ValueError):
            wrapped.commutes_wire(relayed_insert(1), relayed_insert(2))


class TestProtocolHook:
    def test_every_protocol_exposes_its_claims(self):
        for name in PROTOCOLS:
            protocol = make_protocol(name)
            claims = protocol.commutativity()
            assert claims.protocol == name
            assert claims.claims == REGISTRY[name].claims

    def test_unknown_protocol_gets_base_claims(self):
        claims = claims_for("experimental")
        assert claims.protocol == "experimental"
        assert claims.claims == BASE_CLAIMS


class TestDeleteSemantics:
    """The never-merge delete in the reference semantics."""

    SEM = SimpleNodeSemantics()
    NODE = SimpleNode(low=0, high=10, keys=frozenset({1, 4, 7}))

    def test_initial_delete_in_range_relays(self):
        action = HAction("delete", 4, Mode.INITIAL, 1)
        result = self.SEM.apply(self.NODE, action)
        assert result.value.keys == frozenset({1, 7})
        assert result.subsequent == frozenset({("relay_delete", 4, 1)})

    def test_initial_delete_out_of_range_invalid(self):
        action = HAction("delete", 15, Mode.INITIAL, 1)
        assert self.SEM.apply(self.NODE, action) is None

    def test_relayed_delete_absent_key_is_noop(self):
        action = HAction("delete", 9, Mode.RELAYED, 1)
        result = self.SEM.apply(self.NODE, action)
        assert result.value == self.NODE
        assert result.subsequent == frozenset()

    def test_delete_is_an_update(self):
        assert self.SEM.is_update(HAction("delete", 4, Mode.RELAYED, 1))
