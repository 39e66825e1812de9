"""The declared action-commutativity registry, cross-checked at import.

The lazy-update argument (paper Sections 3.1 and 4.1, Theorem 2)
rests on specific *pairs* of relayed actions commuting: two copies
may apply them in different orders and still converge.  Until now
that claim lived in two disconnected places -- prose in the paper and
ad-hoc assertions over :mod:`repro.core.history` -- while the live
engine's delivery orders were never exercised against it.

This module is the single executable statement of the claim:

* each :class:`PairClaim` says whether a pair of relayed-action kinds
  commutes, under what wire-level condition, and which Section 4.1
  item it reproduces;
* every claim carries *witnesses* -- representative
  :class:`~repro.core.history.SimpleNode` values and action pairs --
  and :func:`verify_claims` replays each witness through the
  formalism's :func:`~repro.core.history.commutes` at **import
  time**, so a registry entry that contradicts the Section 3 algebra
  refuses to load;
* the schedule permuter (:mod:`repro.sim.permute`) consults
  :meth:`ProtocolClaims.commutes_wire` and swaps *only*
  claimed-commuting deliveries, making every claim a live test of the
  engine rather than a comment.

The registry is deliberately conservative at the wire level: a pair
with no claim is treated as non-commuting and never swapped, and
same-key insert/insert pairs are excluded even though the key-set
abstraction cannot distinguish their payload overwrite order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.actions import Mode
from repro.core.history import HAction, SimpleNode, SimpleNodeSemantics, commutes

#: Wire kinds the permuter may ever hold and swap.  Exactly the
#: relayed update actions: initial actions, AAS control messages,
#: link-changes, join traffic, and operation routing are all either
#: ordered classes (Section 3.2) or client-visible and must keep
#: their channel order.
SWAPPABLE_KINDS = frozenset({"insert_relayed", "delete_relayed", "relayed_split"})

#: Registry kind -> (history action name, mode) for witness replay.
#: ``half_split_initial`` and ``insert_initial`` never occur as
#: swappable wire kinds; they exist so *non*-commuting claims (the
#: paper's item 4 counterexample) are stated in the same vocabulary.
KIND_TO_HISTORY: dict[str, tuple[str, Mode]] = {
    "insert_relayed": ("insert", Mode.RELAYED),
    "delete_relayed": ("delete", Mode.RELAYED),
    "relayed_split": ("half_split", Mode.RELAYED),
    "insert_initial": ("insert", Mode.INITIAL),
    "half_split_initial": ("half_split", Mode.INITIAL),
}

#: The representative node every witness replays against: keys on
#: both sides of the canonical separator 5, range (0, 10), no right
#: neighbour yet.
WITNESS_NODE = SimpleNode(low=0, high=10, keys=frozenset({1, 4, 7}), right_id=None)


class CommutativityError(RuntimeError):
    """A registry claim contradicts the Section 3 formalism."""


@dataclass(frozen=True)
class PairClaim:
    """One declared commutativity fact about a pair of action kinds.

    ``kinds`` is the unordered pair of registry kinds, ``commutes``
    the claim, ``condition`` the wire-level guard (``"always"`` or
    ``"distinct-keys"``), ``paper`` the Section 4.1 item it restates,
    and ``witnesses`` the ``(first_param, second_param)`` pairs whose
    replay on :data:`WITNESS_NODE` must agree with the claim.
    """

    kinds: tuple[str, str]
    commutes: bool
    condition: str
    paper: str
    witnesses: tuple[tuple[Any, Any], ...]

    def covers(self, kind_a: str, kind_b: str) -> bool:
        return {kind_a, kind_b} == set(self.kinds) or (
            kind_a == kind_b and self.kinds[0] == self.kinds[1] == kind_a
        )


#: The shared claim set.  All five protocols relay the same action
#: vocabulary (mobile vacuously: single-copy nodes never relay), so
#: the base claims are protocol-independent; what differs per
#: protocol is whether its *handling* actually honours them -- which
#: is precisely what the permutation-replay checker tests.
BASE_CLAIMS: tuple[PairClaim, ...] = (
    PairClaim(
        kinds=("insert_relayed", "insert_relayed"),
        commutes=True,
        condition="distinct-keys",
        paper="Section 4.1 item 1 (relayed updates on different keys)",
        witnesses=((2, 8), (2, 3)),
    ),
    PairClaim(
        kinds=("delete_relayed", "delete_relayed"),
        commutes=True,
        condition="always",
        paper="Section 4.1 item 1 (idempotent removals, any keys)",
        witnesses=((4, 7), (4, 4)),
    ),
    PairClaim(
        kinds=("delete_relayed", "insert_relayed"),
        commutes=True,
        condition="distinct-keys",
        paper="Section 4.1 item 1 (relayed updates on different keys)",
        witnesses=((4, 8), (7, 2)),
    ),
    PairClaim(
        kinds=("insert_relayed", "relayed_split"),
        commutes=True,
        condition="always",
        paper="Section 4.1 item 3 (relayed split discards out-of-range)",
        # Below and above the separator: the above-separator insert
        # is discarded by whichever copy split first -- in *both*
        # orders, which is why the pair still commutes.
        witnesses=(((2), (5, 99)), ((8), (5, 99))),
    ),
    PairClaim(
        kinds=("delete_relayed", "relayed_split"),
        commutes=True,
        condition="always",
        paper="Section 4.1 item 3 (never-merge mirror image)",
        witnesses=(((4), (5, 99)), ((7), (5, 99))),
    ),
    PairClaim(
        kinds=("insert_relayed", "delete_relayed"),
        commutes=False,
        condition="same-key",
        paper="Section 4.1 item 2 (presence flip on one key)",
        witnesses=((9, 9),),
    ),
    PairClaim(
        kinds=("relayed_split", "relayed_split"),
        commutes=False,
        condition="always",
        paper="Section 4.1 item 2 (splits are an ordered class)",
        witnesses=(((5, 99), (3, 98)),),
    ),
    PairClaim(
        kinds=("half_split_initial", "insert_relayed"),
        commutes=False,
        condition="always",
        paper="Section 4.1 item 4 (the sibling's original value differs)",
        witnesses=(((5, 99), 8),),
    ),
)


def paper_counterexample_claim() -> PairClaim:
    """The forbidden claim: paper item 4 stated *backwards*.

    Asserting that an initial half-split commutes with a relayed
    insert is the exact mutation the checker's self-test injects;
    :func:`verify_claims` must reject it on the witness replay.
    """
    return PairClaim(
        kinds=("half_split_initial", "insert_relayed"),
        commutes=True,
        condition="always",
        paper="Section 4.1 item 4, deliberately negated",
        witnesses=(((5, 99), 8),),
    )


def _witness_actions(claim: PairClaim, params: tuple[Any, Any]) -> tuple[HAction, HAction]:
    name_a, mode_a = KIND_TO_HISTORY[claim.kinds[0]]
    name_b, mode_b = KIND_TO_HISTORY[claim.kinds[1]]
    first = HAction(name=name_a, param=params[0], mode=mode_a, action_id=9001)
    second = HAction(name=name_b, param=params[1], mode=mode_b, action_id=9002)
    return first, second


def verify_claims(
    claims: tuple[PairClaim, ...] = BASE_CLAIMS,
    node: SimpleNode = WITNESS_NODE,
) -> list[str]:
    """Replay every claim's witnesses; return contradiction reports.

    A commuting claim whose witness fails :func:`commutes`, or a
    non-commuting claim whose witness passes it, is a contradiction
    between the registry and the Section 3 formalism.
    """
    semantics = SimpleNodeSemantics()
    problems: list[str] = []
    for claim in claims:
        for params in claim.witnesses:
            first, second = _witness_actions(claim, params)
            observed = commutes(node, first, second, semantics)
            if observed != claim.commutes:
                problems.append(
                    f"claim {claim.kinds} ({claim.condition}) says "
                    f"commutes={claim.commutes} but witness "
                    f"{params!r} replays to commutes={observed} "
                    f"[{claim.paper}]"
                )
    return problems


@dataclass(frozen=True)
class ProtocolClaims:
    """The claim set one protocol's permuter consults.

    ``commutes_wire`` is the only question the schedule permuter
    asks: *may these two already-arrived payloads swap?*  It is
    deliberately conservative -- unclaimed pairs, unswappable kinds,
    and guarded conditions all answer ``False``.
    """

    protocol: str
    claims: tuple[PairClaim, ...] = BASE_CLAIMS
    note: str = ""

    def swappable(self, payload: Any) -> bool:
        return getattr(payload, "kind", None) in SWAPPABLE_KINDS

    def commutes_wire(self, a: Any, b: Any) -> bool:
        kind_a = getattr(a, "kind", None)
        kind_b = getattr(b, "kind", None)
        if kind_a not in SWAPPABLE_KINDS or kind_b not in SWAPPABLE_KINDS:
            return False
        if _creates(a, b) or _creates(b, a):
            # A relayed split brings its sibling's copy: an update on
            # the sibling presupposes the split that created it
            # (Nair et al.: an operation's precondition includes the
            # creation of the node it names).
            return False
        if a.node_id != b.node_id:
            # Different logical nodes: the actions touch disjoint
            # copies, so their relative order at a shared processor
            # is unobservable.
            return True
        matching = [c for c in self.claims if c.covers(kind_a, kind_b)]
        if not matching:
            return False
        for claim in matching:
            if not self._condition_holds(claim, a, b):
                continue
            return claim.commutes
        return False

    @staticmethod
    def _condition_holds(claim: PairClaim, a: Any, b: Any) -> bool:
        if claim.condition == "always":
            return True
        key_a = getattr(a, "key", None)
        key_b = getattr(b, "key", None)
        if claim.condition == "distinct-keys":
            return key_a != key_b
        if claim.condition == "same-key":
            return key_a == key_b
        raise ValueError(f"unknown claim condition {claim.condition!r}")


def _creates(a: Any, b: Any) -> bool:
    """Whether ``a`` is a split carrying the sibling ``b`` is addressed to."""
    split = getattr(a, "split", None)
    return (
        split is not None
        and split.sibling is not None
        and split.sibling_id == b.node_id
    )


#: Per-protocol registry.  The naive protocol *declares* the same
#: claims as semi-synchronous -- its bug is not a wrong claim but a
#: broken completeness obligation (dropped out-of-range relays,
#: Figure 4), which is exactly what the permutation-replay checker
#: surfaces when a swap pushes a relayed insert past a split.
REGISTRY: dict[str, ProtocolClaims] = {
    "sync": ProtocolClaims(
        protocol="sync",
        note="AAS control messages (split_start/ack/end) are an "
        "ordered class and never swap; relayed_split claims are "
        "vacuous here.",
    ),
    "semisync": ProtocolClaims(protocol="semisync"),
    "naive": ProtocolClaims(
        protocol="naive",
        note="Claims identical to semisync; the protocol violates the "
        "completeness obligation those claims assume (Figure 4).",
    ),
    "mobile": ProtocolClaims(
        protocol="mobile",
        note="Single-copy nodes never relay; all claims vacuous.",
    ),
    "variable": ProtocolClaims(protocol="variable"),
}


def claims_for(protocol: str) -> ProtocolClaims:
    """The claim set for a protocol name (unknown names get base)."""
    return REGISTRY.get(protocol, ProtocolClaims(protocol=protocol))


# Import-time cross-check: the registry must agree with the Section 3
# formalism before anything is allowed to consult it.
_problems = verify_claims()
if _problems:
    raise CommutativityError(
        "commutativity registry contradicts core.history.commutes():\n  "
        + "\n  ".join(_problems)
    )
