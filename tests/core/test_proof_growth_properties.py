"""A grown proof is the proof built from scratch.

``Proof.extend`` and ``Proof.prepend`` build a proof from its parent
with no re-fold: one more step of the modifier fold (deferred on a prepend until
``modifiers`` is read), one integer step of the depth budget, the
parent's support map shared when the new link brings none. A closure
ships as a tree of such growths (``"parent": i`` records in
``discovery/wire.py``). The oracle: every proof a direct, subject or
object query returns, and every proof decoded from a tree-encoded
answer, equals ``Proof(subject, obj, chain, supports)`` built from
scratch in its chain, ``modifiers``, ``depth_budget``,
``all_delegations()`` and canonical bytes.

Hypothesis draws small graphs whose modifiers pick their operator per
link (so some chains conflict), whose links carry random depth limits,
and some of whose links are third-party delegations carrying the
supports they require; queries run in both directions, with and
without a constraint. A deterministic test pins the growth cost: a
300-link chain grown by ``extend``, or by ``prepend`` without reading
its modifiers, calls ``ModifierSet.combine`` O(L) times, not O(L^2).
"""

from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.attributes import (
    AttributeRef,
    Constraint,
    Modifier,
    ModifierSet,
    Operator,
)
from repro.core.delegation import Delegation, issue
from repro.core.identity import create_principal
from repro.core.proof import (
    Proof,
    closure_delegations,
    closure_links,
)
from repro.core.roles import Role
from repro.crypto.encoding import canonical_encode
from repro.discovery import wire
from repro.graph.delegation_graph import DelegationGraph
from repro.graph.search import (
    Strategy,
    direct_query,
    object_query,
    subject_query,
)

# Key generation dominates example cost: one immutable pool, shared.
ORG = create_principal("GrowthOrg")
THIRD = create_principal("GrowthThird")
USER = create_principal("GrowthUser")
ROLES = [Role(ORG.entity, f"g{k}") for k in range(5)]
# Node -1 is the user; a link's object is always a role.
SUBJECTS = [USER.entity, *ROLES]
ATTRIBUTES = {name: AttributeRef(ORG.entity, name)
              for name in ("bw", "cap", "hours")}
BASES = {ATTRIBUTES["bw"]: 100.0, ATTRIBUTES["hours"]: 100.0}
VALUES = {Operator.MIN: [20.0, 50.0, 80.0],
          Operator.SUBTRACT: [10.0, 0.1],
          Operator.MULTIPLY: [0.5, 0.3]}


@lru_cache(maxsize=None)
def _link(subject, obj, modifiers, depth_limit, third_party):
    """One signed link per spec; a third-party one is issued by THIRD."""
    return issue(THIRD if third_party else ORG,
                 SUBJECTS[subject + 1], ROLES[obj],
                 modifiers=[Modifier(ATTRIBUTES[name], operator, value)
                            for name, operator, value in modifiers],
                 depth_limit=depth_limit)


@lru_cache(maxsize=None)
def _support(role):
    """``THIRD => role``, self-certified by the role's owner."""
    return Proof.single(issue(ORG, THIRD.entity, role))


def _provider(delegation):
    return tuple(_support(role) for role in delegation.required_supports())


@st.composite
def graphs(draw):
    """(graph, constraints): links drawn as in the search oracle, some of
    them third-party."""
    pairs = draw(st.sets(
        st.tuples(st.integers(-1, len(ROLES) - 1),
                  st.integers(0, len(ROLES) - 1))
        .filter(lambda pair: pair[0] != pair[1]), min_size=1, max_size=10))
    links = []
    for subject, obj in sorted(pairs):
        modifiers = []
        for name in sorted(draw(st.sets(st.sampled_from(sorted(ATTRIBUTES)),
                                        max_size=2))):
            operator = draw(st.sampled_from(list(Operator)))
            modifiers.append((name, operator,
                              draw(st.sampled_from(VALUES[operator]))))
        links.append(_link(subject, obj, tuple(modifiers),
                           draw(st.sampled_from([None, None, 0, 1, 2, 3])),
                           draw(st.booleans())))
    constraints = draw(st.lists(
        st.builds(Constraint, st.sampled_from(sorted(
            BASES, key=lambda attribute: attribute.name)),
            st.sampled_from([30.0, 60.0])), max_size=1))
    return DelegationGraph(links), tuple(constraints)


def _from_scratch(proof):
    """The same chain, with the supports its links require."""
    supports = {d.id: _provider(d) for d in proof.chain
                if d.required_supports()}
    return Proof(proof.subject, proof.obj, proof.chain, supports)


def _assert_exact(proof):
    scratch = _from_scratch(proof)
    assert proof.chain == scratch.chain
    assert proof.modifiers == scratch.modifiers
    assert proof.depth_budget == scratch.depth_budget
    assert proof.all_delegations() == scratch.all_delegations()
    assert canonical_encode(proof.to_dict()) \
        == canonical_encode(scratch.to_dict())


def _tree_round_trip(proofs, forward):
    """Decode a closure encoded as a tree; return the decoded proofs."""
    known = {d.id: d for proof in proofs for d in proof.all_delegations()}
    table = wire.Table()
    payloads = wire.proofs_to_wire_session(list(proofs), set(), table)
    entries = wire.table_from_wire(table.entries)
    decoded = []
    for payload in payloads:
        decoded.append(wire.proof_from_wire_session(
            payload, entries, known.__getitem__, earlier=decoded,
            forward=forward))
    return payloads, decoded


settings_ = settings(deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestGrownProofsAreExact:
    @settings_
    @given(graphs())
    def test_every_query_answer_equals_its_scratch_build(self, case):
        graph, constraints = case
        query = {"constraints": constraints, "bases": BASES,
                 "support_provider": _provider}
        for subject in SUBJECTS:
            for obj in ROLES:
                if subject == obj:
                    continue
                for strategy in Strategy:
                    proof = direct_query(graph, subject, obj,
                                         strategy=strategy, **query)
                    if proof is not None:
                        assert proof.parent is None
                        _assert_exact(proof)
        for subject in SUBJECTS:
            for proof in subject_query(graph, subject, **query):
                _assert_exact(proof)
        for obj in ROLES:
            for proof in object_query(graph, obj, **query):
                _assert_exact(proof)

    @settings_
    @given(graphs())
    def test_tree_encoded_closures_decode_exactly(self, case):
        graph, constraints = case
        query = {"constraints": constraints, "bases": BASES,
                 "support_provider": _provider}
        closures = [(subject_query(graph, s, **query), True)
                    for s in SUBJECTS]
        closures += [(object_query(graph, o, **query), False)
                     for o in ROLES]
        for proofs, forward in closures:
            payloads, decoded = _tree_round_trip(proofs, forward)
            assert len(decoded) == len(proofs)
            for original, proof in zip(proofs, decoded):
                _assert_exact(proof)
                assert canonical_encode(proof.to_dict()) \
                    == canonical_encode(original.to_dict())
            # The tree loses nothing the cache and discovery read off it.
            for tree in (proofs, decoded):
                assert {d.id for d in closure_delegations(tree)} \
                    == {d.id for p in tree for d in p.all_delegations()}
                assert {d.id for d in closure_links(tree)} \
                    == {d.id for p in tree for d in p.chain}
            assert all(len(p["chain"]) == 1 for p in payloads
                       if "parent" in p)


# -- growth cost ---------------------------------------------------------------

LENGTH = 300


def _long_chain():
    """LENGTH unsigned links r0 -> r1 -> ..., each modulating two
    attributes; growth never checks a signature."""
    roles = [Role(ORG.entity, f"long{k}") for k in range(LENGTH + 1)]
    return [Delegation(subject=roles[k], obj=roles[k + 1],
                       issuer=ORG.entity,
                       modifiers=ModifierSet([
                           Modifier(ATTRIBUTES["bw"], Operator.SUBTRACT,
                                    0.1 * (k % 7 + 1)),
                           Modifier(ATTRIBUTES["hours"], Operator.MULTIPLY,
                                    0.999)]),
                       depth_limit=LENGTH + k % 5)
            for k in range(LENGTH)]


def _counting_combine(monkeypatch):
    calls = []
    combine = ModifierSet.combine

    def counted(self, other):
        calls.append(1)
        return combine(self, other)

    monkeypatch.setattr(ModifierSet, "combine", counted)
    return calls


class TestGrowthIsLinear:
    def test_extend_folds_one_step_per_link(self, monkeypatch):
        chain = _long_chain()
        calls = _counting_combine(monkeypatch)
        proof = Proof.single(chain[0])
        for delegation in chain[1:]:
            proof = proof.extend(delegation)
        assert len(calls) <= 2 * LENGTH
        monkeypatch.undo()
        _assert_exact(proof)

    def test_prepend_defers_the_fold(self, monkeypatch):
        chain = _long_chain()
        calls = _counting_combine(monkeypatch)
        proof = Proof.single(chain[-1])
        for delegation in reversed(chain[:-1]):
            proof = proof.prepend(delegation)
        assert len(calls) <= 2 * LENGTH
        proof.modifiers
        assert len(calls) <= 3 * LENGTH
        monkeypatch.undo()
        _assert_exact(proof)
