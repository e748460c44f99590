"""Property-based equivalence of the three search strategies.

On any delegation graph, forward, reverse, and bidirectional direct
queries must agree on *whether* a proof exists, and any returned proof
must validate. This is the safety net under the Section 4.2.3 efficiency
machinery: speed may differ, answers may not.

``TestValuedAttributes`` runs the Pareto-label path: credential sets
modulating valued attributes under all three Table 2 operators, queried
under constraints (the placement-invariance generator).

``TestBruteForceOracle`` holds the search to the checker: on small
graphs whose modifiers draw their operator per link and whose links
carry random depth limits, a query grants iff some simple chain
``enumerate_chains`` yields passes ``validate_proof``.
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.attributes import AttributeRef, Constraint, Modifier, Operator
from repro.core.delegation import issue
from repro.core.errors import DRBACError
from repro.core.identity import create_principal
from repro.core.proof import Proof, validate_proof
from repro.core.roles import Role
from repro.graph.delegation_graph import DelegationGraph
from repro.graph.search import (
    Strategy,
    direct_query,
    enumerate_chains,
    object_query,
    subject_query,
)
from repro.workloads.topology import make_random_dag

from ..discovery.test_placement_invariance import (
    BASES,
    ROLES,
    USER,
    _workload,
    credential_sets,
)


@st.composite
def random_graphs(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_roles = draw(st.integers(min_value=2, max_value=8))
    n_edges = draw(st.integers(min_value=0, max_value=16))
    return make_random_dag(n_roles, n_edges, seed=seed)


class TestStrategyEquivalence:
    @given(random_graphs())
    @settings(max_examples=25, deadline=None)
    def test_same_reachability_verdict(self, workload):
        graph = workload.graph()
        provider = workload.support_provider()
        results = {}
        for strategy in Strategy:
            proof = direct_query(graph, workload.subject, workload.obj,
                                 strategy=strategy,
                                 support_provider=provider)
            results[strategy] = proof is not None
            if proof is not None:
                validate_proof(proof, at=0.0)
        assert len(set(results.values())) == 1, results

    @given(random_graphs())
    @settings(max_examples=20, deadline=None)
    def test_direct_consistent_with_subject_query(self, workload):
        graph = workload.graph()
        provider = workload.support_provider()
        reachable = {str(p.obj)
                     for p in subject_query(graph, workload.subject,
                                            support_provider=provider)}
        proof = direct_query(graph, workload.subject, workload.obj,
                             support_provider=provider)
        assert (proof is not None) == (str(workload.obj) in reachable)

    @given(random_graphs(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_revocation_monotone(self, workload, kill_index):
        """Revoking any delegation never creates new reachability."""
        graph = workload.graph()
        provider = workload.support_provider()
        delegations = [d for d, _s in workload.delegations]
        victim = delegations[kill_index % len(delegations)]
        before = direct_query(graph, workload.subject, workload.obj,
                              support_provider=provider)
        after = direct_query(graph, workload.subject, workload.obj,
                             revoked={victim.id},
                             support_provider=provider)
        if before is None:
            assert after is None

    @given(random_graphs())
    @settings(max_examples=15, deadline=None)
    def test_returned_proof_endpoints(self, workload):
        graph = workload.graph()
        proof = direct_query(graph, workload.subject, workload.obj,
                             support_provider=workload.support_provider())
        if proof is not None:
            assert proof.subject == workload.subject
            assert proof.obj == workload.obj


def _valued(case):
    """(graph, constraints) for one drawn credential set."""
    edges, homes, constraints = case
    return _workload(edges, homes).graph(), constraints


# The example budget is the loaded profile's (tests/conftest.py): 10 in
# tier-1, 200 under ``--hypothesis-profile=long``.
valued = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestValuedAttributes:
    @valued
    @given(credential_sets())
    def test_strategies_agree_and_proofs_satisfy(self, case):
        graph, constraints = _valued(case)
        for role in ROLES:
            verdicts = set()
            for strategy in Strategy:
                proof = direct_query(graph, USER.entity, role,
                                     constraints=constraints, bases=BASES,
                                     strategy=strategy)
                verdicts.add(proof is not None)
                if proof is not None:
                    assert proof.satisfies(constraints, BASES)
                    validate_proof(proof, at=0.0, constraints=constraints,
                                   bases=BASES)
            assert len(verdicts) == 1, (role, constraints)

    @valued
    @given(credential_sets())
    def test_constrained_grant_is_a_grant(self, case):
        graph, constraints = _valued(case)
        for role in ROLES:
            if direct_query(graph, USER.entity, role,
                            constraints=constraints, bases=BASES):
                assert direct_query(graph, USER.entity, role,
                                    bases=BASES) is not None, role

    @valued
    @given(credential_sets())
    def test_subject_query_objects_are_direct_reachable(self, case):
        graph, constraints = _valued(case)
        for proof in subject_query(graph, USER.entity,
                                   constraints=constraints, bases=BASES):
            assert direct_query(graph, USER.entity, proof.obj,
                                constraints=constraints,
                                bases=BASES) is not None, proof


# -- the brute-force oracle ---------------------------------------------------

ORACLE_ORG = create_principal("OracleOrg")
ORACLE_USER = create_principal("OracleUser")
ORACLE_ROLES = [Role(ORACLE_ORG.entity, f"n{k}") for k in range(5)]
# Node -1 is the user; a link's object is always a role.
ORACLE_SUBJECTS = [ORACLE_USER.entity, *ORACLE_ROLES]
# ``cap`` has no base allocation. Constraints bind only based
# attributes: there, dropping a cycle from a chain never hurts it, so
# simple chains decide. A constraint on ``cap`` holds only for a chain
# that bounds it with ``<=``, and the checker accepts a chain that walks
# a cycle to pick one up, which no simple chain matches (ROADMAP 16).
ORACLE_ATTRIBUTES = {name: AttributeRef(ORACLE_ORG.entity, name)
                     for name in ("bw", "cap", "hours")}
ORACLE_BASES = {ORACLE_ATTRIBUTES["bw"]: 100.0,
                ORACLE_ATTRIBUTES["hours"]: 100.0}
ORACLE_VALUES = {Operator.MIN: [20.0, 50.0, 80.0],
                 Operator.SUBTRACT: [10.0, 40.0],
                 Operator.MULTIPLY: [0.5, 0.9]}


@lru_cache(maxsize=None)
def _oracle_link(subject, obj, modifiers, depth_limit):
    """One signed link, issued once per spec so that examples share
    their signatures (and the verify memo answers the checker)."""
    return issue(ORACLE_ORG,
                 ORACLE_SUBJECTS[subject + 1], ORACLE_ROLES[obj],
                 modifiers=[Modifier(ORACLE_ATTRIBUTES[name], operator,
                                     value)
                            for name, operator, value in modifiers],
                 depth_limit=depth_limit)


@st.composite
def oracle_graphs(draw):
    """(links, constraints): each link is (subject, object, modifiers,
    depth limit), and each modifier draws its own operator, so one
    attribute can be modulated by several across the graph."""
    pairs = draw(st.sets(
        st.tuples(st.integers(-1, len(ORACLE_ROLES) - 1),
                  st.integers(0, len(ORACLE_ROLES) - 1))
        .filter(lambda pair: pair[0] != pair[1]), min_size=1, max_size=10))
    links = []
    for subject, obj in sorted(pairs):
        modifiers = []
        for name in sorted(draw(st.sets(
                st.sampled_from(sorted(ORACLE_ATTRIBUTES)), max_size=2))):
            operator = draw(st.sampled_from(list(Operator)))
            modifiers.append((name, operator,
                              draw(st.sampled_from(ORACLE_VALUES[operator]))))
        depth_limit = draw(st.sampled_from([None, None, 0, 1, 2]))
        links.append((subject, obj, tuple(modifiers), depth_limit))
    constraints = draw(st.lists(
        st.builds(Constraint, st.sampled_from(sorted(
            ORACLE_BASES, key=lambda attribute: attribute.name)),
            st.sampled_from([30.0, 60.0])), max_size=1))
    return tuple(links), tuple(constraints)


# ROADMAP item 16's two wrong denials. (a) alice -> a binds bw under
# MIN and a -> t under SUBTRACT; only a -> b -> t completes, and the
# reverse search used to admit a over a -> t first. (b) alice -> m has
# depth limit 0; only alice -> x -> m -> t is valid, and the forward
# search used to admit m over the limited link first.
OPERATOR_MIX = (((-1, 0, (("bw", Operator.MIN, 50.0),), None),
                 (0, 1, (("bw", Operator.SUBTRACT, 10.0),), None),
                 (0, 2, (), None),
                 (2, 1, (), None)), ())
DEPTH_LIMIT = (((-1, 0, (), 0),
                (-1, 1, (), None),
                (1, 0, (), None),
                (0, 2, (), None)), ())


def _passes(subject, obj, chain, constraints) -> bool:
    try:
        validate_proof(Proof(subject, obj, chain), at=0.0,
                       constraints=constraints, bases=ORACLE_BASES)
    except DRBACError:      # a conflict refuses the chain on construction
        return False
    return True


def _oracle(graph, constraints):
    """{(subject, object)} the checker grants: some simple chain passes."""
    return {(subject, obj)
            for subject in ORACLE_SUBJECTS for obj in ORACLE_ROLES
            if any(_passes(subject, obj, chain, constraints)
                   for chain in enumerate_chains(graph, subject, obj,
                                                 max_depth=len(graph)))}


def _granting(proofs, constraints):
    for proof in proofs:
        validate_proof(proof, at=0.0)
    return [proof for proof in proofs
            if proof.satisfies(constraints, ORACLE_BASES)]


class TestBruteForceOracle:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(oracle_graphs())
    @example(OPERATOR_MIX)
    @example(DEPTH_LIMIT)
    def test_search_grants_what_the_checker_accepts(self, case):
        links, constraints = case
        graph = DelegationGraph(_oracle_link(*link) for link in links)
        granted = _oracle(graph, constraints)
        query = {"constraints": constraints, "bases": ORACLE_BASES}
        for subject in ORACLE_SUBJECTS:
            for obj in ORACLE_ROLES:
                if subject == obj:
                    continue
                for strategy in Strategy:
                    proof = direct_query(graph, subject, obj,
                                         strategy=strategy, **query)
                    assert (proof is not None) == \
                        ((subject, obj) in granted), (subject, obj, strategy)
                    if proof is not None:
                        validate_proof(proof, at=0.0, **query)
        # An enumeration returns chains the checker accepts; the ones
        # meeting the constraints reach exactly the granted nodes.
        for subject in ORACLE_SUBJECTS:
            reached = _granting(subject_query(graph, subject, **query),
                                constraints)
            assert {proof.obj for proof in reached} - {subject} == \
                {obj for obj in ORACLE_ROLES if (subject, obj) in granted}
        for obj in ORACLE_ROLES:
            reached = _granting(object_query(graph, obj, **query),
                                constraints)
            assert {proof.subject for proof in reached} - {obj} == \
                {subject for subject in ORACLE_SUBJECTS
                 if (subject, obj) in granted}
