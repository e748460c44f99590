"""Property-based equivalence of the three search strategies.

On any delegation graph, forward, reverse, and bidirectional direct
queries must agree on *whether* a proof exists, and any returned proof
must validate. This is the safety net under the Section 4.2.3 efficiency
machinery: speed may differ, answers may not.

``TestValuedAttributes`` runs the Pareto-label path: credential sets
modulating valued attributes under all three Table 2 operators, queried
under constraints (the placement-invariance generator).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.attributes import Constraint
from repro.core.delegation import issue
from repro.core.proof import validate_proof
from repro.core.roles import Role
from repro.graph.delegation_graph import DelegationGraph
from repro.graph.search import Strategy, direct_query, subject_query
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
