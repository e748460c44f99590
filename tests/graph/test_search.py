import pytest

from repro.core.attributes import AttributeRef, Constraint, Modifier, Operator
from repro.core.delegation import issue
from repro.core.proof import Proof, validate_proof
from repro.core.roles import Role
from repro.graph.delegation_graph import DelegationGraph
from repro.graph.search import (
    SearchStats,
    Strategy,
    build_support_provider,
    direct_query,
    enumerate_chains,
    object_query,
    subject_query,
)

ALL_STRATEGIES = list(Strategy)


@pytest.fixture()
def chain_graph(org, alice):
    roles = [Role(org.entity, f"r{i}") for i in range(4)]
    delegations = [issue(org, alice.entity, roles[0])]
    for i in range(3):
        delegations.append(issue(org, roles[i], roles[i + 1]))
    return DelegationGraph(delegations), roles


class TestDirectQuery:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_finds_chain(self, chain_graph, alice, strategy):
        graph, roles = chain_graph
        proof = direct_query(graph, alice.entity, roles[-1],
                             strategy=strategy)
        assert proof is not None
        assert proof.depth() == 4
        validate_proof(proof, at=0.0)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_no_path_returns_none(self, chain_graph, bob, strategy):
        graph, roles = chain_graph
        assert direct_query(graph, bob.entity, roles[-1],
                            strategy=strategy) is None

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_reversed_direction_none(self, chain_graph, alice, strategy):
        graph, roles = chain_graph
        # No proof from a role "down" to the entity.
        assert direct_query(graph, roles[-1], roles[0],
                            strategy=strategy) is None

    def test_subject_equals_object_none(self, chain_graph):
        graph, roles = chain_graph
        assert direct_query(graph, roles[0], roles[0]) is None

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_skips_expired(self, org, alice, strategy):
        r = Role(org.entity, "r")
        d = issue(org, alice.entity, r, expiry=10.0)
        graph = DelegationGraph([d])
        assert direct_query(graph, alice.entity, r, at=5.0,
                            strategy=strategy) is not None
        assert direct_query(graph, alice.entity, r, at=15.0,
                            strategy=strategy) is None

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_skips_revoked(self, chain_graph, alice, strategy):
        graph, roles = chain_graph
        blocked = graph.out_edges(roles[1])[0]
        assert direct_query(graph, alice.entity, roles[-1],
                            revoked={blocked.id},
                            strategy=strategy) is None

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_finds_alternate_after_revocation(self, org, alice, strategy):
        r1, r2, target = (Role(org.entity, n) for n in ("a", "b", "t"))
        d_direct = issue(org, alice.entity, target)
        d1 = issue(org, alice.entity, r1)
        d2 = issue(org, r1, target)
        graph = DelegationGraph([d_direct, d1, d2])
        proof = direct_query(graph, alice.entity, target,
                             revoked={d_direct.id}, strategy=strategy)
        assert proof is not None
        assert proof.depth() == 2

    def test_cycle_terminates(self, org, alice):
        r1, r2 = Role(org.entity, "r1"), Role(org.entity, "r2")
        graph = DelegationGraph([
            issue(org, alice.entity, r1),
            issue(org, r1, r2),
            issue(org, r2, r1),  # cycle
        ])
        target = Role(org.entity, "absent")
        for strategy in ALL_STRATEGIES:
            assert direct_query(graph, alice.entity, target,
                                strategy=strategy) is None


class TestSupports:
    def test_third_party_needs_supports(self, table1):
        graph = DelegationGraph([
            table1.d1_mark_services,
            table1.d2_services_assign,
            table1.d3_maria_member,
        ])
        # Without a provider, the third-party edge is not traversable.
        stats = SearchStats()
        assert direct_query(graph, table1.maria.entity, table1.member,
                            support_provider=None, stats=stats) is None
        assert stats.pruned_no_support > 0

    def test_recursive_provider_builds_supports(self, table1):
        graph = DelegationGraph([
            table1.d1_mark_services,
            table1.d2_services_assign,
            table1.d3_maria_member,
        ])
        provider = build_support_provider(graph)
        proof = direct_query(graph, table1.maria.entity, table1.member,
                             support_provider=provider)
        assert proof is not None
        validate_proof(proof, at=0.0)

    def test_require_supports_false_traverses_anyway(self, table1):
        graph = DelegationGraph([table1.d3_maria_member])
        proof = direct_query(graph, table1.maria.entity, table1.member,
                             require_supports=False)
        assert proof is not None  # reachability only; would fail validate


class TestConstraints:
    @pytest.fixture()
    def limited_graph(self, org, alice):
        attr = AttributeRef(org.entity, "bw")
        hub, target = Role(org.entity, "hub"), Role(org.entity, "t")
        narrow = Role(org.entity, "narrow")
        graph = DelegationGraph([
            issue(org, alice.entity, hub),
            # Narrow path: caps at 10.
            issue(org, hub, narrow,
                  modifiers=[Modifier(attr, Operator.MIN, 10)]),
            issue(org, narrow, target),
            # Wide path: caps at 80 but longer.
            issue(org, hub, Role(org.entity, "w1"),
                  modifiers=[Modifier(attr, Operator.MIN, 80)]),
            issue(org, Role(org.entity, "w1"), Role(org.entity, "w2")),
            issue(org, Role(org.entity, "w2"), target),
        ])
        return graph, attr, target

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_constraint_selects_satisfying_path(self, limited_graph,
                                                alice, strategy):
        graph, attr, target = limited_graph
        proof = direct_query(graph, alice.entity, target,
                             constraints=[Constraint(attr, 50)],
                             bases={attr: 100.0}, strategy=strategy)
        assert proof is not None
        assert proof.grants({attr: 100.0})[attr] >= 50

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_unsatisfiable_constraint_none(self, limited_graph, alice,
                                           strategy):
        graph, attr, target = limited_graph
        assert direct_query(graph, alice.entity, target,
                            constraints=[Constraint(attr, 90)],
                            bases={attr: 85.0}, strategy=strategy) is None

    def test_pruning_reduces_expansion(self, limited_graph, alice):
        graph, attr, target = limited_graph
        pruned, unpruned = SearchStats(), SearchStats()
        direct_query(graph, alice.entity, target,
                     constraints=[Constraint(attr, 50)],
                     bases={attr: 100.0}, strategy=Strategy.FORWARD,
                     prune=True, stats=pruned)
        direct_query(graph, alice.entity, target,
                     constraints=[Constraint(attr, 50)],
                     bases={attr: 100.0}, strategy=Strategy.FORWARD,
                     prune=False, stats=unpruned)
        assert pruned.pruned_by_constraint > 0


class TestTypedFailures:
    """Only dRBAC's own errors mean "no proof through this edge"."""

    @pytest.fixture()
    def conflict_graph(self, org, alice):
        """Two routes to ``t``: ``alice -> a`` binds ``bw`` under MIN and
        ``a -> t`` under SUBTRACT (an operator conflict, so the route
        composes to no proof); ``alice -> c -> t`` is clean."""
        bw = AttributeRef(org.entity, "bw")
        a, c, t = (Role(org.entity, n) for n in ("a", "c", "t"))
        clean = issue(org, c, t)
        graph = DelegationGraph([
            issue(org, alice.entity, a,
                  modifiers=[Modifier(bw, Operator.MIN, 50)]),
            issue(org, a, t,
                  modifiers=[Modifier(bw, Operator.SUBTRACT, 5)]),
            issue(org, alice.entity, c),
            clean,
        ])
        return graph, t, clean

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_operator_conflict_skips_the_edge(self, conflict_graph, alice,
                                              strategy):
        graph, t, clean = conflict_graph
        proof = direct_query(graph, alice.entity, t, strategy=strategy)
        assert proof is not None
        assert proof.chain[-1] == clean
        validate_proof(proof, at=0.0)
        assert direct_query(graph, alice.entity, t, strategy=strategy,
                            revoked={clean.id}) is None

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_unexpected_error_propagates(self, chain_graph, alice, strategy,
                                         monkeypatch):
        """A bug while composing a proof is not a denial."""
        def broken(*_args, **_kwargs):
            raise ZeroDivisionError("bug in proof composition")

        monkeypatch.setattr(Proof, "extend", broken)
        monkeypatch.setattr(Proof, "join", broken)
        graph, roles = chain_graph
        with pytest.raises(ZeroDivisionError):
            direct_query(graph, alice.entity, roles[-1], strategy=strategy)


class TestSubjectObjectQueries:
    def test_subject_query_enumerates_reachable(self, chain_graph, alice):
        graph, roles = chain_graph
        proofs = subject_query(graph, alice.entity)
        assert {str(p.obj) for p in proofs} == \
            {str(r) for r in roles}
        for proof in proofs:
            assert proof.subject == alice.entity

    def test_object_query_enumerates_grantees(self, chain_graph, alice):
        graph, roles = chain_graph
        proofs = object_query(graph, roles[-1])
        subjects = {str(p.subject) for p in proofs}
        assert str(alice.entity) in subjects
        assert len(proofs) == 4

    def test_subject_query_empty_for_unknown(self, chain_graph, bob):
        graph, _ = chain_graph
        assert subject_query(graph, bob.entity) == []

    def test_queries_respect_constraints(self, org, alice):
        attr = AttributeRef(org.entity, "bw")
        r = Role(org.entity, "r")
        graph = DelegationGraph([
            issue(org, alice.entity, r,
                  modifiers=[Modifier(attr, Operator.MIN, 10)]),
        ])
        assert subject_query(graph, alice.entity,
                             constraints=[Constraint(attr, 50)],
                             bases={attr: 100.0}) == []
        assert len(subject_query(graph, alice.entity,
                                 constraints=[Constraint(attr, 5)],
                                 bases={attr: 100.0})) == 1


class TestEnumerateChains:
    def test_counts_layered_paths(self, org, alice):
        # Two layers of two roles each: 4 paths.
        l1 = [Role(org.entity, f"a{i}") for i in range(2)]
        l2 = [Role(org.entity, f"b{i}") for i in range(2)]
        target = Role(org.entity, "t")
        delegations = []
        for r in l1:
            delegations.append(issue(org, alice.entity, r))
        for r in l1:
            for s in l2:
                delegations.append(issue(org, r, s))
        for s in l2:
            delegations.append(issue(org, s, target))
        graph = DelegationGraph(delegations)
        chains = list(enumerate_chains(graph, alice.entity, target))
        assert len(chains) == 4
        for chain in chains:
            assert len(chain) == 3

    def test_max_depth_limits(self, chain_graph, alice):
        graph, roles = chain_graph
        assert list(enumerate_chains(graph, alice.entity, roles[-1],
                                     max_depth=3)) == []
        assert len(list(enumerate_chains(graph, alice.entity, roles[-1],
                                         max_depth=4))) == 1
        assert list(enumerate_chains(graph, alice.entity, roles[0],
                                     max_depth=0)) == []


class TestStats:
    def test_stats_populated(self, chain_graph, alice):
        graph, roles = chain_graph
        stats = SearchStats()
        direct_query(graph, alice.entity, roles[-1],
                     strategy=Strategy.FORWARD, stats=stats)
        assert stats.nodes_expanded > 0
        assert stats.edges_considered > 0

    def test_reset(self):
        stats = SearchStats(nodes_expanded=5)
        stats.reset()
        assert stats.nodes_expanded == 0
