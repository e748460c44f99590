"""Reachability over the delegation graph: the closure and the search.

The wallet keeps no reachability structure of its own; these cases pin
what :func:`~repro.graph.closure.reachability_closure` and
:func:`~repro.graph.search.direct_query` answer about who reaches whom.
"""

import pytest

from repro.core import Role, issue
from repro.core.roles import subject_key
from repro.graph.closure import reachability_closure
from repro.graph.delegation_graph import DelegationGraph
from repro.graph.search import Strategy, direct_query


@pytest.fixture()
def links(org):
    """``links("ab", "bc")``: a graph of role-to-role delegations inside
    ``org``, plus ``node(name)`` for the role node a name stands for."""
    def node(name):
        return subject_key(Role(org.entity, f"r{name}"))

    def build(*pairs):
        graph = DelegationGraph()
        for u, v in pairs:
            graph.add(issue(org, Role(org.entity, f"r{u}"),
                            Role(org.entity, f"r{v}")))
        return graph

    return build, node


class TestIncrementalUpdates:
    def test_single_edge(self, links):
        build, node = links
        closure = reachability_closure(build("ab"))
        assert (node("a"), node("b")) in closure
        assert (node("b"), node("a")) not in closure

    def test_transitive_chain(self, links):
        build, node = links
        closure = reachability_closure(build("ab", "bc", "cd"))
        assert (node("a"), node("d")) in closure
        assert (node("b"), node("d")) in closure
        assert (node("d"), node("a")) not in closure

    def test_bridging_edge_connects_components(self, links):
        build, node = links
        assert (node("a"), node("d")) not in \
            reachability_closure(build("ab", "cd"))
        closure = reachability_closure(build("ab", "cd", "bc"))
        assert (node("a"), node("d")) in closure
        assert (node("a"), node("c")) in closure
        assert (node("b"), node("d")) in closure

    def test_cycle(self, links):
        build, node = links
        closure = reachability_closure(build("ab", "bc", "ca"))
        for x in "abc":
            for y in "abc":
                assert (node(x), node(y)) in closure

    def test_self_reach_without_edges(self, links):
        build, node = links
        # A node with no edges reaches nothing, itself included: a pair
        # (x, x) needs a cycle (test_cycle).
        assert reachability_closure(DelegationGraph()) == set()
        assert (node("a"), node("a")) not in \
            reachability_closure(build("ab"))

    def test_matches_exhaustive_closure(self, links):
        # Dense DAG built deterministically; compare the closure against
        # a per-pair BFS ground truth.
        build, node = links
        edges = [(i, j) for i in range(10) for j in range(10)
                 if i != j and (i * 7 + j * 3) % 5 == 0]
        closure = reachability_closure(build(*edges))
        adjacency = {i: set() for i in range(10)}
        for i, j in edges:
            adjacency[i].add(j)

        def bfs_reaches(src, dst):
            seen, frontier = set(), {src}
            while frontier:
                nxt = set()
                for x in frontier:
                    for y in adjacency[x]:
                        if y == dst:
                            return True
                        if y not in seen:
                            seen.add(y)
                            nxt.add(y)
                frontier = nxt
            return False

        for i in range(10):
            for j in range(10):
                if i == j:
                    continue
                assert ((node(i), node(j)) in closure) == \
                    bfs_reaches(i, j), (i, j)


class TestDirtyAndRebuild:
    @pytest.fixture()
    def graph(self, org, alice, bob):
        g = DelegationGraph()
        r1 = Role(org.entity, "mid")
        r2 = Role(org.entity, "top")
        self.d1 = issue(org, alice.entity, r1)
        self.d2 = issue(org, r1, r2)
        self.d3 = issue(org, bob.entity, r2)
        for d in (self.d1, self.d2, self.d3):
            g.add(d)
        return g

    def test_rebuild_from_graph(self, graph):
        closure = reachability_closure(graph)
        assert (self.d1.subject_node, self.d2.object_node) in closure
        assert (self.d2.object_node, self.d1.subject_node) not in closure

    def test_closure_pairs_matches_closure(self, graph):
        # The closure holds exactly the pairs a direct query can prove.
        ends = {}
        for d in graph:
            ends[d.subject_node] = d.subject
            ends[d.object_node] = d.obj
        provable = {(s, o) for s in graph.subject_nodes() for o in ends
                    if s != o
                    and direct_query(graph, ends[s], ends[o]) is not None}
        assert provable == reachability_closure(graph)


class TestSearchPruning:
    @pytest.fixture()
    def fan(self, org, alice):
        """Alice reaches `goal`; many decoy branches dead-end."""
        g = DelegationGraph()
        goal = Role(org.entity, "goal")
        hop = Role(org.entity, "hop")
        self.path = (issue(org, alice.entity, hop), issue(org, hop, goal))
        for d in self.path:
            g.add(d)
        for i in range(6):
            decoy = Role(org.entity, f"decoy{i}")
            deeper = Role(org.entity, f"deeper{i}")
            g.add(issue(org, alice.entity, decoy))
            g.add(issue(org, decoy, deeper))
        return g, alice.entity, goal

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_same_answer_with_index(self, fan, strategy):
        # Every strategy finds the one proof past the decoys.
        graph, subject, goal = fan
        proof = direct_query(graph, subject, goal, strategy=strategy)
        assert proof is not None
        assert proof.chain == self.path

    def test_disconnected_short_circuits(self, fan, org, bob):
        graph, _subject, goal = fan
        bob_node, goal_node = subject_key(bob.entity), subject_key(goal)
        assert (bob_node, goal_node) not in reachability_closure(graph)
        assert direct_query(graph, bob.entity, goal) is None

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_negative_answers_agree(self, fan, strategy):
        graph, subject, _goal = fan
        missing = Role(next(iter(graph)).issuer, "unreachable")
        assert direct_query(graph, subject, missing,
                            strategy=strategy) is None
