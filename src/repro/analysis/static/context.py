"""Shared, lazily-computed state for one static-analysis pass.

Every rule reads from one :class:`AnalysisContext`, which owns the
expensive derived structures -- the *live* subgraph (edges neither
expired nor revoked at the analysis instant), the strongly connected
components of the live graph in topological order, the set of nodes
some entity can structurally reach, and what each issuer reaches. Each
is built at most once per pass, however many rules consult it.

The live restriction matters: a defect report must not claim a support
chain exists when its only witness expired years ago. Rules that reason
about what is constructible *now* therefore walk the live graph built
here.
"""

import math
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.attributes import AttributeRef
from repro.core.delegation import Delegation
from repro.core.proof import Proof
from repro.core.roles import Role, subject_key
from repro.graph.delegation_graph import DelegationGraph

# A delegation outliving this (seconds past the analysis instant, or
# carrying no expiry at all) counts as long-lived for the
# revocation-blind-spot rule.
DEFAULT_LONG_LIVED_THRESHOLD = 86400.0

SupportsLookup = Callable[[str], Tuple[Proof, ...]]


class AnalysisContext:
    """One analysis pass's view of a delegation set."""

    def __init__(self, graph: DelegationGraph, at: float,
                 revoked: Optional[Callable[[str], bool]] = None,
                 bases: Optional[Mapping[AttributeRef, float]] = None,
                 supports: Optional[SupportsLookup] = None,
                 long_lived_threshold: float =
                 DEFAULT_LONG_LIVED_THRESHOLD) -> None:
        self.graph = graph
        self.at = at
        self.is_revoked = revoked if revoked is not None \
            else (lambda _id: False)
        self.bases: Dict[AttributeRef, float] = dict(bases or {})
        self.supports = supports
        self.long_lived_threshold = long_lived_threshold
        self._live: Optional[List[Delegation]] = None
        self._live_graph: Optional[DelegationGraph] = None
        self._reach_from: Dict[tuple, Set[tuple]] = {}
        self._sccs: Optional[List[List[tuple]]] = None
        self._scc_index: Optional[Dict[tuple, int]] = None
        self._entity_reachable: Optional[Set[tuple]] = None
        self._role_names: Optional[Set[str]] = None

    # -- liveness ---------------------------------------------------------

    def is_live(self, delegation: Delegation) -> bool:
        """Neither expired at the analysis instant nor revoked."""
        return not delegation.is_expired(self.at) \
            and not self.is_revoked(delegation.id)

    @property
    def live_delegations(self) -> List[Delegation]:
        if self._live is None:
            self._live = [d for d in self.graph if self.is_live(d)]
        return self._live

    @property
    def live_graph(self) -> DelegationGraph:
        if self._live_graph is None:
            self._live_graph = DelegationGraph(self.live_delegations)
        return self._live_graph

    def _live_walk(self, sources: Iterable[tuple]) -> Set[tuple]:
        """The sources plus every node they reach through live edges."""
        graph = self.live_graph
        frontier = list(sources)
        seen: Set[tuple] = set(frontier)
        while frontier:
            next_frontier: List[tuple] = []
            for node in frontier:
                for edge in graph.out_edges_by_node(node):
                    target = edge.object_node
                    if target not in seen:
                        seen.add(target)
                        next_frontier.append(target)
            frontier = next_frontier
        return seen

    # -- strongly connected components ------------------------------------

    def _compute_sccs(self) -> None:
        """Iterative Tarjan over the live graph, deterministic order.

        ``self._sccs`` holds every component (singletons included) in
        *topological* order -- sources before sinks -- which is what the
        attribute-misuse accumulation walks. ``self._scc_index`` maps
        node -> component position in that order.
        """
        graph = self.live_graph
        nodes = sorted(graph.nodes())
        index: Dict[tuple, int] = {}
        lowlink: Dict[tuple, int] = {}
        on_stack: Set[tuple] = set()
        stack: List[tuple] = []
        components: List[List[tuple]] = []
        counter = 0

        def successors(node: tuple) -> List[tuple]:
            seen: Set[tuple] = set()
            ordered: List[tuple] = []
            for edge in graph.out_edges_by_node(node):
                target = edge.object_node
                if target not in seen:
                    seen.add(target)
                    ordered.append(target)
            return ordered

        for root in nodes:
            if root in index:
                continue
            work: List[Tuple[tuple, int]] = [(root, 0)]
            while work:
                node, child_pos = work[-1]
                if child_pos == 0:
                    index[node] = lowlink[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                advanced = False
                children = successors(node)
                while child_pos < len(children):
                    child = children[child_pos]
                    child_pos += 1
                    if child not in index:
                        work[-1] = (node, child_pos)
                        work.append((child, 0))
                        advanced = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if advanced:
                    continue
                work.pop()
                if lowlink[node] == index[node]:
                    component: List[tuple] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
                if work:
                    parent, _pos = work[-1]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        # Tarjan emits components in reverse topological order.
        components.reverse()
        self._sccs = components
        self._scc_index = {
            node: position
            for position, component in enumerate(components)
            for node in component
        }

    @property
    def sccs(self) -> List[List[tuple]]:
        """Live-graph SCCs, sources first (singletons included)."""
        if self._sccs is None:
            self._compute_sccs()
        return self._sccs

    @property
    def scc_index(self) -> Dict[tuple, int]:
        if self._scc_index is None:
            self._compute_sccs()
        return self._scc_index

    def cyclic_sccs(self) -> List[Tuple[List[tuple], List[Delegation]]]:
        """Components with >= 2 nodes, with their internal live edges.

        Self-loops cannot occur (a delegation's subject and object are
        never the same node), so every cycle lives in a multi-node SCC.
        """
        result = []
        for component in self.sccs:
            if len(component) < 2:
                continue
            members = set(component)
            internal = [
                edge
                for node in sorted(members)
                for edge in self.live_graph.out_edges_by_node(node)
                if edge.object_node in members
            ]
            internal.sort(key=lambda d: d.id)
            result.append((component, internal))
        return result

    # -- entity reachability ----------------------------------------------

    @property
    def entity_reachable(self) -> Set[tuple]:
        """Nodes some principal can reach through live edges.

        Multi-source BFS from every entity node: a role node outside
        this set heads a grant no principal can ever exercise, because
        every proof chain starts at an entity subject.
        """
        if self._entity_reachable is None:
            self._entity_reachable = self._live_walk(
                sorted(node for node in self.live_graph.nodes()
                       if node[0] == "entity"))
        return self._entity_reachable

    # -- namespace / naming directory --------------------------------------

    @property
    def role_names(self) -> Set[str]:
        """Qualified names of every role mentioned by any delegation."""
        if self._role_names is None:
            names: Set[str] = set()
            for delegation in self.graph:
                if isinstance(delegation.subject, Role):
                    names.add(delegation.subject.qualified_name)
                names.add(delegation.obj.qualified_name)
                for role in delegation.acting_as:
                    names.add(role.qualified_name)
            self._role_names = names
        return self._role_names

    # -- support satisfiability --------------------------------------------

    def support_witness(self, delegation: Delegation,
                        role: Role) -> bool:
        """Can ``delegation.issuer => role`` be assembled *now*?

        Statically answered, no proof search: either the live graph
        connects the issuer's entity node to the role's node (so some
        live chain of delegations exists structurally), or the wallet
        stores a support proof whose every link is still live. The
        structural test over-approximates chain *validity* (it ignores
        depth limits and per-link support requirements), which is the
        right polarity for a defect detector: a dangling-support finding
        asserts no chain can possibly exist.
        """
        issuer_node = ("entity", delegation.issuer.id)
        reached = self._reach_from.get(issuer_node)
        if reached is None:
            reached = self._reach_from[issuer_node] = \
                self._live_walk((issuer_node,))
        if subject_key(role) in reached:
            return True
        if self.supports is None:
            return False
        for proof in self.supports(delegation.id):
            if proof.obj != role:
                continue
            if proof.subject != delegation.issuer:
                continue
            if all(self.is_live(link)
                   for link in proof.all_delegations()):
                return True
        return False

    # -- misc helpers -------------------------------------------------------

    def is_long_lived(self, delegation: Delegation) -> bool:
        if delegation.expiry is None:
            return True
        return (delegation.expiry - self.at) > self.long_lived_threshold

    @staticmethod
    def log_weight(value: float) -> float:
        """Log of a ``*=`` factor; finite because factors are in (0, 1]."""
        return math.log(value)
