"""Proof search over a delegation graph (paper, Sections 4.1 and 4.2.3).

Implements the three wallet query forms:

* **direct query** -- given subject S, object O, and valued-attribute
  constraints C, find one proof authorizing ``S => O`` satisfying C;
* **subject query** -- enumerate proofs of the form ``S => *``;
* **object query** -- enumerate proofs of the form ``* => O``.

All three run one local search, a :class:`_Frontier`: a breadth-first
queue of partial proofs grown one delegation at a time from a start
node, forward over out-edges or in reverse over in-edges. A subject
query drains a forward frontier from S and an object query a reverse one
from O. A direct query picks one of three strategies, matching the
efficiency discussion in Section 4.2.3:

* ``Strategy.FORWARD`` -- a forward frontier from the subject;
* ``Strategy.REVERSE`` -- a reverse frontier from the object;
* ``Strategy.BIDIRECTIONAL`` -- both, the shorter queue expanded first,
  each half joining the other's proofs where they meet ("a significant
  reduction in the number of paths that must be considered is possible
  if the search is simultaneously conducted in both directions").

Attribute pruning: because modifier composition is monotone non-increasing
(Section 3.2.1), a partial chain whose best-case grant already violates a
constraint can never be extended into a satisfying proof and is pruned.
When constraints are present the search keeps a Pareto frontier of
non-dominated modifier labels per node, because proofs "are not
necessarily discovered in topological order" and a label that is worse on
one attribute may be better on another.

Searches never verify signatures -- wallets verify at publication time
(Section 4.1) -- but they do skip expired and revoked delegations, and by
default refuse to traverse a third-party delegation whose support proofs
are unavailable.
"""

from collections import deque
from dataclasses import dataclass, fields
from enum import Enum
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.core.attributes import AttributeRef, Constraint, Operator
from repro.core.delegation import Delegation
from repro.core.errors import DRBACError
from repro.core.proof import Proof, RevokedSet, _revocation_test
from repro.core.roles import Subject, subject_key
from repro.graph.delegation_graph import DelegationGraph
from repro.graph.reach_index import ReachabilityIndex

SupportProvider = Callable[[Delegation], Tuple[Proof, ...]]


class Strategy(str, Enum):
    FORWARD = "forward"
    REVERSE = "reverse"
    BIDIRECTIONAL = "bidirectional"


@dataclass
class SearchStats:
    """Instrumentation collected by a search, for the E1 benchmarks."""

    nodes_expanded: int = 0
    edges_considered: int = 0
    labels_created: int = 0
    pruned_by_constraint: int = 0
    pruned_no_support: int = 0
    pruned_by_depth_limit: int = 0
    pruned_unreachable: int = 0
    met_in_middle: int = 0

    def reset(self) -> None:
        for counter in fields(self):
            setattr(self, counter.name, 0)


@dataclass
class _Context:
    """Bundled search parameters shared by every expansion step."""

    graph: DelegationGraph
    at: float
    is_revoked: Callable[[str], bool]
    constraints: Tuple[Constraint, ...]
    bases: Mapping[AttributeRef, float]
    support_provider: Optional[SupportProvider]
    require_supports: bool
    prune: bool
    stats: SearchStats
    max_depth: int
    reach_index: Optional[ReachabilityIndex] = None

    def reachable(self, src_node: tuple, dst_node: tuple) -> bool:
        """Index-backed pruning test; True when no index is attached.

        The index over-approximates traversable edges, so a False answer
        proves no delegation chain connects the nodes (see the soundness
        contract in :mod:`repro.graph.reach_index`).
        """
        if self.reach_index is None:
            return True
        if self.reach_index.can_reach(src_node, dst_node):
            return True
        self.stats.pruned_unreachable += 1
        return False

    def edge_usable(self, delegation: Delegation) -> bool:
        self.stats.edges_considered += 1
        if delegation.is_expired(self.at):
            return False
        if self.is_revoked(delegation.id):
            return False
        return True

    def supports_for(self, delegation: Delegation
                     ) -> Optional[Tuple[Proof, ...]]:
        """Supports to attach; None means the edge must not be traversed."""
        if not delegation.required_supports():
            return ()
        provided = () if self.support_provider is None \
            else self.support_provider(delegation)
        if self.require_supports and len(provided) < len(
                delegation.required_supports()):
            self.stats.pruned_no_support += 1
            return None
        return provided

    def violates(self, proof: Proof) -> bool:
        """Monotone pruning: best-case grant already below a constraint."""
        if not self.prune or not self.constraints:
            return False
        modifiers = proof.modifiers
        for constraint in self.constraints:
            attribute = constraint.attribute
            if attribute in self.bases:
                bound = modifiers.grant_upper_bound(
                    attribute, self.bases[attribute])
            elif modifiers.operator_of(attribute) is Operator.MIN:
                bound = modifiers.value_of(attribute)
            else:
                continue  # cannot bound yet; fails closed only at the end
            if bound < constraint.minimum:
                self.stats.pruned_by_constraint += 1
                return True
        return False

    def fits(self, proof: Proof) -> bool:
        """Within every link's depth limit, and not pruned by constraint."""
        if proof.depth_budget is not None and proof.depth_budget < 0:
            self.stats.pruned_by_depth_limit += 1
            return False
        return not self.violates(proof)

    def final_ok(self, proof: Proof) -> bool:
        if not self.constraints:
            return True
        return proof.satisfies(self.constraints, self.bases)


def _make_context(graph: DelegationGraph, at: float,
                  revoked: Optional[RevokedSet],
                  constraints: Iterable[Constraint],
                  bases: Optional[Mapping[AttributeRef, float]],
                  support_provider: Optional[SupportProvider],
                  require_supports: bool, prune: bool,
                  stats: Optional[SearchStats],
                  max_depth: Optional[int],
                  reach_index: Optional[ReachabilityIndex] = None
                  ) -> _Context:
    return _Context(
        graph=graph,
        at=at,
        is_revoked=_revocation_test(revoked),
        constraints=tuple(constraints),
        bases=bases or {},
        support_provider=support_provider,
        require_supports=require_supports,
        prune=prune,
        stats=stats if stats is not None else SearchStats(),
        max_depth=max_depth if max_depth is not None else max(len(graph), 1),
        reach_index=reach_index,
    )


# ---------------------------------------------------------------------------
# Pareto label bookkeeping
# ---------------------------------------------------------------------------

class _LabelStore:
    """Per-node records of non-dominated attribute labels.

    Without constraints this degenerates to a visited set (one label per
    node). With constraints, a new label is admitted unless an existing
    label is at least as good on *every* constrained attribute.
    """

    def __init__(self, ctx: _Context) -> None:
        self._ctx = ctx
        self._labels: Dict[tuple, List[Tuple[float, ...]]] = {}
        self._attributes = tuple(c.attribute for c in ctx.constraints)

    def _vector(self, proof: Proof) -> Tuple[float, ...]:
        bounds = []
        for attribute in self._attributes:
            base = self._ctx.bases.get(attribute, float("inf"))
            bounds.append(proof.modifiers.grant_upper_bound(attribute, base))
        return tuple(bounds)

    def admit(self, node: tuple, proof: Proof) -> bool:
        """Record the label; False if dominated by an existing one."""
        existing = self._labels.setdefault(node, [])
        if not self._attributes:
            if existing:
                return False
            existing.append(())
            return True
        vector = self._vector(proof)
        for other in existing:
            if all(o >= v for o, v in zip(other, vector)):
                return False
        existing[:] = [
            other for other in existing
            if not all(v >= o for v, o in zip(vector, other))
        ]
        existing.append(vector)
        self._ctx.stats.labels_created += 1
        return True


# ---------------------------------------------------------------------------
# The frontier walk
# ---------------------------------------------------------------------------

def _extend(ctx: _Context, proof: Optional[Proof], delegation: Delegation,
            forward: bool) -> Optional[Proof]:
    """``proof`` grown by one delegation at its open end -- the object end
    going forward, the subject end in reverse -- or None when the edge is
    unusable or the grown proof can no longer answer the query.

    Only dRBAC's own failures mean "not through this edge": an attribute
    bound to two operators (:class:`AttributeError_`) or a proof that does
    not compose (:class:`ProofError`). Any other exception is a bug and
    propagates.
    """
    if not ctx.edge_usable(delegation):
        return None
    supports = ctx.supports_for(delegation)
    if supports is None:
        return None
    try:
        if proof is None:
            grown = Proof.single(delegation, supports=supports)
        elif forward:
            grown = proof.extend(delegation, supports=supports)
        else:
            grown = Proof.single(delegation, supports=supports).join(proof)
    except DRBACError:
        return None
    return grown if ctx.fits(grown) else None


def _meet(ctx: _Context, forward: Proof, backward: Proof) -> Optional[Proof]:
    """The two halves of a bidirectional search joined where they meet,
    if the whole chain answers the query."""
    try:
        joined = forward.join(backward)
    except DRBACError:
        return None
    if ctx.fits(joined) and ctx.final_ok(joined):
        ctx.stats.met_in_middle += 1
        return joined
    return None


class _Frontier:
    """One end of a search: proofs grown breadth-first from ``start``.

    A forward frontier follows out-edges and grows its proofs at their
    object end; a reverse one follows in-edges and grows them at their
    subject end. ``far`` is the other end of a direct query -- reaching
    it closes a proof, and the reachability index prunes nodes that
    cannot lead there -- or None for an enumeration. ``reached`` holds
    the proofs admitted at each node, for the other half of a
    bidirectional search to meet; ``admitted`` holds them in order, the
    answer of an enumeration.
    """

    def __init__(self, ctx: _Context, start: tuple, far: Optional[tuple],
                 forward: bool) -> None:
        self.ctx = ctx
        self.far = far
        self.forward = forward
        self.edges = ctx.graph.out_edges_by_node if forward \
            else ctx.graph.in_edges_by_node
        self.labels = _LabelStore(ctx)
        self.queue: Deque[Tuple[tuple, Optional[Proof]]] = \
            deque([(start, None)])
        self.reached: Dict[tuple, List[Proof]] = {}
        self.admitted: List[Proof] = []

    def expand(self, other: Optional["_Frontier"] = None) -> Optional[Proof]:
        """Pop one node and grow its proof over each usable edge.

        Per edge, in order: the goal test at ``far``, a meet with each
        proof ``other`` reached at the same node, the reachability
        pruning, then label admission. Returns the first proof of the
        query that closes, else None.
        """
        ctx = self.ctx
        node, proof = self.queue.popleft()
        if proof is not None and proof.depth() >= ctx.max_depth:
            return None
        ctx.stats.nodes_expanded += 1
        forward, far = self.forward, self.far
        for delegation in self.edges(node):
            grown = _extend(ctx, proof, delegation, forward)
            if grown is None:
                continue
            step = delegation.object_node if forward \
                else delegation.subject_node
            if far is not None:
                if step == far and ctx.final_ok(grown):
                    return grown
                if other is not None:
                    for theirs in other.reached.get(step, ()):
                        met = _meet(ctx, grown, theirs) if forward \
                            else _meet(ctx, theirs, grown)
                        if met is not None:
                            return met
                if not (ctx.reachable(step, far) if forward
                        else ctx.reachable(far, step)):
                    continue
            if self.labels.admit(step, grown):
                self.reached.setdefault(step, []).append(grown)
                self.admitted.append(grown)
                self.queue.append((step, grown))
        return None

    def run(self) -> Optional[Proof]:
        """Expand until a proof closes or the queue drains."""
        while self.queue:
            proof = self.expand()
            if proof is not None:
                return proof
        return None


# ---------------------------------------------------------------------------
# Direct, subject and object queries
# ---------------------------------------------------------------------------

def direct_query(graph: DelegationGraph, subject: Subject, obj: Subject,
                 at: float = 0.0,
                 revoked: Optional[RevokedSet] = None,
                 constraints: Iterable[Constraint] = (),
                 bases: Optional[Mapping[AttributeRef, float]] = None,
                 strategy: Strategy = Strategy.BIDIRECTIONAL,
                 support_provider: Optional[SupportProvider] = None,
                 require_supports: bool = True,
                 prune: bool = True,
                 stats: Optional[SearchStats] = None,
                 max_depth: Optional[int] = None,
                 reach_index: Optional[ReachabilityIndex] = None
                 ) -> Optional[Proof]:
    """Find one proof authorizing ``subject => obj`` satisfying constraints.

    Returns None if no satisfying proof exists in the graph. A proof of
    zero length (subject identical to object) is not a dRBAC proof and
    yields None. When a :class:`ReachabilityIndex` covering the graph is
    supplied, nodes that provably cannot lie on a subject-to-object chain
    are skipped (counted in ``stats.pruned_unreachable``).
    """
    ctx = _make_context(graph, at, revoked, constraints, bases,
                        support_provider, require_supports, prune,
                        stats, max_depth, reach_index)
    origin, target = subject_key(subject), subject_key(obj)
    if origin == target or not ctx.reachable(origin, target):
        return None
    forward = _Frontier(ctx, origin, target, forward=True)
    backward = _Frontier(ctx, target, origin, forward=False)
    if strategy is Strategy.FORWARD:
        return forward.run()
    if strategy is Strategy.REVERSE:
        return backward.run()
    # Bidirectional: expand the shorter queue (forward on a tie) until
    # the halves meet or both drain.
    while forward.queue or backward.queue:
        if forward.queue and (not backward.queue
                              or len(forward.queue) <= len(backward.queue)):
            proof = forward.expand(backward)
        else:
            proof = backward.expand(forward)
        if proof is not None:
            return proof
    return None


def subject_query(graph: DelegationGraph, subject: Subject,
                  at: float = 0.0,
                  revoked: Optional[RevokedSet] = None,
                  constraints: Iterable[Constraint] = (),
                  bases: Optional[Mapping[AttributeRef, float]] = None,
                  support_provider: Optional[SupportProvider] = None,
                  require_supports: bool = True,
                  prune: bool = True,
                  stats: Optional[SearchStats] = None,
                  max_depth: Optional[int] = None) -> List[Proof]:
    """Enumerate proofs ``subject => *`` that do not violate constraints.

    Returns one proof per (node, non-dominated label); without constraints
    that is the BFS-shortest proof to each reachable node.
    """
    ctx = _make_context(graph, at, revoked, constraints, bases,
                        support_provider, require_supports, prune,
                        stats, max_depth)
    frontier = _Frontier(ctx, subject_key(subject), None, forward=True)
    frontier.run()
    return frontier.admitted


def object_query(graph: DelegationGraph, obj: Subject,
                 at: float = 0.0,
                 revoked: Optional[RevokedSet] = None,
                 constraints: Iterable[Constraint] = (),
                 bases: Optional[Mapping[AttributeRef, float]] = None,
                 support_provider: Optional[SupportProvider] = None,
                 require_supports: bool = True,
                 prune: bool = True,
                 stats: Optional[SearchStats] = None,
                 max_depth: Optional[int] = None) -> List[Proof]:
    """Enumerate proofs ``* => obj`` that do not violate constraints."""
    ctx = _make_context(graph, at, revoked, constraints, bases,
                        support_provider, require_supports, prune,
                        stats, max_depth)
    frontier = _Frontier(ctx, subject_key(obj), None, forward=False)
    frontier.run()
    return frontier.admitted


def subject_query_multi(graph: DelegationGraph,
                        subjects: Iterable[Subject],
                        **kwargs) -> List[Proof]:
    """Subject query over a *set* of subjects (paper, Section 4.1:
    "given a subject S (more generally, a set of subjects)").

    Returns the concatenated sub-proofs; proofs are deduplicated when
    two subjects reach identical chains.
    """
    return list(dict.fromkeys(
        proof for subject in subjects
        for proof in subject_query(graph, subject, **kwargs)))


def object_query_multi(graph: DelegationGraph, objs: Iterable[Subject],
                       **kwargs) -> List[Proof]:
    """Object query over a *set* of objects (paper, Section 4.1:
    "given an object (more generally, a set of objects)")."""
    return list(dict.fromkeys(
        proof for obj in objs for proof in object_query(graph, obj, **kwargs)))


def direct_query_any(graph: DelegationGraph, subject: Subject,
                     objs: Iterable[Subject],
                     **kwargs) -> Optional[Proof]:
    """First satisfying proof from ``subject`` to any of ``objs``.

    The resource-side idiom: a resource guarded by several acceptable
    roles asks for whichever is provable.
    """
    for obj in objs:
        proof = direct_query(graph, subject, obj, **kwargs)
        if proof is not None:
            return proof
    return None


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------

def enumerate_chains(graph: DelegationGraph, subject: Subject,
                     obj: Subject,
                     at: float = 0.0,
                     revoked: Optional[RevokedSet] = None,
                     max_depth: int = 16) -> Iterator[Tuple[Delegation, ...]]:
    """Yield every simple delegation chain from subject to object.

    Chains are simple (no node repeats) and at most ``max_depth`` links
    long; there are exponentially many on dense graphs, the paths a
    unidirectional search could have to consider (Section 4.2.3).
    :func:`repro.graph.closure.count_paths` counts them; the E1 benchmark
    counts DAG paths with ``count_dag_paths`` instead of enumerating.

    Iterative DFS with an explicit stack of edge iterators -- path depth
    is bounded by ``max_depth``, never by the interpreter recursion limit.
    """
    is_revoked = _revocation_test(revoked)
    target = subject_key(obj)
    origin = subject_key(subject)

    path: List[Delegation] = []
    seen = {origin}
    stack = [iter(graph.out_edges_by_node(origin))] if max_depth > 0 else []
    while stack:
        delegation = next(stack[-1], None)
        if delegation is None:
            stack.pop()
            if path:
                seen.discard(path.pop().object_node)
            continue
        if delegation.is_expired(at) or is_revoked(delegation.id):
            continue
        next_node = delegation.object_node
        if next_node in seen:
            continue
        if next_node == target:
            yield tuple(path) + (delegation,)
            continue
        if len(path) + 1 >= max_depth:
            continue
        path.append(delegation)
        seen.add(next_node)
        stack.append(iter(graph.out_edges_by_node(next_node)))


def build_support_provider(graph: DelegationGraph,
                           at: float = 0.0,
                           revoked: Optional[RevokedSet] = None,
                           max_depth: Optional[int] = None
                           ) -> SupportProvider:
    """A support provider that discovers support proofs within ``graph``.

    Wallets normally store support proofs alongside third-party
    delegations at publication time; this helper reconstructs them by
    recursive search, for tests and for graphs assembled outside a wallet.
    Results are memoized per delegation id.
    """
    cache: Dict[str, Tuple[Proof, ...]] = {}

    def provider(delegation: Delegation) -> Tuple[Proof, ...]:
        cached = cache.get(delegation.id)
        if cached is not None:
            return cached
        # Fail closed while computing: a delegation whose support chain
        # cycles back through itself gets no supports.
        cache[delegation.id] = ()
        proofs = []
        for role in delegation.required_supports():
            found = direct_query(
                graph, delegation.issuer, role, at=at, revoked=revoked,
                strategy=Strategy.FORWARD, support_provider=provider,
                max_depth=max_depth,
            )
            if found is not None:
                proofs.append(found)
        result = tuple(proofs)
        cache[delegation.id] = result
        return result

    return provider
