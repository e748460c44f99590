"""Reachability closures and path counting.

Clarke et al. [5] "recognized the utility of reachability closures in
credential discovery"; dRBAC "filters these closures for proofs that
satisfy a required attribute value range restriction" (Section 6). This
module computes the closure directly and counts authorizing paths. The
E1 benchmark's exponential-blowup table uses :func:`count_dag_paths`;
the SPKI baseline keeps its own name-reduction closure.

All traversals use explicit stacks/queues: path counting on dense graphs
goes deep by design, and the interpreter recursion limit must not be the
thing that caps a benchmark.
"""

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.core.proof import RevokedSet, _revocation_test
from repro.core.roles import Subject, subject_key
from repro.graph.delegation_graph import DelegationGraph
from repro.graph.reach_index import ReachabilityIndex
from repro.graph.search import enumerate_chains


def reachability_closure(graph: DelegationGraph,
                         at: float = 0.0,
                         revoked: Optional[RevokedSet] = None,
                         index: Optional[ReachabilityIndex] = None
                         ) -> Set[Tuple[tuple, tuple]]:
    """All (subject-node, object-node) pairs connected by a delegation chain.

    Expired and revoked delegations are excluded. When an up-to-date
    :class:`ReachabilityIndex` is supplied and every edge it indexed is
    live (nothing expired at ``at``, nothing revoked), the closure is read
    straight out of the index's bitsets; otherwise one BFS per subject
    node, O(V * E) worst case, fine at wallet scale.
    """
    is_revoked = _revocation_test(revoked)
    if index is not None and index.covers(graph) and not any(
            d.is_expired(at) or is_revoked(d.id) for d in graph):
        return index.closure_pairs(graph.subject_nodes())
    closure: Set[Tuple[tuple, tuple]] = set()
    for start in graph.subject_nodes():
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for delegation in graph.out_edges_by_node(node):
                if delegation.is_expired(at) or is_revoked(delegation.id):
                    continue
                nxt = delegation.object_node
                closure.add((start, nxt))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return closure


def count_paths(graph: DelegationGraph, subject: Subject, obj: Subject,
                max_depth: int = 32,
                at: float = 0.0,
                revoked: Optional[RevokedSet] = None) -> int:
    """Count distinct simple delegation chains from subject to object:
    the chains :func:`~repro.graph.search.enumerate_chains` yields, at
    most ``max_depth`` links long. Exponential on dense DAGs by design."""
    return sum(1 for _chain in enumerate_chains(
        graph, subject, obj, at=at, revoked=revoked, max_depth=max_depth))


def count_dag_paths(graph: DelegationGraph, subject: Subject, obj: Subject,
                    at: float = 0.0,
                    revoked: Optional[RevokedSet] = None) -> int:
    """Count all delegation chains from subject to object in a DAG.

    Dynamic-programming count (paths need not be simple to enumerate
    because a DAG has no cycles); raises ValueError if a cycle is
    reachable. Used to report the paper's "exponential in depth" path
    counts without enumerating each path.
    """
    is_revoked = _revocation_test(revoked)
    target = subject_key(obj)
    memo: Dict[tuple, int] = {target: 1}
    on_stack: Set[tuple] = set()
    root = subject_key(subject)
    if root == target:
        return 1

    # Post-order DFS with an explicit stack: a node is entered (pushed,
    # marked on-stack), its successors resolved, then finalized into the
    # memo on the second visit.
    work: List[Tuple[tuple, bool]] = [(root, False)]
    while work:
        node, finalize = work.pop()
        if finalize:
            total = 0
            for delegation in graph.out_edges_by_node(node):
                if delegation.is_expired(at) or is_revoked(delegation.id):
                    continue
                total += memo[delegation.object_node]
            on_stack.discard(node)
            memo[node] = total
            continue
        if node in memo:
            continue
        if node in on_stack:
            raise ValueError("delegation graph contains a reachable cycle")
        on_stack.add(node)
        work.append((node, True))
        for delegation in graph.out_edges_by_node(node):
            if delegation.is_expired(at) or is_revoked(delegation.id):
                continue
            child = delegation.object_node
            if child not in memo:
                if child in on_stack:
                    raise ValueError(
                        "delegation graph contains a reachable cycle")
                work.append((child, False))
    return memo[root]
