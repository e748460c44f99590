"""Graph-based credential storage and proof search (paper, Section 4.1).

Wallets "rely upon graph-based data structures that allow efficient
enumeration of delegation chains between any specified subject and object".
This package provides:

* :mod:`repro.graph.delegation_graph` -- the indexed delegation store;
* :mod:`repro.graph.search` -- direct / subject / object queries with
  forward, reverse, and bidirectional strategies plus monotone attribute
  pruning (Section 4.2.3);
* :mod:`repro.graph.closure` -- Clarke-style reachability closures and
  path counts (the E1 benchmark's exponential-blowup table);
* :mod:`repro.graph.proof_cache` -- event-invalidated memoization of
  query results, the wallet hot-path cache.
"""

from repro.graph.delegation_graph import DelegationGraph
from repro.graph.proof_cache import ProofCache
from repro.graph.search import (
    SearchStats,
    Strategy,
    direct_query,
    direct_query_any,
    enumerate_chains,
    object_query,
    object_query_multi,
    subject_query,
    subject_query_multi,
)
from repro.graph.closure import (
    count_dag_paths,
    count_paths,
    reachability_closure,
)
from repro.graph.search import build_support_provider

__all__ = [
    "DelegationGraph",
    "ProofCache",
    "SearchStats",
    "Strategy",
    "direct_query",
    "direct_query_any",
    "enumerate_chains",
    "object_query",
    "object_query_multi",
    "subject_query",
    "subject_query_multi",
    "reachability_closure",
    "count_paths",
    "count_dag_paths",
    "build_support_provider",
]
