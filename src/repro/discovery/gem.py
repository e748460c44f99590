"""Tabled goal evaluation: the goal key and the shared counters.

Discovery (:mod:`repro.discovery.engine`) evaluates a query the way
Trivellato, Zannone & Etalle's GEM does (see PAPERS.md), with one
difference: GEM tables goals at every evaluator because its evaluators
spawn subgoals, while here the *origin* derives every goal (Section
4.2.1: the returned proofs are the roots for further searches). So the
origin alone tables them -- its issued-set sends each goal to its home
at most once per search, and a derived goal naming an already-issued
``(home, direction, node)`` is a detected cycle, recorded and never
re-evaluated -- and a home keeps no per-search state: it answers each
``gem_eval`` with its local closure, pushed straight back to the
origin. Mutually-recursive cross-home delegations complete without
centralizing the graph, with a message count flat in the number of
in-home revisits.

This module holds :data:`GoalKey`, :data:`MAX_DEPTH` and
:data:`GEM_COUNTER_NAMES`, the registry-backed ``drbac_gem_*``
counters.
"""

from typing import Tuple

# A goal, locally keyed: (direction, subject_key(node)). Direction is
# "fwd" (everything reachable from node) or "rev" (everything that
# reaches node); the node key is the engine's canonical node encoding.
GoalKey = Tuple[str, tuple]

# The origin stops chasing continuation chains past this depth: a
# belt-and-braces bound on pathological tag graphs on top of the
# issued-set dedup (which already guarantees termination).
MAX_DEPTH = 64

# The ``drbac_gem_*`` tallies one host keeps, as one
# :class:`~repro.obs.CounterSet` on its
# :class:`~repro.discovery.resolver.WalletServer` (``gem_stats``)
# serving both protocol sides: an engine increments the origin-side
# counters (roots, evals issued, answers received or dropped, loops
# detected, refs), the server's ``gem_eval`` handler the home-side ones
# (evals served, answers pushed). ``DiscoveryEngine.gem_info()``
# surfaces its ``to_dict()`` (pinned by ``tests/obs/test_contracts.py``).
GEM_COUNTER_NAMES = (
    "roots", "evals_issued", "answers_received",
    "answers_dropped", "answer_records", "evals_served",
    "loops_detected", "answers_pushed", "refs_from_holdings",
    "refs_refetched", "refs_unresolved")
