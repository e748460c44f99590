"""Tabled goal evaluation: the per-home tables and the shared counters.

Discovery (:mod:`repro.discovery.engine`) evaluates a query the way
Trivellato, Zannone & Etalle's GEM does (see PAPERS.md): each home
keeps a *goal table* per evaluation root recording which goals it
has tabled, evaluates each goal's local closure once and pushes
the answers *once*, directly to the evaluation's origin. The origin
derives the continuing goals from the credentials it verifies and
dedups them coalition-wide, so a goal naming an already-issued
``(home, direction, node)`` is a detected cycle -- recorded, never
re-evaluated -- and mutually-recursive cross-home delegations complete
without centralizing the graph, with a message count flat in the number
of in-home revisits.

This module holds:

* :data:`GEM_COUNTER_NAMES` -- the registry-backed ``drbac_gem_*``
  counters;
* :class:`GoalTable` / :class:`GemTableStore` -- the per-home tables,
  owned by each :class:`~repro.discovery.resolver.WalletServer` and
  flushed by terminate notifications, hub events and TTL sweep (see
  docs/PROTOCOL.md, "Goal-table invalidation").
"""

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro import obs

# A goal, locally keyed: (direction, subject_key(node)). Direction is
# "fwd" (everything reachable from node) or "rev" (everything that
# reaches node); the node key is the engine's canonical node encoding.
GoalKey = Tuple[str, tuple]

DEFAULT_MAX_ROOTS = 256
DEFAULT_TABLE_TTL = 60.0

# The origin stops chasing continuation chains past this depth: a
# belt-and-braces bound on pathological tag graphs on top of the
# issued-set dedup (which already guarantees termination).
MAX_DEPTH = 64


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


# The ``drbac_gem_*`` tallies one host keeps, as one
# :class:`~repro.obs.CounterSet` serving both protocol sides: an engine
# increments the initiator-side counters (roots/evals issued/answers
# received or dropped), a :class:`GemTableStore` the home-side ones
# (evals served/loops detected/answers pushed/table flushes).
# ``DiscoveryEngine.gem_info()`` surfaces its ``to_dict()`` (pinned by
# ``tests/obs/test_contracts.py``).
GEM_COUNTER_NAMES = (
    "roots", "evals_issued", "answers_received",
    "answers_dropped", "answer_records", "terminates_sent",
    "evals_served", "loops_detected", "answers_pushed",
    "table_flushes", "refs_from_holdings", "refs_refetched",
    "refs_unresolved")


# ---------------------------------------------------------------------------
# Per-home goal tables
# ---------------------------------------------------------------------------


@dataclass
class GoalTable:
    """One home's tabled state for one evaluation root.

    ``goals`` holds the goals tabled here, evaluated or in flight; an
    arriving duplicate is never re-evaluated. ``sent_ids`` is the per-root
    credential dedup set -- what this root shipped, plus what the
    origin already held a subscription for when a goal was answered --
    so each certificate crosses the wire to the origin at most once
    per evaluation no matter how many goals its proofs support.
    """

    root_id: str
    origin: str
    deadline: float
    goals: Set[GoalKey] = field(default_factory=set)
    sent_ids: Set[str] = field(default_factory=set, repr=False)

    def activate(self, goal: GoalKey) -> bool:
        """Table ``goal``; False when it already was tabled."""
        if goal in self.goals:
            return False
        self.goals.add(goal)
        return True


class GemTableStore:
    """All of one home's goal tables, keyed by evaluation root.

    Tables are bounded (``max_roots``, oldest-first eviction) and
    TTL-swept, because a crashed initiator never sends its terminate
    wave; the explicit flush channels are the terminate notification
    and local hub events (``flush_all`` -- a mutation makes every
    tabled goal's answers stale).
    """

    def __init__(self, max_roots: int = DEFAULT_MAX_ROOTS,
                 ttl: float = DEFAULT_TABLE_TTL) -> None:
        if max_roots < 1:
            raise ValueError("max_roots must be positive")
        self.max_roots = max_roots
        self.ttl = ttl
        self.stats = obs.CounterSet("drbac_gem", GEM_COUNTER_NAMES)
        self._tables: Dict[str, GoalTable] = {}

    def get(self, root_id: str) -> Optional[GoalTable]:
        return self._tables.get(root_id)

    def get_or_create(self, root_id: str, origin: str,
                      now: float) -> GoalTable:
        table = self._tables.get(root_id)
        if table is not None:
            return table
        # Insertion order is creation order (the clock never goes back),
        # so the first table is the oldest.
        while len(self._tables) >= self.max_roots:
            self.flush_root(next(iter(self._tables)))
        table = GoalTable(root_id=root_id, origin=origin,
                          deadline=now + self.ttl)
        self._tables[root_id] = table
        return table

    def flush_root(self, root_id: str) -> bool:
        """Drop one root's table (terminate notification). Idempotent."""
        if self._tables.pop(root_id, None) is None:
            return False
        self.stats.c_table_flushes.inc()
        return True

    def flush_all(self) -> int:
        """Drop every table (a local hub event changed the closure)."""
        count = len(self._tables)
        if count:
            self._tables.clear()
            self.stats.c_table_flushes.inc(count)
        return count

    def sweep(self, now: float) -> int:
        """Expire tables whose initiator never terminated them."""
        stale = [root for root, table in self._tables.items()
                 if now >= table.deadline]
        for root in stale:
            self.flush_root(root)
        return len(stale)

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, root_id: str) -> bool:
        return root_id in self._tables

    def info(self) -> dict:
        data = self.stats.to_dict()
        data["tables"] = len(self._tables)
        data["max_roots"] = self.max_roots
        return data
