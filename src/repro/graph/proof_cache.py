"""Event-invalidated memoization of wallet query results.

Every wallet authorization used to re-run a full proof search. This
module memoizes `direct_query`/`subject_query`/`object_query` results --
including *negative* ones -- and keeps them coherent with the delegation
subscription stream (Section 4.2.2) instead of with TTLs:

* **REVOKED / EXPIRED / UPDATED** events kill exactly the entries whose
  stored value depends on that delegation id. A delegation-id ->
  cache-key inverted index makes this O(affected entries), not O(cache).
* **PUBLISHED** events can only *add* authorization paths (the algebra is
  monotone; edges never improve with age), so they threaten only negative
  and enumeration entries. Each such entry is tested against the new
  edge's endpoints: a negative ``s => o`` can flip only if ``s`` can
  reach the new edge's subject *and* its object can reach ``o`` -- a
  reachability index answers both in O(1), so unrelated publishes leave
  the cache untouched.

Entry taxonomy (the invalidation matrix, also in docs/PERFORMANCE.md):

====================  ====================  =============================
entry type            REVOKED/EXPIRED/UPD   PUBLISHED
====================  ====================  =============================
positive direct       via inverted index    never (monotone algebra)
negative direct       untouched (no deps)   endpoint-connectivity test
subject/object enum   via inverted index    subject/object-side test
any *fragile* entry   via inverted index    always dropped
====================  ====================  =============================

**Fragile** entries are results computed while the search declined to
traverse a third-party delegation for lack of support proofs: a later
publish can complete a support chain *anywhere* in the graph -- far off
the subject-object path -- so the endpoint test is not sound for them and
they are dropped on every publish. Callers flag fragility from
``SearchStats.pruned_no_support``.

Positive entries additionally carry ``valid_until`` -- the earliest
expiry among the delegations in the proof -- so a proof is never served
past the lifetime of its weakest certificate even if no EXPIRED event has
fired yet.
"""

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from repro import obs
from repro.core.attributes import (
    AttributeRef,
    Constraint,
    bases_cache_key,
    constraints_cache_key,
)
from repro.core.proof import Proof
from repro.graph.reach_index import ReachabilityIndex

# Query kinds; skey/okey slots not applicable to a kind are None.
KIND_DIRECT = "direct"
KIND_SUBJECT = "subject"
KIND_OBJECT = "object"

CacheKey = Tuple[str, Optional[tuple], Optional[tuple], tuple, tuple]


# The table's tallies, ``drbac_<prefix>_<name>_total{instance}``;
# ``ProofCache.info()`` reports them by these names.
COUNTER_NAMES = ("hits", "misses", "negative_hits", "stores",
                 "invalidations", "publish_invalidations", "expirations",
                 "evictions")


@dataclass
class _Entry:
    """One memoized query result."""

    value: object                     # Proof | None | Tuple[Proof, ...]
    delegation_ids: frozenset
    created_at: float
    valid_until: float                # inf for negatives
    negative: bool
    fragile: bool = False


def make_key(kind: str,
             skey: Optional[tuple],
             okey: Optional[tuple],
             constraints: Iterable[Constraint] = (),
             bases: Optional[Mapping[AttributeRef, float]] = None
             ) -> CacheKey:
    """Canonical cache key; constraint/base order never matters."""
    return (kind, skey, okey,
            constraints_cache_key(constraints), bases_cache_key(bases))


class ProofCache:
    """LRU decision cache with event-driven invalidation.

    This class is the entry table -- LRU order, validity window,
    delegation-id inverted index, growable set, eviction, tallies --
    and one *policy* on top of it: how :meth:`store` reads delegation
    ids, earliest expiry and growability off a query result, and the
    reachability test :meth:`on_publish` applies. The discovery result
    cache is the same table under another policy.

    Not thread-safe by itself; the owning wallet serializes access the
    same way it serializes graph mutation.
    """

    METRIC_PREFIX = "drbac_proof_cache"

    def __init__(self, maxsize: int = 4096,
                 reach_index: Optional[ReachabilityIndex] = None) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.reach_index = reach_index
        self.stats = obs.CounterSet(self.METRIC_PREFIX, COUNTER_NAMES)
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._by_delegation: Dict[str, Set[tuple]] = {}
        # Entries a PUBLISHED event could flip: negatives + enumerations.
        self._growable: Set[tuple] = set()

    # -- lookup / store ----------------------------------------------------

    def lookup(self, key: tuple, now: float) -> Tuple[bool, object]:
        """Return ``(hit, value)``; a miss returns ``(False, None)``.

        An entry is served only inside its validity window: at or after
        the time it was computed (a negative observed at ``t`` says
        nothing about earlier instants when more edges were alive) and,
        for positives, strictly before the earliest expiry in the proof.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.stats.c_misses.inc()
            return False, None
        if now < entry.created_at or now >= entry.valid_until:
            self.stats.c_misses.inc()
            self.stats.c_expirations.inc()
            self._drop(key)
            return False, None
        self._entries.move_to_end(key)
        self.stats.c_hits.inc()
        if entry.negative:
            self.stats.c_negative_hits.inc()
        return True, entry.value

    def store(self, key: CacheKey, value: object, now: float,
              fragile: bool = False) -> None:
        """Memoize one query result computed at time ``now``."""
        kind = key[0]
        if kind == KIND_DIRECT:
            proofs: Tuple[Proof, ...] = () if value is None else (value,)
            negative = value is None
        else:
            proofs = tuple(value)
            negative = False  # enumerations are growable, not negative
        delegation_ids = frozenset(
            d.id for proof in proofs for d in proof.all_delegations())
        valid_until = math.inf
        for proof in proofs:
            for delegation in proof.all_delegations():
                if delegation.expiry is not None:
                    valid_until = min(valid_until, delegation.expiry)
        self._put(key, _Entry(
            value=value,
            delegation_ids=delegation_ids,
            created_at=now,
            valid_until=valid_until,
            negative=negative,
            fragile=fragile,
        ), growable=negative or kind != KIND_DIRECT or fragile)

    def _put(self, key: tuple, entry: _Entry, growable: bool) -> None:
        """The one store path. A newer observation replaces whatever
        the key held even when it cannot itself be kept: an entry whose
        validity window is empty would never be served, but the answer
        it supersedes must not be served either."""
        self._drop(key)
        if entry.valid_until <= entry.created_at:
            return
        while len(self._entries) >= self.maxsize:
            evicted_key, evicted_entry = self._entries.popitem(last=False)
            self._unlink_entry(evicted_key, evicted_entry)
            self.stats.c_evictions.inc()
        self._entries[key] = entry
        for delegation_id in entry.delegation_ids:
            self._by_delegation.setdefault(delegation_id, set()).add(key)
        if growable:
            self._growable.add(key)
        self.stats.c_stores.inc()

    # -- event-driven invalidation ----------------------------------------

    def on_invalidate(self, delegation_id: str) -> int:
        """REVOKED / EXPIRED / UPDATED: kill entries using this delegation.

        O(affected) via the inverted index. Negative entries never depend
        on a delegation, so a pure revocation storm leaves them alone --
        removing an edge cannot make an unprovable relationship provable.
        """
        keys = self._by_delegation.pop(delegation_id, None)
        if not keys:
            return 0
        dropped = 0
        for key in list(keys):
            if self._drop(key):
                dropped += 1
        self.stats.c_invalidations.inc(dropped)
        return dropped

    def on_publish(self, subject_node: tuple, object_node: tuple) -> int:
        """PUBLISHED: drop growable entries the new edge could flip.

        The reachability test runs against the index *after* the new edge
        was inserted (the wallet indexes before it publishes), and a
        dirty index only over-approximates -- both err toward dropping,
        never toward keeping a stale negative.
        """
        dropped = 0
        for key in [k for k in self._growable
                    if self._affected_by_edge(k, subject_node, object_node)]:
            if self._drop(key):
                dropped += 1
        self.stats.c_publish_invalidations.inc(dropped)
        return dropped

    def clear_growable(self) -> int:
        """Conservative fallback: drop every negative/enumeration entry."""
        dropped = 0
        for key in list(self._growable):
            if self._drop(key):
                dropped += 1
        self.stats.c_publish_invalidations.inc(dropped)
        return dropped

    def clear(self) -> None:
        self._entries.clear()
        self._by_delegation.clear()
        self._growable.clear()

    def _affected_by_edge(self, key: CacheKey, u: tuple, v: tuple) -> bool:
        entry = self._entries.get(key)
        if entry is None:
            return False
        if entry.fragile:
            return True  # new edge may complete a support chain anywhere
        kind, skey, okey = key[0], key[1], key[2]
        if kind == KIND_DIRECT:
            return self._connects(skey, u) and self._connects(v, okey)
        if kind == KIND_SUBJECT:
            return self._connects(skey, u)
        return self._connects(v, okey)

    def _connects(self, a: Optional[tuple], b: Optional[tuple]) -> bool:
        """Could a chain lead from ``a`` to ``b``? Fails open."""
        if a is None or b is None:
            return True
        if a == b:
            return True
        if self.reach_index is None:
            return True
        return self.reach_index.can_reach(a, b)

    # -- internals ---------------------------------------------------------

    def _drop(self, key: tuple) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._unlink_entry(key, entry)
        return True

    def _unlink_entry(self, key: tuple, entry: _Entry) -> None:
        self._growable.discard(key)
        for delegation_id in entry.delegation_ids:
            keys = self._by_delegation.get(delegation_id)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_delegation[delegation_id]

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def info(self) -> dict:
        """The tallies by name, plus ``hit_rate`` and ``entries``."""
        data = self.stats.to_dict()
        lookups = data["hits"] + data["misses"]
        data["hit_rate"] = data["hits"] / lookups if lookups else 0.0
        data["entries"] = len(self._entries)
        return data

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({len(self._entries)}/"
                f"{self.maxsize} entries, {len(self._growable)} growable, "
                f"hit_rate={self.info()['hit_rate']:.2f})")
