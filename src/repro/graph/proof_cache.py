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
  and enumeration entries -- the *growable* ones -- and every growable
  entry is dropped. A new edge can flip a negative from anywhere: on the
  subject-object path, or far off it by completing a support chain a
  third-party delegation on the path was waiting for.

Entry taxonomy (the invalidation matrix, also in docs/PERFORMANCE.md):

====================  ====================  =============================
entry type            REVOKED/EXPIRED/UPD   PUBLISHED/UPD
====================  ====================  =============================
positive direct       via inverted index    never (monotone algebra)
negative direct       untouched (no deps)   dropped (growable)
subject/object enum   via inverted index    dropped (growable)
====================  ====================  =============================

UPDATED runs both columns: stored proofs may embed the superseded
certificate, and the renewal can bring back an edge whose lapse a
negative recorded.

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
from repro.core.proof import Proof, closure_delegations

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
    ids, earliest expiry and growability off a query result. The
    discovery result cache is the same table under another policy, and
    both apply hub events through :meth:`on_event`.

    Not thread-safe by itself; the owning wallet serializes access the
    same way it serializes graph mutation.
    """

    METRIC_PREFIX = "drbac_proof_cache"

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
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

    def store(self, key: CacheKey, value: object, now: float) -> None:
        """Memoize one query result computed at time ``now``."""
        kind = key[0]
        if kind == KIND_DIRECT:
            proofs: Tuple[Proof, ...] = () if value is None else (value,)
            negative = value is None
        else:
            proofs = tuple(value)
            negative = False  # enumerations are growable, not negative
        # A closure is a tree: a member grown from an earlier member
        # adds one link (and its supports) to what that member depends on.
        delegation_ids = set()
        valid_until = math.inf
        for delegation in closure_delegations(proofs):
            delegation_ids.add(delegation.id)
            if delegation.expiry is not None \
                    and delegation.expiry < valid_until:
                valid_until = delegation.expiry
        self._put(key, _Entry(
            value=value,
            delegation_ids=frozenset(delegation_ids),
            created_at=now,
            valid_until=valid_until,
            negative=negative,
        ), growable=negative or kind != KIND_DIRECT)

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

    def on_event(self, kind_grows: bool, delegation_id: str,
                 invalidates: bool = True) -> int:
        """Apply one hub event.

        ``kind_grows`` is ``EventKind.grows_graph`` (PUBLISHED/UPDATED
        add paths -> drop every growable entry); ``invalidates`` runs the
        inverted-index arm, which kills positives depending on the
        delegation (REVOKED/EXPIRED, and UPDATED because the answer may
        embed the superseded certificate). A pure PUBLISHED passes
        ``invalidates=False``: a newly inserted copy cannot make an
        answer containing it stale.
        """
        dropped = self.on_invalidate(delegation_id) if invalidates else 0
        if kind_grows:
            dropped += self.clear_growable()
        return dropped

    def clear_growable(self) -> int:
        """PUBLISHED: drop every growable (negative/enumeration) entry."""
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
