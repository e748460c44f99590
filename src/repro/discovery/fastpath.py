"""The discovery result cache and its switch.

A :class:`DiscoveryCache` memoizes what remote homes answered: the
engine fills it with each ``(home, goal)`` closure it absorbs and reads
it before sending a goal, so a search re-contacts only the homes whose
answers it no longer holds (see docs/PERFORMANCE.md, "Distributed
discovery").

This module owns the *switch* (mirroring ``repro.crypto.verify_cache``):
:func:`enabled` / :func:`scoped` / :func:`set_enabled` /
:func:`disabled`, the CLI's ``--no-discovery-cache`` and the
``DRBAC_NO_DISCOVERY_CACHE`` environment variable. Off means only that
the engine neither consults nor fills the cache -- the search, its wire
protocol and the proofs it finds are the same either way (asserted by
``tests/discovery/test_byte_identity.py``).

Unlike ``graph/proof_cache.py`` -- whose entries mirror the local
graph -- these entries mirror a *remote* wallet's answers, so every
entry is TTL-bounded by the discovery-tag lease (Section 4.2.1: trust
cached information for the tag's TTL, then reconfirm). Within that
window the invalidation matrix is the proof-cache's, fed by the same
:class:`SubscriptionHub` events:

====================  =====================  ========================
entry type            REVOKED/EXPIRED/UPD    PUBLISHED
====================  =====================  ========================
positive (any kind)   via inverted index     never (monotone algebra)
negative / error      untouched (no deps)    dropped (growable)
====================  =====================  ========================

EXPIRED events include the coherent cache's ``ttl-lapsed`` sweeps, so a
positive entry never outlives the local copies of its delegations.
Negative entries also cover *unreachable* homes (a partitioned link
raises ``NetworkError``): the miss is cached for ``negative_ttl``
seconds and heals by lapse, never by a stale positive.
"""

import os
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro import obs

# A cache key: (home, kind, skey, okey, constraints_key, bases_key).
DiscoveryKey = Tuple[str, str, Optional[tuple], Optional[tuple],
                     tuple, tuple]

DEFAULT_MAXSIZE = 2048


# ---------------------------------------------------------------------------
# Global toggle (the shape of crypto/verify_cache's switch)
# ---------------------------------------------------------------------------

_ENABLED = not os.environ.get("DRBAC_NO_DISCOVERY_CACHE")

# Per-context override (None = defer to the global switch).  The
# sharded service layer scopes the switch per shard so tenants can
# not flip each other's; see :func:`scoped`.
_SCOPED: "ContextVar[Optional[bool]]" = ContextVar(
    "drbac_discovery_fastpath", default=None)


def enabled() -> bool:
    """Is the discovery result cache enabled in this context?"""
    override = _SCOPED.get()
    return _ENABLED if override is None else override


@contextmanager
def scoped(value: bool = True):
    """Pin the switch for this context, ignoring the global.

    Rides ``contextvars`` like ``obs.scoped()`` and
    ``verify_cache.scoped()``; the global :func:`set_enabled` /
    :func:`disabled` knobs keep working outside (and underneath) any
    scope.
    """
    token = _SCOPED.set(bool(value))
    try:
        yield
    finally:
        _SCOPED.reset(token)


def set_enabled(value: bool) -> None:
    """Globally enable/disable the result cache (CLI
    ``--no-discovery-cache``)."""
    global _ENABLED
    _ENABLED = bool(value)


@contextmanager
def disabled():
    """Temporarily run with the result cache off (tests, baselines)."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = False
    try:
        yield
    finally:
        _ENABLED = previous


# ---------------------------------------------------------------------------
# Per-home result cache
# ---------------------------------------------------------------------------


class DiscoveryCacheStats:
    """Hit/miss/invalidation accounting, surfaced by ``cache_info()``.

    Registry-backed (``drbac_discovery_cache_*_total{instance=...}``)
    with the same readable attributes as the old dataclass; the ``c_*``
    counters are what the cache increments (see
    ``graph.proof_cache.ProofCacheStats`` for the pattern).
    """

    __slots__ = ("c_hits", "c_negative_hits", "c_misses", "c_stores",
                 "c_invalidations", "c_publish_invalidations",
                 "c_expirations", "c_evictions")

    def __init__(self) -> None:
        instance = obs.next_instance()
        reg = obs.registry()
        self.c_hits = reg.counter(
            "drbac_discovery_cache_hits_total", instance=instance)
        self.c_negative_hits = reg.counter(
            "drbac_discovery_cache_negative_hits_total", instance=instance)
        self.c_misses = reg.counter(
            "drbac_discovery_cache_misses_total", instance=instance)
        self.c_stores = reg.counter(
            "drbac_discovery_cache_stores_total", instance=instance)
        self.c_invalidations = reg.counter(
            "drbac_discovery_cache_invalidations_total", instance=instance)
        self.c_publish_invalidations = reg.counter(
            "drbac_discovery_cache_publish_invalidations_total",
            instance=instance)
        self.c_expirations = reg.counter(
            "drbac_discovery_cache_expirations_total", instance=instance)
        self.c_evictions = reg.counter(
            "drbac_discovery_cache_evictions_total", instance=instance)

    @property
    def hits(self) -> int:
        return self.c_hits.value

    @property
    def negative_hits(self) -> int:
        return self.c_negative_hits.value

    @property
    def misses(self) -> int:
        return self.c_misses.value

    @property
    def stores(self) -> int:
        return self.c_stores.value

    @property
    def invalidations(self) -> int:
        return self.c_invalidations.value

    @property
    def publish_invalidations(self) -> int:
        return self.c_publish_invalidations.value

    @property
    def expirations(self) -> int:
        return self.c_expirations.value

    @property
    def evictions(self) -> int:
        return self.c_evictions.value

    def to_dict(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "negative_hits": self.negative_hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalidations": self.invalidations,
            "publish_invalidations": self.publish_invalidations,
            "expirations": self.expirations,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
        }


@dataclass
class _Entry:
    value: object                  # Proof | None | Tuple[Proof, ...]
    delegation_ids: frozenset
    created_at: float
    valid_until: float
    negative: bool


def make_discovery_key(home: str, kind: str,
                       skey: Optional[tuple], okey: Optional[tuple],
                       constraints_key: tuple, bases_key: tuple
                       ) -> DiscoveryKey:
    return (home, kind, skey, okey, constraints_key, bases_key)


class DiscoveryCache:
    """TTL-bounded, event-invalidated memo of remote query results.

    Owned by one :class:`~repro.discovery.engine.DiscoveryEngine`; the
    engine wires :meth:`on_event` into the local wallet's subscription
    hub (wildcard channel) so coherence rides the Section 4.2.2 event
    stream, exactly like ``graph/proof_cache.py``.
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.stats = DiscoveryCacheStats()
        self._entries: "OrderedDict[DiscoveryKey, _Entry]" = OrderedDict()
        self._by_delegation: Dict[str, Set[DiscoveryKey]] = {}
        self._negatives: Set[DiscoveryKey] = set()

    # -- lookup / store ----------------------------------------------------

    def lookup(self, key: DiscoveryKey, now: float
               ) -> Tuple[bool, object]:
        """Return ``(hit, value)``; a miss returns ``(False, None)``."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.c_misses.inc()
            return False, None
        if now < entry.created_at or now >= entry.valid_until:
            self._drop(key)
            self.stats.c_expirations.inc()
            self.stats.c_misses.inc()
            return False, None
        self._entries.move_to_end(key)
        self.stats.c_hits.inc()
        if entry.negative:
            self.stats.c_negative_hits.inc()
        return True, entry.value

    def store(self, key: DiscoveryKey, value: object, now: float,
              ttl: float, delegation_ids=()) -> None:
        """Memoize one remote result observed at ``now`` for ``ttl``
        seconds (the discovery-tag lease for positives, the negative
        TTL for empty answers and unreachable homes)."""
        if ttl <= 0:
            return
        if key in self._entries:
            self._drop(key)
        ids = frozenset(delegation_ids)
        negative = not ids
        while len(self._entries) >= self.maxsize:
            evicted_key, evicted = self._entries.popitem(last=False)
            self._unlink(evicted_key, evicted)
            self.stats.c_evictions.inc()
        self._entries[key] = _Entry(
            value=value, delegation_ids=ids, created_at=now,
            valid_until=now + ttl, negative=negative,
        )
        for delegation_id in ids:
            self._by_delegation.setdefault(delegation_id, set()).add(key)
        if negative:
            self._negatives.add(key)
        self.stats.c_stores.inc()

    # -- event-driven invalidation ----------------------------------------

    def on_event(self, kind_grows: bool, delegation_id: str,
                 invalidates: bool = True) -> int:
        """Apply one hub event.

        ``kind_grows`` is ``EventKind.grows_graph`` (PUBLISHED/UPDATED
        add paths -> drop negatives); ``invalidates`` runs the
        inverted-index arm, which kills positives depending on the
        delegation (REVOKED/EXPIRED, and UPDATED because the answer may
        embed the superseded certificate). A pure PUBLISHED must pass
        ``invalidates=False``: a newly inserted copy cannot make a
        remote answer containing it stale.
        """
        dropped = 0
        if invalidates:
            keys = self._by_delegation.pop(delegation_id, None)
            if keys:
                for key in list(keys):
                    if self._drop(key):
                        dropped += 1
                self.stats.c_invalidations.inc(dropped)
        if kind_grows:
            grown = 0
            for key in list(self._negatives):
                if self._drop(key):
                    grown += 1
            self.stats.c_publish_invalidations.inc(grown)
            dropped += grown
        return dropped

    def clear(self) -> None:
        self._entries.clear()
        self._by_delegation.clear()
        self._negatives.clear()

    # -- internals ---------------------------------------------------------

    def _drop(self, key: DiscoveryKey) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._unlink(key, entry)
        return True

    def _unlink(self, key: DiscoveryKey, entry: _Entry) -> None:
        self._negatives.discard(key)
        for delegation_id in entry.delegation_ids:
            keys = self._by_delegation.get(delegation_id)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_delegation[delegation_id]

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: DiscoveryKey) -> bool:
        return key in self._entries

    def info(self) -> dict:
        data = self.stats.to_dict()
        data["entries"] = len(self._entries)
        data["maxsize"] = self.maxsize
        return data
