"""The discovery result cache.

A :class:`DiscoveryCache` memoizes what remote homes answered: the
engine fills it with each ``(home, goal)`` closure it absorbs and reads
it before sending a goal, so a search re-contacts only the homes whose
answers it no longer holds (see docs/PERFORMANCE.md, "Distributed
discovery").

It is ``graph/proof_cache.py``'s entry table, with the same
invalidation matrix and the same publish rule (every growable entry
goes); the two differ only in leases. That cache's entries mirror the
local graph and live until an event; these mirror a *remote* wallet's
answers, so every entry is leased: it lapses with the discovery tag's
TTL (Section 4.2.1: trust cached information for the tag's TTL, then
reconfirm). Within that window coherence rides the same
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

The cache has no off switch. A coherence test gets its reference arm
by clearing the engine's cache before each reference search: one
search never re-issues a goal, so it cannot hit its own fills, and
the search, its wire protocol and the proofs it finds are those of a
cache that was never there (``tests/discovery/test_fastpath.py::
TestCoherence``, ``tests/discovery/test_gem.py::TestCoherence``).
"""

from typing import Optional, Tuple

from repro.graph.proof_cache import ProofCache, _Entry

# A cache key: (home, kind, skey, okey, constraints_key, bases_key).
DiscoveryKey = Tuple[str, str, Optional[tuple], Optional[tuple],
                     tuple, tuple]

DEFAULT_MAXSIZE = 2048

def make_discovery_key(home: str, kind: str,
                       skey: Optional[tuple], okey: Optional[tuple],
                       constraints_key: tuple, bases_key: tuple
                       ) -> DiscoveryKey:
    return (home, kind, skey, okey, constraints_key, bases_key)


class DiscoveryCache(ProofCache):
    """Leased, event-invalidated memo of remote query results.

    Owned by one :class:`~repro.discovery.engine.DiscoveryEngine`; the
    engine wires :meth:`on_event` into the local wallet's subscription
    hub (wildcard channel) so coherence rides the Section 4.2.2 event
    stream, exactly like the wallet's proof cache.
    """

    METRIC_PREFIX = "drbac_discovery_cache"

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        super().__init__(maxsize)

    def store(self, key: DiscoveryKey, value: object, now: float,
              ttl: float, delegation_ids=()) -> None:
        """Memoize one remote result observed at ``now`` for ``ttl``
        seconds (the discovery-tag lease for positives, the negative
        TTL for empty answers and unreachable homes). An answer with no
        delegation ids is a negative, and every negative is growable."""
        ids = frozenset(delegation_ids)
        self._put(key, _Entry(
            value=value, delegation_ids=ids, created_at=now,
            valid_until=now + ttl, negative=not ids,
        ), growable=not ids)

    def info(self) -> dict:
        data = super().info()
        data["maxsize"] = self.maxsize
        return data
