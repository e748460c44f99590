"""The one event-invalidated entry table, model-checked under both of
its policies.

``graph.proof_cache.ProofCache`` is the table (LRU order, validity
window, delegation-id inverted index, growable set, eviction, tallies)
plus the wallet's policy; ``discovery.result_cache.DiscoveryCache`` is
the same table under the lease policy. The machine below drives random
interleavings of store (positive / negative / zero-lease) / lookup /
``on_invalidate`` / hub event (``on_event``: the one publish rule drops
every growable entry) / clock advance / fill past
``maxsize`` against a dict-and-list model that lives in this file, once
per policy. After every step the cache and the model must hold the
same keys, and the table's own indexes must be whole -- which is what
no example-based test covers: index integrity after eviction and
re-store, and "a newer observation replaces an older one even when it
is not itself cacheable" (``store(k, ..., ttl=0)`` over a live entry).
"""

import math
from collections import namedtuple

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.discovery.result_cache import DiscoveryCache, make_discovery_key
from repro.graph.proof_cache import (
    KIND_DIRECT,
    KIND_SUBJECT,
    ProofCache,
    make_key,
)

from ..obs.test_contracts import CACHE_INFO_KEYS, DISCOVERY_CACHE_KEYS

MAXSIZE = 3
SLOTS = 5                       # > MAXSIZE, so stores evict
IDS = ("d0", "d1", "d2")
LEASES = (0.0, 2.0, 30.0)


def node(i):
    return ("entity", f"n{i}")


_Link = namedtuple("_Link", "id expiry")


class _Proof:
    """All that ``ProofCache.store`` reads off a proof: a closure
    member grown from none of the others."""

    parent = None

    def __init__(self, ids, expiry):
        self.links = [_Link(i, expiry) for i in ids]

    def all_delegations(self):
        return self.links


class _Model:
    """What the table must do, with none of its indexes."""

    def __init__(self):
        self.entries = {}       # key -> dict(value, ids, at, until, ...)
        self.order = []         # least recently used first

    def drop(self, key):
        if self.entries.pop(key, None) is not None:
            self.order.remove(key)

    def drop_where(self, doomed):
        for key in [k for k, e in self.entries.items() if doomed(k, e)]:
            self.drop(key)

    def store(self, key, **entry):
        self.drop(key)
        if entry["until"] <= entry["at"]:
            return
        while len(self.order) >= MAXSIZE:
            self.drop(self.order[0])
        self.entries[key] = entry
        self.order.append(key)

    def lookup(self, key, now):
        entry = self.entries.get(key)
        if entry is None or not entry["at"] <= now < entry["until"]:
            self.drop(key)
            return False, None
        self.order.remove(key)
        self.order.append(key)
        return True, entry["value"]


class _WalletPolicy:
    """``ProofCache``: ids and expiry come off the proofs, a direct
    ``None`` is the negative, enumerations are growable."""

    contract = CACHE_INFO_KEYS

    @staticmethod
    def make():
        return ProofCache(maxsize=MAXSIZE)

    @staticmethod
    def key(slot):
        if slot == SLOTS - 1:
            return make_key(KIND_SUBJECT, node(slot), None)
        return make_key(KIND_DIRECT, node(slot), node(slot + 1))

    @staticmethod
    def store(cache, key, ids, now, lease):
        proof = _Proof(ids, now + lease) if ids else None
        if key[0] == KIND_DIRECT:
            value = proof
        else:
            value = (proof,) if proof else ()
        cache.store(key, value, now)
        return dict(value=value, ids=ids, at=now,
                    until=now + lease if ids else math.inf,
                    growable=not ids or key[0] != KIND_DIRECT)


class _LeasePolicy:
    """``DiscoveryCache``: ids and lease are given, no ids is the
    negative, only negatives are growable."""

    contract = DISCOVERY_CACHE_KEYS

    @staticmethod
    def make():
        return DiscoveryCache(maxsize=MAXSIZE)

    @staticmethod
    def key(slot):
        return make_discovery_key("w.home", "subject", node(slot), None,
                                  (), ())

    @staticmethod
    def store(cache, key, ids, now, lease):
        value = tuple(f"closure-of-{i}" for i in ids)
        cache.store(key, value, now, lease, delegation_ids=ids)
        return dict(value=value, ids=ids, at=now, until=now + lease,
                    growable=not ids)


class CacheTableMachine(RuleBasedStateMachine):
    policy = None               # set by the two subclasses below

    @initialize()
    def build(self):
        self.cache = self.policy.make()
        self.model = _Model()
        self.now = 0.0
        self.lookups = 0

    def _store(self, slot, ids, lease):
        key = self.policy.key(slot)
        self.model.store(key, **self.policy.store(
            self.cache, key, ids, self.now, lease))

    @rule(slot=st.integers(0, SLOTS - 1),
          ids=st.lists(st.sampled_from(IDS), min_size=1, unique=True),
          lease=st.sampled_from(LEASES))
    def store_positive(self, slot, ids, lease):
        self._store(slot, tuple(ids), lease)

    @rule(slot=st.integers(0, SLOTS - 1), lease=st.sampled_from(LEASES))
    def store_negative(self, slot, lease):
        self._store(slot, (), lease)

    @rule()
    def fill_past_maxsize(self):
        for slot in range(SLOTS):
            self._store(slot, (IDS[slot % len(IDS)],), 30.0)

    @rule(slot=st.integers(0, SLOTS - 1))
    def lookup(self, slot):
        key = self.policy.key(slot)
        self.lookups += 1
        assert self.cache.lookup(key, self.now) \
            == self.model.lookup(key, self.now)

    @rule(delegation_id=st.sampled_from(IDS))
    def invalidate(self, delegation_id):
        self.cache.on_invalidate(delegation_id)
        self.model.drop_where(lambda _k, e: delegation_id in e["ids"])

    @rule(delegation_id=st.sampled_from(IDS), grows=st.booleans(),
          invalidates=st.booleans())
    def hub_event(self, delegation_id, grows, invalidates):
        """One hub event, under either policy: a growing one (PUBLISHED,
        UPDATED) drops every growable entry, an invalidating one the
        entries that depend on the delegation."""
        self.cache.on_event(grows, delegation_id, invalidates=invalidates)
        self.model.drop_where(
            lambda _k, e: (invalidates and delegation_id in e["ids"])
            or (grows and e["growable"]))

    @rule(seconds=st.sampled_from((0.5, 2.0, 40.0)))
    def advance_clock(self, seconds):
        self.now += seconds

    @invariant()
    def cache_and_model_hold_the_same(self):
        cache = self.cache
        assert list(cache._entries) == self.model.order
        assert len(cache) <= MAXSIZE

    @invariant()
    def indexes_are_whole(self):
        cache = self.cache
        assert cache._growable == {
            k for k, e in self.model.entries.items() if e["growable"]}
        indexed = {(delegation_id, key)
                   for delegation_id, keys in cache._by_delegation.items()
                   for key in keys}
        assert indexed == {(delegation_id, key)
                           for key, e in self.model.entries.items()
                           for delegation_id in e["ids"]}
        assert all(cache._by_delegation.values())   # no empty sets kept

    @invariant()
    def tallies_add_up(self):
        info = self.cache.info()
        assert set(info) == set(self.policy.contract)
        assert info["hits"] + info["misses"] == self.lookups
        assert info["entries"] == len(self.model.order)


class ProofCacheMachine(CacheTableMachine):
    policy = _WalletPolicy


class DiscoveryCacheMachine(CacheTableMachine):
    policy = _LeasePolicy


TestProofCacheTable = ProofCacheMachine.TestCase
TestDiscoveryCacheTable = DiscoveryCacheMachine.TestCase
