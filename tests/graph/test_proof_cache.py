"""Unit tests for the event-invalidated decision cache."""

import math

import pytest

from repro.core import AttributeRef, Constraint, Proof, Role, issue
from repro.graph.proof_cache import (
    KIND_DIRECT,
    KIND_OBJECT,
    KIND_SUBJECT,
    ProofCache,
    make_key,
)


def node(name):
    return ("entity", name)


@pytest.fixture()
def chain(org, alice):
    """A two-link proof Alice => mid => top."""
    mid = Role(org.entity, "mid")
    top = Role(org.entity, "top")
    d1 = issue(org, alice.entity, mid)
    d2 = issue(org, mid, top)
    return d1, d2, Proof.single(d1).extend(d2)


class TestKeying:
    def test_constraint_order_is_canonical(self, org):
        a = Constraint(AttributeRef(org.entity, "bw"), 10)
        b = Constraint(AttributeRef(org.entity, "storage"), 5)
        k1 = make_key(KIND_DIRECT, node("s"), node("o"), (a, b), None)
        k2 = make_key(KIND_DIRECT, node("s"), node("o"), (b, a), None)
        assert k1 == k2

    def test_bases_order_is_canonical(self, org):
        bw = AttributeRef(org.entity, "bw")
        st = AttributeRef(org.entity, "storage")
        k1 = make_key(KIND_DIRECT, node("s"), node("o"), (),
                      {bw: 1.0, st: 2.0})
        k2 = make_key(KIND_DIRECT, node("s"), node("o"), (),
                      {st: 2.0, bw: 1.0})
        assert k1 == k2

    def test_kinds_do_not_collide(self):
        assert make_key(KIND_SUBJECT, node("x"), None) != \
            make_key(KIND_OBJECT, None, node("x"))


class TestLookupStore:
    def test_positive_roundtrip(self, chain):
        _d1, _d2, proof = chain
        cache = ProofCache()
        key = make_key(KIND_DIRECT, node("s"), node("o"))
        cache.store(key, proof, now=1.0)
        hit, value = cache.lookup(key, now=2.0)
        assert hit and value is proof
        assert cache.stats.hits == 1 and cache.stats.misses == 0

    def test_negative_roundtrip(self):
        cache = ProofCache()
        key = make_key(KIND_DIRECT, node("s"), node("o"))
        cache.store(key, None, now=1.0)
        hit, value = cache.lookup(key, now=2.0)
        assert hit and value is None
        assert cache.stats.negative_hits == 1

    def test_miss_on_unknown_key(self):
        cache = ProofCache()
        hit, value = cache.lookup(
            make_key(KIND_DIRECT, node("s"), node("o")), now=0.0)
        assert not hit and value is None
        assert cache.stats.misses == 1

    def test_not_served_before_creation_time(self):
        # A negative observed at t=5 says nothing about t=3, when more
        # edges may have been alive.
        cache = ProofCache()
        key = make_key(KIND_DIRECT, node("s"), node("o"))
        cache.store(key, None, now=5.0)
        hit, _ = cache.lookup(key, now=3.0)
        assert not hit

    def test_positive_expires_at_earliest_link_expiry(self, org, alice):
        mid = Role(org.entity, "mid")
        top = Role(org.entity, "top")
        d1 = issue(org, alice.entity, mid, expiry=50.0)
        d2 = issue(org, mid, top, expiry=90.0)
        proof = Proof.single(d1).extend(d2)
        cache = ProofCache()
        key = make_key(KIND_DIRECT, node("s"), node("o"))
        cache.store(key, proof, now=1.0)
        assert cache.lookup(key, now=49.0)[0]
        hit, _ = cache.lookup(key, now=50.0)
        assert not hit  # weakest certificate lapsed
        assert key not in cache  # entry dropped, not just skipped

    def test_negative_never_time_expires(self):
        cache = ProofCache()
        key = make_key(KIND_DIRECT, node("s"), node("o"))
        cache.store(key, None, now=0.0)
        assert cache.lookup(key, now=1e12)[0]

    def test_lru_eviction_prefers_stale_entries(self, chain):
        _d1, _d2, proof = chain
        cache = ProofCache(maxsize=2)
        k1 = make_key(KIND_DIRECT, node("a"), node("x"))
        k2 = make_key(KIND_DIRECT, node("b"), node("x"))
        k3 = make_key(KIND_DIRECT, node("c"), node("x"))
        cache.store(k1, proof, now=0.0)
        cache.store(k2, None, now=0.0)
        cache.lookup(k1, now=1.0)          # refresh k1
        cache.store(k3, None, now=1.0)     # evicts k2, the LRU entry
        assert k1 in cache and k3 in cache and k2 not in cache
        assert cache.stats.evictions == 1
        # The evicted entry left no trace in the inverted indexes.
        assert cache.on_invalidate("nonexistent") == 0


class TestEventInvalidation:
    def test_invalidate_by_delegation_id(self, chain):
        d1, d2, proof = chain
        cache = ProofCache()
        key = make_key(KIND_DIRECT, node("s"), node("o"))
        cache.store(key, proof, now=0.0)
        assert cache.on_invalidate(d2.id) == 1
        assert key not in cache
        assert cache.stats.invalidations == 1

    def test_invalidate_is_o_affected(self, chain):
        d1, _d2, proof = chain
        cache = ProofCache()
        hot = make_key(KIND_DIRECT, node("s"), node("o"))
        cold = make_key(KIND_DIRECT, node("p"), node("q"))
        cache.store(hot, proof, now=0.0)
        cache.store(cold, None, now=0.0)
        cache.on_invalidate(d1.id)
        assert hot not in cache
        assert cold in cache  # untouched: no dependency on d1

    def test_revocation_leaves_negatives_alone(self, chain):
        d1, _d2, _proof = chain
        cache = ProofCache()
        key = make_key(KIND_DIRECT, node("s"), node("o"))
        cache.store(key, None, now=0.0)
        assert cache.on_invalidate(d1.id) == 0
        assert key in cache  # removing an edge cannot flip a negative


class TestPublishInvalidation:
    """PUBLISHED drops every growable entry -- negatives and
    enumerations -- and never a positive (the one publish rule both
    cache tables share)."""

    def test_connected_negative_dropped(self):
        cache = ProofCache()
        key = make_key(KIND_DIRECT, node("s"), node("o"))
        cache.store(key, None, now=0.0)
        assert cache.clear_growable() == 1
        assert key not in cache
        assert cache.stats.publish_invalidations == 1

    def test_publish_never_touches_positives(self, chain):
        cache = ProofCache()
        _d1, _d2, proof = chain
        key = make_key(KIND_DIRECT, node("s"), node("o"))
        cache.store(key, proof, now=0.0)
        assert cache.clear_growable() == 0
        assert key in cache  # monotone algebra: new edges never revoke

    def test_object_enumeration_dropped_on_object_side(self, chain):
        _d1, _d2, proof = chain
        cache = ProofCache()
        key = make_key(KIND_OBJECT, None, node("o"))
        cache.store(key, (proof,), now=0.0)
        # An enumeration is growable even when it holds proofs: a new
        # edge can add one.
        assert cache.clear_growable() == 1
        assert key not in cache

    def test_fragile_entry_dropped_on_any_publish(self):
        # A negative computed while a support chain was missing can be
        # flipped by a publish far off its subject-object path; every
        # negative goes, so no entry needs to say why it was negative.
        cache = ProofCache()
        keys = [make_key(KIND_DIRECT, node("s"), node("o")),
                make_key(KIND_SUBJECT, node("p"), None)]
        for key in keys:
            cache.store(key, None if key[0] == KIND_DIRECT else (),
                        now=0.0)
        assert cache.clear_growable() == 2
        assert not any(key in cache for key in keys)

    def test_no_index_fails_open(self):
        cache = ProofCache()  # no reachability information at all
        key = make_key(KIND_DIRECT, node("s"), node("o"))
        cache.store(key, None, now=0.0)
        assert cache.clear_growable() == 1

    def test_clear_growable(self, chain):
        cache = ProofCache()
        _d1, _d2, proof = chain
        pos = make_key(KIND_DIRECT, node("s"), node("o"))
        neg = make_key(KIND_DIRECT, node("a"), node("b"))
        cache.store(pos, proof, now=0.0)
        cache.store(neg, None, now=0.0)
        assert cache.clear_growable() == 1
        assert pos in cache and neg not in cache
