"""The discovery result cache: coherence (the cache may change what
crosses the wire, never the answer), what a repeat search is served
from, and how entries lapse and are invalidated.

The load-bearing invariant: discovered proofs are byte-identical
whether the cache holds earlier answers or was emptied first -- and
identical to what the seed frontier walk (``seed_oracle``) finds.
"""

import pytest

from repro.core import (
    AttributeRef,
    Constraint,
    DiscoveryTag,
    ObjectFlag,
    Role,
    SubjectFlag,
    issue,
)
from repro.crypto.encoding import canonical_encode
from repro.discovery.engine import DiscoveryEngine, DiscoveryStats
from repro.discovery.result_cache import DiscoveryCache, make_discovery_key
from repro.discovery.resolver import WalletServer
from repro.net.transport import Network
from repro.wallet.wallet import Wallet
from repro.workloads.scenarios import (
    EXPECTED_BW,
    build_distributed_case_study,
)

from .seed_oracle import seed_discover


def _proof_bytes(proof):
    return canonical_encode(proof.to_dict())


def _arm(engine, cache_on):
    """The default arm, or the reference arm: the result cache emptied
    first, so the search asks every home it needs (one search never
    re-issues a goal, so it cannot hit its own fills)."""
    if not cache_on:
        engine.result_cache.clear()


def _run_walkthrough(cache_on, seed=11):
    d = build_distributed_case_study(seed=seed)
    _arm(d.engine, cache_on)
    proof = d.run_steps_1_to_5()
    assert proof is not None
    return d, proof


class TestCoherence:
    def test_proofs_byte_identical_fast_on_vs_off(self):
        """Same seed, result cache kept and emptied, and the seed walk:
        the discovered proof encodes to the exact same bytes."""
        _d_on, on_proof = _run_walkthrough(True)
        _d_off, off_proof = _run_walkthrough(False)
        d = build_distributed_case_study(seed=11)
        d.server.wallet.publish(d.case.d1_maria_member)
        oracle_proof = seed_discover(d.server, d.case.maria.entity,
                                     d.case.airnet_access)
        assert _proof_bytes(on_proof) == _proof_bytes(off_proof) \
            == _proof_bytes(oracle_proof)

    def test_grants_identical(self):
        d_on, on_proof = _run_walkthrough(True)
        d_off, off_proof = _run_walkthrough(False)
        on_grants = on_proof.grants(d_on.case.base_allocations())
        off_grants = off_proof.grants(d_off.case.base_allocations())
        assert on_grants[d_on.case.bw] == EXPECTED_BW
        assert {a.name: v for a, v in on_grants.items()} == \
            {a.name: v for a, v in off_grants.items()}

    def test_same_wallet_contents_absorbed(self):
        d_on, _p1 = _run_walkthrough(True)
        d_off, _p2 = _run_walkthrough(False)
        on_ids = {d.id for d in d_on.server.wallet.store.delegations()}
        off_ids = {d.id for d in d_off.server.wallet.store.delegations()}
        assert on_ids == off_ids

    def test_fast_path_uses_fewer_messages_and_bytes(self):
        """What the cache buys: a second search (another target, same
        homes) re-contacts nobody with it kept, everybody with it
        emptied."""
        traffic = {}
        for cache_on in (True, False):
            d, _proof = _run_walkthrough(cache_on)
            ghost = Role(d.case.air_net.entity, "ghost")
            d.network.reset_counters()
            _arm(d.engine, cache_on)
            assert d.engine.discover(d.case.maria.entity, ghost) is None
            traffic[cache_on] = d.network.totals
        assert traffic[True].messages < traffic[False].messages
        assert traffic[True].bytes < traffic[False].bytes


@pytest.fixture()
def two_home(org, alice, clock):
    """The two_hop topology from test_engine.py, plus a tag sending
    r3's continuation back to w.mid, which stores nothing from it:
    [alice -> r1] local, [r1 -> r2] at w.mid, [r2 -> r3] at w.far."""
    network = Network(clock=clock)
    local = Wallet(owner=org, address="w.local", clock=clock)
    mid = Wallet(owner=org, address="w.mid", clock=clock)
    far = Wallet(owner=org, address="w.far", clock=clock)
    r1, r2, r3 = (Role(org.entity, n) for n in ("r1", "r2", "r3"))

    def tag(home):
        return DiscoveryTag(home=home, ttl=30.0,
                            subject_flag=SubjectFlag.SEARCH,
                            object_flag=ObjectFlag.NONE)

    local.publish(issue(org, alice.entity, r1, object_tag=tag("w.mid")))
    mid.publish(issue(org, r1, r2, subject_tag=tag("w.mid"),
                      object_tag=tag("w.far")))
    far.publish(issue(org, r2, r3, subject_tag=tag("w.far"),
                      object_tag=tag("w.mid")))
    server = WalletServer(network, local, principal=org)
    WalletServer(network, mid, principal=org)
    WalletServer(network, far, principal=org)
    engine = DiscoveryEngine(server)
    return engine, server, network, (r1, r2, r3)


class TestResultCache:
    def test_negative_result_cached(self, two_home, alice, org):
        engine, _server, network, _roles = two_home
        ghost = Role(org.entity, "ghost")
        assert engine.discover(alice.entity, ghost) is None
        first = network.totals.messages
        assert first > 0
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, ghost, stats=stats) is None
        # The repeat is served entirely from the result cache: the
        # closures w.mid and w.far shipped hit their positive entries,
        # w.mid's empty answer about r3 its negative one.
        assert network.totals.messages == first
        assert stats.wire_messages == 0
        assert stats.cache_hits > 0
        assert stats.cache_negative_hits > 0
        assert stats.rounds == 0

    def test_negative_ignores_constraint_order(self, two_home, alice,
                                                org):
        """A constraint set is a set: a denied constrained search,
        repeated with its constraints listed the other way round, is
        served from the same entries and sends no new ``gem_eval``."""
        engine, _server, network, _roles = two_home
        ghost = Role(org.entity, "ghost")
        constraints = [Constraint(AttributeRef(org.entity, "bw"), 10.0),
                       Constraint(AttributeRef(org.entity, "storage"), 5.0)]
        assert engine.discover(alice.entity, ghost, constraints) is None
        evals = network.by_topic["notify:gem_eval"].messages
        assert evals > 0
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, ghost, constraints[::-1],
                               stats=stats) is None
        assert network.by_topic["notify:gem_eval"].messages == evals
        assert stats.cache_negative_hits > 0

    def test_positive_enum_reused_across_targets(self, two_home, alice,
                                                 org):
        engine, _server, _network, _roles = two_home
        assert engine.discover(alice.entity,
                               Role(org.entity, "ghostA")) is None
        stats = DiscoveryStats()
        assert engine.discover(alice.entity,
                               Role(org.entity, "ghostB"),
                               stats=stats) is None
        # A home's closure is target-independent: the search for
        # another target asks no home again.
        assert stats.cache_hits > 0
        assert stats.remote_subject_queries == 0
        assert stats.wire_messages == 0

    def test_negative_ttl_lapse_retries(self, two_home, alice, org,
                                        clock):
        engine, _server, network, _roles = two_home
        ghost = Role(org.entity, "ghost")
        assert engine.discover(alice.entity, ghost) is None
        clock.advance(engine.negative_ttl + 1.0)
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, ghost, stats=stats) is None
        # Only the empty answer lapsed; the positive closures stand.
        assert stats.remote_subject_queries == 1
        assert stats.cache_hits == 2
        assert network.by_topic["notify:gem_eval"].messages == 3 + 1

    def test_publish_event_drops_negatives(self, two_home, alice, bob,
                                           org):
        engine, server, _network, _roles = two_home
        ghost = Role(org.entity, "ghost")
        assert engine.discover(alice.entity, ghost) is None
        assert len(engine.result_cache._growable) > 0
        # A publication grows the graph: negative answers may now be
        # stale, so all of them are dropped (positives survive).
        positives = len(engine.result_cache) \
            - len(engine.result_cache._growable)
        server.wallet.publish(issue(org, bob.entity,
                                    Role(org.entity, "other")))
        assert len(engine.result_cache._growable) == 0
        assert len(engine.result_cache) == positives


class TestCoalescingAndSessions:
    def test_chain_found_one_exchange_per_home(self, two_home, alice):
        engine, server, network, roles = two_home
        stats = DiscoveryStats()
        proof = engine.discover(alice.entity, roles[2], stats=stats)
        assert proof is not None
        server.wallet.validate(proof)
        assert stats.wallets_contacted == {"w.mid", "w.far"}
        assert stats.rounds == 2              # one goal per home
        # One notify out and one answer push back per home: no
        # per-probe RPCs, no subscribe round trips, no handshakes.
        assert {topic: t.messages
                for topic, t in network.by_topic.items()} == {
            "notify:gem_eval": 2, "notify:gem_answers": 2}
        assert stats.subscriptions_established == 2
        assert server.switchboard.handshakes_completed == 0

    def test_sessions_reused_across_queries(self, two_home):
        """Discovery opens no sessions; a wallet host's switchboard
        still authenticates once per peer and reuses the channel."""
        _engine, server, _network, _roles = two_home
        board = server.switchboard
        first = board.session_to("w.mid")
        assert (board.handshakes_completed, board.sessions_reused) \
            == (1, 0)
        assert board.session_to("w.mid") is first
        assert (board.handshakes_completed, board.sessions_reused) \
            == (1, 1)


class TestDiscoveryCacheUnit:
    def test_lru_eviction(self):
        cache = DiscoveryCache(maxsize=2)
        keys = [make_discovery_key("h", "direct", ("s", i), ("o",),
                                   (), ())
                for i in range(3)]
        for i, key in enumerate(keys):
            cache.store(key, "x", now=0.0, ttl=10.0,
                        delegation_ids=[f"d{i}"])
        assert len(cache) == 2
        assert keys[0] not in cache
        assert cache.stats.evictions == 1

    def test_invalidation_via_inverted_index(self):
        cache = DiscoveryCache()
        key = make_discovery_key("h", "direct", ("s",), ("o",), (), ())
        cache.store(key, "value", now=0.0, ttl=10.0,
                    delegation_ids=["d1", "d2"])
        assert cache.on_event(False, "d2") == 1
        assert key not in cache

    def test_ttl_window(self):
        cache = DiscoveryCache()
        key = make_discovery_key("h", "direct", ("s",), ("o",), (), ())
        cache.store(key, "value", now=5.0, ttl=10.0,
                    delegation_ids=["d"])
        assert cache.lookup(key, 14.9) == (True, "value")
        assert cache.lookup(key, 15.0) == (False, None)
        assert cache.stats.expirations == 1

    def test_zero_ttl_not_stored(self):
        cache = DiscoveryCache()
        key = make_discovery_key("h", "direct", ("s",), ("o",), (), ())
        cache.store(key, "value", now=0.0, ttl=0.0)
        assert len(cache) == 0

    def test_uncacheable_answer_still_replaces_the_old_one(self):
        """With ``negative_ttl = 0`` an empty (or unreachable) answer
        is not kept -- but the closure it supersedes must go with it,
        not be served for the rest of its lease."""
        cache = DiscoveryCache()
        key = make_discovery_key("h", "subject", ("s",), None, (), ())
        cache.store(key, ("proof",), 0.0, 30.0, delegation_ids=["d1"])
        cache.store(key, (), 1.0, 0.0)
        assert cache.lookup(key, 2.0) == (False, None)
        assert len(cache) == 0 and not cache._by_delegation
