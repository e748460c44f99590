"""Versioned JSON contracts for the public stats surfaces.

The observability migration moved these tallies into the metrics
registry but promised the legacy dict shapes would not move.  These
tests pin the contracts (key sets AND value types), assert the
surfaces are read-only (repeated reads identical), and pin the
idempotent-merge semantics of ``DiscoveryStats``.

Bumping a contract here is an API change: update the docs
(docs/OBSERVABILITY.md) in the same commit.
"""

import gc

import pytest

from repro.core import SimClock
from repro.crypto import verify_cache
from repro.discovery.engine import DiscoveryStats
from repro.discovery.result_cache import DiscoveryCache
from repro.wallet.wallet import Wallet
from repro.workloads import build_case_study

# Contract v2 -- Wallet.cache_info() (decision cache + nested blocks;
# v1 + "expirations": the proof cache and the discovery result cache
# are one table and both count a lapse at lookup).
CACHE_INFO_KEYS = {
    "hits": int, "misses": int, "negative_hits": int, "stores": int,
    "invalidations": int, "publish_invalidations": int,
    "evictions": int, "expirations": int, "hit_rate": float,
    "entries": int,
}
# Contract v2 -- verify_cache.cache_info() / cache_info()["crypto_memo"]
# (v1's "enabled" reported a memo switch that no longer exists).
CRYPTO_MEMO_KEYS = {
    "entries": int, "maxsize": int, "hits": int,
    "misses": int, "evictions": int, "object_hits": int,
}
# Contract v2 -- encoding.codec_info() / cache_info()["codec"] (v1's
# "fast" reported a codec switch that no longer exists).
CODEC_KEYS = {
    "encodes": int, "encoded_bytes": int,
    "decodes": int, "decoded_bytes": int,
    "intern_hits": int, "intern_misses": int,
    "intern_hit_rate": float, "atoms": int,
}

# Contract v2 -- DiscoveryStats.to_dict() (v1's batch/session/dedup
# block left with the code it described).
DISCOVERY_STATS_KEYS = {
    "local_hit": bool,
    "remote_direct_queries": int, "remote_subject_queries": int,
    "remote_object_queries": int,
    "wallets_contacted": list, "wallets_rejected": list,
    "delegations_cached": int, "delegations_rejected": int,
    "subscriptions_established": int, "rounds": int,
    "cache_hits": int, "cache_negative_hits": int, "cache_misses": int,
    "wire_messages": int, "wire_bytes": int,
}

# Contract v1 -- DiscoveryCache.info().
DISCOVERY_CACHE_KEYS = {
    "hits": int, "misses": int, "negative_hits": int, "stores": int,
    "invalidations": int, "publish_invalidations": int,
    "evictions": int, "expirations": int, "hit_rate": float,
    "entries": int, "maxsize": int,
}

# Contract v4 -- DiscoveryEngine.gem_info()
# (v3 without the live table count and the terminate and flush
# counters: homes keep no per-search state, so there is nothing to
# count, terminate or flush; "loops_detected" counts at the origin
# only).
GEM_INFO_KEYS = {
    "roots": int, "evals_issued": int, "answers_received": int,
    "answers_dropped": int, "answer_records": int, "evals_served": int,
    "loops_detected": int, "answers_pushed": int,
    "refs_from_holdings": int, "refs_refetched": int,
    "refs_unresolved": int, "holdings": int,
}


def _assert_contract(payload: dict, contract: dict, surface: str):
    assert set(payload) == set(contract), (
        f"{surface} keys drifted: extra={set(payload) - set(contract)} "
        f"missing={set(contract) - set(payload)}")
    for key, expected in contract.items():
        assert isinstance(payload[key], expected), (
            f"{surface}[{key!r}] is {type(payload[key]).__name__}, "
            f"contract says {expected.__name__}")


@pytest.fixture()
def warm_wallet():
    case = build_case_study()
    wallet = Wallet(owner=None, address="contract", clock=SimClock())
    for delegation, supports in case.all_delegations():
        wallet.publish(delegation, supports)
    wallet.query_direct(case.maria.entity, case.airnet_access)
    wallet.query_direct(case.maria.entity, case.airnet_access)
    return wallet


class TestCacheInfoContract:
    def test_shape(self, warm_wallet):
        info = warm_wallet.cache_info()
        nested = {k: info.pop(k)
                  for k in ("crypto_memo", "codec")}
        _assert_contract(info, CACHE_INFO_KEYS, "cache_info()")
        _assert_contract(nested["crypto_memo"], CRYPTO_MEMO_KEYS,
                         "cache_info()['crypto_memo']")
        _assert_contract(nested["codec"], CODEC_KEYS,
                         "cache_info()['codec']")

    def test_repeated_reads_are_identical(self, warm_wallet):
        """cache_info() is a pure read: it must never perturb the
        counters it reports (the aggregation-side regression the
        idempotent-merge work guards against)."""
        first = warm_wallet.cache_info()
        for _ in range(5):
            assert warm_wallet.cache_info() == first

    def test_verify_cache_info_matches_module_surface(self, warm_wallet):
        info = warm_wallet.cache_info()["crypto_memo"]
        assert info == verify_cache.cache_info()

    def test_codec_info_matches_module_surface(self, warm_wallet):
        from repro.crypto import encoding
        info = warm_wallet.cache_info()["codec"]
        assert info == encoding.codec_info()


class TestDiscoveryStatsContract:
    def test_shape(self):
        stats = DiscoveryStats()
        stats.wallets_contacted.add("b")
        stats.wallets_contacted.add("a")
        payload = stats.to_dict()
        _assert_contract(payload, DISCOVERY_STATS_KEYS,
                         "DiscoveryStats.to_dict()")
        assert payload["wallets_contacted"] == ["a", "b"]  # sorted

    def test_bookkeeping_stays_out_of_the_contract(self):
        stats = DiscoveryStats()
        payload = stats.to_dict()
        assert "_token" not in payload and "_merged" not in payload
        assert DiscoveryStats() == DiscoveryStats()  # tokens not in ==

    def test_merge_accumulates(self):
        a, b = DiscoveryStats(), DiscoveryStats()
        a.rounds, b.rounds = 2, 3
        b.local_hit = True
        b.wallets_contacted.add("w")
        a.merge(b)
        assert a.rounds == 5
        assert a.local_hit is True
        assert a.wallets_contacted == {"w"}

    def test_merge_is_idempotent(self):
        a, b = DiscoveryStats(), DiscoveryStats()
        b.rounds = 3
        a.merge(b)
        a.merge(b)
        a.merge(b)
        assert a.rounds == 3

    def test_merge_dedups_through_aggregates(self):
        """A run folded into an aggregate, then merged again directly,
        must count once -- however call sites compose aggregation."""
        run = DiscoveryStats()
        run.rounds = 3
        aggregate = DiscoveryStats()
        aggregate.merge(run)
        total = DiscoveryStats()
        total.merge(aggregate)
        total.merge(run)  # already inside `aggregate`
        assert total.rounds == 3

    def test_merge_self_is_a_noop(self):
        stats = DiscoveryStats()
        stats.rounds = 2
        stats.merge(stats)
        assert stats.rounds == 2


class TestDiscoveryCacheContract:
    def test_shape(self):
        cache = DiscoveryCache()
        cache.lookup(("direct", "s", "o"), now=0.0)  # one miss
        info = cache.info()
        _assert_contract(info, DISCOVERY_CACHE_KEYS,
                         "DiscoveryCache.info()")
        assert info["misses"] == 1

    def test_info_is_a_pure_read(self):
        cache = DiscoveryCache()
        cache.lookup(("direct", "s", "o"), now=0.0)
        first = cache.info()
        for _ in range(5):
            assert cache.info() == first


class TestGemInfoContract:
    def test_shape(self):
        """An engine surfaces its GEM breakdown through gem_info() --
        keys and types pinned."""
        from repro.workloads.scenarios import deploy_coalition
        from repro.workloads.topology import make_ring_coalition
        dep = deploy_coalition(make_ring_coalition(2, seed=61))
        try:
            assert dep.authorize() is not None
            info = dep.engine.gem_info()
            _assert_contract(info, GEM_INFO_KEYS, "gem_info()")
            assert info["roots"] >= 1
        finally:
            dep.close()

    def test_info_is_a_pure_read(self):
        from repro.workloads.scenarios import deploy_coalition
        from repro.workloads.topology import make_ring_coalition
        dep = deploy_coalition(make_ring_coalition(2, seed=61))
        try:
            assert dep.authorize() is not None
            first = dep.engine.gem_info()
            for _ in range(5):
                assert dep.engine.gem_info() == first
        finally:
            dep.close()


class TestScopedSurfaces:
    """The service-layer injection APIs: scoping must isolate, and the
    process-global contracts above must hold unchanged inside a scope."""

    def test_obs_scoped_isolates_counters(self):
        from repro import obs
        obs.counter("scoped_contract_global").inc()
        # A collection folds earlier tests' dead owners' series into
        # uninstanced ones (totals unchanged, labels not): let that
        # happen before the snapshot, not between the two.
        gc.collect()
        before = obs.registry().snapshot()
        with obs.scoped() as scope:
            obs.counter("scoped_contract_inner").inc(5)
            assert obs.registry() is scope.registry
            inner = {m["name"]: m["value"]
                     for m in obs.registry().snapshot()["counters"]}
            assert inner.get("scoped_contract_inner") == 5
            assert "scoped_contract_global" not in inner
        assert obs.registry().snapshot() == before

    def test_obs_scopes_nest(self):
        from repro import obs
        with obs.scoped() as outer:
            with obs.scoped() as inner:
                assert obs.registry() is inner.registry
            assert obs.registry() is outer.registry

    def test_get_registry_is_the_scope_aware_alias(self):
        from repro import obs
        assert obs.get_registry() is obs.registry()
        with obs.scoped() as scope:
            assert obs.get_registry() is scope.registry

    def test_verify_cache_scoped_isolates_the_memo(self):
        verify_cache.cache_clear()
        before = verify_cache.cache_info()
        with verify_cache.scoped(
                verify_cache.VerificationMemo(maxsize=64)) as memo:
            assert verify_cache.memo() is memo
            # Contract shape holds for scoped memos too.
            _assert_contract(verify_cache.cache_info(),
                             CRYPTO_MEMO_KEYS, "scoped cache_info()")
            assert verify_cache.cache_info()["maxsize"] == 64
        assert verify_cache.cache_info() == before

    def test_scoped_memo_absorbs_traffic_without_global_bleed(self):
        from repro.core import Role, create_principal
        from repro.core.delegation import issue
        from repro.core.delegation import Delegation
        issuer = create_principal("ScopedIssuer")
        subject = create_principal("ScopedSubject")
        delegation = issue(issuer, subject.entity,
                           Role(issuer.entity, "member"))
        # Round-trip through the wire form so the per-object fast flag
        # is gone and the check must go through the memo.
        fresh = Delegation.from_dict(delegation.to_dict())
        verify_cache.cache_clear()
        before = verify_cache.cache_info()
        with verify_cache.scoped() as memo:
            assert fresh.verify_signature()
            assert memo.info()["entries"] > 0
        after = verify_cache.cache_info()
        assert after["entries"] == before["entries"]
        assert after["misses"] == before["misses"]
