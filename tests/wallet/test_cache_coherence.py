"""Cache coherence through pub/sub events -- no manual cache poking.

The decision cache must be invisible except for speed: every scenario
here drives the wallet only through its public API (publish, revoke,
renew, sweep) and asserts that cached answers track the truth, then
replays the same scripts with the proof cache cleared before every
query -- the reference arm, which always searches -- to prove equality.
"""

import pytest

from repro import obs
from repro.core import Role, SimClock, issue
from repro.wallet.cache import CoherentCache
from repro.wallet.wallet import Wallet


@pytest.fixture()
def wallet(org, clock):
    return Wallet(owner=org, address="cached.org", clock=clock)


class TestRevocationCoherence:
    def test_cached_proof_dropped_after_revocation(self, wallet, org,
                                                   alice):
        role = Role(org.entity, "r")
        d = issue(org, alice.entity, role)
        wallet.publish(d)
        first = wallet.query_direct(alice.entity, role)
        assert first is not None
        # Warm hit.
        assert wallet.query_direct(alice.entity, role) is not None
        assert wallet.proof_cache.stats.hits >= 1
        wallet.revoke(org, d.id)
        assert wallet.query_direct(alice.entity, role) is None

    def test_revoking_support_kills_dependent_cached_proof(self, wallet,
                                                           table1):
        wallet.publish(table1.d1_mark_services)
        wallet.publish(table1.d2_services_assign)
        wallet.publish(table1.d3_maria_member,
                       supports=[table1.support_proof])
        maria = table1.maria.entity
        member = table1.member
        assert wallet.query_direct(maria, member) is not None
        assert wallet.query_direct(maria, member) is not None  # warm
        # Revoke a delegation that appears only in the *support* proof:
        # the cached entry depends on it through all_delegations().
        wallet.revoke(table1.big_isp, table1.d1_mark_services.id)
        assert wallet.query_direct(maria, member) is None

    def test_revocation_keeps_unrelated_entries(self, wallet, org, alice,
                                                bob):
        r1, r2 = Role(org.entity, "r1"), Role(org.entity, "r2")
        d1 = issue(org, alice.entity, r1)
        d2 = issue(org, bob.entity, r2)
        wallet.publish(d1)
        wallet.publish(d2)
        wallet.query_direct(alice.entity, r1)
        wallet.query_direct(bob.entity, r2)
        hits_before = wallet.proof_cache.stats.hits
        wallet.revoke(org, d1.id)
        assert wallet.query_direct(bob.entity, r2) is not None
        assert wallet.proof_cache.stats.hits == hits_before + 1


class TestTtlLapseCoherence:
    def test_cached_proof_dropped_after_sweep_eviction(self, org, alice,
                                                       clock):
        wallet = Wallet(owner=org, address="edge.org", clock=clock)
        coherent = CoherentCache(wallet)
        role = Role(org.entity, "r")
        d = issue(org, alice.entity, role)
        coherent.insert(d, (), home="home.org", ttl=30.0)
        assert wallet.query_direct(alice.entity, role) is not None
        assert wallet.query_direct(alice.entity, role) is not None  # warm
        clock.advance(60.0)
        assert coherent.sweep() == [d.id]
        # The EXPIRED(ttl-lapsed) event dropped the cached proof AND the
        # underlying edge; a fresh query must see neither.
        assert wallet.query_direct(alice.entity, role) is None

    def test_sweep_dirties_then_refreshes_reach_index(self, org, alice,
                                                      clock):
        wallet = Wallet(owner=org, address="edge.org", clock=clock)
        coherent = CoherentCache(wallet)
        role = Role(org.entity, "r")
        coherent.insert(issue(org, alice.entity, role), (),
                        home="home.org", ttl=30.0)
        # A negative cached before the lapse stays right after it:
        # removing an edge never flips one.
        other = Role(org.entity, "other")
        assert wallet.query_direct(alice.entity, other) is None
        clock.advance(60.0)
        coherent.sweep()
        assert wallet.query_direct(alice.entity, role) is None
        assert wallet.query_direct(alice.entity, other) is None
        assert wallet.proof_cache.stats.negative_hits == 1


class TestPublishFlipsNegatives:
    def test_negative_turns_positive_after_bridging_publish(self, wallet,
                                                            org, alice):
        mid = Role(org.entity, "mid")
        top = Role(org.entity, "top")
        wallet.publish(issue(org, alice.entity, mid))
        assert wallet.query_direct(alice.entity, top) is None
        assert wallet.query_direct(alice.entity, top) is None  # warm miss
        assert wallet.proof_cache.stats.negative_hits >= 1
        wallet.publish(issue(org, mid, top))  # the bridge
        proof = wallet.query_direct(alice.entity, top)
        assert proof is not None and proof.depth() == 2

    def test_awaited_proof_fires_despite_cached_negative(self, wallet,
                                                         org, alice):
        # await_proof requeries inside publish(); the cache must already
        # have been invalidated by then or the callback never fires.
        mid = Role(org.entity, "mid")
        top = Role(org.entity, "top")
        wallet.publish(issue(org, alice.entity, mid))
        assert wallet.query_direct(alice.entity, top) is None
        fired = []
        wallet.await_proof(alice.entity, top, lambda e: fired.append(e))
        wallet.publish(issue(org, mid, top))
        assert len(fired) == 1


class TestRenewalCoherence:
    def test_renewal_swaps_cached_proof(self, wallet, org, alice, clock):
        role = Role(org.entity, "r")
        d = issue(org, alice.entity, role, expiry=100.0)
        wallet.publish(d)
        assert wallet.query_direct(alice.entity, role) is not None
        from repro.core.delegation import renew
        wallet.publish_renewal(d.id, renew(org, d, new_expiry=300.0))
        clock.advance(150.0)  # past the original expiry
        proof = wallet.query_direct(alice.entity, role)
        assert proof is not None
        assert proof.chain[0].expiry == 300.0  # the renewed certificate

    @pytest.mark.parametrize("cache", [True, False])
    def test_renewal_of_a_lapsed_credential_flips_cached_negative(
            self, org, alice, clock, cache):
        # The negative observed after the lapse has no delegation to hang
        # off; the renewal's UPDATED event must drop it like a publish.
        from repro.core.delegation import renew
        wallet = Wallet(owner=org, clock=clock)
        role = Role(org.entity, "r")

        def query():
            if not cache:
                wallet.proof_cache.clear()
            return wallet.query_direct(alice.entity, role)

        d = issue(org, alice.entity, role, expiry=10.0)
        wallet.publish(d)
        clock.advance(15.0)
        assert query() is None
        wallet.publish_renewal(d.id, renew(org, d, new_expiry=300.0))
        proof = query()
        assert proof is not None and proof.chain[0].expiry == 300.0


class TestEnumerationCoherence:
    def test_subject_query_grows_after_publish(self, wallet, org, alice):
        r1 = Role(org.entity, "r1")
        wallet.publish(issue(org, alice.entity, r1))
        assert len(wallet.query_subject(alice.entity)) == 1
        assert len(wallet.query_subject(alice.entity)) == 1  # warm
        wallet.publish(issue(org, r1, Role(org.entity, "r2")))
        assert len(wallet.query_subject(alice.entity)) == 2

    def test_object_query_shrinks_after_revocation(self, wallet, org,
                                                   alice, bob):
        r = Role(org.entity, "r")
        d1 = issue(org, alice.entity, r)
        wallet.publish(d1)
        wallet.publish(issue(org, bob.entity, r))
        assert len(wallet.query_object(r)) == 2
        wallet.revoke(org, d1.id)
        assert len(wallet.query_object(r)) == 1


class TestEquivalenceScript:
    """Same event script, cached vs always searched: answers must never
    diverge."""

    def _run_script(self, cached, principals):
        org, alice, bob = principals
        clock = SimClock()
        wallet = Wallet(owner=org, address="w", clock=clock)
        mid = Role(org.entity, "mid")
        top = Role(org.entity, "top")
        observations = []

        def ask(query, *args):
            if not cached:
                wallet.proof_cache.clear()
            return query(*args)

        def observe():
            observations.append((
                ask(wallet.query_direct, alice.entity, mid) is not None,
                ask(wallet.query_direct, alice.entity, top) is not None,
                ask(wallet.query_direct, bob.entity, top) is not None,
                len(ask(wallet.query_subject, alice.entity)),
                len(ask(wallet.query_object, top)),
            ))

        observe()                                   # empty wallet
        d1 = issue(org, alice.entity, mid)
        wallet.publish(d1)
        observe()
        observe()                                   # repeat: warm reads
        d2 = issue(org, mid, top, expiry=200.0)
        wallet.publish(d2)
        observe()
        d3 = issue(org, bob.entity, top)
        wallet.publish(d3)
        observe()
        wallet.revoke(org, d3.id)                   # REVOKED
        observe()
        clock.advance(250.0)                        # d2 now past expiry
        wallet.expire_sweep()                       # EXPIRED
        observe()
        d4 = issue(org, mid, top)                   # re-bridge, no expiry
        wallet.publish(d4)
        observe()
        return observations

    def test_cached_equals_uncached(self, org, alice, bob):
        principals = (org, alice, bob)
        cached = self._run_script(True, principals)
        uncached = self._run_script(False, principals)
        assert cached == uncached

    def test_cached_run_actually_hit_the_cache(self, org, alice, bob):
        clock = SimClock()
        wallet = Wallet(owner=org, address="w", clock=clock)
        r = Role(org.entity, "r")
        wallet.publish(issue(org, alice.entity, r))
        for _ in range(5):
            wallet.query_direct(alice.entity, r)
        assert wallet.proof_cache.stats.hits >= 4
        assert wallet.cache_info()["hit_rate"] > 0.5


class TestBatchedAuthorization:
    def test_authorize_many_matches_individual_queries(self, wallet, org,
                                                       alice, bob, carol):
        r1, r2 = Role(org.entity, "r1"), Role(org.entity, "r2")
        wallet.publish(issue(org, alice.entity, r1))
        wallet.publish(issue(org, r1, r2))
        wallet.publish(issue(org, bob.entity, r2))
        requests = [
            (alice.entity, r1), (alice.entity, r2),
            (bob.entity, r1), (bob.entity, r2),
            (carol.entity, r2),
        ]
        batch = wallet.authorize_many(requests)
        assert [p is not None for p in batch] == \
            [True, True, False, True, False]
        for (subject, obj), proof in zip(requests, batch):
            single = wallet.query_direct(subject, obj)
            assert (single is None) == (proof is None)

    def test_batch_searches_are_counted_like_single_ones(self, org, alice,
                                                         bob, carol,
                                                         clock):
        """N cold pairs cost N searches whichever way they arrive."""
        r = Role(org.entity, "r")
        requests = [(p.entity, r) for p in (alice, bob, carol)]
        searches = []
        for ask in (lambda w: w.authorize_many(requests),
                    lambda w: [w.query_direct(s, o) for s, o in requests]):
            with obs.scoped() as scope:
                wallet = Wallet(owner=org, clock=clock)
                wallet.publish(issue(org, alice.entity, r))
                ask(wallet)
            timed, = scope.registry.histograms()
            searches.append((scope.registry.total(
                "drbac_wallet_searches_total"), timed.name, timed.count))
        assert searches == [(3, "drbac_wallet_search_seconds", 3)] * 2

    def test_batch_warms_the_cache(self, wallet, org, alice):
        r = Role(org.entity, "r")
        wallet.publish(issue(org, alice.entity, r))
        requests = [(alice.entity, r)] * 10
        wallet.authorize_many(requests)
        assert wallet.proof_cache.stats.hits >= 9
