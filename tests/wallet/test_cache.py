import math

import pytest

from repro.core import Role, SimClock, issue, revoke
from repro.pubsub.events import EventKind
from repro.wallet.cache import CoherentCache
from repro.wallet.wallet import Wallet


@pytest.fixture()
def setup(org, alice, clock):
    wallet = Wallet(owner=org, address="local", clock=clock)
    cache = CoherentCache(wallet)
    d = issue(org, alice.entity, Role(org.entity, "r"))
    return wallet, cache, d


class TestInsert:
    def test_insert_publishes(self, setup):
        wallet, cache, d = setup
        assert cache.insert(d, (), home="remote", ttl=30.0)
        assert wallet.store.get_delegation(d.id) is not None
        assert d.id in cache

    def test_zero_ttl_never_lapses(self, setup, clock):
        wallet, cache, d = setup
        cache.insert(d, (), home="remote", ttl=0.0)
        assert cache.entry(d.id).valid_until == math.inf
        clock.advance(1e9)
        assert cache.sweep() == []

    def test_reinsert_extends_lease(self, setup, clock):
        wallet, cache, d = setup
        cache.insert(d, (), home="remote", ttl=10.0)
        clock.advance(5.0)
        cache.insert(d, (), home="remote", ttl=10.0)
        assert cache.entry(d.id).valid_until == 15.0
        assert cache.entry(d.id).confirmations == 2


class TestLeases:
    def test_confirm_extends(self, setup, clock):
        wallet, cache, d = setup
        cache.insert(d, (), home="remote", ttl=10.0)
        clock.advance(8.0)
        assert cache.confirm(d.id)
        assert cache.entry(d.id).valid_until == 18.0

    def test_confirm_unknown_false(self, setup):
        _wallet, cache, _d = setup
        assert not cache.confirm("missing")

    def test_sweep_evicts_and_notifies(self, setup, clock):
        wallet, cache, d = setup
        cache.insert(d, (), home="remote", ttl=10.0)
        events = []
        wallet.hub.subscribe(d.id, events.append)
        clock.advance(11.0)
        assert cache.sweep() == [d.id]
        assert wallet.store.get_delegation(d.id) is None
        assert len(events) == 1
        assert events[0].kind is EventKind.EXPIRED
        assert events[0].detail == "ttl-lapsed"
        assert d.id not in cache

    def test_sweep_cancels_remote_subscription(self, setup, clock):
        """A lapsed copy releases its holding at every home recorded on
        it, once each; a holding with no copy to guard is released at
        once."""
        wallet, cache, d = setup
        released = []
        cache.release = lambda home, delegation_id: released.append(
            (home, delegation_id))
        cache.insert(d, (), home="remote", ttl=5.0)
        cache.hold("remote", d.id)
        cache.hold("proxy", d.id)
        cache.hold("remote", d.id)
        cache.hold("remote", "gone")
        assert released == [("remote", "gone")]
        clock.advance(6.0)
        cache.sweep()
        assert released[1:] == [("proxy", d.id), ("remote", d.id)]


class TestRemoteRevocation:
    def test_applies_signed_revocation(self, setup, org):
        """The copy goes without a release: each home drops its holding
        once it has pushed the revocation."""
        wallet, cache, d = setup
        released = []
        cache.release = lambda *holding: released.append(holding)
        cache.insert(d, (), home="remote", ttl=30.0)
        cache.hold("remote", d.id)
        revocation = revoke(org, d, revoked_at=1.0)
        assert cache.apply_remote_revocation(revocation)
        assert wallet.is_revoked(d.id)
        assert d.id not in cache
        assert released == []

    def test_forged_revocation_rejected(self, setup, bob):
        wallet, cache, d = setup
        cache.insert(d, (), home="remote", ttl=30.0)
        from repro.core.delegation import Revocation
        forged = Revocation(delegation_id=d.id, issuer=d.issuer,
                            revoked_at=1.0, signature=bob.sign(b"x"))
        assert not cache.apply_remote_revocation(forged)
        assert not wallet.is_revoked(d.id)
        assert d.id in cache
