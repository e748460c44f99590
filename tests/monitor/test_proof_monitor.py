import pytest

from repro.core import AttributeRef, Modifier, Operator, Role, issue
from repro.wallet.wallet import Wallet


@pytest.fixture()
def setup(org, alice, clock):
    wallet = Wallet(owner=org, clock=clock)
    r = Role(org.entity, "r")
    d = issue(org, alice.entity, r)
    wallet.publish(d)
    return wallet, d, r


class TestLifecycle:
    def test_starts_valid(self, setup, alice):
        wallet, d, r = setup
        monitor = wallet.authorize(alice.entity, r)
        assert monitor is not None
        assert monitor.valid
        assert monitor.subject == alice.entity

    def test_authorize_none_when_unprovable(self, setup, bob):
        wallet, _d, r = setup
        assert wallet.authorize(bob.entity, r) is None

    def test_invalidated_on_revocation(self, setup, org, alice):
        wallet, d, r = setup
        events = []
        monitor = wallet.authorize(alice.entity, r,
                                   callback=lambda m, e: events.append(e))
        wallet.revoke(org, d.id)
        assert not monitor.valid
        assert len(events) == 1
        assert monitor.invalidation is events[0]

    def test_invalidated_on_expiry_sweep(self, org, alice, clock):
        wallet = Wallet(owner=org, clock=clock)
        r = Role(org.entity, "r")
        d = issue(org, alice.entity, r, expiry=10.0)
        wallet.publish(d)
        monitor = wallet.authorize(alice.entity, r)
        clock.advance(11.0)
        wallet.expire_sweep()
        assert not monitor.valid

    def test_fires_once_per_invalidation(self, setup, org, alice, bob):
        wallet, d, r = setup
        d2 = issue(org, bob.entity, r)
        wallet.publish(d2)
        calls = []
        monitor = wallet.authorize(alice.entity, r,
                                   callback=lambda m, e: calls.append(e))
        wallet.revoke(org, d.id)
        wallet.revoke(org, d2.id)  # not part of the monitored proof
        assert len(calls) == 1

    def test_cancel_stops_callbacks(self, setup, org, alice):
        wallet, d, r = setup
        calls = []
        monitor = wallet.authorize(alice.entity, r,
                                   callback=lambda m, e: calls.append(e))
        monitor.cancel()
        wallet.revoke(org, d.id)
        assert calls == []
        assert monitor.valid  # never notified

    def test_context_manager_cancels(self, setup, org, alice):
        wallet, d, r = setup
        calls = []
        with wallet.authorize(alice.entity, r,
                              callback=lambda m, e: calls.append(e)):
            pass
        wallet.revoke(org, d.id)
        assert calls == []


class TestRevalidate:
    def test_alternate_path_restores_validity(self, setup, org, alice):
        wallet, d, r = setup
        hub_role = Role(org.entity, "hub")
        wallet.publish(issue(org, alice.entity, hub_role))
        wallet.publish(issue(org, hub_role, r))
        monitor = wallet.authorize(alice.entity, r)
        wallet.revoke(org, d.id)
        if monitor.valid:
            # The initial proof may already use the alternate path;
            # force invalidation of whichever path it used.
            pytest.skip("monitor chose the two-hop path initially")
        assert monitor.revalidate()
        assert monitor.valid
        assert monitor.proof.depth() == 2

    def test_revalidate_fails_without_alternative(self, setup, org, alice):
        wallet, d, r = setup
        monitor = wallet.authorize(alice.entity, r)
        wallet.revoke(org, d.id)
        assert not monitor.revalidate()
        assert not monitor.valid

    def test_new_proof_is_monitored(self, setup, org, alice):
        wallet, d, r = setup
        hub_role = Role(org.entity, "hub")
        d_hub1 = issue(org, alice.entity, hub_role)
        d_hub2 = issue(org, hub_role, r)
        wallet.publish(d_hub1)
        wallet.publish(d_hub2)
        monitor = wallet.authorize(alice.entity, r)
        wallet.revoke(org, d.id)
        monitor.revalidate()
        assert monitor.valid
        # Revoking the replacement path invalidates again.
        wallet.revoke(org, d_hub2.id)
        assert not monitor.valid

    def test_revalidate_respects_constraints(self, org, alice, clock):
        wallet = Wallet(owner=org, clock=clock)
        attr = AttributeRef(org.entity, "q")
        wallet.set_base_allocation(attr, 100.0)
        r = Role(org.entity, "r")
        good = issue(org, alice.entity, r,
                     modifiers=[Modifier(attr, Operator.MIN, 80)])
        weak = issue(org, alice.entity, r,
                     modifiers=[Modifier(attr, Operator.MIN, 10)])
        wallet.publish(good)
        wallet.publish(weak)
        from repro.core import Constraint
        monitor = wallet.authorize(alice.entity, r,
                                   constraints=[Constraint(attr, 50)])
        assert monitor is not None
        wallet.revoke(org, good.id)
        # Only the weak path remains; constraint blocks revalidation.
        assert not monitor.revalidate()


class TestGrants:
    def test_grants_use_wallet_bases(self, org, alice, clock):
        wallet = Wallet(owner=org, clock=clock)
        attr = AttributeRef(org.entity, "q")
        wallet.set_base_allocation(attr, 100.0)
        r = Role(org.entity, "r")
        wallet.publish(issue(org, alice.entity, r,
                             modifiers=[Modifier(attr, Operator.MIN, 60)]))
        monitor = wallet.authorize(alice.entity, r)
        assert monitor.grants()[attr] == 60.0

    def test_grants_accept_overrides(self, setup, org, alice):
        wallet, _d, r = setup
        attr = AttributeRef(org.entity, "q")
        monitor = wallet.authorize(alice.entity, r)
        assert monitor.grants({attr: 5.0})[attr] == 5.0


class TestProveWithoutMonitor:
    def test_prove_is_authorize_without_the_monitor(self, setup, alice, bob):
        wallet, d, r = setup
        proof = wallet.prove(alice.entity, r)
        assert proof == wallet.authorize(alice.entity, r).proof
        assert wallet.prove(bob.entity, r) is None
        assert wallet._stats.authorizations == 3

    def test_prove_subscribes_nothing(self, setup, org, alice):
        wallet, d, r = setup
        assert wallet.prove(alice.entity, r) is not None
        assert wallet.hub.subscriber_count(d.id) == 0
        wallet.authorize(alice.entity, r)
        assert wallet.hub.subscriber_count(d.id) == 1
