"""Support re-discovery across wallets (Section 4.2.1's acting-as /
issuer-tag mechanism) and best-effort push delivery."""

import pytest

from repro.core import (
    DiscoveryTag,
    Proof,
    Role,
    SubjectFlag,
    issue,
)
from repro.core.roles import subject_key
from repro.discovery.engine import DiscoveryEngine, DiscoveryStats
from repro.discovery.resolver import WalletServer
from repro.net.transport import Network
from repro.wallet.wallet import Wallet


@pytest.fixture()
def world(org, bob, alice, clock):
    """A serving wallet holding a third-party delegation whose support
    has been revoked; the issuer's home wallet has a replacement chain.

    org owns the namespace; bob is the third-party issuer whose home is
    'issuer.home'.
    """
    network = Network(clock=clock)
    target = Role(org.entity, "target")
    admin_old = Role(org.entity, "adminOld")
    admin_new = Role(org.entity, "adminNew")
    issuer_tag = DiscoveryTag(home="issuer.home", ttl=60.0,
                              subject_flag=SubjectFlag.SEARCH)

    # Original support chain (to be revoked).
    d_old_role = issue(org, bob.entity, admin_old)
    d_old_assign = issue(org, admin_old, target.with_tick())
    old_support = Proof.single(d_old_role).extend(d_old_assign)

    # The third-party delegation, tagged with its issuer's home.
    grant = issue(bob, alice.entity, target, issuer_tag=issuer_tag)

    server_wallet = Wallet(owner=org, address="server", clock=clock)
    server_wallet.publish(d_old_role)
    server_wallet.publish(d_old_assign)
    server_wallet.publish(grant, supports=[old_support])
    server = WalletServer(network, server_wallet, principal=org)
    engine = DiscoveryEngine(server, default_ttl=60.0)

    # The issuer's home wallet holds a FRESH support chain, tagged so
    # forward search can walk it.
    issuer_wallet = Wallet(owner=bob, address="issuer.home", clock=clock)
    admin_new_tag = DiscoveryTag(home="issuer.home", ttl=60.0,
                                 subject_flag=SubjectFlag.SEARCH)
    d_new_role = issue(org, bob.entity, admin_new,
                       subject_tag=issuer_tag, object_tag=admin_new_tag)
    d_new_assign = issue(org, admin_new, target.with_tick(),
                         subject_tag=admin_new_tag)
    issuer_wallet.publish(d_new_role)
    issuer_wallet.publish(d_new_assign)
    WalletServer(network, issuer_wallet, principal=bob)

    return (network, server, engine, grant, target,
            d_old_role, d_old_assign)


class TestSupportRediscovery:
    def test_valid_supports_short_circuit(self, world, alice):
        _net, server, engine, grant, target, *_old = world
        # Nothing revoked yet: rediscovery is a no-op success.
        stats = DiscoveryStats()
        assert engine.rediscover_supports(grant, stats=stats)
        assert stats.remote_direct_queries == 0

    def test_rediscovery_restores_authorization(self, world, org, alice):
        _net, server, engine, grant, target, d_old_role, _ = world
        wallet = server.wallet
        assert wallet.query_direct(alice.entity, target) is not None
        # The original support chain dies.
        wallet.revoke(org, d_old_role.id)
        assert wallet.query_direct(alice.entity, target) is None
        # Tag-directed rediscovery finds the fresh chain at the
        # issuer's home wallet.
        stats = DiscoveryStats()
        assert engine.rediscover_supports(grant, stats=stats)
        assert "issuer.home" in stats.wallets_contacted
        proof = wallet.query_direct(alice.entity, target)
        assert proof is not None
        wallet.validate(proof)

    def test_rediscovery_fails_without_replacement(self, world, org,
                                                   alice, bob):
        net, server, engine, grant, target, d_old_role, _ = world
        server.wallet.revoke(org, d_old_role.id)
        net.partition("server", "issuer.home")
        assert not engine.rediscover_supports(grant)
        assert server.wallet.query_direct(alice.entity, target) is None

    def test_self_certified_trivially_true(self, world, org, alice):
        _net, server, engine, *_rest = world
        d = issue(org, alice.entity, Role(org.entity, "plain"))
        assert engine.rediscover_supports(d)


class TestBestEffortPush:
    def test_unreachable_subscriber_does_not_fail_revocation(self, org,
                                                             alice,
                                                             clock):
        network = Network(clock=clock)
        role = Role(org.entity, "r")
        d = issue(org, alice.entity, role)
        home = WalletServer(network,
                            Wallet(owner=org, address="home",
                                   clock=clock), principal=org)
        home.wallet.publish(d)
        client = WalletServer(network,
                              Wallet(owner=org, address="client",
                                     clock=clock), principal=org)
        client.cache.insert(d, (), home="home", ttl=30.0)
        assert client.remote_subscribe("home", d.id)
        network.partition("home", "client", bidirectional=False)
        # The revocation must succeed at home despite the dead push.
        home.wallet.revoke(org, d.id)
        assert home.wallet.is_revoked(d.id)
        assert home.pushes_failed == 1
        assert not client.wallet.is_revoked(d.id)  # missed the push
        # ...and the TTL fallback cleans the client up.
        clock.advance(31.0)
        client.cache.sweep()
        assert client.wallet.store.get_delegation(d.id) is None
