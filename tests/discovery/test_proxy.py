"""Validation proxies and hierarchical caches (Sections 4.2.1 and 6)."""

import pytest

from repro.core import Proof, Role, SimClock, issue
from repro.core.errors import DiscoveryError, DRBACError
from repro.discovery.proxy import ValidationProxy, build_proxy_chain
from repro.discovery.resolver import WalletServer
from repro.net.transport import Network
from repro.wallet.wallet import Wallet


@pytest.fixture()
def hierarchy(org, alice, clock):
    """home <- proxy <- two leaf caches, all mirroring one delegation."""
    network = Network(clock=clock)
    role = Role(org.entity, "r")
    d = issue(org, alice.entity, role)

    def server(address):
        wallet = Wallet(owner=org, address=address, clock=clock)
        return WalletServer(network, wallet, principal=org)

    home = server("home")
    home.wallet.publish(d)
    proxy_server = server("proxy")
    leaf_a = server("leaf.a")
    leaf_b = server("leaf.b")

    proxy = ValidationProxy(proxy_server, upstream="home")
    proxy.mirror_delegation(d)
    for leaf in (leaf_a, leaf_b):
        leaf_proxy = ValidationProxy(leaf, upstream="proxy")
        leaf_proxy.mirror_delegation(d)
    return network, home, proxy_server, (leaf_a, leaf_b), d, role


class TestProxyBasics:
    def test_proxy_serves_queries(self, hierarchy, alice):
        _net, _home, proxy_server, _leaves, d, role = hierarchy
        proof = proxy_server.wallet.query_direct(alice.entity, role)
        assert proof is not None

    def test_self_upstream_rejected(self, hierarchy):
        _net, home, *_rest = hierarchy
        with pytest.raises(DiscoveryError):
            ValidationProxy(home, upstream="home")

    def test_mirror_idempotent(self, org, alice, clock):
        network = Network(clock=clock)
        d = issue(org, alice.entity, Role(org.entity, "r"))
        home = WalletServer(network,
                            Wallet(owner=org, address="h", clock=clock),
                            principal=org)
        home.wallet.publish(d)
        cache = WalletServer(network,
                             Wallet(owner=org, address="c", clock=clock),
                             principal=org)
        proxy = ValidationProxy(cache, upstream="h")
        assert proxy.mirror_delegation(d)
        assert not proxy.mirror_delegation(d)
        assert proxy.mirrors(d.id)
        assert cache.cache.entry(d.id).held_at == {"h"}
        assert home.holdings_count() == 1

    def test_unreachable_upstream_caches_nothing(self, org, alice, clock):
        """A subscription the upstream never took leaves no copy
        behind: with no lease (TTL 0), one would grant forever."""
        network = Network(clock=clock)
        role = Role(org.entity, "r")
        d = issue(org, alice.entity, role)
        home = WalletServer(network,
                            Wallet(owner=org, address="h", clock=clock),
                            principal=org)
        home.wallet.publish(d)
        cache = WalletServer(network,
                             Wallet(owner=org, address="c", clock=clock),
                             principal=org)
        network.partition("c", "h", bidirectional=False)
        proxy = ValidationProxy(cache, upstream="h")
        with pytest.raises(DiscoveryError):
            proxy.mirror_delegation(d)
        assert cache.cache.entry(d.id) is None
        assert cache.wallet.store.get_delegation(d.id) is None
        assert cache.wallet.query_direct(alice.entity, role) is None
        assert not proxy.mirrors(d.id)
        assert home.holdings_count() == 0

    def test_revoked_upstream_copy_is_not_mirrored(self, org, alice,
                                                   clock):
        """An upstream that reports the credential revoked leaves the
        proxy with no copy to grant with and itself with no holding
        that would never push."""
        network = Network(clock=clock)
        role = Role(org.entity, "r")
        d = issue(org, alice.entity, role)
        home = WalletServer(network,
                            Wallet(owner=org, address="h", clock=clock),
                            principal=org)
        home.wallet.publish(d)
        home.wallet.revoke(org, d.id)
        cache = WalletServer(network,
                             Wallet(owner=org, address="c", clock=clock),
                             principal=org)
        assert not ValidationProxy(cache, upstream="h").mirror_delegation(d)
        assert cache.cache.entry(d.id) is None
        assert cache.wallet.query_direct(alice.entity, role) is None
        assert home.holdings_count() == 0

    def test_rejected_copy_releases_its_subscription(self, org, alice,
                                                     bob, clock):
        """The upstream holds a third-party grant; mirrored without its
        support proof, the copy fails the local checks and the
        subscription taken for it is released."""
        network = Network(clock=clock)
        target, admin = Role(org.entity, "target"), Role(org.entity, "admin")
        support = Proof.single(issue(org, bob.entity, admin)).extend(
            issue(org, admin, target.with_tick()))
        grant = issue(bob, alice.entity, target)
        home = WalletServer(network,
                            Wallet(owner=org, address="h", clock=clock),
                            principal=org)
        for delegation in support.chain:
            home.wallet.publish(delegation)
        home.wallet.publish(grant, supports=[support])
        cache = WalletServer(network,
                             Wallet(owner=org, address="c", clock=clock),
                             principal=org)
        proxy = ValidationProxy(cache, upstream="h")
        with pytest.raises(DRBACError):
            proxy.mirror_delegation(grant)
        assert cache.cache.entry(grant.id) is None
        assert home.holdings_count() == 0
        assert proxy.mirror_delegation(grant, (support,))
        assert cache.cache.entry(grant.id).held_at == {"h"}
        assert home.holdings_count() == 1

    def test_mirror_proofs_for(self, org, alice, clock):
        network = Network(clock=clock)
        r1, r2 = Role(org.entity, "r1"), Role(org.entity, "r2")
        home = WalletServer(network,
                            Wallet(owner=org, address="h", clock=clock),
                            principal=org)
        home.wallet.publish(issue(org, alice.entity, r1))
        home.wallet.publish(issue(org, r1, r2))
        cache = WalletServer(network,
                             Wallet(owner=org, address="c", clock=clock),
                             principal=org)
        proxy = ValidationProxy(cache, upstream="h")
        assert proxy.mirror_proofs_for(alice.entity) == 2
        assert cache.wallet.query_direct(alice.entity, r2) is not None


class TestHierarchicalPush:
    def test_revocation_cascades_through_hierarchy(self, hierarchy, org,
                                                   alice):
        net, home, proxy_server, leaves, d, role = hierarchy
        net.reset_counters()
        home.wallet.revoke(org, d.id)
        # Every cache learned the (signed) revocation.
        assert proxy_server.wallet.is_revoked(d.id)
        for leaf in leaves:
            assert leaf.wallet.is_revoked(d.id)
            assert leaf.wallet.query_direct(alice.entity, role) is None

    def test_home_pays_one_push_regardless_of_leaves(self, hierarchy,
                                                     org):
        net, home, _proxy_server, _leaves, d, _role = hierarchy
        net.reset_counters()
        home.wallet.revoke(org, d.id)
        # Exactly 3 pushes total: home -> proxy once, proxy -> each of
        # its two leaves. The home never pushes to a leaf directly.
        # (Additional unsubscribe round-trips are cache cleanup.)
        pushes = net.by_topic["notify:delegation_event"]
        assert pushes.messages == 3
        assert ("home", "leaf.a") not in net.by_link
        assert ("home", "leaf.b") not in net.by_link

    def test_irrelevant_updates_absorbed(self, org, alice, bob, clock):
        """A proxy that mirrors delegation A does not hear about B."""
        network = Network(clock=clock)
        role = Role(org.entity, "r")
        d_a = issue(org, alice.entity, role)
        d_b = issue(org, bob.entity, role)
        home = WalletServer(network,
                            Wallet(owner=org, address="h", clock=clock),
                            principal=org)
        home.wallet.publish(d_a)
        home.wallet.publish(d_b)
        cache = WalletServer(network,
                             Wallet(owner=org, address="c", clock=clock),
                             principal=org)
        ValidationProxy(cache, upstream="h").mirror_delegation(d_a)
        network.reset_counters()
        home.wallet.revoke(org, d_b.id)  # irrelevant to the cache
        assert network.totals.messages == 0

    def test_build_proxy_chain(self, org, alice, clock):
        network = Network(clock=clock)
        role = Role(org.entity, "r")
        d = issue(org, alice.entity, role)
        servers = []
        for index in range(4):
            wallet = Wallet(owner=org, address=f"n{index}", clock=clock)
            servers.append(WalletServer(network, wallet, principal=org))
        servers[0].wallet.publish(d)
        proxies = build_proxy_chain(servers)
        assert len(proxies) == 3
        for proxy in proxies:
            proxy.mirror_delegation(d)
        servers[0].wallet.revoke(org, d.id)
        assert servers[-1].wallet.is_revoked(d.id)

    def test_chain_needs_two_servers(self, hierarchy):
        _net, home, *_rest = hierarchy
        with pytest.raises(DiscoveryError):
            build_proxy_chain([home])


class TestWalletAuthority:
    @pytest.fixture()
    def authority_setup(self, org, alice, clock):
        network = Network(clock=clock)
        wallet_role = Role(org.entity, "wallet")
        host = create = __import__("repro.core.identity",
                                   fromlist=["create_principal"])
        host = create.create_principal("HostCo")
        rogue = create.create_principal("RogueCo")
        home_wallet = Wallet(owner=host, address="home", clock=clock)
        home_wallet.publish(issue(org, host.entity, wallet_role))
        home = WalletServer(network, home_wallet, principal=host)
        rogue_wallet = Wallet(owner=rogue, address="rogue", clock=clock)
        rogue_server = WalletServer(network, rogue_wallet,
                                    principal=rogue)
        client = WalletServer(network,
                              Wallet(owner=org, address="client",
                                     clock=clock), principal=org)
        return client, home, rogue_server, wallet_role

    def test_authorized_host_accepted(self, authority_setup):
        client, home, _rogue, wallet_role = authority_setup
        assert client.verify_wallet_authority("home", wallet_role)

    def test_rogue_host_rejected(self, authority_setup):
        client, _home, rogue, wallet_role = authority_setup
        assert not client.verify_wallet_authority("rogue", wallet_role)

    def test_unreachable_host_rejected(self, authority_setup):
        client, _home, _rogue, wallet_role = authority_setup
        assert not client.verify_wallet_authority("ghost", wallet_role)

    def test_forged_authority_proof_rejected(self, org, clock):
        """A host answering ``prove_role`` with a forged certificate is
        unauthorized -- the check neither raises nor trusts it -- and a
        search that meets it under the authority check skips it."""
        from repro.core import (Delegation, DiscoveryTag, EntityDirectory,
                                Proof, SubjectFlag)
        from repro.core.identity import create_principal
        from repro.core.roles import subject_key
        from repro.discovery import wire
        from repro.discovery.engine import DiscoveryEngine, DiscoveryStats

        network = Network(clock=clock)
        wallet_role = Role(org.entity, "wallet")
        role = Role(org.entity, "r")
        forger = create_principal("Forger")

        class ForgingServer(WalletServer):
            def _rpc_prove_role(self, _src, params):
                forged = Delegation(subject=forger.entity,
                                    obj=wire.role_from_wire(params["role"]),
                                    issuer=org.entity,
                                    signature=b"\x00" * 65)
                return wire.proof_to_wire(Proof.single(forged))

        forger_wallet = Wallet(owner=forger, address="forger.home",
                               clock=clock)
        forger_wallet.publish(issue(org, forger.entity, role))
        ForgingServer(network, forger_wallet, principal=forger)
        client = WalletServer(network,
                              Wallet(owner=org, address="client",
                                     clock=clock), principal=org)
        assert client.verify_wallet_authority("forger.home",
                                              wallet_role) is False
        engine = DiscoveryEngine(client,
                                 entity_directory=EntityDirectory(
                                     [org.entity]))
        tag = DiscoveryTag(home="forger.home", auth_role_name="Org.wallet",
                           ttl=0, subject_flag=SubjectFlag.SEARCH)
        stats = DiscoveryStats()
        proof = engine.discover(forger.entity, role, stats=stats,
                                hints={subject_key(forger.entity): tag})
        assert proof is None
        assert stats.wallets_rejected == {"forger.home"}

    def test_unexpected_error_propagates(self, authority_setup,
                                         monkeypatch):
        """Only network, RPC and dRBAC failures read as "unauthorized";
        a bug inside the check surfaces instead of hiding as a verdict."""
        client, _home, _rogue, wallet_role = authority_setup

        def broken(_remote, _role):
            raise RuntimeError("bug in the check")

        monkeypatch.setattr(client, "remote_prove_role", broken)
        with pytest.raises(RuntimeError, match="bug in the check"):
            client.verify_wallet_authority("home", wallet_role)


class TestEngineAuthorityCheck:
    def test_engine_skips_unauthorized_home(self, org, alice, clock):
        from repro.core import (DiscoveryTag, EntityDirectory,
                                SubjectFlag)
        from repro.core.roles import subject_key
        from repro.discovery.engine import DiscoveryEngine, DiscoveryStats

        network = Network(clock=clock)
        role = Role(org.entity, "r")
        wallet_role = Role(org.entity, "wallet")
        from repro.core.identity import create_principal
        rogue = create_principal("Rogue")
        # The rogue host serves the delegation but holds no authority.
        rogue_wallet = Wallet(owner=rogue, address="rogue.home",
                              clock=clock)
        rogue_wallet.publish(issue(org, alice.entity, role))
        WalletServer(network, rogue_wallet, principal=rogue)

        client = WalletServer(network,
                              Wallet(owner=org, address="client",
                                     clock=clock), principal=org)
        directory = EntityDirectory([org.entity])
        engine = DiscoveryEngine(client, entity_directory=directory)
        tag = DiscoveryTag(home="rogue.home", auth_role_name="Org.wallet",
                           ttl=0, subject_flag=SubjectFlag.SEARCH)
        stats = DiscoveryStats()
        proof = engine.discover(alice.entity, role,
                                hints={subject_key(alice.entity): tag},
                                stats=stats)
        assert proof is None
        assert "rogue.home" in stats.wallets_rejected

    def test_engine_accepts_authorized_home(self, org, alice, clock):
        from repro.core import (DiscoveryTag, EntityDirectory,
                                SubjectFlag)
        from repro.core.roles import subject_key
        from repro.discovery.engine import DiscoveryEngine

        network = Network(clock=clock)
        role = Role(org.entity, "r")
        wallet_role = Role(org.entity, "wallet")
        from repro.core.identity import create_principal
        host = create_principal("HostCo")
        home_wallet = Wallet(owner=host, address="good.home", clock=clock)
        home_wallet.publish(issue(org, host.entity, wallet_role))
        home_wallet.publish(issue(org, alice.entity, role))
        WalletServer(network, home_wallet, principal=host)

        client = WalletServer(network,
                              Wallet(owner=org, address="client",
                                     clock=clock), principal=org)
        directory = EntityDirectory([org.entity])
        engine = DiscoveryEngine(client, entity_directory=directory)
        tag = DiscoveryTag(home="good.home", auth_role_name="Org.wallet",
                           ttl=0, subject_flag=SubjectFlag.SEARCH)
        proof = engine.discover(alice.entity, role,
                                hints={subject_key(alice.entity): tag})
        assert proof is not None

    def test_engine_skips_unauthorized_continuation_home(self, org, alice,
                                                          clock):
        """The authority check covers every home a search contacts, not
        only the first: an authorized home's closure continues into a
        host that cannot prove the tag's role, and the engine stops
        there -- even though that host stores a genuine credential."""
        from repro.core import (DiscoveryTag, EntityDirectory,
                                SubjectFlag)
        from repro.core.identity import create_principal
        from repro.core.roles import subject_key
        from repro.discovery.engine import DiscoveryEngine, DiscoveryStats

        network = Network(clock=clock)
        mid, role = Role(org.entity, "mid"), Role(org.entity, "r")
        wallet_role = Role(org.entity, "wallet")

        def tag(home):
            return DiscoveryTag(home=home, auth_role_name="Org.wallet",
                                ttl=30.0, subject_flag=SubjectFlag.SEARCH)

        host = create_principal("HostCo")
        good = Wallet(owner=host, address="good.home", clock=clock)
        good.publish(issue(org, host.entity, wallet_role))
        good.publish(issue(org, alice.entity, mid,
                           object_tag=tag("rogue.home")))
        WalletServer(network, good, principal=host)
        rogue = create_principal("Rogue")
        rogue_wallet = Wallet(owner=rogue, address="rogue.home",
                              clock=clock)
        rogue_wallet.publish(issue(org, mid, role,
                                   subject_tag=tag("rogue.home")))
        WalletServer(network, rogue_wallet, principal=rogue)

        client = WalletServer(network,
                              Wallet(owner=org, address="client",
                                     clock=clock), principal=org)
        engine = DiscoveryEngine(client,
                                 entity_directory=EntityDirectory(
                                     [org.entity]))
        stats = DiscoveryStats()
        proof = engine.discover(
            alice.entity, role, stats=stats,
            hints={subject_key(alice.entity): tag("good.home")})
        assert proof is None
        assert stats.wallets_contacted == {"good.home"}
        assert stats.wallets_rejected == {"rogue.home"}
        assert network.messages_from("client", "notify:gem_eval") == 1
        # The same search with the check off does follow the tag.
        trusting = DiscoveryEngine(client)
        assert trusting.discover(
            alice.entity, role,
            hints={subject_key(alice.entity): tag("good.home")}) is not None
