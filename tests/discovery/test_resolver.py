import pytest

from repro.core import Role, SimClock, issue
from repro.core.errors import DiscoveryError
from repro.discovery.resolver import WalletDirectory, WalletServer
from repro.net.rpc import RpcError, RpcNode
from repro.net.transport import Network
from repro.wallet.wallet import Wallet
from repro.workloads.scenarios import build_distributed_federation


@pytest.fixture()
def deployment(org, alice, clock):
    network = Network(clock=clock)
    w1 = Wallet(owner=org, address="w1", clock=clock)
    w2 = Wallet(owner=org, address="w2", clock=clock)
    s1 = WalletServer(network, w1, principal=org)
    s2 = WalletServer(network, w2, principal=org)
    role = Role(org.entity, "staff")
    w2.publish(issue(org, alice.entity, role))
    return network, s1, s2, role


class TestRemoteQueries:
    def test_direct_query(self, deployment, alice, org):
        _net, s1, _s2, role = deployment
        proof = s1.remote_direct_query("w2", alice.entity, role)
        assert proof is not None
        assert proof.subject == alice.entity

    def test_direct_query_miss(self, deployment, bob, org):
        _net, s1, _s2, role = deployment
        assert s1.remote_direct_query("w2", bob.entity, role) is None

    def test_subject_query(self, deployment, alice):
        _net, s1, _s2, role = deployment
        proofs = s1.remote_subject_query("w2", alice.entity)
        assert [p.obj for p in proofs] == [role]

    def test_object_query(self, deployment, alice):
        _net, s1, _s2, role = deployment
        proofs = s1.remote_object_query("w2", role)
        assert [p.subject for p in proofs] == [alice.entity]

    def test_remote_publish(self, deployment, bob, org):
        _net, s1, s2, role = deployment
        d = issue(org, bob.entity, role)
        assert s1.remote_publish("w2", d)
        assert s2.wallet.store.get_delegation(d.id) is not None

    def test_remote_publish_rejection_propagates(self, deployment, table1):
        _net, s1, _s2, _role = deployment
        with pytest.raises(RpcError, match="support"):
            s1.remote_publish("w2", table1.d3_maria_member)

    def test_whoami(self, deployment, org):
        net, s1, _s2, _role = deployment
        from repro.core import Entity
        reply = s1.rpc.call("w2", "whoami")
        assert Entity.from_dict(reply) == org.entity


class TestRemoteSubscriptions:
    def test_revocation_pushed_to_subscriber(self, deployment, org, alice):
        """One push carries the revocation, and ends the holding at
        both ends: the home drops it, the subscriber drops its copy,
        and nothing more crosses the wire."""
        net, s1, s2, role = deployment
        d = s2.wallet.store.graph.out_edges(alice.entity)[0]
        # s1 caches the delegation and subscribes at w2.
        s1.cache.insert(d, (), home="w2", ttl=30.0)
        assert s1.remote_subscribe("w2", d.id)
        assert s1.cache.entry(d.id).held_at == {"w2"}
        net.reset_counters()
        s2.wallet.revoke(org, d.id)
        assert s1.wallet.is_revoked(d.id)
        assert s2.events_pushed == 1
        assert s2.holdings_count() == 0
        assert d.id not in s1.cache
        assert net.totals.messages == 1

    def test_unsubscribe_stops_pushes(self, deployment, org, alice):
        """A release is one notify naming the delegation, and the home
        pushes nothing more for it."""
        net, s1, s2, role = deployment
        d = s2.wallet.store.graph.out_edges(alice.entity)[0]
        s1.cache.insert(d, (), home="w2", ttl=30.0)
        s1.remote_subscribe("w2", d.id)
        net.reset_counters()
        s1.remote_unsubscribe("w2", d.id)
        assert net.by_topic["notify:unsubscribe"].messages \
            == net.totals.messages == 1
        assert s2.holdings_count() == 0
        s2.wallet.revoke(org, d.id)
        assert not s1.wallet.is_revoked(d.id)

    def test_subscribe_reports_current_status(self, deployment):
        _net, s1, _s2, _role = deployment
        reply = s1.rpc.call("w2", "subscribe",
                            {"delegation_id": "ghost",
                             "subscriber": "w1"})
        assert reply["known"] is False
        assert reply["revoked"] is False

    def test_unknown_ids_hold_nothing(self, deployment):
        """A home stores no subscription for an id it does not hold, so
        a peer cannot grow its holdings by naming made-up ids, and a
        subscriber records nothing for such a reply."""
        net, s1, s2, _role = deployment
        for n in range(5_000):
            reply = s1.rpc.call("w2", "subscribe",
                                {"delegation_id": f"ghost{n}"})
            assert reply == {"known": False, "revoked": False}
        assert s2.holdings_count() == 0
        assert s2.wallet.hub.subscriber_count("ghost0") == 0
        net.reset_counters()
        assert s1.remote_subscribe("w2", "ghost0") is False
        assert net.totals.messages == 2

    def test_subscribe_is_idempotent_per_peer(self, deployment, org, alice):
        """One (peer, delegation) pair is one subscription however often
        it is asked for: one revocation is one push, and a second peer
        gets a holding of its own."""
        net, s1, s2, _role = deployment
        d = s2.wallet.store.graph.out_edges(alice.entity)[0]
        first = s1.rpc.call("w2", "subscribe", {"delegation_id": d.id})
        again = s1.rpc.call("w2", "subscribe", {"delegation_id": d.id})
        RpcNode(net, "w3").call("w2", "subscribe", {"delegation_id": d.id})
        assert first == again == {"known": True, "revoked": False}
        assert {peer: set(held) for peer, held in s2._holdings.items()} \
            == {"w1": {d.id}, "w3": {d.id}}
        assert s2.wallet.hub.subscriber_count(d.id) == 2
        s2.wallet.revoke(org, d.id)
        assert net.by_link_topic[
            ("w2", "w1", "notify:delegation_event")].messages == 1
        assert s2.holdings_count() == 0

    def test_subscriber_is_the_transport_source(self, deployment, org,
                                                alice):
        """A request cannot aim a home's pushes at a third party: the
        ``subscriber`` a caller declares is not read, the entry is the
        caller's own."""
        net, s1, s2, _role = deployment
        d = s2.wallet.store.graph.out_edges(alice.entity)[0]
        mallory = RpcNode(net, "mallory.example")
        pushed = []
        mallory.expose("delegation_event",
                       lambda src, params: pushed.append(src))
        mallory.call("w2", "subscribe",
                     {"delegation_id": d.id, "subscriber": "w1"})
        assert list(s2._holdings) == ["mallory.example"]
        s2.wallet.revoke(org, d.id)
        assert pushed == ["w2"]
        assert ("w2", "w1", "notify:delegation_event") \
            not in net.by_link_topic

    def test_only_the_holder_can_unsubscribe(self):
        """A holding is named by (peer, delegation id), and the peer is
        the transport source: naming a victim's delegation ids must not
        be enough to switch its revocation push off."""
        fed = build_distributed_federation(domains=6, users_per_domain=1,
                                           seed=7)
        assert fed.authorize(5, 0, 0) is not None
        home = fed.domains[3].home
        victim = fed.domains[0].server
        held = set(home._holdings[victim.address])
        assert held
        mallory = RpcNode(fed.network, "mallory.example")
        for delegation_id in held:
            mallory.notify(home.address, "unsubscribe",
                           {"delegation_id": delegation_id})
        assert set(home._holdings[victim.address]) == held
        fed.network.reset_counters()
        home.wallet.revoke(fed.domains[2].principal,
                           fed.domains[2].bridge.id)
        assert fed.network.by_topic[
            "notify:delegation_event"].messages == 1
        assert fed.authorize(5, 0, 0) is None
        # The holder's own release still works, once.
        for delegation_id in set(home._holdings[victim.address]):
            victim.remote_unsubscribe(home.address, delegation_id)
            assert delegation_id not in home._holdings.get(
                victim.address, {})
            victim.remote_unsubscribe(home.address, delegation_id)
        assert home.holdings_count() == 0


class TestConfirm:
    def test_confirm_valid(self, deployment, alice, clock):
        _net, s1, s2, role = deployment
        d = s2.wallet.store.graph.out_edges(alice.entity)[0]
        s1.cache.insert(d, (), home="w2", ttl=10.0)
        clock.advance(8.0)
        assert s1.remote_confirm("w2", d.id)
        assert s1.cache.entry(d.id).valid_until == 18.0

    def test_confirm_revoked_is_false(self, deployment, org, alice):
        _net, s1, s2, role = deployment
        d = s2.wallet.store.graph.out_edges(alice.entity)[0]
        s1.cache.insert(d, (), home="w2", ttl=10.0)
        s2.wallet.store.add_revocation(
            __import__("repro.core.delegation", fromlist=["revoke"]
                       ).revoke(org, d, revoked_at=0.0))
        assert not s1.remote_confirm("w2", d.id)


class TestDirectory:
    def test_add_get(self, deployment):
        _net, s1, s2, _role = deployment
        directory = WalletDirectory()
        directory.add(s1)
        directory.add(s2)
        assert directory.get("w1") is s1
        assert "w2" in directory
        assert len(directory) == 2

    def test_duplicate_rejected(self, deployment):
        _net, s1, _s2, _role = deployment
        directory = WalletDirectory()
        directory.add(s1)
        with pytest.raises(DiscoveryError):
            directory.add(s1)

    def test_unknown_address(self):
        with pytest.raises(DiscoveryError):
            WalletDirectory().get("ghost")

    def test_server_requires_address(self, org, clock):
        network = Network(clock=clock)
        wallet = Wallet(owner=org, clock=clock)  # no address
        with pytest.raises(DiscoveryError):
            WalletServer(network, wallet)
