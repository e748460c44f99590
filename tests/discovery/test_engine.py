import pytest

from repro.core import (
    DiscoveryTag,
    ObjectFlag,
    Proof,
    Role,
    SubjectFlag,
    issue,
)
from repro.discovery import wire
from repro.discovery.engine import DiscoveryEngine, DiscoveryStats
from repro.discovery.resolver import WalletServer
from repro.net.transport import Network
from repro.wallet.wallet import Wallet


def _tag(home, subject_flag=SubjectFlag.SEARCH,
         object_flag=ObjectFlag.NONE, ttl=30.0):
    return DiscoveryTag(home=home, ttl=ttl, subject_flag=subject_flag,
                        object_flag=object_flag)


@pytest.fixture()
def two_hop(org, alice, bob, clock):
    """A chain split across two remote wallets, discoverable by tags.

    local:   [alice -> Org.r1] (published by the caller, tagged)
    w.mid:   [Org.r1 -> Org.r2] (tagged toward w.far)
    w.far:   [Org.r2 -> Org.r3]
    """
    network = Network(clock=clock)
    local = Wallet(owner=org, address="w.local", clock=clock)
    mid = Wallet(owner=org, address="w.mid", clock=clock)
    far = Wallet(owner=org, address="w.far", clock=clock)
    r1, r2, r3 = (Role(org.entity, n) for n in ("r1", "r2", "r3"))

    d1 = issue(org, alice.entity, r1, object_tag=_tag("w.mid"))
    d2 = issue(org, r1, r2, subject_tag=_tag("w.mid"),
               object_tag=_tag("w.far"))
    d3 = issue(org, r2, r3, subject_tag=_tag("w.far"))

    local.publish(d1)
    mid.publish(d2)
    far.publish(d3)

    server = WalletServer(network, local, principal=org)
    mid_server = WalletServer(network, mid, principal=org)
    far_server = WalletServer(network, far, principal=org)
    engine = DiscoveryEngine(server)
    engine.remote_servers = (mid_server, far_server)
    return engine, server, (r1, r2, r3), (d1, d2, d3), network


class TestForwardDiscovery:
    def test_two_hop_chain_found(self, two_hop, alice):
        engine, server, roles, _ds, _net = two_hop
        stats = DiscoveryStats()
        proof = engine.discover(alice.entity, roles[2], stats=stats)
        assert proof is not None
        server.wallet.validate(proof)
        assert stats.wallets_contacted == {"w.mid", "w.far"}
        assert stats.delegations_cached == 2
        assert not stats.local_hit

    def test_local_hit_short_circuits(self, two_hop, alice):
        engine, _server, roles, _ds, net = two_hop
        stats = DiscoveryStats()
        proof = engine.discover(alice.entity, roles[0], stats=stats)
        assert proof is not None
        assert stats.local_hit
        assert net.totals.messages == 0

    def test_unreachable_target_returns_none(self, two_hop, alice, org):
        engine, _server, _roles, _ds, _net = two_hop
        ghost = Role(org.entity, "ghost")
        assert engine.discover(alice.entity, ghost) is None

    def test_fetched_delegations_cached_locally(self, two_hop, alice):
        engine, server, roles, (d1, d2, d3), _net = two_hop
        engine.discover(alice.entity, roles[2])
        assert server.wallet.store.get_delegation(d2.id) is not None
        assert server.wallet.store.get_delegation(d3.id) is not None
        # A repeat query is now purely local.
        stats = DiscoveryStats()
        engine.discover(alice.entity, roles[2], stats=stats)
        assert stats.local_hit

    def test_subscriptions_propagate_revocation(self, two_hop, alice, org):
        engine, server, roles, (d1, d2, d3), _net = two_hop
        mid_server, _far_server = engine.remote_servers
        proof = engine.discover(alice.entity, roles[2])
        events = []
        monitor = server.wallet.monitor(
            proof, callback=lambda m, e: events.append(e))
        assert monitor.valid
        # Revoke d2 at its *home* wallet; the push must reach the local
        # subscriber, land the signed revocation, and kill the monitor.
        mid_server.wallet.revoke(org, d2.id)
        assert server.wallet.is_revoked(d2.id)
        assert not monitor.valid
        assert len(events) == 1

    def test_ttl_lapse_invalidates_cached_copy(self, two_hop, alice,
                                               clock):
        engine, server, roles, (d1, d2, d3), _net = two_hop
        proof = engine.discover(alice.entity, roles[2])
        monitor = server.wallet.monitor(proof)
        # No confirmations arrive; the 30 s tag TTL lapses.
        clock.advance(31.0)
        evicted = server.cache.sweep()
        assert set(evicted) == {d2.id, d3.id}
        assert not monitor.valid

    def test_no_tags_no_remote_search(self, org, alice, clock):
        network = Network(clock=clock)
        local = Wallet(owner=org, address="w.local", clock=clock)
        r = Role(org.entity, "r")
        local.publish(issue(org, alice.entity, Role(org.entity, "r0")))
        server = WalletServer(network, local, principal=org)
        engine = DiscoveryEngine(server)
        assert engine.discover(alice.entity, r) is None
        assert network.totals.messages == 0


class TestHints:
    def test_hint_directs_search(self, org, alice, clock):
        network = Network(clock=clock)
        local = Wallet(owner=org, address="w.local", clock=clock)
        remote = Wallet(owner=org, address="w.remote", clock=clock)
        r = Role(org.entity, "r")
        remote.publish(issue(org, alice.entity, r))
        server = WalletServer(network, local, principal=org)
        WalletServer(network, remote, principal=org)
        engine = DiscoveryEngine(server)
        from repro.core.roles import subject_key
        # Without a hint: nothing known about alice's home.
        assert engine.discover(alice.entity, r) is None
        proof = engine.discover(
            alice.entity, r,
            hints={subject_key(alice.entity): _tag("w.remote")})
        assert proof is not None


class TestReverseDiscovery:
    def test_object_flag_search(self, org, alice, clock):
        network = Network(clock=clock)
        local = Wallet(owner=org, address="w.local", clock=clock)
        remote = Wallet(owner=org, address="w.obj", clock=clock)
        r1, r2 = Role(org.entity, "r1"), Role(org.entity, "r2")
        # Local knows alice -> r1 (untagged subject), and that r2's home
        # stores delegations by object.
        local.publish(issue(org, alice.entity, r1))
        remote.publish(issue(
            org, r1, r2,
            object_tag=_tag("w.obj", subject_flag=SubjectFlag.NONE,
                            object_flag=ObjectFlag.SEARCH)))
        server = WalletServer(network, local, principal=org)
        WalletServer(network, remote, principal=org)
        engine = DiscoveryEngine(server)
        from repro.core.roles import subject_key
        stats = DiscoveryStats()
        proof = engine.discover(
            alice.entity, r2,
            hints={subject_key(r2): _tag(
                "w.obj", subject_flag=SubjectFlag.NONE,
                object_flag=ObjectFlag.SEARCH)},
            stats=stats)
        assert proof is not None
        assert stats.remote_object_queries + stats.remote_direct_queries \
            >= 1


class TestStoreFlagSemantics:
    def test_store_flag_queried_like_search(self, org, alice, clock):
        """'s' (store with subject) still directs one home query; the
        difference from 'S' is the closure *guarantee*, not mechanics
        (Section 4.2.1's mixed-flag paragraph)."""
        network = Network(clock=clock)
        local = Wallet(owner=org, address="w.local", clock=clock)
        remote = Wallet(owner=org, address="w.store", clock=clock)
        r1, r2 = Role(org.entity, "r1"), Role(org.entity, "r2")
        store_tag = _tag("w.store", subject_flag=SubjectFlag.STORE)
        local.publish(issue(org, alice.entity, r1,
                            object_tag=store_tag))
        # The continuing delegation, found at the store-flagged home,
        # leads to an 'S'-flagged role whose home holds the last hop.
        far = Wallet(owner=org, address="w.far", clock=clock)
        search_tag = _tag("w.far")
        mid = Role(org.entity, "mid")
        remote.publish(issue(org, r1, mid, subject_tag=store_tag,
                             object_tag=search_tag))
        far.publish(issue(org, mid, r2, subject_tag=search_tag))
        server = WalletServer(network, local, principal=org)
        WalletServer(network, remote, principal=org)
        WalletServer(network, far, principal=org)
        engine = DiscoveryEngine(server)
        stats = DiscoveryStats()
        proof = engine.discover(alice.entity, r2, stats=stats)
        assert proof is not None
        assert stats.wallets_contacted == {"w.store", "w.far"}

    def test_none_flag_never_queried(self, org, alice, clock):
        network = Network(clock=clock)
        local = Wallet(owner=org, address="w.local", clock=clock)
        remote = Wallet(owner=org, address="w.none", clock=clock)
        r1, r2 = Role(org.entity, "r1"), Role(org.entity, "r2")
        none_tag = _tag("w.none", subject_flag=SubjectFlag.NONE)
        local.publish(issue(org, alice.entity, r1, object_tag=none_tag))
        remote.publish(issue(org, r1, r2))
        server = WalletServer(network, local, principal=org)
        WalletServer(network, remote, principal=org)
        engine = DiscoveryEngine(server)
        assert engine.discover(alice.entity, r2) is None
        assert network.totals.messages == 0


class TestBudget:
    def test_budget_limits_remote_queries(self, two_hop, alice):
        engine, _server, roles, _ds, _net = two_hop
        stats = DiscoveryStats()
        proof = engine.discover(alice.entity, roles[2],
                                max_remote_queries=1, stats=stats)
        # One remote query is not enough to complete the two-hop chain.
        assert proof is None
        assert stats.rounds == 1
        assert stats.wallets_contacted == {"w.mid"}

    def test_budget_spent_exactly(self, two_hop, alice):
        engine, _server, roles, _ds, _net = two_hop
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, roles[2],
                               max_remote_queries=2,
                               stats=stats) is not None
        assert stats.rounds == 2

    @pytest.fixture()
    def endless(self, org, alice, clock):
        """Two hosts of one rogue operator that answer every goal with
        a freshly minted, perfectly valid link into the next role of
        an endless chain, homed at the other host."""
        from repro.core import create_principal
        network = Network(clock=clock)
        rogue = create_principal("Rogue")

        def role(i):
            return Role(rogue.entity, f"r{i}")

        def home(i):
            return ("liar.a", "liar.b")[i % 2]

        class EndlessServer(WalletServer):
            def _rpc_gem_eval(self, src, params):
                _direction, node = wire.gem_goal_from_wire(params["goal"])
                i = int(node.name[1:])
                link = issue(rogue, role(i), role(i + 1),
                             subject_tag=_tag(home(i)),
                             object_tag=_tag(home(i + 1)))
                self._gem_push_answers(src, params, [Proof.single(link)])

        for address in ("liar.a", "liar.b"):
            EndlessServer(network,
                          Wallet(owner=rogue, address=address, clock=clock),
                          principal=rogue)
        local = Wallet(owner=org, address="w.local", clock=clock)
        local.publish(issue(rogue, alice.entity, role(0),
                            object_tag=_tag(home(0))))
        engine = DiscoveryEngine(WalletServer(network, local,
                                              principal=org))
        return engine, Role(org.entity, "admin")

    def test_lying_home_stops_within_the_budget(self, endless, alice):
        engine, target = endless
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, target,
                               max_remote_queries=10,
                               stats=stats) is None
        assert stats.rounds == 10
        assert stats.delegations_cached == 10

    def test_lying_home_stops_at_max_depth(self, endless, alice):
        from repro.discovery.gem import MAX_DEPTH
        engine, target = endless
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, target,
                               max_remote_queries=10 * MAX_DEPTH,
                               stats=stats) is None
        assert stats.rounds == MAX_DEPTH + 1
