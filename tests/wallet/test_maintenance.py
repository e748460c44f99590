"""The maintenance loop: lease refresh and expiry sweeps over simulated
time, including home-wallet outages."""

import pytest

from repro.core import DiscoveryTag, Role, SubjectFlag, issue
from repro.core.roles import subject_key
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.maintenance import WalletMaintenance, schedule_maintenance
from repro.discovery.resolver import WalletServer
from repro.net.simnet import Simulation
from repro.net.transport import Network
from repro.wallet.wallet import Wallet

TTL = 30.0


@pytest.fixture()
def world(org, alice):
    """A home wallet, a client that cached one delegation with a 30 s
    lease, and a simulation driving the client's maintenance."""
    simulation = Simulation()
    clock = simulation.clock
    network = Network(clock=clock)
    role = Role(org.entity, "r")
    tag = DiscoveryTag(home="home", ttl=TTL,
                       subject_flag=SubjectFlag.SEARCH)
    d = issue(org, alice.entity, role, subject_tag=tag)
    home = WalletServer(network,
                        Wallet(owner=org, address="home", clock=clock),
                        principal=org)
    home.wallet.publish(d)
    client = WalletServer(network,
                          Wallet(owner=org, address="client",
                                 clock=clock), principal=org)
    engine = DiscoveryEngine(client, default_ttl=TTL)
    proof = engine.discover(alice.entity, role,
                            hints={subject_key(alice.entity): tag})
    assert proof is not None
    return simulation, network, home, client, d, role, proof


class TestLeaseRefresh:
    def test_session_survives_many_ttl_windows(self, world, alice, org):
        simulation, _net, _home, client, d, role, proof = world
        monitor = client.wallet.monitor(proof)
        maintenance = schedule_maintenance(simulation, client,
                                           interval=10.0, until=200.0)
        simulation.run_until(200.0)
        assert monitor.valid
        assert client.wallet.query_direct(alice.entity, role) is not None
        assert maintenance.stats.confirmations_succeeded > 0
        assert maintenance.stats.evictions == 0

    def test_confirmations_only_near_lease_end(self, world):
        simulation, _net, _home, client, *_ = world
        maintenance = schedule_maintenance(simulation, client,
                                           interval=5.0, until=14.0)
        simulation.run_until(14.0)
        # Lease runs to t=30; with margin 0.5 nothing needs confirming
        # before t=15.
        assert maintenance.stats.confirmations_attempted == 0

    def test_home_outage_lapses_lease(self, world):
        simulation, network, _home, client, d, role, proof = world
        monitor = client.wallet.monitor(proof)
        schedule_maintenance(simulation, client, interval=10.0,
                             until=100.0)
        network.partition("client", "home")
        simulation.run_until(100.0)
        assert not monitor.valid
        assert client.wallet.store.get_delegation(d.id) is None

    def test_home_side_revocation_beats_next_confirm(self, world, org):
        simulation, _net, home, client, d, _role, proof = world
        monitor = client.wallet.monitor(proof)
        schedule_maintenance(simulation, client, interval=10.0,
                             until=50.0)
        simulation.run_until(12.0)
        home.wallet.revoke(org, d.id)
        assert not monitor.valid  # push, not poll

    def test_confirm_refused_after_revocation(self, world, org):
        """If the push is lost (partition during revocation), the next
        confirmation probe returns invalid and the lease lapses."""
        simulation, network, home, client, d, role, proof = world
        monitor = client.wallet.monitor(proof)
        # Lose the push by cutting home -> client only.
        network.partition("home", "client", bidirectional=False)
        try:
            home.wallet.revoke(org, d.id)
        except Exception:
            pass  # push delivery failed; revocation stands at home
        assert monitor.valid  # client missed the push
        schedule_maintenance(simulation, client, interval=10.0,
                             until=100.0)
        simulation.run_until(100.0)
        # Confirmation probes (client -> home still up) returned
        # invalid, so the lease was not extended and the entry lapsed.
        assert not monitor.valid


class TestExpirySweeps:
    def test_sweep_announces_expirations(self, org, alice):
        simulation = Simulation()
        network = Network(clock=simulation.clock)
        wallet = Wallet(owner=org, address="w", clock=simulation.clock)
        server = WalletServer(network, wallet, principal=org)
        wallet.publish(issue(org, alice.entity, Role(org.entity, "r"),
                             expiry=25.0))
        maintenance = schedule_maintenance(simulation, server,
                                           interval=10.0, until=60.0)
        simulation.run_until(60.0)
        assert maintenance.stats.expirations_announced == 1

    def test_margin_validation(self, org):
        network = Network()
        wallet = Wallet(owner=org, address="w")
        server = WalletServer(network, wallet, principal=org)
        with pytest.raises(ValueError):
            WalletMaintenance(server, confirm_margin=0.0)
        with pytest.raises(ValueError):
            WalletMaintenance(server, confirm_margin=1.5)
