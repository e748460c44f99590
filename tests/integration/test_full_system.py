"""Capstone: every subsystem in one deterministic scenario.

A 3-domain federation runs for simulated hours: sessions opened through
the DisCo layer over multi-wallet discovery, maintenance loops keeping
TTL leases alive, a bridge credential renewed mid-flight, a user
revoked, a partition healing, and the analysis tooling agreeing with
the wallets at every step.
"""

import pytest

from repro.analysis.audit import principals_with_access
from repro.analysis.cut import minimal_revocation_set
from repro.analysis.whatif import what_if_revoked
from repro.core import renew
from repro.disco.service import DiscoService
from repro.disco.sessions import SessionState
from repro.net.simnet import Simulation
from repro.discovery.maintenance import schedule_maintenance
from repro.workloads.scenarios import build_distributed_federation


@pytest.fixture()
def world():
    fed = build_distributed_federation(domains=3, users_per_domain=2,
                                       ttl=120.0)
    simulation = Simulation(clock=fed.clock)
    services = []
    for site in fed.domains:
        service = DiscoService(site.server.wallet, engine=site.engine)
        service.register_resource("res", site.access)
        services.append(service)
        schedule_maintenance(simulation, site.server, interval=30.0,
                             until=3600.0)
    return fed, simulation, services


def _open_session(fed, services, user_domain, user_index,
                  resource_domain):
    site = fed.domains[user_domain]
    credential = site.credentials[user_index]
    return services[resource_domain].request_access(
        site.users[user_index].entity, "res",
        presented=[(credential, ())])


class TestFullSystem:
    def test_hours_of_operation(self, world):
        fed, simulation, services = world

        # t=0: two cross-domain sessions and one local session open.
        s_cross1 = _open_session(fed, services, 1, 0, 0)  # 1 bridge
        s_cross2 = _open_session(fed, services, 2, 0, 0)  # 2 bridges
        s_local = _open_session(fed, services, 0, 0, 0)
        for session in (s_cross1, s_cross2, s_local):
            assert session.active

        # Run 10 minutes: leases refresh, everything stays up.
        simulation.run_until(600.0)
        for session in (s_cross1, s_cross2, s_local):
            assert session.active, session

        # The analysis layer agrees with the live wallets.
        graph0 = fed.domains[0].server.wallet.store.graph
        holders = principals_with_access(
            graph0, fed.domains[0].access,
            at=fed.clock.now(),
            revoked=fed.domains[0].server.wallet.store.is_revoked,
            support_provider=fed.domains[0].server.wallet
            .support_provider())
        holder_names = {p.display_name for p in holders}
        assert {"D0-u0", "D1-u0", "D2-u0"} <= holder_names

        # t=600: domain 1 revokes its user's credential at the serving
        # wallet; only that session dies.
        credential = fed.domains[1].credentials[0]
        services[0].wallet.revoke(fed.domains[1].principal,
                                  credential.id)
        assert s_cross1.state is SessionState.TERMINATED
        assert s_cross2.active and s_local.active

        # t=900: a partition hides domain 2's home; existing sessions
        # survive on their leases until... the lease lapses.
        simulation.run_until(900.0)
        fed.network.partition("server.d0.example", "wallet.d2.example")
        simulation.run_until(1200.0)  # > TTL past the partition
        assert s_cross2.state is SessionState.TERMINATED
        assert s_local.active

        # Heal and re-authorize: discovery works again.
        fed.network.heal("server.d0.example", "wallet.d2.example")
        s_again = _open_session(fed, services, 2, 1, 0)
        assert s_again.active

        # Min-cut audit: severing D2-u1 from D0.access needs exactly one
        # revocation, and what-if confirms the blast radius is just her.
        graph0 = fed.domains[0].server.wallet.store.graph
        user = fed.domains[2].users[1].entity
        cut = minimal_revocation_set(
            graph0, user, fed.domains[0].access,
            at=fed.clock.now(),
            revoked=fed.domains[0].server.wallet.store.is_revoked)
        assert len(cut) >= 1
        delta = what_if_revoked(
            graph0, cut.delegations[0].id,
            subjects=[user, fed.domains[0].users[0].entity],
            roles=[fed.domains[0].access],
            at=fed.clock.now(),
            revoked={
                d.id for d in graph0
                if fed.domains[0].server.wallet.store.is_revoked(d.id)
            })
        lost_subjects = {str(s) for s, _r in delta.lost}
        assert str(user) in lost_subjects or len(cut) > 1

        # Run out the hour; the surviving sessions are still alive.
        simulation.run_until(3600.0)
        assert s_local.active
        assert s_again.active

    def test_bridge_renewal_mid_session(self):
        fed = build_distributed_federation(domains=2, users_per_domain=1,
                                           ttl=500.0)
        simulation = Simulation(clock=fed.clock)
        for site in fed.domains:
            schedule_maintenance(simulation, site.server, interval=50.0,
                                 until=2000.0)
        # Reissue the bridge with an expiry so it can be renewed.
        from repro.core import issue
        site0, site1 = fed.domains
        old_bridge = site0.bridge
        site1.home.wallet.revoke(site0.principal, old_bridge.id)
        expiring = issue(site0.principal, site1.member, site0.member,
                         subject_tag=old_bridge.subject_tag,
                         object_tag=old_bridge.object_tag,
                         expiry=300.0)
        site1.home.wallet.publish(expiring)

        service = DiscoService(site0.server.wallet, engine=site0.engine)
        service.register_resource("res", site0.access)
        session = service.request_access(
            site1.users[0].entity, "res",
            presented=[(site1.credentials[0], ())])
        assert session.active

        # Renew at the home wallet before expiry; the serving wallet's
        # cache re-keys over the subscription.
        simulation.run_until(200.0)
        site1.home.wallet.publish_renewal(
            expiring.id,
            renew(site0.principal, expiring, new_expiry=1500.0))
        simulation.run_until(1000.0)  # far past the original expiry
        assert session.active

        simulation.run_until(1600.0)  # past the renewed expiry
        assert session.state is SessionState.TERMINATED
