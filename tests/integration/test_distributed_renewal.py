"""Distributed credential renewal (Section 3.2.2 over the wire).

A delegation renewed at its home wallet must propagate to every remote
cache that subscribed to it: the caches fetch the replacement
certificate, validate the renewal relationship locally, re-key their
entries and subscriptions, and keep dependent proofs/monitors alive
across the original expiry -- with no polling and no session
interruption.
"""

import pytest

from repro.core import (
    DiscoveryTag,
    Role,
    SimClock,
    SubjectFlag,
    issue,
    renew,
)
from repro.discovery.engine import DiscoveryEngine
from repro.discovery.resolver import WalletServer
from repro.net.transport import Network
from repro.wallet.wallet import Wallet

TTL = 1000.0


@pytest.fixture()
def deployment(org, alice, clock):
    """Home wallet with a tagged, expiring delegation; a client that
    discovers and caches it."""
    network = Network(clock=clock)
    role = Role(org.entity, "r")
    tag = DiscoveryTag(home="home", ttl=TTL,
                       subject_flag=SubjectFlag.SEARCH)
    d = issue(org, alice.entity, role, expiry=100.0, subject_tag=tag)
    home = WalletServer(network,
                        Wallet(owner=org, address="home", clock=clock),
                        principal=org)
    home.wallet.publish(d)
    client = WalletServer(network,
                          Wallet(owner=org, address="client",
                                 clock=clock), principal=org)
    engine = DiscoveryEngine(client, default_ttl=TTL)
    from repro.core.roles import subject_key
    proof = engine.discover(alice.entity, role,
                            hints={subject_key(alice.entity): tag})
    assert proof is not None
    return network, home, client, d, role, proof


class TestRenewalPropagation:
    def test_renewal_reaches_remote_cache(self, deployment, org, alice):
        _net, home, client, d, role, _proof = deployment
        renewed = renew(org, d, new_expiry=500.0)
        home.wallet.publish_renewal(d.id, renewed)
        # The client cache swapped certificates.
        assert client.wallet.store.get_delegation(d.id) is None
        assert client.wallet.store.get_delegation(renewed.id) is not None

    def test_remote_queries_survive_original_expiry(self, deployment,
                                                    org, alice, clock):
        _net, home, client, d, role, _proof = deployment
        home.wallet.publish_renewal(d.id, renew(org, d, new_expiry=500.0))
        clock.advance(200.0)  # past the ORIGINAL expiry
        assert client.wallet.query_direct(alice.entity, role) is not None
        clock.advance(400.0)  # past the renewal too
        assert client.wallet.query_direct(alice.entity, role) is None

    def test_monitor_survives_distributed_renewal(self, deployment, org,
                                                  clock):
        _net, home, client, d, _role, proof = deployment
        fired = []
        monitor = client.wallet.monitor(
            proof, callback=lambda m, e: fired.append(e))
        home.wallet.publish_renewal(d.id, renew(org, d, new_expiry=500.0))
        assert monitor.valid
        assert fired == []
        clock.advance(200.0)
        client.wallet.expire_sweep()
        assert monitor.valid  # guarded by the renewed certificate now

    def test_revocation_of_renewed_certificate_propagates(
            self, deployment, org, clock):
        """The re-keyed subscription covers the NEW certificate id."""
        _net, home, client, d, role, proof = deployment
        renewed = renew(org, d, new_expiry=500.0)
        home.wallet.publish_renewal(d.id, renewed)
        monitor = client.wallet.monitor(
            client.wallet.query_direct(proof.subject, role))
        home.wallet.revoke(org, renewed.id)
        assert client.wallet.is_revoked(renewed.id)
        assert not monitor.valid

    def test_uninvolved_cache_ignores_renewal(self, deployment, org,
                                              clock, alice):
        """A wallet that never cached the delegation ignores the push."""
        net, home, _client, d, _role, _proof = deployment
        bystander = WalletServer(
            net, Wallet(owner=org, address="bystander", clock=clock),
            principal=org)
        home.wallet.publish_renewal(d.id, renew(org, d, new_expiry=500.0))
        assert len(bystander.wallet) == 0

    def test_renewal_costs_constant_messages(self, deployment, org):
        _net, home, _client, d, _role, _proof = deployment
        _net.reset_counters()
        home.wallet.publish_renewal(d.id, renew(org, d, new_expiry=500.0))
        # push + get_delegation round trip + new subscribe round trip
        # (bounded, independent of wallet sizes).
        assert _net.totals.messages <= 7

    def test_renewal_moves_the_holding_to_the_new_id(self, deployment,
                                                     org):
        """The re-key releases the old id at home and holds the new one:
        one holding before, one after, each recorded at both ends."""
        _net, home, client, d, _role, _proof = deployment
        assert set(home._holdings["client"]) == {d.id}
        renewed = renew(org, d, new_expiry=500.0)
        home.wallet.publish_renewal(d.id, renewed)
        assert set(home._holdings["client"]) == {renewed.id}
        assert client.cache.entry(renewed.id).held_at == {"home"}
        assert d.id not in client.cache


class TestRenewalBoundary:
    """The fetched renewal is untrusted input: what comes back is
    decoded inside the fetch's catch, and must be the credential the
    UPDATED event named."""

    @pytest.mark.parametrize("record", [
        None, 5, "x", {"supports": []}, {"delegation": {"subject": 5}},
        "another-credential"])
    def test_a_bad_fetch_changes_nothing(self, deployment, org, alice,
                                         record):
        network, home, client, d, role, _proof = deployment
        if record == "another-credential":
            other = issue(org, alice.entity, Role(org.entity, "other"))
            record = {"delegation": other.to_dict(), "supports": []}
        served = network._handlers["home"]

        def lying_home(src, topic, payload):
            if topic == "rpc:get_delegation":
                return {"error": None, "result": record}
            return served(src, topic, payload)

        network._handlers["home"] = lying_home
        entry = client.cache.entry(d.id)
        network.reset_counters()
        home.wallet.publish_renewal(d.id, renew(org, d, new_expiry=500.0))
        assert client.cache.entry(d.id) is entry
        assert entry.held_at == {"home"}
        assert client.cache.ids() == [d.id]
        assert set(home._holdings["client"]) == {d.id}
        assert set(network.by_topic) == {"notify:delegation_event",
                                         "rpc:get_delegation",
                                         "rpc-reply:get_delegation"}
