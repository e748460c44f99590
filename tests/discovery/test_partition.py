"""Discovery across network partitions.

A partitioned home must produce a *clean* miss: ``NetworkError`` is
absorbed into a negative result-cache entry (no crash, no stale
positive), repeats inside the negative TTL stay off the wire, and the
miss heals by TTL lapse once the link is back.

Each home has two endpoints: the RPC address (``w.mid``) and the
switchboard endpoint (``w.mid#sb``). Discovery rides the first only;
the tests cut both for a full partition, and the switchboard alone to
pin down that a search never depends on it.
"""

import pytest

from repro.core import (
    DiscoveryTag,
    ObjectFlag,
    Role,
    SubjectFlag,
    issue,
)
from repro.discovery.engine import DiscoveryEngine, DiscoveryStats
from repro.discovery.resolver import WalletServer
from repro.net.transport import Network
from repro.wallet.wallet import Wallet


def _cut(network, a, b):
    network.partition(a, b)
    network.partition(f"{a}#sb", f"{b}#sb")


def _mend(network, a, b):
    network.heal(a, b)
    network.heal(f"{a}#sb", f"{b}#sb")


@pytest.fixture()
def two_home(org, alice, clock):
    """[alice -> r1] local, [r1 -> r2] at w.mid, [r2 -> r3] at w.far."""
    network = Network(clock=clock)
    local = Wallet(owner=org, address="w.local", clock=clock)
    mid = Wallet(owner=org, address="w.mid", clock=clock)
    far = Wallet(owner=org, address="w.far", clock=clock)
    r1, r2, r3 = (Role(org.entity, n) for n in ("r1", "r2", "r3"))

    def tag(home):
        return DiscoveryTag(home=home, ttl=30.0,
                            subject_flag=SubjectFlag.SEARCH,
                            object_flag=ObjectFlag.NONE)

    local.publish(issue(org, alice.entity, r1, object_tag=tag("w.mid")))
    mid.publish(issue(org, r1, r2, subject_tag=tag("w.mid"),
                      object_tag=tag("w.far")))
    far.publish(issue(org, r2, r3, subject_tag=tag("w.far")))
    server = WalletServer(network, local, principal=org)
    WalletServer(network, mid, principal=org)
    WalletServer(network, far, principal=org)
    engine = DiscoveryEngine(server)
    return engine, server, network, (r1, r2, r3)


class TestFullPartition:
    def test_partitioned_home_is_a_clean_miss(self, two_home, alice):
        engine, _server, network, roles = two_home
        _cut(network, "w.local", "w.mid")
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, roles[2],
                               stats=stats) is None
        # The engine tried the home and absorbed the failure; nothing
        # leaked into the wallet.
        assert "w.mid" in stats.wallets_contacted
        assert stats.delegations_cached == 0
        assert len(engine.result_cache._growable) > 0

    def test_repeat_during_partition_stays_off_the_wire(self, two_home,
                                                        alice):
        engine, _server, network, roles = two_home
        _cut(network, "w.local", "w.mid")
        assert engine.discover(alice.entity, roles[2]) is None
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, roles[2],
                               stats=stats) is None
        # Inside the negative TTL the dead link is not retried.
        assert stats.wire_messages == 0
        assert stats.cache_negative_hits > 0

    def test_heal_plus_ttl_lapse_recovers(self, two_home, alice, clock):
        engine, server, network, roles = two_home
        _cut(network, "w.local", "w.mid")
        assert engine.discover(alice.entity, roles[2]) is None
        _mend(network, "w.local", "w.mid")
        # Still inside the negative TTL: the cached miss stands.
        assert engine.discover(alice.entity, roles[2]) is None
        clock.advance(engine.negative_ttl + 1.0)
        proof = engine.discover(alice.entity, roles[2])
        assert proof is not None
        server.wallet.validate(proof)

    def test_mid_epoch_partition_no_stale_positive(self, two_home,
                                                   alice, clock):
        """A successful discovery, then the home goes dark and the local
        leases lapse: the re-query is a clean miss, never a stale
        positive served from dead state."""
        engine, server, network, roles = two_home
        assert engine.discover(alice.entity, roles[2]) is not None
        clock.advance(31.0)                  # lapse the 30 s tag leases
        server.cache.sweep()
        _cut(network, "w.local", "w.mid")
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, roles[2],
                               stats=stats) is None
        assert stats.delegations_cached == 0

    def test_far_home_partitioned_partial_chain(self, two_home, alice):
        """Only the second hop is dark: the first hop's credentials are
        still absorbed, the overall search misses cleanly."""
        engine, server, network, roles = two_home
        _cut(network, "w.local", "w.far")
        stats = DiscoveryStats()
        assert engine.discover(alice.entity, roles[2],
                               stats=stats) is None
        assert stats.delegations_cached == 1    # d2 from w.mid landed
        assert server.wallet.store is not None
        assert engine.discover(alice.entity, roles[1]) is not None


class TestSwitchboardPartition:
    def test_sb_only_partition_falls_back_to_plain_encoding(
            self, two_home, alice):
        """The switchboard endpoints are dark but the RPC links are up:
        goals and answers are plain notifies that never needed a
        session, so the search succeeds with no handshake attempted."""
        engine, server, network, roles = two_home
        network.partition("w.local#sb", "w.mid#sb")
        network.partition("w.local#sb", "w.far#sb")
        stats = DiscoveryStats()
        proof = engine.discover(alice.entity, roles[2], stats=stats)
        assert proof is not None
        server.wallet.validate(proof)
        assert stats.rounds == 2
        assert server.switchboard.handshakes_completed == 0
        assert not any(topic.startswith("sb:")
                       for topic in network.by_topic)
