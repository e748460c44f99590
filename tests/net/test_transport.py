import pytest

from repro.core.clock import SimClock
from repro.net.transport import Network, NetworkError


@pytest.fixture()
def net():
    network = Network()
    inboxes = {"a": [], "b": []}
    network.register("a", lambda src, topic, p: inboxes["a"].append(
        (src, topic, p)) or {"ok": True})
    network.register("b", lambda src, topic, p: inboxes["b"].append(
        (src, topic, p)) or {"ok": True})
    return network, inboxes


class TestDelivery:
    def test_send_and_reply(self, net):
        network, inboxes = net
        reply = network.send("a", "b", "test", {"x": 1})
        assert reply == {"ok": True}
        assert inboxes["b"] == [("a", "test", {"x": 1})]

    def test_unknown_destination(self, net):
        network, _ = net
        with pytest.raises(NetworkError):
            network.send("a", "nowhere", "t", {})

    def test_duplicate_registration_rejected(self, net):
        network, _ = net
        with pytest.raises(NetworkError):
            network.register("a", lambda *args: None)

    def test_empty_address_rejected(self):
        with pytest.raises(NetworkError):
            Network().register("", lambda *args: None)

    def test_unregister(self, net):
        network, _ = net
        network.unregister("b")
        with pytest.raises(NetworkError):
            network.send("a", "b", "t", {})


class TestAccounting:
    def test_message_and_byte_counters(self, net):
        network, _ = net
        network.send("a", "b", "t", {"x": 1})
        network.send("b", "a", "t", {"y": [1, 2, 3]})
        assert network.totals.messages == 2
        assert network.totals.bytes > 0
        assert network.by_link[("a", "b")].messages == 1
        assert network.by_topic["t"].messages == 2

    def test_snapshot_and_reset(self, net):
        network, _ = net
        network.send("a", "b", "t", {})
        assert network.snapshot()["messages"] == 1
        network.reset_counters()
        assert network.snapshot() == {"messages": 0, "bytes": 0}

    def test_payload_must_be_encodable(self, net):
        network, _ = net
        with pytest.raises(Exception):
            network.send("a", "b", "t", object())


class TestPartitions:
    def test_partition_blocks(self, net):
        network, _ = net
        network.partition("a", "b")
        with pytest.raises(NetworkError):
            network.send("a", "b", "t", {})
        with pytest.raises(NetworkError):
            network.send("b", "a", "t", {})

    def test_one_way_partition(self, net):
        network, _ = net
        network.partition("a", "b", bidirectional=False)
        with pytest.raises(NetworkError):
            network.send("a", "b", "t", {})
        network.send("b", "a", "t", {})  # reverse still works

    def test_heal(self, net):
        network, _ = net
        network.partition("a", "b")
        network.heal("a", "b")
        network.send("a", "b", "t", {})

    def test_is_reachable(self, net):
        network, _ = net
        assert network.is_reachable("a", "b")
        network.partition("a", "b")
        assert not network.is_reachable("a", "b")
        assert not network.is_reachable("a", "ghost")


class TestLatency:
    def test_latency_accumulates(self):
        clock = SimClock()
        network = Network(clock=clock, default_latency=2.0)
        network.register("x", lambda *args: None)
        network.send("y", "x", "t", {})
        assert network.total_latency == 2.0
        assert clock.now() == 0.0  # latency never moves the clock

    def test_per_link_override(self):
        network = Network(default_latency=1.0)
        network.register("x", lambda *args: None)
        network.set_latency("y", "x", 5.0)
        network.send("y", "x", "t", {})
        assert network.total_latency == 5.0

    def test_negative_latency_rejected(self):
        with pytest.raises(NetworkError):
            Network().set_latency("a", "b", -1.0)
