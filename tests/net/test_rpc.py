import pytest

from repro import obs
from repro.net.rpc import RpcError, RpcNode
from repro.net.transport import Network


@pytest.fixture()
def nodes():
    network = Network()
    a = RpcNode(network, "a")
    b = RpcNode(network, "b")
    return network, a, b


class TestCalls:
    def test_round_trip(self, nodes):
        _net, a, b = nodes
        b.expose("echo", lambda src, params: {"from": src, "got": params})
        result = a.call("b", "echo", {"x": 1})
        assert result == {"from": "a", "got": {"x": 1}}

    def test_unknown_method(self, nodes):
        _net, a, _b = nodes
        with pytest.raises(RpcError, match="no such method"):
            a.call("b", "missing")

    def test_remote_exception_propagates(self, nodes):
        _net, a, b = nodes

        def boom(_src, _params):
            raise ValueError("kapow")

        b.expose("boom", boom)
        with pytest.raises(RpcError, match="kapow"):
            a.call("b", "boom")

    def test_both_legs_counted(self, nodes):
        net, a, b = nodes
        b.expose("noop", lambda src, params: None)
        a.call("b", "noop")
        assert net.totals.messages == 2  # request + reply

    def test_malformed_envelope_handled(self, nodes):
        net, _a, _b = nodes
        reply = net.send("x", "b", "raw", {"not": "an rpc"})
        assert reply["error"] == "malformed rpc envelope"


class TestNotify:
    def test_one_way(self, nodes):
        net, a, b = nodes
        got = []
        b.expose("event", lambda src, params: got.append(params))
        a.notify("b", "event", {"n": 1})
        assert got == [{"n": 1}]
        assert net.totals.messages == 1  # no reply leg

    def test_notify_swallows_remote_errors(self, nodes):
        _net, a, b = nodes

        def boom(_src, _params):
            raise ValueError("lost")

        b.expose("boom", boom)
        a.notify("b", "boom")  # no exception at caller

    def test_notify_error_is_counted_and_named(self, nodes):
        """Nothing rides back on a one-way message, so a handler's
        failure is counted per method and named on the open span."""
        _net, a, b = nodes
        got = []

        def flaky(_src, params):
            if params is None:
                raise KeyError("lost")
            got.append(params)

        b.expose("flaky", flaky)
        with obs.scoped() as scope, obs.enabled_ctx():
            with obs.span("sender") as span:
                assert a.notify("b", "flaky") is None
            a.notify("b", "flaky", {"n": 2})    # the next one arrives
            errors = [c for c in scope.registry.counters()
                      if c.name == "drbac_rpc_notify_errors_total"]
        assert [(dict(c.labels), c.value) for c in errors] \
            == [({"method": "flaky"}, 1)]
        assert span.attrs["notify_error"] == "KeyError"
        assert got == [{"n": 2}]

    def test_notify_unknown_method_silent(self, nodes):
        _net, a, _b = nodes
        a.notify("b", "ghost")


class TestClose:
    def test_closed_node_unreachable(self, nodes):
        _net, a, b = nodes
        b.close()
        with pytest.raises(Exception):
            a.call("b", "anything")
