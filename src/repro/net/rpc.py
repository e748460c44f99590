"""Request/response RPC over the simulated transport.

Method dispatch with structured errors: a handler exception travels back
as an error reply and re-raises at the caller as :class:`RpcError`, so a
remote wallet rejecting a publication behaves exactly like a local one.
"""

from time import perf_counter
from typing import Any, Callable, Dict

from repro import obs
from repro.net.transport import Network

Method = Callable[[str, Any], Any]


class RpcError(Exception):
    """A remote handler raised; carries the remote error text."""

    def __init__(self, method: str, remote_error: str) -> None:
        super().__init__(f"remote error in {method!r}: {remote_error}")
        self.method = method
        self.remote_error = remote_error


def _rpc_record(method: str, started: float) -> None:
    """Per-method call count + round-trip latency (host time)."""
    obs.counter("drbac_rpc_calls_total", method=method).inc()
    obs.histogram("drbac_rpc_seconds",
                  method=method).observe(perf_counter() - started)


class RpcNode:
    """One addressable RPC endpoint."""

    def __init__(self, network: Network, address: str) -> None:
        self.network = network
        self.address = address
        self._methods: Dict[str, Method] = {}
        network.register(address, self._dispatch)

    def expose(self, name: str, method: Method) -> None:
        """Register ``method(src, params) -> result`` under ``name``."""
        self._methods[name] = method

    def call(self, dst: str, method: str, params: Any = None) -> Any:
        """Invoke ``method`` on the node at ``dst``.

        Request and reply each count as one message on the network.
        """
        started = perf_counter()
        with obs.span("rpc.call", method=method, dst=dst):
            reply = self.network.send(self.address, dst,
                                      f"rpc:{method}", {
                                          "method": method,
                                          "params": params,
                                      })
            # The reply crosses the wire too; account for it explicitly.
            self.network.send(dst, self.address,
                              f"rpc-reply:{method}", reply)
        _rpc_record(method, started)
        if reply.get("error") is not None:
            raise RpcError(method, reply["error"])
        return reply.get("result")

    def notify(self, dst: str, method: str, params: Any = None) -> None:
        """One-way message: no reply traffic, errors swallowed remotely."""
        obs.counter("drbac_rpc_notifies_total", method=method).inc()
        self.network.send(self.address, dst, f"notify:{method}", {
            "method": method,
            "params": params,
            "oneway": True,
        })

    def _dispatch(self, src: str, topic: str, message: Any) -> Any:
        if topic.startswith("rpc-reply:"):
            # Reply leg of a call; accounting only.
            return None
        if not isinstance(message, dict) or "method" not in message:
            return {"error": "malformed rpc envelope", "result": None}
        name = message["method"]
        handler = self._methods.get(name)
        oneway = bool(message.get("oneway"))
        if handler is None:
            if oneway:
                return None
            return {"error": f"no such method {name!r}", "result": None}
        try:
            result = handler(src, message.get("params"))
        except Exception as exc:  # noqa: BLE001 - fault boundary
            if oneway:
                # Nothing rides back on a one-way message: the failure
                # is counted (``name`` is an exposed method, so the
                # label is bounded) and named on the open span.
                obs.counter("drbac_rpc_notify_errors_total",
                            method=name).inc()
                span = obs.tracer().current()
                if span is not None:
                    span.set(notify_error=type(exc).__name__)
                return None
            return {
                "error": f"{type(exc).__name__}: {exc}",
                "result": None,
            }
        if oneway:
            return None
        return {"error": None, "result": result}

    def close(self) -> None:
        self.network.unregister(self.address)
