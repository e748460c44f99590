"""Request/response RPC over the simulated transport.

Method dispatch with structured errors: a handler exception travels back
as an error reply and re-raises at the caller as :class:`RpcError`, so a
remote wallet rejecting a publication behaves exactly like a local one.
"""

import traceback
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro import obs
from repro.net.transport import Network, NetworkError

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

    def call_batch(self, dst: str, method: str,
                   params_list: List[Any]) -> List[Any]:
        """Invoke ``method`` once per entry of ``params_list`` in a single
        round trip (the discovery fast path's RPC coalescing).

        The batch rides one request/reply pair regardless of length, so
        N coalesced invocations cost 2 messages instead of 2N. Items are
        executed in order; a handler exception fails only its own item.
        Returns the per-item results; an item whose handler raised
        re-raises here as :class:`RpcError` when its result is read --
        concretely, this method raises on the FIRST failed item after
        returning nothing, mirroring sequential ``call`` semantics.
        """
        params_list = list(params_list)
        started = perf_counter()
        with obs.span("rpc.call_batch", method=method, dst=dst,
                      items=len(params_list)):
            reply = self.network.send(self.address, dst,
                                      f"rpc:{method}", {
                                          "method": method,
                                          "batch": params_list,
                                      })
            self.network.send(dst, self.address,
                              f"rpc-reply:{method}", reply)
        _rpc_record(method, started)
        if reply.get("error") is not None:
            raise RpcError(method, reply["error"])
        results = []
        for item in reply.get("result") or []:
            if item.get("error") is not None:
                raise RpcError(method, item["error"])
            results.append(item.get("result"))
        return results

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
        if "batch" in message:
            items = []
            for params in message["batch"]:
                try:
                    items.append({"error": None,
                                  "result": handler(src, params)})
                except Exception as exc:  # noqa: BLE001 - fault boundary
                    items.append({
                        "error": f"{type(exc).__name__}: {exc}",
                        "result": None,
                    })
            return {"error": None, "result": items}
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
