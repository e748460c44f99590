"""Front-door router: ring routing, admission control, backpressure.

One router fronts N shards.  A request's ``ns`` (issuing namespace)
hashes onto the consistent ring to pick the shard; the router then
applies admission control against that shard's bounded queue: if
``pending() >= high_watermark`` the request is *shed* with a typed
``RETRY_LATER`` response (carrying ``retry_after_ms``) instead of
queueing without bound -- overload degrades to fast, explicit refusals
rather than collapse (``tests/service/test_service.py`` floods a
shallow queue and stops a process worker to show it).

The router's own metrics (``drbac_service_*``, catalogued in
docs/OBSERVABILITY.md) go to an *injected* registry -- pass
``obs.get_registry()`` at construction to fold them into the process
export, or a fresh one to keep a bench isolated.  Per-shard wallet and
memo tallies stay inside each shard's scoped registry; ``stats()``
gathers both sides.

Requests reach a shard as payload bytes through :meth:`Router.relay`;
``submit`` and ``stats()`` encode a dict, relay it and decode the answer.
"""

import queue
from concurrent.futures import Future
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.obs import MetricsRegistry

from .population import ServicePopulation
from .ring import ConsistentHashRing
from .shard import (
    DEFAULT_QUEUE_DEPTH, InlineShard, ProcessShard, Reply, ShardRuntime,
    ThreadShard, response_for,
)
from .transport import decode_payload, encode_payload

STATUS_OK = "ok"
STATUS_DENIED = "denied"
STATUS_RETRY_LATER = "retry-later"
STATUS_ERROR = "error"

MODES = ("inline", "thread", "process")
RETRY_AFTER_MS = 50.0   # what a shed response tells the client to wait


class ServiceError(Exception):
    """Service-layer configuration or routing failure."""


@dataclass
class RouterConfig:
    """Knobs for one router + shard fleet."""

    shards: int = 1
    mode: str = "inline"
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    high_watermark: int = 48

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ServiceError("need at least one shard")
        if self.mode not in MODES:
            raise ServiceError(f"mode must be one of {MODES}")
        if not 0 < self.high_watermark <= self.queue_depth:
            raise ServiceError(
                "need 0 < high_watermark <= queue_depth")


class Router:
    """Route requests to shards; shed when a shard queue is past its
    high-watermark."""

    def __init__(self, population: ServicePopulation,
                 config: Optional[RouterConfig] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.config = config if config is not None else RouterConfig()
        self.population = population
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        shard_ids = [f"shard-{i}" for i in range(self.config.shards)]
        self.ring = ConsistentHashRing(shard_ids)
        assignment: Dict[str, List[str]] = {s: [] for s in shard_ids}
        for ns in population.namespaces():
            assignment[self.ring.lookup(ns)].append(ns)
        self._backends: Dict[str, object] = {}
        for shard_id in shard_ids:
            self._backends[shard_id] = self._build_backend(
                shard_id, assignment[shard_id])
        self._c_requests, self._c_shed, self._g_depth = (
            {shard_id: make(name, shard=shard_id) for shard_id in shard_ids}
            for make, name in (
                (self.registry.counter, "drbac_service_requests_total"),
                (self.registry.counter, "drbac_service_shed_total"),
                (self.registry.gauge, "drbac_service_queue_depth")))
        self.latency = self.registry.histogram(
            "drbac_service_request_seconds")

    def _build_backend(self, shard_id: str, namespaces: List[str]):
        config = self.config
        if config.mode == "process":
            return ProcessShard(shard_id, self.population, namespaces,
                                queue_depth=config.queue_depth)
        runtime = ShardRuntime(shard_id, self.population, namespaces)
        if config.mode == "thread":
            return ThreadShard(runtime, queue_depth=config.queue_depth)
        return InlineShard(runtime)

    # -- routing ------------------------------------------------------------

    def route(self, namespace: str) -> str:
        return self.ring.lookup(namespace)

    def _shed_response(self, request: dict, shard_id: str) -> dict:
        self._c_shed[shard_id].inc()
        return response_for(request, STATUS_RETRY_LATER, shard_id,
                            retry_after_ms=RETRY_AFTER_MS)

    def _admit(self, request: dict):
        """Ring lookup and admission control: ``(backend, None)`` to
        go ahead, ``(None, response)`` when refused (no ``ns``) or shed."""
        ns = request.get("ns")
        if not isinstance(ns, str):
            return None, {"status": STATUS_ERROR,
                          "error": "request missing 'ns'"}
        shard_id = self.ring.lookup(ns)
        backend = self._backends[shard_id]
        self._c_requests[shard_id].inc()
        depth = backend.pending()
        self._g_depth[shard_id].set(depth)
        if depth >= self.config.high_watermark:
            return None, self._shed_response(request, shard_id)
        return backend, None

    def submit_nowait(self, request: dict) -> "Future[dict]":
        """Admit (or shed) a request; returns a future response.

        Shed decisions resolve immediately with ``RETRY_LATER``; the
        caller never blocks on a saturated shard.
        """
        return _exchange(self.relay, request)

    def submit(self, request: dict) -> dict:
        """Synchronous request/response through admission control (not
        from a thread running the event loop a shard answers on)."""
        started = perf_counter()
        response = self.submit_nowait(request).result()
        self.latency.observe(perf_counter() - started)
        return response

    async def attach(self) -> None:
        """Give the running event loop the process shards' pipes."""
        for backend in self._backends.values():
            if isinstance(backend, ProcessShard):
                await backend.attach()

    def relay(self, request: dict, payload: bytes,
              reply: Reply) -> Optional[Callable]:
        """Admit ``payload`` to its shard: ``request`` holds at least its
        ``ns`` and ``id``, and ``reply`` gets the response payload, now
        or later.  Returns what gives the shard slot back if the client
        leaves first, or None."""
        backend, response = self._admit(request)
        if backend is not None:
            try:
                return backend.relay(request, payload, reply)
            except queue.Full:
                # Bounded queue filled between the check and the put.
                response = self._shed_response(request, backend.shard_id)
        reply(encode_payload(response))
        return None

    # -- inspection ---------------------------------------------------------

    def stats(self) -> dict:
        """Router counters + per-shard runtime stats (via ``stats`` op).

        The ``stats`` op is namespace-free, so it goes straight to each
        backend's ``relay`` rather than through ring routing and
        admission control.
        """
        shards = {shard_id: _exchange(backend.relay, {"op": "stats"}).result()
                  for shard_id, backend in self._backends.items()}
        return {"shards": shards, "router": self.registry.snapshot()}

    def close(self) -> None:
        for backend in self._backends.values():
            backend.close()


def _exchange(relay: Callable, request: dict) -> "Future[dict]":
    """``request`` sent through ``relay`` as payload bytes; the decoded
    answer, in a future."""
    future: "Future[dict]" = Future()
    relay(request, encode_payload(request),
          lambda answer: future.set_result(decode_payload(answer)))
    return future
