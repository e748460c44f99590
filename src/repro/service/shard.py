"""Shard runtime: a partition of home wallets inside its own scope.

A shard owns the home wallets of every namespace the ring assigns to
it, plus the scoped infrastructure those wallets share: a private
:class:`~repro.obs.MetricsRegistry`/:class:`~repro.obs.Tracer` pair and
a private :class:`~repro.crypto.verify_cache.VerificationMemo`.
Nothing a shard does leaks into the process-global registries --
the code linter's ``service-injection`` and ``scope-escape`` rules
(``tools/reprolint.py``) keep it that way -- so shards compose: one per
process, N per process, or forked workers, all with identical behavior.

Each shard's 8192-entry memo covers only *its* namespaces' hot
credentials, so N shards hold N memos' worth of hot set; process
shards add real parallelism on top.  docs/PERFORMANCE.md ("Service
layer") says which ``benchmarks/e2e`` rows price both.

Backends
--------

:class:`InlineShard`   runs requests on the caller's thread (lowest
                       overhead; what the tier-1 tests drive).
:class:`ThreadShard`   a worker thread behind a bounded queue (gives
                       the router real queue depths to shed against).
:class:`ProcessShard`  a forked worker on one end of a socketpair; the
                       child rebuilds the runtime from the population
                       spec and does the decoding and encoding, so a
                       request's canonical bytes cross the parent as
                       they came (``transport.pipe_frame``).

Every backend answers ``submit(request) -> Future[dict]`` for callers
without an event loop and ``await serve_frame(request, payload) ->
bytes`` (the response frame) for the socket server's loop.
"""

import asyncio
import queue
import socket
import threading
from concurrent.futures import Future
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.clock import SimClock
from repro.core.delegation import Delegation, Revocation
from repro.core.errors import ProofError, PublicationError
from repro.crypto import verify_cache
from repro.crypto.verify_cache import VerificationMemo
from repro.obs import MetricsRegistry, Tracer
from repro.wallet.wallet import Wallet
from repro.workloads.scenarios import SERVICE_EPOCH, ServicePopulation

from .transport import (
    HEADER, PIPE_MAX_FRAME, FrameDecoder, decode_payload, encode_frame,
    encode_payload, pipe_frame, split_pipe_frame,
)

DEFAULT_MEMO_MAXSIZE = verify_cache.DEFAULT_MAXSIZE
DEFAULT_QUEUE_DEPTH = 64

_STATUS_OK = "ok"
_STATUS_DENIED = "denied"
_STATUS_ERROR = "error"


def response_for(request: dict, status: str, shard_id: str,
                 **fields) -> dict:
    """A response from ``shard_id``, echoing the request's ``id``."""
    response = {"status": status, "shard": shard_id}
    if "id" in request:
        response["id"] = request["id"]
    response.update(fields)
    return response


class ShardContext:
    """The scoped singletons one shard injects around its work."""

    def __init__(self, shard_id: str,
                 memo_maxsize: int = DEFAULT_MEMO_MAXSIZE) -> None:
        self.shard_id = shard_id
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        # Construct the memo inside the obs scope so its counters land
        # in this shard's registry, not the process-global one.
        with obs.scoped(registry=self.registry, tracer=self.tracer):
            self.memo = VerificationMemo(maxsize=memo_maxsize)

    @contextmanager
    def activate(self):
        """Enter the shard's scopes (obs + verify memo)."""
        with obs.scoped(registry=self.registry, tracer=self.tracer):
            with verify_cache.scoped(self.memo):
                yield self


class ShardRuntime:
    """Home wallets for one shard's namespaces, plus request dispatch."""

    def __init__(self, shard_id: str, population: ServicePopulation,
                 namespaces: List[str],
                 memo_maxsize: int = DEFAULT_MEMO_MAXSIZE,
                 wallet_cache_size: int = 4096) -> None:
        self.shard_id = shard_id
        self.population = population
        self.context = ShardContext(shard_id, memo_maxsize=memo_maxsize)
        self.clock = SimClock(SERVICE_EPOCH)
        self._homes: Dict[str, Tuple[Wallet, object]] = {}
        index_of = {ns: d for d, ns in enumerate(population.namespaces())}
        with self.context.activate():
            for ns in namespaces:
                domain = population.domain(index_of[ns])
                home = Wallet(owner=domain.authority,
                              address=f"wallet.{ns}", clock=self.clock,
                              cache_size=wallet_cache_size)
                home.publish(domain.grant)
                self._homes[ns] = (home, domain)

    @property
    def namespaces(self) -> List[str]:
        return sorted(self._homes)

    def handle(self, request: dict) -> dict:
        """Serve one request dict inside the shard's scopes."""
        with self.context.activate():
            try:
                return self._dispatch(request)
            except (PublicationError, ProofError) as exc:
                return self._response(request, _STATUS_DENIED,
                                      reason=str(exc))
            except (KeyError, TypeError, ValueError) as exc:
                return self._response(request, _STATUS_ERROR,
                                      error=f"malformed request: {exc}")

    # -- dispatch -----------------------------------------------------------

    def _response(self, request: dict, status: str, **fields) -> dict:
        return response_for(request, status, self.shard_id, **fields)

    def _home_for(self, request: dict) -> Tuple[Wallet, object]:
        ns = request["ns"]
        entry = self._homes.get(ns)
        if entry is None:
            raise ValueError(f"namespace {ns!r} is not homed on "
                             f"{self.shard_id}")
        return entry

    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "authorize":
            return self._op_authorize(request)
        if op == "publish":
            return self._op_publish(request)
        if op == "revoke":
            return self._op_revoke(request)
        if op == "ping":
            return self._response(request, _STATUS_OK, op="ping")
        if op == "stats":
            return self._op_stats(request)
        raise ValueError(f"unknown op {op!r}")

    def _op_authorize(self, request: dict) -> dict:
        """Publish the presented credential (dedup at the store, but the
        signature is verified at the door every time -- that is the
        per-request CPU the memo absorbs), then run the full
        ``authorize`` contract against the home wallet."""
        home, domain = self._home_for(request)
        credential = Delegation.from_dict(request["credential"])
        home.publish(credential)
        monitor = home.authorize(credential.subject, domain.access)
        if monitor is None:
            return self._response(request, _STATUS_DENIED,
                                  granted=False, reason="no proof")
        proof = monitor.proof
        monitor.cancel()  # monitoring is the caller's side of the contract
        return self._response(request, _STATUS_OK, granted=True,
                              proof=proof.to_dict())

    def _op_publish(self, request: dict) -> dict:
        home, _ = self._home_for(request)
        credential = Delegation.from_dict(request["credential"])
        inserted = home.publish(credential)
        return self._response(request, _STATUS_OK, inserted=inserted)

    def _op_revoke(self, request: dict) -> dict:
        home, _ = self._home_for(request)
        revocation = Revocation.from_dict(request["revocation"])
        inserted = home.publish_revocation(revocation)
        return self._response(request, _STATUS_OK, inserted=inserted)

    def _op_stats(self, request: dict) -> dict:
        wallets = {ns: home.cache_info()
                   for ns, (home, _) in self._homes.items()}
        return self._response(
            request, _STATUS_OK,
            namespaces=self.namespaces,
            memo=self.context.memo.info(),
            wallets=wallets,
            metrics=self.context.registry.snapshot(),
        )


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class InlineShard:
    """Synchronous backend: the caller's thread runs the request."""

    def __init__(self, runtime: ShardRuntime) -> None:
        self.runtime = runtime
        self.shard_id = runtime.shard_id

    def pending(self) -> int:
        return 0

    def submit(self, request: dict) -> "Future[dict]":
        future: "Future[dict]" = Future()
        future.set_result(self.runtime.handle(request))
        return future

    async def serve_frame(self, request: dict, _payload: bytes) -> bytes:
        return encode_frame(self.runtime.handle(request))

    def close(self) -> None:
        pass


class ThreadShard:
    """A worker thread draining a bounded queue.

    ``pending()`` counts accepted-but-unfinished requests; the router
    sheds against it.  ``submit`` raises ``queue.Full`` if the bounded
    queue overflows between the router's admission check and the put --
    the router converts that to RETRY_LATER too.
    """

    def __init__(self, runtime: ShardRuntime,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH) -> None:
        self.runtime = runtime
        self.shard_id = runtime.shard_id
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        self._pending = 0
        self._lock = threading.Lock()
        self._worker = threading.Thread(
            target=self._run, name=f"{self.shard_id}-worker", daemon=True)
        self._worker.start()

    def pending(self) -> int:
        with self._lock:
            return self._pending

    def submit(self, request: dict) -> "Future[dict]":
        future: "Future[dict]" = Future()
        with self._lock:
            self._pending += 1
        try:
            self._queue.put_nowait((request, future))
        except queue.Full:
            with self._lock:
                self._pending -= 1
            raise
        return future

    async def serve_frame(self, request: dict, _payload: bytes) -> bytes:
        return encode_frame(await asyncio.wrap_future(self.submit(request)))

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            request, future = item
            try:
                future.set_result(self.runtime.handle(request))
            except BaseException as exc:  # never kill the worker loop
                future.set_exception(exc)
            finally:
                with self._lock:
                    self._pending -= 1

    def close(self) -> None:
        self._queue.put(None)
        self._worker.join(timeout=5.0)


def _process_worker(shard_id: str, population_spec: dict,
                    namespaces: List[str], memo_maxsize: int,
                    pipe: socket.socket, parent_end: socket.socket) -> None:
    """Forked worker main loop: rebuild the runtime, then decode,
    handle and encode frame by frame until the parent hangs up."""
    parent_end.close()      # or the parent's death would never read as EOF
    runtime = ShardRuntime(
        shard_id, ServicePopulation(**population_spec), namespaces,
        memo_maxsize=memo_maxsize)
    decoder = FrameDecoder(max_frame=PIPE_MAX_FRAME)
    while True:
        data = pipe.recv(65536)
        if not data:
            return
        for body in decoder.frames(data):
            request_id, payload = split_pipe_frame(body)
            try:
                answer = encode_payload(
                    runtime.handle(decode_payload(payload)))
            except Exception as exc:    # keep serving; report the failure
                answer = encode_payload(
                    {"status": _STATUS_ERROR, "shard": shard_id,
                     "error": f"{type(exc).__name__}: {exc}"})
            pipe.sendall(pipe_frame(request_id, answer))


class ProcessShard(asyncio.Protocol):
    """A forked ``multiprocessing`` worker behind one socketpair.

    The child rebuilds its :class:`ShardRuntime` from the population
    *spec* (seed + sizes), so parent and child agree on every key and
    credential byte without shipping objects across the fork.

    The parent end has two users, never at once, and neither needs a
    helper thread.  Until :meth:`attach`, ``submit`` callers take turns
    to send one request and read the pipe until it is answered; after
    it the event loop owns the socket for good and ``serve_frame``
    writes through a transport whose protocol is this object.  Both
    wait on ``_waiting[request id]``, so ``pending()`` is honest either
    way, and a dead worker answers ``shard-unavailable`` from then on.
    """

    def __init__(self, shard_id: str, population_spec: dict,
                 namespaces: List[str],
                 memo_maxsize: int = DEFAULT_MEMO_MAXSIZE,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH) -> None:
        import multiprocessing
        self.shard_id = shard_id
        self._queue_depth = queue_depth
        self._sock, worker_end = socket.socketpair()
        self._decoder = FrameDecoder(max_frame=PIPE_MAX_FRAME)
        self._waiting: Dict[int, Future] = {}   # or asyncio futures
        self._next_id = 0
        self._admission = threading.Lock()
        self._turn = threading.Lock()
        self._transport: Optional[asyncio.Transport] = None
        self._process = multiprocessing.get_context("fork").Process(
            target=_process_worker,
            args=(shard_id, population_spec, namespaces, memo_maxsize,
                  worker_end, self._sock),
            daemon=True)
        self._process.start()
        worker_end.close()

    def pending(self) -> int:
        return len(self._waiting)

    def _admit(self, waiter) -> int:
        with self._admission:
            if len(self._waiting) >= self._queue_depth:
                raise queue.Full
            request_id = self._next_id
            self._next_id = (request_id + 1) & 0xFFFFFFFF
            self._waiting[request_id] = waiter
        return request_id

    def data_received(self, data: bytes) -> None:
        for body in self._decoder.frames(data):
            request_id, answer = split_pipe_frame(body)
            # No entry: the caller was cancelled or interrupted.
            waiter = self._waiting.get(request_id)
            if waiter is not None and not waiter.done():
                waiter.set_result(answer)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        for waiter in list(self._waiting.values()):
            if not waiter.done():
                waiter.set_result(None)

    def _unavailable(self, request: dict) -> dict:
        return response_for(request, _STATUS_ERROR, self.shard_id,
                            error="shard-unavailable")

    def submit(self, request: dict) -> "Future[dict]":
        if self._transport is not None:
            raise RuntimeError(
                f"{self.shard_id}'s pipe belongs to the event loop")
        payload = encode_payload(request)
        waiter: "Future[Optional[bytes]]" = Future()
        request_id = self._admit(waiter)
        try:
            with self._turn:
                self._sock.sendall(pipe_frame(request_id, payload))
                while not waiter.done():
                    data = self._sock.recv(65536)
                    if not data:
                        raise ConnectionError("shard worker hung up")
                    self.data_received(data)
        except OSError:
            self.connection_lost(None)
        finally:
            self._waiting.pop(request_id, None)
        answer = waiter.result()
        future: "Future[dict]" = Future()
        future.set_result(self._unavailable(request) if answer is None
                          else decode_payload(answer))
        return future

    async def attach(self) -> None:
        """Hand the pipe to the running event loop."""
        self._transport, _ = await asyncio.get_running_loop() \
            .create_connection(lambda: self, sock=self._sock)

    async def serve_frame(self, request: dict, payload: bytes) -> bytes:
        waiter = asyncio.get_running_loop().create_future()
        request_id = self._admit(waiter)
        try:
            answer = None
            if not self._transport.is_closing():
                self._transport.write(pipe_frame(request_id, payload))
                answer = await waiter
        finally:
            self._waiting.pop(request_id, None)
        if answer is None:
            return encode_frame(self._unavailable(request))
        return HEADER.pack(len(answer)) + answer

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)   # the worker reads EOF
        except OSError:
            pass                # the transport closed it on worker death
        self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        if self._transport is None:     # else the transport owns it
            self._sock.close()
