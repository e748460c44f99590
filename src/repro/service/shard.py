"""Shard runtime: a partition of home wallets inside its own scope.

A shard owns the home wallets of every namespace the ring assigns to
it, plus the scoped infrastructure those wallets share: a private
:class:`~repro.obs.MetricsRegistry`/:class:`~repro.obs.Tracer` pair and
a private :class:`~repro.crypto.verify_cache.VerificationMemo`.
Nothing a shard does leaks into the process-global registries --
the code linter's ``service-injection`` and ``scope-escape`` rules
(``tools/reprolint.py``) keep it that way -- so shards compose: one per
process, N per process, or forked workers, all with identical behavior.

The memo does not answer a shard's repeats: the proof cache does, or
a credential found in the shard's ``CredentialIndex`` is an object
whose per-object ``_sig_ok`` flag is already set, so the memo is never
asked (``service.shard.memo_hit_share`` reads 0.0 on both ``svc_*``
workloads of ``benchmarks/e2e``).  Process shards add real
parallelism; docs/PERFORMANCE.md ("Service layer") says which rows
price it.

Backends
--------

:class:`InlineShard`   runs requests on the caller's thread.
:class:`ThreadShard`   a worker thread behind a bounded queue.
:class:`ProcessShard`  a forked worker on one end of a socketpair that
                       inherits the parent's population; request bytes
                       cross the parent as they came.

Every backend has one method, ``relay(request, payload, reply)``, and
``reply`` gets the bytes :meth:`ShardRuntime.handle` (the one entry
point: payload in, payload out) answers -- inline before ``relay``
returns, from a thread (on the caller's event loop if it runs one), from
a process when the pipe answers (``shard-unavailable`` once the worker
is dead).  The shard decodes every field but the door's ``ns`` and
``id`` inside its typed-error path, so one that does not decode is its
``status: error``.
"""

import asyncio
import hashlib
import queue
import socket
import threading
from contextlib import contextmanager
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.core.clock import SimClock
from repro.core.delegation import Delegation, Revocation
from repro.core.errors import DRBACError, ProofError, PublicationError
from repro.crypto import verify_cache
from repro.crypto.encoding import Canonical, canonical_decode, canonical_split
from repro.crypto.pools import make_room
from repro.crypto.verify_cache import VerificationMemo
from repro.obs import MetricsRegistry, Tracer
from repro.wallet.wallet import Wallet

from .population import SERVICE_EPOCH, ServicePopulation
from .transport import (
    PIPE_MAX_FRAME, FrameDecoder, encode_payload, pipe_frame,
    split_pipe_frame,
)

DEFAULT_QUEUE_DEPTH = 64
CREDENTIAL_INDEX_SIZE = verify_cache.DEFAULT_MAXSIZE
Reply = Callable[[bytes], None]     # takes a response payload

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

    def __init__(self, shard_id: str) -> None:
        self.shard_id = shard_id
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        # Construct the memo inside the obs scope so its counters land
        # in this shard's registry, not the process-global one.
        with obs.scoped(registry=self.registry, tracer=self.tracer):
            self.memo = VerificationMemo()

    @contextmanager
    def activate(self):
        """Enter the shard's scopes (obs + verify memo)."""
        with obs.scoped(registry=self.registry, tracer=self.tracer):
            with verify_cache.scoped(self.memo):
                yield self


class CredentialIndex:
    """A bounded memo of ``Delegation.from_dict(canonical_decode(span))``
    keyed by the span's SHA-256: never stale, oldest out first."""

    def __init__(self) -> None:
        self._entries: Dict[bytes, Delegation] = {}
        self.stats = obs.CounterSet("drbac_credential_index",
                                    ("hits", "misses"))

    def resolve(self, span: bytes) -> Delegation:
        key = hashlib.sha256(span).digest()
        credential = self._entries.get(key)
        if credential is not None:
            self.stats.c_hits.inc()
            return credential
        self.stats.c_misses.inc()
        credential = Delegation.from_dict(canonical_decode(span))
        make_room(self._entries, CREDENTIAL_INDEX_SIZE)
        self._entries[key] = credential
        return credential

    def info(self) -> dict:
        return dict(self.stats.to_dict(), entries=len(self._entries),
                    maxsize=CREDENTIAL_INDEX_SIZE)


class ShardRuntime:
    """Home wallets for one shard's namespaces, plus request dispatch."""

    def __init__(self, shard_id: str, population: ServicePopulation,
                 namespaces: List[str]) -> None:
        self.shard_id = shard_id
        self.context = ShardContext(shard_id)
        self.clock = SimClock(SERVICE_EPOCH)
        self._homes: Dict[str, Tuple[Wallet, object]] = {}
        index_of = {ns: d for d, ns in enumerate(population.namespaces())}
        with self.context.activate():
            self.credentials = CredentialIndex()
            for ns in namespaces:
                domain = population.domain(index_of[ns])
                home = Wallet(owner=domain.authority,
                              address=f"wallet.{ns}", clock=self.clock)
                home.publish(domain.grant)
                self._homes[ns] = (home, domain)

    @property
    def namespaces(self) -> List[str]:
        return sorted(self._homes)

    def handle(self, payload: bytes) -> bytes:
        """The response payload to a request payload.  It never raises:
        a failure is answered as a typed error."""
        try:
            return encode_payload(self._serve(payload))
        except Exception as exc:    # keep serving; report the failure
            return encode_payload(
                {"status": _STATUS_ERROR, "shard": self.shard_id,
                 "error": f"{type(exc).__name__}: {exc}"})

    def _serve(self, payload: bytes) -> dict:
        """Dispatch ``payload``'s fields, decoded one by one; canonical
        key order puts ``id`` before all of them but ``credential``,
        which stays encoded for :attr:`credentials` to resolve."""
        request: dict = {}
        with self.context.activate():
            try:
                for key, span in canonical_split(payload).items():
                    request[key] = span if key == "credential" \
                        else canonical_decode(span)
                return self._dispatch(request)
            except (PublicationError, ProofError) as exc:
                return self._response(request, _STATUS_DENIED,
                                      reason=str(exc))
            except (DRBACError, KeyError, ValueError) as exc:
                return self._response(request, _STATUS_ERROR,
                                      error=f"malformed request: {exc}")

    # -- dispatch -----------------------------------------------------------

    def _response(self, request: dict, status: str, **fields) -> dict:
        return response_for(request, status, self.shard_id, **fields)

    def _home_for(self, request: dict) -> Tuple[Wallet, object]:
        ns = request["ns"]
        entry = self._homes.get(ns) if ns.__class__ is str else None
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
        """Publish the presented credential (every check runs; a stored
        or already verified one is not inserted or verified twice), then
        prove the request (monitoring is the caller's side)."""
        home, domain = self._home_for(request)
        presented = self.credentials.resolve(request["credential"])
        home.publish(presented)
        granted = home.prove(presented.subject, domain.access)
        if granted is None:
            return self._response(request, _STATUS_DENIED,
                                  granted=False, reason="no proof")
        return self._response(request, _STATUS_OK, granted=True,
                              proof=Canonical(granted.wire_bytes()))

    def _op_publish(self, request: dict) -> dict:
        home, _ = self._home_for(request)
        inserted = home.publish(
            self.credentials.resolve(request["credential"]))
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
            credentials=self.credentials.info(),
            wallets=wallets,
            metrics=self.context.registry.snapshot(),
        )


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


def _running_loop() -> Optional[asyncio.AbstractEventLoop]:
    """The event loop running in this thread, or None."""
    try:
        return asyncio.get_running_loop()
    except RuntimeError:
        return None


class InlineShard:
    """Synchronous backend: the caller's thread runs the request."""

    def __init__(self, runtime: ShardRuntime) -> None:
        self.runtime = runtime
        self.shard_id = runtime.shard_id

    def pending(self) -> int:
        return 0

    def relay(self, _request: dict, payload: bytes, reply: Reply) -> None:
        reply(self.runtime.handle(payload))

    def close(self) -> None:
        pass


class ThreadShard:
    """A worker thread draining a bounded queue; ``pending()`` counts
    accepted-but-unfinished requests, and a full queue raises
    ``queue.Full`` (the router answers RETRY_LATER to both)."""

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

    def relay(self, _request: dict, payload: bytes, reply: Reply) -> None:
        loop = _running_loop()
        if loop is not None:
            reply = partial(loop.call_soon_threadsafe, reply)
        with self._lock:
            self._pending += 1
        try:
            self._queue.put_nowait((payload, reply))
        except queue.Full:
            with self._lock:
                self._pending -= 1
            raise

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            payload, reply = item
            try:
                reply(self.runtime.handle(payload))
            except Exception:   # a caller's reply must not kill the worker
                pass
            finally:
                with self._lock:
                    self._pending -= 1

    def close(self) -> None:
        self._queue.put(None)
        self._worker.join(timeout=5.0)


def _process_worker(shard_id: str, population: ServicePopulation,
                    namespaces: List[str], pipe: socket.socket,
                    parent_end: socket.socket) -> None:
    """Forked worker main loop: build the runtime, then serve frame by
    frame until the parent hangs up."""
    parent_end.close()      # or the parent's death would never read as EOF
    runtime = ShardRuntime(shard_id, population, namespaces)
    decoder = FrameDecoder(max_frame=PIPE_MAX_FRAME)
    while True:
        data = pipe.recv(65536)
        if not data:
            return
        for body in decoder.frames(data):
            request_id, payload = split_pipe_frame(body)
            pipe.sendall(pipe_frame(request_id, runtime.handle(payload)))


class ProcessShard(asyncio.BufferedProtocol):
    """A forked worker behind one socketpair; the child builds its
    :class:`ShardRuntime` from the parent's population (nothing pickled).

    Until :meth:`attach`, ``relay`` callers take turns to send one
    request and read the pipe until it is answered; after it only the
    event loop's thread may ``relay``, through a transport whose
    protocol is this object.  Both wait in ``_waiting[request id] =
    (request, reply)`` (so ``pending()`` is honest either way) for the
    answer read off the pipe, or ``shard-unavailable`` from a dead worker.
    """

    def __init__(self, shard_id: str, population: ServicePopulation,
                 namespaces: List[str],
                 queue_depth: int = DEFAULT_QUEUE_DEPTH) -> None:
        import multiprocessing
        self.shard_id = shard_id
        self._queue_depth = queue_depth
        self._sock, worker_end = socket.socketpair()
        self._decoder = FrameDecoder(max_frame=PIPE_MAX_FRAME)
        self._inbox = memoryview(bytearray(1 << 16))
        self._waiting: Dict[int, Tuple[dict, Reply]] = {}
        self._next_id = 0
        self._admission = threading.Lock()
        self._turn = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._transport: Optional[asyncio.Transport] = None
        self._process = multiprocessing.get_context("fork").Process(
            target=_process_worker,
            args=(shard_id, population, namespaces, worker_end, self._sock),
            daemon=True)
        self._process.start()
        worker_end.close()

    def pending(self) -> int:
        return len(self._waiting)

    def _admit(self, request: dict, reply: Reply) -> int:
        with self._admission:
            if len(self._waiting) >= self._queue_depth:
                raise queue.Full
            request_id = self._next_id
            self._next_id = (request_id + 1) & 0xFFFFFFFF
            self._waiting[request_id] = (request, reply)
        return request_id

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._inbox      # as the socket door's, and for the same reason

    def buffer_updated(self, nbytes: int) -> None:
        for body in self._decoder.frames(self._inbox[:nbytes]):
            request_id, answer = split_pipe_frame(body)
            waiter = self._waiting.pop(request_id, None)
            if waiter is not None:      # else its client has left
                waiter[1](answer)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        for request_id in list(self._waiting):
            waiter = self._waiting.pop(request_id, None)
            if waiter is not None:
                waiter[1](encode_payload(response_for(
                    waiter[0], _STATUS_ERROR, self.shard_id,
                    error="shard-unavailable")))

    async def attach(self) -> None:
        """Hand the pipe to the running event loop."""
        self._loop = asyncio.get_running_loop()
        self._transport, _ = await self._loop.create_connection(
            lambda: self, sock=self._sock)

    def relay(self, request: dict, payload: bytes,
              reply: Reply) -> Optional[Callable]:
        """Send ``payload``; returns what gives its slot back if the
        caller leaves first (attached pipe only), or None."""
        if self._loop is not None and _running_loop() is not self._loop:
            raise RuntimeError(
                f"{self.shard_id}'s pipe belongs to the event loop")
        request_id = self._admit(request, reply)
        if self._transport is not None:
            if self._transport.is_closing():
                self.connection_lost(None)      # the worker is gone
                return None
            self._transport.write(pipe_frame(request_id, payload))
            return partial(self._waiting.pop, request_id, None)
        try:        # take a turn: send, then read until answered
            with self._turn:
                self._sock.sendall(pipe_frame(request_id, payload))
                while request_id in self._waiting:
                    nbytes = self._sock.recv_into(self._inbox)
                    if not nbytes:
                        raise ConnectionError("shard worker hung up")
                    self.buffer_updated(nbytes)
        except OSError:
            self.connection_lost(None)
        finally:
            self._waiting.pop(request_id, None)
        return None

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
