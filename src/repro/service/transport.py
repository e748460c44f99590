"""Asyncio socket transport: canonical-codec frames over TCP.

Wire format: every message is one frame --

    +----------------+----------------------------------+
    | length (4B BE) | canonical_encode(dict) payload   |
    +----------------+----------------------------------+

The payload is the same canonical encoding every wallet already speaks
(``crypto/encoding.py``; ``discovery/wire.py`` rides it too), so a
service response's ``proof`` field is byte-identical to what a local
``canonical_encode(proof.to_dict())`` produces -- the byte-identity
guarantee the benchmark asserts end-to-end.

The pipe between the front door and a process shard carries the same
payloads, untouched, in frames whose length prefix is followed by a
4-byte request id (``pipe_frame``; docs/PROTOCOL.md draws both), so
one splitter, :meth:`FrameDecoder.frames`, serves both streams.

The front door is one buffered :mod:`asyncio` protocol per connection
that decodes only ``ns`` and ``id``, once the framing is walked: a bad
frame gets one ``bad-frame`` and a close.  Answers come back by
callback: one loop turn each way.
"""

import asyncio
import socket
import struct
from collections import deque
from time import perf_counter
from typing import List, Optional, Tuple

from repro.crypto.encoding import (
    EncodingError, canonical_decode, canonical_encode, canonical_split,
)

HEADER = struct.Struct(">I")
PIPE_HEADER = struct.Struct(">II")     # length (id included), request id
# Frames are request/response dicts, not bulk transfer: anything past
# this is hostile or corrupt (well under the codec's 16MB ceiling).
DEFAULT_MAX_FRAME = 1 << 20
PIPE_MAX_FRAME = DEFAULT_MAX_FRAME + HEADER.size

# Per connection: frames queued before the door stops reading, seconds a
# partial frame may wait, seconds silence may last with nothing owed.
MAX_QUEUED = 64
HALF_FRAME_SECONDS = 10.0
IDLE_SECONDS = 300.0
# Per server: open client connections; the door closes any past this.
MAX_CONNECTIONS = 256


class FrameError(Exception):
    """A frame violated the length-prefixed wire contract."""


def encode_payload(message: dict) -> bytes:
    """``message`` in canonical bytes, refused past the frame bound."""
    payload = canonical_encode(message)
    if len(payload) > DEFAULT_MAX_FRAME:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{DEFAULT_MAX_FRAME}-byte bound")
    return payload


def decode_payload(payload: bytes) -> dict:
    """The dict one frame carries; anything else is a bad frame."""
    try:
        message = canonical_decode(payload)
    except EncodingError as exc:
        raise FrameError(f"garbage frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise FrameError(
            f"frame payload must be a dict, got {type(message).__name__}")
    return message


def encode_frame(message: dict) -> bytes:
    """One length-prefixed canonical frame for ``message``."""
    payload = encode_payload(message)
    return HEADER.pack(len(payload)) + payload


def pipe_frame(request_id: int, payload: bytes) -> bytes:
    """The shard-pipe frame carrying ``payload`` under ``request_id``."""
    return PIPE_HEADER.pack(HEADER.size + len(payload), request_id) + payload


def split_pipe_frame(body: bytes) -> Tuple[int, bytes]:
    """``(request id, payload)`` of one frame off the shard pipe."""
    return HEADER.unpack_from(body)[0], body[HEADER.size:]


class FrameDecoder:
    """Incremental frame decoder over a byte stream.

    ``feed(data)`` buffers and returns every complete message,
    ``frames(data)`` the same frames still encoded; a malformed stream
    raises :class:`FrameError` and poisons the decoder (callers drop
    the connection -- resynchronizing inside a corrupt length-prefixed
    stream is not possible).
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()
        self._poisoned = False

    def feed(self, data: bytes) -> List[dict]:
        try:
            return [decode_payload(payload) for payload in self.frames(data)]
        except FrameError:
            self._poisoned = True
            raise

    def frames(self, data: bytes, limit: Optional[int] = None) -> List[bytes]:
        """Buffer ``data``; the payloads now complete (at most ``limit``)."""
        if self._poisoned:
            raise FrameError("decoder already failed; drop the connection")
        buffer = self._buffer
        buffer += data
        payloads: List[bytes] = []
        start = 0
        with memoryview(buffer) as view:
            while len(view) - start >= HEADER.size \
                    and len(payloads) != limit:
                (length,) = HEADER.unpack_from(view, start)
                if not 0 < length <= self.max_frame:
                    self._poisoned = True
                    raise FrameError(
                        "zero-length frame" if length == 0 else
                        f"declared frame length {length} exceeds the "
                        f"{self.max_frame}-byte bound")
                end = start + HEADER.size + length
                if end > len(view):
                    break
                payloads.append(bytes(view[start + HEADER.size:end]))
                start = end
        del buffer[:start]
        return payloads

    def pending_bytes(self) -> int:
        """Bytes buffered but not yet split off as a frame."""
        return len(self._buffer)


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


class ServiceServer:
    """Asyncio TCP front end over a :class:`~repro.service.Router`.  One
    periodic sweep closes connections that held a partial frame past
    ``HALF_FRAME_SECONDS`` (with a ``bad-frame``) or stayed silent past
    ``IDLE_SECONDS``, and a connection past ``MAX_CONNECTIONS`` open
    ones is closed on arrival; ``closed`` counts the door's closes by
    reason."""

    def __init__(self, router, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.router = router
        self.host = host
        self.port = port
        self.closed = {reason: router.registry.counter(
            "drbac_service_connections_closed_total", reason=reason)
            for reason in ("bad-frame", "half-frame", "idle", "cap")}
        self.connections: set = set()
        self.inbox = memoryview(bytearray(1 << 16))    # see get_buffer
        self._server: Optional[asyncio.AbstractServer] = None
        self._sweeper: Optional[asyncio.TimerHandle] = None

    async def start(self) -> None:
        await self.router.attach()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._sweep()

    async def serve_forever(self) -> None:
        """Serve until cancelled, once :meth:`start` has run."""
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._sweeper.cancel()
            self._server.close()
            for connection in list(self.connections):
                connection.transport.close()
            await self._server.wait_closed()
            self._server = None

    def _sweep(self) -> None:
        loop = asyncio.get_running_loop()
        for connection in list(self.connections):
            if not connection.transport.is_closing():
                connection.check_deadlines(loop.time())
        self._sweeper = loop.call_later(
            min(HALF_FRAME_SECONDS, IDLE_SECONDS) / 4, self._sweep)


class _Connection(asyncio.BufferedProtocol):
    """One client: one request with a shard at a time, later frames queued
    in order (reading stops at ``MAX_QUEUED``) and drained in a loop, as an
    inline shard answers inside ``relay``, but not while writing is paused.
    Answers leave in request order; a client that leaves frees its slot."""

    def __init__(self, server: ServiceServer) -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self.queue: deque = deque()     # (routing fields, payload)
        self._decoder = FrameDecoder()
        self._busy = self._pumping = self._paused = False
        self._cancel = None     # gives the in-flight request's slot back
        self._started, self._heard = 0.0, asyncio.get_running_loop().time()
        self._partial_since: Optional[float] = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        if len(self.server.connections) >= MAX_CONNECTIONS:
            self.server.closed["cap"].inc()
            transport.close()
            return
        self.server.connections.add(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        """Every read lands in the server's one buffer, consumed before
        the next read (asyncio's own reads allocate 256 KiB apiece)."""
        return self.server.inbox

    def buffer_updated(self, nbytes: int) -> None:
        self._heard = asyncio.get_running_loop().time()
        self._take(self.server.inbox[:nbytes])
        self._pump()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.queue.clear()
        if self._cancel is not None:
            self._cancel()
        self.server.connections.discard(self)

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self._pump()

    def _take(self, data: bytes) -> None:
        """Queue the frames ``data`` completes, as many as fit, with the
        ``ns`` and ``id`` they route on; read on while they fit."""
        try:
            for payload in self._decoder.frames(
                    data, MAX_QUEUED - len(self.queue)):
                spans = canonical_split(payload)    # walks all the framing
                self.queue.append(({key: canonical_decode(spans[key])
                                    for key in ("id", "ns") if key in spans},
                                   payload))
                self._partial_since = None  # a frame completed
        except FrameError as exc:
            return self._close("bad-frame", str(exc))
        except EncodingError as exc:
            return self._close("bad-frame", f"garbage frame payload: {exc}")
        reading = len(self.queue) < MAX_QUEUED
        if reading != self.transport.is_reading():
            (self.transport.resume_reading if reading
             else self.transport.pause_reading)()

    def _pump(self) -> None:
        if self._pumping:
            return      # an inline shard's answer, inside the loop below
        self._pumping = True
        try:
            while self.queue and not (self._busy or self._paused):
                request, payload = self.queue.popleft()
                self._busy, self._started = True, perf_counter()
                self._cancel = self.server.router.relay(
                    request, payload, self._reply)
                if not self.transport.is_reading():
                    self._take(b"")     # the frames already buffered
        finally:
            self._pumping = False

    def _reply(self, answer: bytes) -> None:
        self._busy, self._cancel = False, None
        self.server.router.latency.observe(perf_counter() - self._started)
        if not self.transport.is_closing():
            self.transport.write(HEADER.pack(len(answer)) + answer)
            self._pump()

    def check_deadlines(self, now: float) -> None:
        """A partial frame is timed from the first sweep that sees it."""
        if not (self.transport.is_reading() and self._decoder.pending_bytes()):
            self._partial_since = None
        elif self._partial_since is None:
            self._partial_since = now
        elif now - self._partial_since > HALF_FRAME_SECONDS:
            return self._close("half-frame", f"partial frame held past "
                               f"{HALF_FRAME_SECONDS:g} s")
        if not (self._busy or self.queue) and now - self._heard > IDLE_SECONDS:
            self._close("idle")

    def _close(self, reason: str, detail: Optional[str] = None) -> None:
        """Count ``reason``; answer ``bad-frame`` if ``detail``; close."""
        self.server.closed[reason].inc()
        self.queue.clear()
        if detail is not None:
            self.transport.write(encode_frame(dict(
                status="error", error="bad-frame", detail=detail)))
        self.transport.close()


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class BlockingClient:
    """Minimal synchronous client (the loadgen CLI's socket mode)."""

    def __init__(self, host: str, port: int,
                 timeout: Optional[float] = 30.0) -> None:
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._decoder = FrameDecoder()
        self._inbox: List[dict] = []

    def request(self, message: dict) -> dict:
        self._sock.sendall(encode_frame(message))
        while not self._inbox:
            data = self._sock.recv(65536)
            if not data:
                raise FrameError("connection closed mid-response")
            self._inbox.extend(self._decoder.feed(data))
        return self._inbox.pop(0)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass
