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

Malformed input never crashes a shard: a zero, oversized, truncated,
or garbage frame raises :class:`FrameError` inside the decoder, the
server answers with one typed ``bad-frame`` error frame, closes that
connection, and keeps serving others (property-tested in
``tests/service/test_transport.py``).
"""

import asyncio
import socket
import struct
from typing import List, Optional, Tuple

from repro.crypto.encoding import (
    EncodingError, canonical_decode, canonical_encode,
)

HEADER = struct.Struct(">I")
PIPE_HEADER = struct.Struct(">II")     # length (id included), request id
# Frames are request/response dicts, not bulk transfer: anything past
# this is hostile or corrupt (well under the codec's 16MB ceiling).
DEFAULT_MAX_FRAME = 1 << 20
PIPE_MAX_FRAME = DEFAULT_MAX_FRAME + HEADER.size


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

    def frames(self, data: bytes) -> List[bytes]:
        """Buffer ``data``; the payload of every frame now complete."""
        if self._poisoned:
            raise FrameError("decoder already failed; drop the connection")
        buffer = self._buffer
        buffer += data
        payloads: List[bytes] = []
        start = 0
        with memoryview(buffer) as view:
            while len(view) - start >= HEADER.size:
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
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


class ServiceServer:
    """Asyncio TCP front end over a :class:`~repro.service.Router`.

    Requests on one connection are served in order (responses carry the
    request's ``id`` when present, so clients may still pipeline).  The
    front door decodes each request once, to validate it and read its
    ``ns``; :meth:`Router.relay` answers with the response frame, which
    a process shard encoded itself, so the loop never blocks on a shard
    and the process runs no helper thread.
    """

    def __init__(self, router, host: str = "127.0.0.1", port: int = 0,
                 max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.router = router
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        await self.router.attach()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        decoder = FrameDecoder(max_frame=self.max_frame)
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                try:
                    payloads = decoder.frames(data)
                    requests = [decode_payload(p) for p in payloads]
                except FrameError as exc:
                    writer.write(encode_frame(
                        {"status": "error", "error": "bad-frame",
                         "detail": str(exc)}))
                    await writer.drain()
                    return
                for request, payload in zip(requests, payloads):
                    writer.write(await self.router.relay(request, payload))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class BlockingClient:
    """Minimal synchronous client (the loadgen CLI's socket mode)."""

    def __init__(self, host: str, port: int,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 timeout: Optional[float] = 30.0) -> None:
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._decoder = FrameDecoder(max_frame=max_frame)
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

    def __enter__(self) -> "BlockingClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
