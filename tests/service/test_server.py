"""The socket server itself, in front of each kind of shard.

Every test runs ``ServiceServer`` and its clients on one event loop in
the test's own thread, so what a client reads are the bytes the server
wrote and any thread the service started shows in
``threading.active_count()``.  The reference throughout is a separate
inline ``Router`` over the same population: whatever shard answered,
the frame on the wire must be ``encode_frame`` of that router's
response dict.
"""

import asyncio
import collections
import multiprocessing
import os
import signal
import socket
import threading

import pytest

from repro.crypto.encoding import Canonical, canonical_decode, canonical_encode
from repro.obs import MetricsRegistry
from repro.service import (
    Router,
    RouterConfig,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_RETRY_LATER,
    FrameDecoder,
    ServiceServer,
    encode_frame,
)
from repro.service import transport
from repro.service.population import SERVICE_EPOCH
from repro.service.router import RETRY_AFTER_MS
from repro.service.transport import HEADER

from .test_service import POP, _authorize, reference_proof_bytes

MODES = ("inline", "thread", "process")
TIMEOUT = 20.0


def _serve(mode, scenario, **config):
    """Run ``scenario(server)`` against a started server, then
    stop the server and close the router, all on one loop."""
    router = Router(POP, RouterConfig(shards=2, mode=mode, **config),
                    registry=MetricsRegistry())

    async def main():
        server = ServiceServer(router)
        try:
            await server.start()
            return await asyncio.wait_for(
                scenario(server), TIMEOUT)
        finally:
            await server.stop()
            router.close()
            await asyncio.sleep(0.05)   # the loop sees the pipes close

    return asyncio.run(main())


def _connect(server):
    return asyncio.open_connection("127.0.0.1", server.port)


async def _read_frame(reader):
    """One raw frame off the socket, header included."""
    header = await reader.readexactly(HEADER.size)
    (length,) = HEADER.unpack(header)
    return header + await reader.readexactly(length)


async def _call(reader, writer, request):
    writer.write(encode_frame(request))
    return canonical_decode((await _read_frame(reader))[HEADER.size:])


def _on(router, shard_id, count):
    """``count`` principals whose namespace lives on ``shard_id``."""
    indices = [i for i in range(POP.population) if router.route(
        POP.namespace(POP.domain_of(i))) == shard_id]
    return indices[:count]


def _worker_pid(router, shard_id):
    return router._backends[shard_id]._process.pid


async def _until(condition):
    while not condition():
        await asyncio.sleep(0.002)


@pytest.mark.parametrize("mode", MODES)
def test_frames_are_the_inline_routers_response_encoded(mode):
    revoked = 123
    namespace = POP.namespace(POP.domain_of(revoked))
    requests = [_authorize(index) for index in (0, 41, 399)] + [
        {"op": "ping", "ns": POP.namespace(3), "id": 9},
        {"op": "publish", "ns": namespace,
         "credential": POP.credential(revoked).to_dict()},
        {"op": "revoke", "ns": namespace, "revocation": POP.revocation(
            revoked, revoked_at=SERVICE_EPOCH).to_dict()},
        _authorize(revoked),                            # denied
        {"op": "authorize"},                            # no ns
        {"op": "authorize", "ns": "nowhere.example"},   # not homed
        {"op": "frobnicate", "ns": POP.namespace(0)},
    ]
    reference = Router(POP, RouterConfig(shards=2, mode="inline"),
                       registry=MetricsRegistry())
    expected = [reference.submit(request) for request in requests]
    assert [r["status"] for r in expected[:3]] == [STATUS_OK] * 3
    assert {r["status"] for r in expected[3:]} >= {"denied", STATUS_ERROR}

    async def scenario(server):
        reader, writer = await _connect(server)
        frames = []
        for request in requests:
            writer.write(encode_frame(request))
            frames.append(await _read_frame(reader))
        writer.close()
        return frames

    frames = _serve(mode, scenario)
    assert frames == [encode_frame(response) for response in expected]
    for frame, index in zip(frames, (0, 41, 399)):
        proof = canonical_decode(frame[HEADER.size:])["proof"]
        assert canonical_encode(proof) == reference_proof_bytes(index)


@pytest.mark.parametrize("mode", MODES)
def test_back_to_back_requests_are_answered_in_order(mode):
    # Neighbouring requests go to different shards, whose answers may
    # be ready out of order.
    async def scenario(server):
        router = server.router
        first, second = _on(router, "shard-0", 4), _on(router, "shard-1", 4)
        indices = [i for pair in zip(first, second) for i in pair]
        reader, writer = await _connect(server)
        writer.write(b"".join(
            encode_frame(dict(_authorize(index), id=number))
            for number, index in enumerate(indices)))
        answers = [canonical_decode((await _read_frame(reader))[4:])
                   for _ in indices]
        writer.close()
        return answers

    answers = _serve(mode, scenario)
    assert [a["id"] for a in answers] == list(range(8))
    assert [a["shard"] for a in answers] == ["shard-0", "shard-1"] * 4
    assert all(a["status"] == STATUS_OK for a in answers)


@pytest.mark.parametrize("mode", MODES)
def test_garbage_frame_closes_only_its_own_connection(mode):
    async def scenario(server):
        good = await _connect(server)
        assert (await _call(*good, _authorize(1)))["status"] == STATUS_OK
        reader, writer = await _connect(server)
        junk = b"\xff\xfe\xfd\xfc"
        writer.write(HEADER.pack(len(junk)) + junk + encode_frame(
            {"op": "ping", "ns": POP.namespace(0)}))
        answer = canonical_decode((await _read_frame(reader))[4:])
        assert await reader.read() == b"", "one answer, then a close"
        writer.close()
        assert (await _call(*good, _authorize(2)))["status"] == STATUS_OK
        good[1].close()
        assert server.closed["bad-frame"].value == 1
        return answer

    answer = _serve(mode, scenario)
    assert answer["status"] == STATUS_ERROR
    assert answer["error"] == "bad-frame"
    assert "garbage" in answer["detail"]


def test_too_deep_frame_is_a_typed_bad_frame():
    # 3 000 nested lists used to escape decode_payload as RecursionError:
    # a traceback on the server and EOF for the client.
    deep = b"M\x00\x00\x00\x01" + canonical_encode("op") \
        + b"L\x00\x00\x00\x01" * 3000 + b"N"

    async def scenario(server):
        reader, writer = await _connect(server)
        writer.write(HEADER.pack(len(deep)) + deep)
        answer = canonical_decode((await _read_frame(reader))[4:])
        assert await reader.read() == b"", "one answer, then a close"
        writer.close()
        good = await _connect(server)
        assert (await _call(*good, _authorize(1)))["status"] == STATUS_OK
        good[1].close()
        return answer

    answer = _serve("inline", scenario)
    assert answer["status"] == STATUS_ERROR
    assert answer["error"] == "bad-frame"
    assert "nest" in answer["detail"]


def test_an_attached_pipe_refuses_callers_off_the_loop():
    # Once served, a process shard's pipe is the loop's: submit() and
    # stats() from another thread raise, and write nothing to it.
    async def scenario(server):
        router = server.router
        refusals = []

        def off_loop():
            for call in (lambda: router.submit(_authorize(9)), router.stats):
                try:
                    call()
                except RuntimeError as exc:
                    refusals.append(str(exc))

        caller = threading.Thread(target=off_loop)
        caller.start()
        await _until(lambda: not caller.is_alive())
        assert len(refusals) == 2
        assert all("belongs to the event loop" in r for r in refusals)
        assert [backend.pending() for backend in router._backends.values()] \
            == [0, 0]
        reader, writer = await _connect(server)
        answer = await _call(reader, writer, dict(_authorize(9), id=1))
        writer.close()
        return answer

    answer = _serve("process", scenario)
    assert answer["status"] == STATUS_OK and answer["id"] == 1


def test_process_shards_add_no_thread_and_leave_no_child():
    threads_before = threading.active_count()
    children_before = set(multiprocessing.active_children())

    async def scenario(server):
        reader, writer = await _connect(server)
        for index in range(20):
            response = await _call(reader, writer, _authorize(index))
            assert response["status"] == STATUS_OK
            assert threading.active_count() == threads_before
        writer.close()
        return set(multiprocessing.active_children()) - children_before

    workers = _serve("process", scenario)
    assert len(workers) == 2
    assert not any(worker.is_alive() for worker in workers)
    assert set(multiprocessing.active_children()) == children_before
    assert threading.active_count() == threads_before


def test_killed_worker_answers_typed_on_the_socket():
    async def scenario(server):
        router = server.router
        doomed, healthy = _on(router, "shard-0", 6), _on(router, "shard-1", 3)
        backend = router._backends["shard-0"]
        worker = _worker_pid(router, "shard-0")
        reader, writer = await _connect(server)
        assert (await _call(reader, writer,
                            _authorize(doomed[0])))["status"] == STATUS_OK
        # Mid-load: five connections each with a request in the pipe.
        os.kill(worker, signal.SIGSTOP)
        in_flight = []
        for index in doomed[:5]:
            connection = await _connect(server)
            connection[1].write(encode_frame(dict(_authorize(index),
                                                  id=index)))
            in_flight.append(connection)
        await _until(lambda: backend.pending() == 5)
        os.kill(worker, signal.SIGKILL)
        answers = []
        for connection_reader, connection_writer in in_flight:
            answers.append(canonical_decode(
                (await _read_frame(connection_reader))[4:]))
            connection_writer.close()
        assert answers == [
            {"status": STATUS_ERROR, "error": "shard-unavailable",
             "shard": "shard-0", "id": index} for index in doomed[:5]]
        assert backend.pending() == 0
        later = await _call(reader, writer, _authorize(doomed[5]))
        assert later == {"status": STATUS_ERROR, "shard": "shard-0",
                         "error": "shard-unavailable"}
        for index in healthy:
            response = await _call(reader, writer, _authorize(index))
            assert response["status"] == STATUS_OK
            assert response["shard"] == "shard-1"
        writer.close()

    _serve("process", scenario)


def test_socket_overload_sheds_and_a_vanished_client_leaks_nothing():
    async def scenario(server):
        router = server.router
        backend = router._backends["shard-0"]
        worker = _worker_pid(router, "shard-0")
        indices = _on(router, "shard-0", 10)
        os.kill(worker, signal.SIGSTOP)
        try:
            connections = []
            for index in indices:
                connection = await _connect(server)
                connection[1].write(encode_frame(_authorize(index)))
                connections.append(connection)
            # Past the high-watermark the front door answers at once.
            shed = [canonical_decode((await _read_frame(reader))[4:])
                    for reader, _ in connections[4:]]
            assert backend.pending() == 4
            # One admitted client walks away before its answer: its
            # slot comes back at once, with the worker still stopped.
            connections[0][1].close()
            await _until(lambda: backend.pending() == 3)
            assert not any(door.queue for door in server.connections)
        finally:
            os.kill(worker, signal.SIGCONT)
        served = [canonical_decode((await _read_frame(reader))[4:])
                  for reader, _ in connections[1:4]]
        await _until(lambda: backend.pending() == 0)
        for _, writer in connections[1:]:
            writer.close()
        return shed, served

    shed, served = _serve("process", scenario,
                          queue_depth=8, high_watermark=4)
    assert [r["status"] for r in shed] == [STATUS_RETRY_LATER] * 6
    assert all(r["retry_after_ms"] == RETRY_AFTER_MS
               and r["shard"] == "shard-0"
               for r in shed)
    assert [r["status"] for r in served] == [STATUS_OK] * 3


# -- the door's contract -----------------------------------------------------


class _Recording(collections.deque):
    """A connection's queue that remembers the longest it grew."""

    longest = 0

    def append(self, item):
        super().append(item)
        _Recording.longest = max(_Recording.longest, len(self))


@pytest.mark.parametrize("mode", MODES)
def test_pipelined_frames_come_back_in_order_within_the_queue_bound(
        mode, monkeypatch):
    monkeypatch.setattr(transport, "deque", _Recording)
    monkeypatch.setattr(_Recording, "longest", 0)
    namespaces = POP.namespaces()
    requests = [dict(_authorize(n % 40), id=n) if n % 10 == 0 else
                {"op": "ping", "ns": namespaces[n % len(namespaces)], "id": n}
                for n in range(1000)]

    async def scenario(server):
        reader, writer = await _connect(server)
        writer.write(b"".join(encode_frame(r) for r in requests))
        answers = [canonical_decode((await _read_frame(reader))[4:])
                   for _ in requests]
        writer.close()
        return answers

    answers = _serve(mode, scenario)
    assert [a["id"] for a in answers] == list(range(1000))
    assert all(a["status"] == STATUS_OK for a in answers)
    assert {a["shard"] for a in answers} == {"shard-0", "shard-1"}
    assert _Recording.longest == transport.MAX_QUEUED


@pytest.mark.parametrize("mode", MODES)
def test_a_client_that_stops_reading_is_not_dispatched_to(mode):
    requests = [dict(_authorize(n % 40), id=n) for n in range(300)]

    def relayed(server):
        return server.router.registry.total("drbac_service_requests_total")

    async def scenario(server):
        loop = asyncio.get_running_loop()
        client = socket.socket()
        client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        client.setblocking(False)
        await loop.sock_connect(client, ("127.0.0.1", server.port))
        await _until(lambda: server.connections)
        (door,) = server.connections
        # Small kernel buffers: the door's own write buffer fills first.
        door.transport.get_extra_info("socket").setsockopt(
            socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        sending = asyncio.ensure_future(loop.sock_sendall(
            client, b"".join(encode_frame(r) for r in requests)))
        await _until(lambda: door._paused)
        stalled = relayed(server)
        await asyncio.sleep(0.2)
        assert relayed(server) == stalled < len(requests)
        assert len(door.queue) <= transport.MAX_QUEUED
        decoder, answers = FrameDecoder(), []
        while len(answers) < len(requests):
            answers += decoder.feed(await loop.sock_recv(client, 65536))
        await sending
        client.close()
        return answers

    answers = _serve(mode, scenario)
    assert [a["id"] for a in answers] == list(range(300))
    assert all(a["status"] == STATUS_OK for a in answers)


def _encoded(value):
    return canonical_encode(value)


# Credential spans whose framing the door accepts but that no decode does.
UNDECODABLE = {
    "unsorted inner map": (b"M\x00\x00\x00\x02" + _encoded("b") + _encoded(1)
                           + _encoded("a") + _encoded(2),
                           "map keys not in canonical order"),
    "non-minimal int": (b"M\x00\x00\x00\x01" + _encoded("version")
                        + b"I\x00\x00\x00\x02\x00\x02",
                        "non-minimal integer encoding"),
    "invalid UTF-8": (b"M\x00\x00\x00\x01" + _encoded("issuer")
                      + b"S\x00\x00\x00\x02\xff\xfe",
                      "invalid UTF-8"),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("defect", sorted(UNDECODABLE))
def test_a_credential_that_does_not_decode_is_the_shards_error(mode, defect):
    span, reason = UNDECODABLE[defect]
    request = dict(_authorize(5), id=77, credential=Canonical(span))

    async def scenario(server):
        reader, writer = await _connect(server)
        answer = await _call(reader, writer, request)
        after = await _call(reader, writer, dict(_authorize(5), id=78))
        writer.close()
        assert server.closed["bad-frame"].value == 0
        return answer, after

    answer, after = _serve(mode, scenario)
    assert answer["status"] == STATUS_ERROR
    assert answer["id"] == 77 and answer["shard"] in ("shard-0", "shard-1")
    assert answer["error"].startswith("malformed request")
    assert reason in answer["error"]
    assert after["status"] == STATUS_OK and after["id"] == 78


def _closes(server):
    return {reason: counter.value for reason, counter in server.closed.items()}


@pytest.mark.parametrize("mode", MODES)
def test_a_partial_frame_held_too_long_is_a_typed_close(mode, monkeypatch):
    monkeypatch.setattr(transport, "HALF_FRAME_SECONDS", 0.2)

    async def scenario(server):
        reader, writer = await _connect(server)
        assert (await _call(reader, writer, _authorize(3)))["status"] \
            == STATUS_OK
        writer.write(HEADER.pack(100) + b"M\x00\x00")   # and no more
        answer = canonical_decode((await _read_frame(reader))[4:])
        assert await reader.read() == b"", "one answer, then a close"
        writer.close()
        return answer, _closes(server), server.router.registry.total(
            "drbac_service_connections_closed_total")

    answer, closes, total = _serve(mode, scenario)
    assert answer["status"] == STATUS_ERROR
    assert answer["error"] == "bad-frame"
    assert "partial frame" in answer["detail"]
    assert closes == {"bad-frame": 0, "half-frame": 1, "idle": 0, "cap": 0}
    assert total == 1


@pytest.mark.parametrize("mode", MODES)
def test_a_silent_connection_is_closed_as_idle(mode, monkeypatch):
    monkeypatch.setattr(transport, "IDLE_SECONDS", 0.2)
    ping = {"op": "ping", "ns": POP.namespace(0)}

    async def scenario(server):
        router = server.router
        quiet, chatty = await _connect(server), await _connect(server)
        assert (await _call(*quiet, ping))["status"] == STATUS_OK
        for _ in range(10):         # 0.5 s, never 0.2 s apart
            assert (await _call(*chatty, ping))["status"] == STATUS_OK
            await asyncio.sleep(0.05)
        assert await quiet[0].read() == b"", "closed, without a frame"
        quiet[1].close()
        chatty[1].close()
        if mode == "process":
            # Waiting on a stopped shard is not silence.
            index = _on(router, "shard-0", 1)[0]
            worker = _worker_pid(router, "shard-0")
            os.kill(worker, signal.SIGSTOP)
            try:
                reader, writer = await _connect(server)
                writer.write(encode_frame(_authorize(index)))
                await asyncio.sleep(0.5)
            finally:
                os.kill(worker, signal.SIGCONT)
            answer = canonical_decode((await _read_frame(reader))[4:])
            assert answer["status"] == STATUS_OK
            writer.close()
        return _closes(server)

    assert _serve(mode, scenario) == {"bad-frame": 0, "half-frame": 0,
                                      "idle": 1, "cap": 0}


def test_a_connection_past_the_cap_is_closed_at_the_door(monkeypatch):
    monkeypatch.setattr(transport, "MAX_CONNECTIONS", 2)
    ping = {"op": "ping", "ns": POP.namespace(0)}

    async def scenario(server):
        first, second = await _connect(server), await _connect(server)
        for client in (first, second):
            assert (await _call(*client, ping))["status"] == STATUS_OK
        third = await _connect(server)
        assert await third[0].read() == b"", "closed, without a frame"
        third[1].close()
        assert len(server.connections) == 2
        # The two inside are served on; a slot freed takes a newcomer.
        assert (await _call(*second, ping))["status"] == STATUS_OK
        first[1].close()
        while len(server.connections) == 2:
            await asyncio.sleep(0.01)
        fourth = await _connect(server)
        assert (await _call(*fourth, ping))["status"] == STATUS_OK
        for client in (second, fourth):
            client[1].close()
        return _closes(server)

    assert _serve("inline", scenario) == {"bad-frame": 0, "half-frame": 0,
                                          "idle": 0, "cap": 1}
