"""The two service workloads: ``svc_hot`` and ``svc_churn``.

One load-generator process drives the real service (socket, router,
forked shards) from two closed-loop connections: a resource server
blocks on the wallet's reply before it lets the subject in, so the next
request of a connection is sent only when the previous one is answered.
Everything the end-to-end metrics need is taken from outside the
service: round trips on the client's clock, CPU and memory from
``/proc``, cache counters from the service's own ``stats`` op.

With tracing requested, the same ops are then replayed in-process
through an inline ``Router`` with the frame walk a socket request makes
(encode, decode, submit, encode, decode), once bare and once under the
:mod:`trace` wrappers; that replay is where the per-layer self times
come from.
"""

import socket
import statistics
import threading
from time import perf_counter, process_time
from typing import (
    Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.service import transport
from repro.service.router import Router, RouterConfig
from repro.service.transport import FrameDecoder, encode_frame

from . import check, hostspeed, ledger, stats, streams
from .server import Server
from .stats import Measured, ms, share
from .streams import CONNECTIONS, Op
from .trace import Tracer

SHARDS = 2
# wire_bytes_per_authorize averages a fixed prefix of each connection's
# measured grants, so the same seed reads the same bytes on any machine.
BYTES_PREFIX = 250
MIN_SLICE_CPU = 0.25    # seconds
# svc_hot's revocation probe is cut off after this long (it takes about
# as long today), in stats.SLICES slices like the window.
PROBE_SECONDS = 1.2


class Sample(NamedTuple):
    seconds: float      # round trip
    op: Op
    problem: Optional[str]
    shed: bool
    wire_bytes: int     # request frame + response frame


class Connection:
    """One blocking client socket speaking the service's frames."""

    def __init__(self, port: int) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port),
                                              timeout=60.0)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._decoder = FrameDecoder()
        self.granted = 0    # over all phases: paces the proof sampling

    def call(self, request: dict) -> Tuple[dict, int]:
        """One round trip: (response, request + response frame bytes)."""
        frame = encode_frame(request)
        self._sock.sendall(frame)
        moved = len(frame)
        while True:
            data = self._sock.recv(65536)
            if not data:
                raise ConnectionError("service closed the connection")
            moved += len(data)
            messages = self._decoder.feed(data)
            if messages:
                return messages[0], moved

    def close(self) -> None:
        self._sock.close()


def _drive(connection: Connection, ops: Iterator[Op],
           seconds: Optional[float], barrier: threading.Barrier,
           samples: List[Sample], proofs: List[Tuple[int, dict]]) -> None:
    """Closed loop over ``ops`` until they run out or time is up; an op
    is only taken off ``ops`` once there is time to send it."""
    barrier.wait()
    deadline = None if seconds is None else perf_counter() + seconds
    while True:
        started = perf_counter()
        if deadline is not None and started >= deadline:
            return
        op = next(ops, None)
        if op is None:
            return
        try:
            response, moved = connection.call(op.request)
        except (OSError, ValueError) as exc:   # transport / frame failure
            samples.append(Sample(0.0, op, f"transport error: {exc}",
                                  False, 0))
            return
        samples.append(Sample(
            perf_counter() - started, op,
            check.decision_problem(op.expect, response),
            response.get("status") == "retry-later", moved))
        if response.get("granted") is True:
            connection.granted += 1
            if connection.granted % check.PROOF_SAMPLE_EVERY == 1:
                proofs.append((op.principal, response.get("proof")))


class Phase(NamedTuple):
    """What one concurrent run of the connections observed."""
    samples: List[List[Sample]]         # per connection, in order
    proofs: List[Tuple[int, dict]]
    wall: float
    client_cpu: float                   # this process
    server_cpu: float                   # the service's process group
    # Host-speed factor, probed just before the connections start and
    # just after they finish.  Never while they run: with the service
    # and the connections busy on both cores the probe measures who it
    # shared a core with, and made the numbers less steady, not more.
    speed: float

    def all_samples(self) -> List[Sample]:
        return [s for per_connection in self.samples
                for s in per_connection]


def _idle_probe() -> float:
    """The host-speed probe between two slices: ~30 ms of goes, the
    quickest counts.  The first of them still share a core with the
    tail of the slice, and this thread's own core has to wake up from
    waiting on the connections; three goes, as elsewhere, read that
    and not the host."""
    return hostspeed.probe(repeats=50)


def run_phase(server: Server, connections: Sequence[Connection],
              cursors: Sequence[Iterator[Op]],
              seconds: Optional[float] = None) -> Phase:
    """Each connection sends from its cursor, closed loop, until the
    cursor is empty or ``seconds`` have passed."""
    samples: List[List[Sample]] = [[] for _ in connections]
    proofs: List[List[Tuple[int, dict]]] = [[] for _ in connections]
    barrier = threading.Barrier(len(connections) + 1)
    threads = [
        threading.Thread(target=_drive, name=f"e2e-connection-{c}",
                         args=(connection, cursor, seconds, barrier,
                               samples[c], proofs[c]))
        for c, (connection, cursor) in enumerate(zip(connections, cursors))]
    for thread in threads:
        thread.start()
    probe_before = _idle_probe()
    server_cpu = server.cpu_seconds()
    client_cpu = process_time()
    barrier.wait()
    started = perf_counter()
    for thread in threads:
        thread.join()
    wall = perf_counter() - started
    client_cpu = process_time() - client_cpu
    server_cpu = server.cpu_seconds() - server_cpu
    return Phase(samples, [p for per in proofs for p in per], wall,
                 client_cpu, server_cpu,
                 hostspeed.factor([probe_before, _idle_probe()]))


def run_window(server: Server, connections: Sequence[Connection],
               cursors: Sequence[Iterator[Op]],
               seconds: float) -> List[Phase]:
    """The measured window: ``stats.SLICES`` phases back to back, each
    with its own host-speed factor and service CPU reading.  The
    connections pause for a few milliseconds in between."""
    slices: List[Phase] = []
    for _ in range(stats.SLICES):
        phase = run_phase(server, connections, cursors,
                          seconds / stats.SLICES)
        slices.append(phase)
        if not all(phase.samples):
            break               # a connection ran out of ops: window over
    return slices


def shard_stats(control: Connection, pop) -> Dict[str, dict]:
    """The ``stats`` op's answer from each shard (one namespace each)."""
    by_shard: Dict[str, dict] = {}
    for namespace in pop.namespaces():
        if len(by_shard) == SHARDS:
            break
        response, _ = control.call({"op": "stats", "ns": namespace})
        if response.get("status") != "ok":
            raise RuntimeError(f"stats op failed: {response}")
        by_shard.setdefault(response["shard"], response)
    return by_shard


def _counter_totals(by_shard: Dict[str, dict]) -> Dict[str, int]:
    totals = {"memo_hits": 0, "memo_misses": 0, "memo_evictions": 0,
              "cache_hits": 0, "cache_misses": 0, "cache_invalidations": 0}
    for response in by_shard.values():
        memo = response["memo"]
        totals["memo_hits"] += memo["hits"]
        totals["memo_misses"] += memo["misses"]
        totals["memo_evictions"] += memo["evictions"]
        for wallet in response["wallets"].values():
            totals["cache_hits"] += wallet["hits"] + wallet["negative_hits"]
            totals["cache_misses"] += wallet["misses"]
            totals["cache_invalidations"] += wallet["invalidations"] \
                + wallet["publish_invalidations"]
    return totals


# ---------------------------------------------------------------------------
# The socket run
# ---------------------------------------------------------------------------


def _new_server(seed: int) -> Server:
    return Server(seed=seed, population=streams.POPULATION,
                  domains=streams.DOMAINS, hot_size=streams.HOT_SIZE,
                  shards=SHARDS)


def _wait_ready(server: Server, pop) -> Connection:
    """A control connection, once every shard has answered a ping (the
    port line is printed before the forked shards finish building)."""
    control = Connection(server.port)
    for namespace in pop.namespaces():
        response, _ = control.call({"op": "ping", "ns": namespace})
        if response.get("status") != "ok":
            raise RuntimeError(f"ping failed: {response}")
    return control


class SocketRun(NamedTuple):
    end_to_end: Dict[str, Measured]
    per_layer: Dict[str, Measured]
    tally: check.Tally
    plan: streams.Plan
    pop: object
    speed: float        # the window's host-speed factor


class _Measured(NamedTuple):
    """Everything the socket phases observed, before it is summarized."""
    warm: Phase
    window: List[Phase]             # one per slice
    probe: List[Phase]              # svc_hot's revocation probe, sliced
    counters: Dict[str, int]        # shard counters, over the window
    peak_rss_mb: float
    ping_rtts: List[float]          # these three lists: seconds at
    setup_rounds: List[float]       # reference host speed
    ready_rounds: List[float]


def _measure(inputs, seed: int, window_s: float, probe_s: float,
             pings: int):
    """Set up, warm, run the window (and svc_hot's probe, for at most
    ``probe_s``, and the pings) against a real service; always tear the
    service down."""
    pop = inputs.pop
    setup_rounds: List[float] = []
    ready_rounds: List[float] = []
    server: Optional[Server] = None
    control: Optional[Connection] = None
    connections: List[Connection] = []
    try:
        # Set-up, SETUP_ROUNDS times over: a fresh service brought to
        # ready plus one share of the inputs; the last service is kept.
        host_probe = hostspeed.probe()
        for _ in range(streams.SETUP_ROUNDS):
            if server is not None:
                control.close()
                server.stop()
            started = perf_counter()
            server = _new_server(seed).start()
            control = _wait_ready(server, pop)
            ready = perf_counter() - started
            inputs.step()
            elapsed = perf_counter() - started
            earlier, host_probe = host_probe, hostspeed.probe()
            speed = hostspeed.factor([earlier, host_probe])
            ready_rounds.append(ready / speed)
            setup_rounds.append(elapsed / speed)
        plan = inputs.plan()
        connections = [Connection(server.port) for _ in range(CONNECTIONS)]

        warm = run_phase(server, connections,
                         [iter(ops) for ops in plan.warmup])
        before = _counter_totals(shard_stats(control, pop))
        window = run_window(server, connections,
                            [iter(ops) for ops in plan.window], window_s)
        after = _counter_totals(shard_stats(control, pop))
        peak_rss_mb = server.peak_rss_mb()
        probe = run_window(server, connections,
                           [iter(ops) for ops in plan.probe], probe_s)
        ping_rtts = []
        host_probe = hostspeed.probe()
        for number in range(pings):
            started = perf_counter()
            control.call({"op": "ping",
                          "ns": pop.namespace(number % streams.DOMAINS)})
            ping_rtts.append(perf_counter() - started)
        ping_speed = hostspeed.factor([host_probe, hostspeed.probe()])
        ping_rtts = [rtt / ping_speed for rtt in ping_rtts]
    finally:
        for connection in connections:
            connection.close()
        if control is not None:
            control.close()
        if server is not None:
            server.stop()
    counters = {name: after[name] - before[name] for name in after}
    return plan, _Measured(warm, window, probe, counters, peak_rss_mb,
                           ping_rtts, setup_rounds, ready_rounds)


def _revoke_visible(samples: Sequence[Sample]) -> List[float]:
    """Seconds of each revoke round trip + the denied authorize that
    follows it (``samples``: one connection's, in order)."""
    pairs = []
    for earlier, later in zip(samples, samples[1:]):
        if earlier.op.kind == "revoke" and later.op.kind == "reauth_deny" \
                and earlier.op.principal == later.op.principal \
                and earlier.problem is None and later.problem is None:
            pairs.append(earlier.seconds + later.seconds)
    return pairs


def _revoke_slices(phases: Sequence[Phase],
                   speed: float) -> List[List[float]]:
    return [[seconds / speed for per_connection in phase.samples
             for seconds in _revoke_visible(per_connection)]
            for phase in phases]


def _good_grants(samples: Sequence[Sample]) -> List[Sample]:
    return [s for s in samples
            if s.op.expect == streams.GRANTED and s.problem is None]


def run_socket(workload: str, seed: int, seconds: float, window_s: float,
               scale: float, pings: int) -> SocketRun:
    """Set up, warm, measure for ``window_s`` over the socket; tear the
    service down.  The streams are sized for ``seconds`` (the run's
    nominal length, so a traced run's shorter window sends the same
    traffic); ``scale`` shrinks the fixed op counts (smoke runs)."""
    inputs = streams.INPUTS[workload](seed, seconds, scale)
    plan, seen = _measure(inputs, seed, window_s,
                          max(0.1, PROBE_SECONDS * scale), pings)
    pop = inputs.pop
    window = seen.window

    # -- correctness -----------------------------------------------------------
    tally = check.Tally()
    for phase in (seen.warm, *window, *seen.probe):
        for sample in phase.all_samples():
            tally.record(sample.problem)
    oracle = check.ServiceProofOracle(pop)
    for phase in (*window, *seen.probe):
        for index, wire_proof in phase.proofs:
            problem = oracle.proof_problem(index, wire_proof)
            if problem is not None:
                tally.fail(problem)

    # -- the window, slice by slice, at reference host speed ---------------------
    # One factor for the whole window, the median of the slices': the
    # best slice must be the quietest one, not the one whose probe
    # happened to be disturbed.
    speed = statistics.median(phase.speed for phase in window)
    everything = [s for phase in window for s in phase.all_samples()]
    grant_seconds = [[s.seconds / speed
                      for s in _good_grants(phase.all_samples())]
                     for phase in window]
    grants = sum(len(cut) for cut in grant_seconds)
    if not grants:
        raise RuntimeError("no granted authorize completed in the window")
    rates = [len(cut) / phase.wall * speed
             for cut, phase in zip(grant_seconds, window)]
    # /proc counts CPU in 10 ms ticks: a slice that burned less than
    # MIN_SLICE_CPU is too coarse to divide (smoke runs), and the
    # whole window is used instead.
    cpu_per_op = [phase.server_cpu / speed / len(phase.all_samples())
                  for phase in window if phase.server_cpu >= MIN_SLICE_CPU]
    if not cpu_per_op:
        cpu_per_op = [sum(phase.server_cpu for phase in window) / speed
                      / len(everything)]
    # Revocations: svc_churn's are in the window, svc_hot's in the
    # probe after it (a pair cut in two by a slice boundary is not
    # counted).
    revoke_slices = _revoke_slices(window, speed)
    if not any(revoke_slices):
        revoke_slices = _revoke_slices(
            seen.probe,
            statistics.median(phase.speed for phase in seen.probe))
    revokes = sum(len(cut) for cut in revoke_slices)
    if not revokes:
        raise RuntimeError("no revocation completed")
    prefix = streams.scaled(BYTES_PREFIX, scale, floor=5)
    byte_prefix = [
        s.wire_bytes for c in range(CONNECTIONS)
        for s in _good_grants([s for phase in window
                               for s in phase.samples[c]])[:prefix]]

    end_to_end: Dict[str, Measured] = {
        "authorize_per_s": (max(rates), grants),
        "authorize_p50_ms": (ms(stats.best(grant_seconds, stats.p50)),
                             grants),
        "authorize_p90_ms":
            (ms(stats.best(grant_seconds,
                           lambda cut: stats.percentile(cut, 0.90))),
             grants),
        "revoke_visible_p50_ms": (ms(stats.best(revoke_slices, stats.p50)),
                                  revokes),
        "server_cpu_ms_per_op": (ms(min(cpu_per_op)), len(everything)),
        # One request frame, one response frame: Connection.call.
        "msgs_per_authorize": (2.0, grants),
        "wire_bytes_per_authorize": (statistics.fmean(byte_prefix),
                                     len(byte_prefix)),
        "peak_rss_mb": (seen.peak_rss_mb, 1),
        "setup_s": (statistics.median(seen.setup_rounds),
                    len(seen.setup_rounds)),
    }

    # The loadgen.* latencies are over the whole window, not its best
    # slice: they are the diagnostics that show a noisy run.
    all_grant_seconds = [s for cut in grant_seconds for s in cut]

    def class_p50(kind: str) -> Measured:
        chosen = [s.seconds / speed for s in everything
                  if s.op.kind == kind and s.problem is None]
        return (ms(stats.p50(chosen)) if chosen else 0.0, len(chosen))

    counters = seen.counters
    memo_lookups = counters["memo_hits"] + counters["memo_misses"]
    cache_lookups = counters["cache_hits"] + counters["cache_misses"]
    ping_rtts = seen.ping_rtts
    per_layer: Dict[str, Measured] = {
        "service.transport.ping_rtt_p50_ms":
            (ms(stats.p50(ping_rtts)) if ping_rtts else 0.0, len(ping_rtts)),
        "service.server_ready_s":
            (statistics.median(seen.ready_rounds), len(seen.ready_rounds)),
        "service.router.shed_share":
            (share(sum(s.shed for s in everything), len(everything)),
             len(everything)),
        "service.shard.memo_hit_share":
            (share(counters["memo_hits"], memo_lookups), memo_lookups),
        "service.shard.memo_evictions":
            (counters["memo_evictions"], memo_lookups),
        "service.shard.proof_cache_hit_share":
            (share(counters["cache_hits"], cache_lookups), cache_lookups),
        "service.shard.proof_cache_invalidations":
            (counters["cache_invalidations"], cache_lookups),
        "loadgen.authorize_p50_ms": (ms(stats.p50(all_grant_seconds)),
                                     grants),
        "loadgen.authorize_p99_ms":
            (ms(stats.percentile(all_grant_seconds, 0.99)), grants),
        "loadgen.first_visit_p50_ms": class_p50("first_visit"),
        "loadgen.repeat_p50_ms": class_p50("repeat"),
        "loadgen.publish_p50_ms": class_p50("publish"),
        "loadgen.revoke_p50_ms": class_p50("revoke"),
        "loadgen.reauth_deny_p50_ms": class_p50("reauth_deny"),
        "loadgen.client_cpu_share":
            (share(sum(phase.client_cpu for phase in window),
                   sum(phase.wall for phase in window)), len(window)),
        "loadgen.slice_rate_spread": (stats.spread(rates), len(rates)),
        "loadgen.prebuild_s":
            (sum(seen.setup_rounds) - sum(seen.ready_rounds),
             len(seen.setup_rounds)),
        "host.speed_factor": (speed, len(window)),
    }
    return SocketRun(end_to_end, per_layer, tally, plan, pop, speed)


# ---------------------------------------------------------------------------
# The in-process replay (tracing)
# ---------------------------------------------------------------------------


class _FrameWalk:
    """A fresh inline service and the frame walk of one socket request."""

    def __init__(self, pop) -> None:
        self.router = Router(pop, RouterConfig(shards=SHARDS, mode="inline"))
        self._server_side = FrameDecoder()
        self._client_side = FrameDecoder()
        self.request_bytes = 0
        self.response_bytes = 0

    def call(self, request: dict) -> dict:
        # Looked up on the module at each call: this file's own
        # ``encode_frame`` global is outside the tracer's reach.
        frame = transport.encode_frame(request)
        (decoded,) = self._server_side.feed(frame)
        reply = transport.encode_frame(self.router.submit(decoded))
        (response,) = self._client_side.feed(reply)
        self.request_bytes += len(frame)
        self.response_bytes += len(reply)
        return response

    def counters(self) -> Dict[str, int]:
        return _counter_totals(self.router.stats()["shards"])

    def close(self) -> None:
        self.router.close()


def _replay(pop, warmup: Sequence[Op], ops: Sequence[Op], tracer: Tracer,
            tally: check.Tally, seconds: Optional[float]):
    """Warm a fresh inline service, then walk ``ops`` (all of them, or
    as many as fit in ``seconds``); returns (walk, seconds of each op
    done, host-speed factor, counter deltas)."""
    walk = _FrameWalk(pop)
    try:
        for op in warmup:
            tally.record(check.decision_problem(op.expect,
                                                walk.call(op.request)))
        walk.request_bytes = walk.response_bytes = 0
        before = walk.counters()
        op_seconds: List[float] = []
        probe = hostspeed.probe()
        deadline = None if seconds is None else perf_counter() + seconds
        for op in ops:
            started = perf_counter()
            if deadline is not None and started >= deadline:
                break
            with tracer.root(op.kind):
                response = walk.call(op.request)
            op_seconds.append(perf_counter() - started)
            tally.record(check.decision_problem(op.expect, response))
        speed = hostspeed.factor([probe, hostspeed.probe()])
        after = walk.counters()
    finally:
        walk.close()
    return walk, op_seconds, speed, {k: after[k] - before[k] for k in after}


class Replay(NamedTuple):
    tracer: Tracer
    ops: int
    bare_op_seconds: float      # median op, untraced    } at reference
    traced_op_seconds: float    # median op, traced      } host speed
    speed: float                # host-speed factor of the traced pass
    request_bytes: int
    response_bytes: int
    counters: Dict[str, int]
    revokes: int


def run_replay(socket_run: SocketRun, seconds: float,
               tally: check.Tally) -> Replay:
    """Replay in-process, each time on a fresh inline service: bare for
    ``seconds`` on connection 1's ops, then as many of connection 0's
    under the tracer.  Two streams of one distribution rather than one
    stream twice: the second pass over the same principals would find
    their keys in the process-wide intern tables and look cheaper."""
    plan, pop = socket_run.plan, socket_run.pop
    # All of the warm-up (svc_hot splits the hot set over the
    # connections; the inline service has to see all of it).
    warmup = [op for per_connection in plan.warmup for op in per_connection]
    _walk, bare, bare_speed, _ = _replay(pop, warmup, plan.window[1],
                                         Tracer(), tally, seconds)
    if not bare:
        raise RuntimeError("in-process replay completed no op")
    ops = plan.window[0][:len(bare)]
    tracer = Tracer()
    with tracer:
        walk, traced, speed, counters = _replay(pop, warmup, ops, tracer,
                                                tally, None)
    return Replay(tracer, len(ops), statistics.median(bare) / bare_speed,
                  statistics.median(traced) / speed, speed,
                  walk.request_bytes, walk.response_bytes, counters,
                  sum(op.kind == "revoke" for op in ops))


def replay_ledger(replay: Replay) -> Dict[str, ledger.Entry]:
    """The ledger entries the in-process replay provides."""
    ops, counters = replay.ops, replay.counters
    entries = ledger.from_trace(replay.tracer, ops, replay.bare_op_seconds,
                                replay.traced_op_seconds, replay.speed)
    memo_lookups = counters["memo_hits"] + counters["memo_misses"]
    cache_lookups = counters["cache_hits"] + counters["cache_misses"]
    entries.update({
        "service.transport.request_frame_bytes":
            (replay.request_bytes / ops, ops),
        "service.transport.response_frame_bytes":
            (replay.response_bytes / ops, ops),
        "crypto.verify_cache.hit_share":
            (share(counters["memo_hits"], memo_lookups), memo_lookups),
        "graph.proof_cache.hit_share":
            (share(counters["cache_hits"], cache_lookups), cache_lookups),
        "pubsub.callbacks_per_revoke":
            (share(replay.tracer.weight_under("revoke", "pubsub.publish"),
                   replay.revokes), replay.revokes),
    })
    return entries
