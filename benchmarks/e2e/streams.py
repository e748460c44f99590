"""Request streams for the two service workloads, with expectations.

The streams are built here, from ``ServicePopulation.credential`` /
``revocation`` / ``namespace`` only, and not by
``repro.service.loadgen``: a later change to ``src/`` must not be able
to change the traffic it is measured with.  Every op carries the
decision the service must return, fixed at build time -- all ops on one
principal stay on one connection, and a connection is served in order,
so the expectation does not depend on how the connections interleave.
"""

import hashlib
import random
from collections import deque
from typing import Dict, List, NamedTuple, Sequence

from repro.crypto.encoding import canonical_encode
from repro.workloads.scenarios import SERVICE_EPOCH, ServicePopulation

CONNECTIONS = 2

# The server flags both service workloads use (population seed = --seed).
POPULATION = 200_000
DOMAINS = 16
HOT_SIZE = 2_000

# svc_churn draws principals upward from here (connection c takes
# CHURN_BASE + 2j + c); svc_hot's revocation probes from PROBE_BASE.
CHURN_BASE = 100_000
PROBE_BASE = 150_000
RECENT = 256

# svc_churn draw mix; the remaining 0.60 are first visits.  A "revoke"
# draw is two requests: the revoke and the authorize that must now be
# denied.
REPEAT, PUBLISH, REVOKE = 0.25, 0.05, 0.10

# Set-up is timed SETUP_ROUNDS times over (see svc.run_socket); the
# inputs are built in that many equal steps, one per round.
SETUP_ROUNDS = 3

GRANTED, DENIED, OK = "granted", "denied", "ok"


class Op(NamedTuple):
    request: dict
    kind: str        # hot | first_visit | repeat | publish | revoke | reauth_deny
    expect: str      # GRANTED | DENIED | OK
    principal: int


def population(seed: int) -> ServicePopulation:
    return ServicePopulation(seed=seed, population=POPULATION,
                             domains=DOMAINS, hot_size=HOT_SIZE)


class Requests:
    """Wire requests for principals of one population (memoized)."""

    def __init__(self, pop: ServicePopulation) -> None:
        self.pop = pop
        self._credentials: Dict[int, dict] = {}

    def _ns(self, index: int) -> str:
        return self.pop.namespace(self.pop.domain_of(index))

    def _credential(self, index: int) -> dict:
        wire = self._credentials.get(index)
        if wire is None:
            wire = self.pop.credential(index).to_dict()
            self._credentials[index] = wire
        return wire

    def authorize(self, index: int, kind: str, expect: str) -> Op:
        return Op({"op": "authorize", "ns": self._ns(index),
                   "credential": self._credential(index)},
                  kind, expect, index)

    def publish(self, index: int) -> Op:
        return Op({"op": "publish", "ns": self._ns(index),
                   "credential": self._credential(index)},
                  "publish", OK, index)

    def revoke(self, index: int) -> Op:
        revocation = self.pop.revocation(index, revoked_at=SERVICE_EPOCH)
        return Op({"op": "revoke", "ns": self._ns(index),
                   "revocation": revocation.to_dict()},
                  "revoke", OK, index)


def hot_ops(requests: Requests, hot: int) -> List[Op]:
    """One authorize per hot principal, index order."""
    return [requests.authorize(index, "hot", GRANTED)
            for index in range(hot)]


def hot_order(seed: int, connection: int, hot: int, count: int) -> List[int]:
    """Connection ``connection``'s uniform draws from the hot set."""
    rng = random.Random(f"e2e:{seed}:svc_hot:{connection}")
    return [rng.randrange(hot) for _ in range(count)]


class ChurnStream:
    """Connection ``connection``'s churn stream, grown on demand."""

    def __init__(self, requests: Requests, seed: int,
                 connection: int) -> None:
        self._requests = requests
        self._rng = random.Random(f"e2e:{seed}:svc_churn:{connection}")
        self._recent: deque = deque(maxlen=RECENT)
        self._unseen = CHURN_BASE + connection
        self.ops: List[Op] = []

    def _next_unseen(self) -> int:
        index = self._unseen
        self._unseen += CONNECTIONS
        return index

    def extend(self, count: int) -> None:
        """Grow the stream to at least ``count`` ops."""
        requests, rng, recent, ops = (self._requests, self._rng,
                                      self._recent, self.ops)
        while len(ops) < count:
            draw = rng.random()
            if draw < REVOKE and recent:
                at = rng.randrange(len(recent))
                index = recent[at]
                del recent[at]
                ops.append(requests.revoke(index))
                ops.append(requests.authorize(index, "reauth_deny", DENIED))
            elif draw < REVOKE + PUBLISH:
                ops.append(requests.publish(self._next_unseen()))
            elif draw < REVOKE + PUBLISH + REPEAT and recent:
                index = recent[rng.randrange(len(recent))]
                ops.append(requests.authorize(index, "repeat", GRANTED))
            else:
                index = self._next_unseen()
                ops.append(requests.authorize(index, "first_visit",
                                              GRANTED))
                recent.append(index)


def revoke_probe_ops(requests: Requests, connection: int,
                     count: int) -> List[Op]:
    """``count`` rounds of first visit, revoke, denied authorize on
    principals no other stream touches (svc_hot's revocation probe)."""
    ops: List[Op] = []
    for j in range(count):
        index = PROBE_BASE + CONNECTIONS * j + connection
        ops.append(requests.authorize(index, "first_visit", GRANTED))
        ops.append(requests.revoke(index))
        ops.append(requests.authorize(index, "reauth_deny", DENIED))
    return ops


def stream_hash(streams: Sequence[Sequence[Op]],
                orders: Sequence[Sequence[int]] = ()) -> str:
    """SHA-256 over every request's canonical bytes, list by list, in
    order (plus svc_hot's draw orders): equal hashes mean byte-identical
    traffic."""
    digest = hashlib.sha256()
    for number, ops in enumerate(streams):
        digest.update(b"stream:%d\n" % number)
        for op in ops:
            digest.update(canonical_encode(op.request))
    for order in orders:
        digest.update(canonical_encode(list(order)))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Workload plans
# ---------------------------------------------------------------------------


class Plan(NamedTuple):
    """What each connection sends in each phase of one workload."""
    warmup: List[List[Op]]
    window: List[List[Op]]
    probe: List[List[Op]]       # svc_hot only: the revocation probe
    stream_hash: str


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


class HotInputs:
    """svc_hot: 100% authorize, uniform over a hot set that fits every
    cache; afterwards a short revocation probe on cold principals."""

    def __init__(self, seed: int, seconds: float, scale: float) -> None:
        self.seed = seed
        self.pop = population(seed)
        self.requests = Requests(self.pop)
        self.hot = scaled(HOT_SIZE, scale, floor=8)
        self.settle = scaled(250, scale, floor=4)
        self.probes = scaled(150, scale, floor=4)
        # 1500 draws/s per connection is 3x today's rate; a connection
        # that gets through them ends the window early.
        self.draws = int(seconds * 1500) + self.settle
        self._to_sign = list(range(self.hot)) + [
            PROBE_BASE + j for j in range(CONNECTIONS * self.probes)]
        self._signed = 0

    def step(self) -> None:
        """Sign one of ``SETUP_ROUNDS`` equal shares of the credentials."""
        share = -(-len(self._to_sign) // SETUP_ROUNDS)
        for index in self._to_sign[self._signed:self._signed + share]:
            self.pop.credential(index)
        self._signed += share

    def plan(self) -> Plan:
        hot = hot_ops(self.requests, self.hot)
        orders = [hot_order(self.seed, c, self.hot, self.draws)
                  for c in range(CONNECTIONS)]
        # Warm-up: every hot request once (split over the connections),
        # then a short random settle.
        warmup = [hot[c::CONNECTIONS]
                  + [hot[i] for i in orders[c][:self.settle]]
                  for c in range(CONNECTIONS)]
        window = [[hot[i] for i in order[self.settle:]] for order in orders]
        probe = [revoke_probe_ops(self.requests, c, self.probes)
                 for c in range(CONNECTIONS)]
        return Plan(warmup, window, probe,
                    stream_hash([hot] + probe, orders))


class ChurnInputs:
    """svc_churn: the same service used for writes -- first visits,
    repeats, publishes, and revocations that must deny the next ask."""

    def __init__(self, seed: int, seconds: float, scale: float) -> None:
        self.pop = population(seed)
        self.requests = Requests(self.pop)
        # Each shard builds a comb table for a domain key at its 24th
        # verify (50-100 ms each); 500 ops per connection gets all 16
        # keys past that before the window opens.
        self.warmup_ops = scaled(500, scale, floor=8)
        # 400 ops/s per connection is 1.4x today's rate; a connection
        # that runs out ends the window early, it does not fail.
        self.total_ops = self.warmup_ops + int(seconds * 400) + 8
        self._streams = [ChurnStream(self.requests, seed, c)
                         for c in range(CONNECTIONS)]
        self._steps = 0

    def step(self) -> None:
        """Build one of ``SETUP_ROUNDS`` equal shares of both streams."""
        self._steps += 1
        for stream in self._streams:
            stream.extend(self.total_ops * self._steps // SETUP_ROUNDS)

    def plan(self) -> Plan:
        warmup, window = [], []
        for stream in self._streams:
            cut = self.warmup_ops
            # A revoke is never split from its denied authorize.
            if stream.ops[cut].kind == "reauth_deny":
                cut += 1
            warmup.append(stream.ops[:cut])
            window.append(stream.ops[cut:])
        return Plan(warmup, window, [[] for _ in self._streams],
                    stream_hash([stream.ops for stream in self._streams]))


INPUTS = {"svc_hot": HotInputs, "svc_churn": ChurnInputs}
