"""Deterministic load generator for the sharded wallet service.

Replays a seeded request stream against any ``submit(request) -> dict``
callable -- a local :class:`~repro.service.Router` or a socket
:class:`~repro.service.transport.BlockingClient` -- so the same
``(population seed, loadgen seed, mix)`` triple produces the same
request sequence whether the service runs in-process, behind threads,
or across forked workers.

Traffic model
-------------

* ``authorize`` (the hot op): draw a principal from the population's
  hotspot/Zipf sampler, present its membership credential (wire form),
  ask for the access proof.
* ``publish`` / ``revoke`` (churn): a dedicated cursor walks the cold
  top of the index range (``population - 1`` downward), publishing a
  fresh credential and then revoking it, so churn never poisons the
  hot set the authorize stream depends on.

Credentials cross as wire dicts and are decoded by the shard at the
publication door -- every request pays a real signature check there
(memoized per shard), which is precisely the per-request CPU the
scaling benchmark partitions across shards.
"""

import random
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from .population import SERVICE_EPOCH, ServicePopulation
from .router import STATUS_OK, STATUS_RETRY_LATER

Submit = Callable[[dict], dict]


@dataclass
class LoadgenConfig:
    """One load run: volume, seed, and op mix (weights sum to 1)."""

    requests: int = 10_000
    seed: int = 1
    authorize_weight: float = 0.96
    publish_weight: float = 0.03
    revoke_weight: float = 0.01
    # Latency reservoir bound; percentiles come from all samples when
    # the run fits, else from every k-th request (still deterministic).
    max_samples: int = 200_000

    def __post_init__(self) -> None:
        total = (self.authorize_weight + self.publish_weight
                 + self.revoke_weight)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"op mix must sum to 1.0, got {total}")
        if self.requests < 1:
            raise ValueError("need at least one request")


@dataclass
class LoadgenReport:
    """What one run measured; ``to_dict()`` feeds the bench payload."""

    requests: int = 0
    wall_seconds: float = 0.0
    qps: float = 0.0
    statuses: Dict[str, int] = field(default_factory=dict)
    ops: Dict[str, int] = field(default_factory=dict)
    granted: int = 0
    denied: int = 0
    shed: int = 0
    shed_rate: float = 0.0
    latency_ms: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _percentile(sorted_samples: List[float], q: float) -> float:
    if not sorted_samples:
        return 0.0
    at = min(len(sorted_samples) - 1,
             max(0, round(q * (len(sorted_samples) - 1))))
    return sorted_samples[at]


class LoadGenerator:
    """Drive one deterministic request stream and measure it."""

    def __init__(self, population: ServicePopulation, submit: Submit,
                 config: Optional[LoadgenConfig] = None) -> None:
        self.population = population
        self.submit = submit
        self.config = config if config is not None else LoadgenConfig()
        self._wire_cache: Dict[int, dict] = {}
        # Churn walks down from the top of the index range; the Zipf
        # tail's mass up there is vanishingly small, so revoking these
        # principals never collides with the authorize stream.
        self._churn_cursor = population.population - 1
        self._churn_pending: List[int] = []

    # -- request construction (deterministic) -------------------------------

    def _credential_wire(self, index: int) -> dict:
        wire = self._wire_cache.get(index)
        if wire is None:
            wire = self.population.credential(index).to_dict()
            if len(self._wire_cache) >= 262_144:
                self._wire_cache.clear()
            self._wire_cache[index] = wire
        return wire

    def _authorize_request(self, rng: random.Random) -> dict:
        index = self.population.sample(rng)
        # The Zipf tail technically reaches the churned range at the
        # top of the index space; redraw those (vanishingly rare) hits
        # so an authorize never presents a credential the churn stream
        # already revoked.
        while index > self._churn_cursor:
            index = self.population.sample(rng)
        return {"op": "authorize",
                "ns": self.population.namespace(
                    self.population.domain_of(index)),
                "credential": self._credential_wire(index)}

    def _publish_request(self) -> dict:
        index = self._churn_cursor
        self._churn_cursor -= 1
        self._churn_pending.append(index)
        return {"op": "publish",
                "ns": self.population.namespace(
                    self.population.domain_of(index)),
                "credential": self._credential_wire(index)}

    def _revoke_request(self) -> dict:
        # Revoke the oldest published churn credential; fall back to
        # publishing when none is outstanding yet.
        if not self._churn_pending:
            return self._publish_request()
        index = self._churn_pending.pop(0)
        revocation = self.population.revocation(
            index, revoked_at=SERVICE_EPOCH)
        return {"op": "revoke",
                "ns": self.population.namespace(
                    self.population.domain_of(index)),
                "revocation": revocation.to_dict()}

    def build_request(self, rng: random.Random) -> dict:
        config = self.config
        draw = rng.random()
        if draw < config.authorize_weight:
            return self._authorize_request(rng)
        if draw < config.authorize_weight + config.publish_weight:
            return self._publish_request()
        return self._revoke_request()

    # -- the run -------------------------------------------------------------

    def build_requests(self, count: Optional[int] = None) -> List[dict]:
        """Materialize the next ``count`` requests of the stream.

        Request construction is response-independent, so the whole
        stream can be prebuilt; replaying a prebuilt stream keeps
        client-side key generation and signing out of the measured
        window (the benchmark replays one shared stream against every
        shard configuration).
        """
        if count is None:
            count = self.config.requests
        rng = random.Random(f"loadgen:{self.config.seed}")
        return [self.build_request(rng) for _ in range(count)]

    def replay(self, requests: List[dict]) -> LoadgenReport:
        """Submit prebuilt ``requests`` in order; measure the service."""
        config = self.config
        submit = self.submit
        report = LoadgenReport()
        sample_every = max(1, len(requests) // config.max_samples)
        latencies: List[float] = []
        started = perf_counter()
        for sequence, request in enumerate(requests):
            t0 = perf_counter()
            response = submit(request)
            elapsed = perf_counter() - t0
            if sequence % sample_every == 0:
                latencies.append(elapsed)
            status = response.get("status", "missing")
            report.statuses[status] = report.statuses.get(status, 0) + 1
            op = request["op"]
            report.ops[op] = report.ops.get(op, 0) + 1
            if status == STATUS_RETRY_LATER:
                report.shed += 1
            elif op == "authorize":
                if status == STATUS_OK and response.get("granted"):
                    report.granted += 1
                else:
                    report.denied += 1
        report.wall_seconds = perf_counter() - started
        report.requests = len(requests)
        report.qps = (report.requests / report.wall_seconds
                      if report.wall_seconds > 0 else 0.0)
        report.shed_rate = (report.shed / report.requests
                            if report.requests else 0.0)
        latencies.sort()
        report.latency_ms = {
            "p50": _percentile(latencies, 0.50) * 1000.0,
            "p95": _percentile(latencies, 0.95) * 1000.0,
            "p99": _percentile(latencies, 0.99) * 1000.0,
            "max": (latencies[-1] * 1000.0) if latencies else 0.0,
            "samples": float(len(latencies)),
        }
        return report

    def run(self) -> LoadgenReport:
        """Build the stream, then replay it (the CLI entry point)."""
        return self.replay(self.build_requests())
