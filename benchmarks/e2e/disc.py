"""The two discovery workloads: ``disc_fed`` and ``disc_scc``.

Cold distributed authorization over the simulated coalition network
(Figure 2, Section 4.2): a resource server that has never seen the
credentials is asked about a subject whose proof is spread over other
domains' home wallets.  ``service/`` does nothing here; ``discovery/``,
``net/``, ``crypto/`` and the home wallets do everything.

One iteration builds a fresh deployment (untimed, under its own fresh
verification memo, so nothing is pre-verified), then, under a second
fresh memo, times the cold authorize, monitors the proof, and times
revoking a bridge in the middle of the chain at its home wallet plus
the re-authorize that must now find nothing.  The library's defaults
decide how discovery runs: no ``fastpath=`` / ``gem=`` pins.
"""

import dataclasses
import resource
import statistics
from time import perf_counter, process_time
from typing import Dict, List, NamedTuple, Optional

from repro.core.delegation import Delegation
from repro.crypto import verify_cache
from repro.discovery.engine import DiscoveryStats
from repro.workloads import topology
from repro.workloads.scenarios import (
    build_distributed_federation, deploy_coalition,
)

from . import check, hostspeed, ledger, stats
from .stats import Measured, ms, share
from .trace import Tracer

WARMUP_ITERATIONS = 30      # comb-table promotion ends around the 25th


class Deployment(NamedTuple):
    """What an iteration needs from either kind of coalition."""
    network: object
    clock: object
    server: object              # the resource server (WalletServer)
    engine: object
    wallets: List[object]       # every wallet, resource server's included
    handle: object              # the scenario object itself


class FedWorkload:
    """A ring federation of 6 domains; a domain-5 user at domain 0's
    server needs the 5 bridges in between (7 links with the user's
    credential and domain 0's member => access grant)."""

    name = "disc_fed"
    setup_rounds = 5
    expected_links = 7
    DOMAINS, USERS = 6, 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        """Nothing outlives an iteration: the build is the set-up."""

    def build(self) -> Deployment:
        fed = build_distributed_federation(
            domains=self.DOMAINS, users_per_domain=self.USERS,
            seed=self.seed)
        target = fed.domains[0]
        wallets = [target.server.wallet] + [d.home.wallet
                                            for d in fed.domains]
        return Deployment(fed.network, fed.clock, target.server,
                          target.engine, wallets, fed)

    def authorize(self, dep: Deployment, run_stats: DiscoveryStats):
        return dep.handle.authorize(self.DOMAINS - 1, 0, 0, stats=run_stats)

    def revoke(self, dep: Deployment) -> None:
        # Domain 2 admits domain 3's members; the bridge lives at its
        # subject's home (domain 3's), in the middle of the chain.
        issuer, holder = dep.handle.domains[2], dep.handle.domains[3]
        holder.home.wallet.revoke(issuer.principal, issuer.bridge.id)

    def close(self, dep: Deployment) -> None:
        for domain in dep.handle.domains:
            domain.server.close()
            domain.home.close()


class SccWorkload:
    """6 domains x 6 roles of nested cycles (``make_scc_heavy``): a
    36-link proof through a coalition that is one big SCC."""

    name = "disc_scc"
    setup_rounds = 3
    expected_links = 36
    DOMAINS, ROLES = 6, 6
    REMOTE_QUERY_BUDGET = 2048

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.workload = None

    def prepare(self) -> None:
        self.workload = topology.make_scc_heavy(self.DOMAINS, self.ROLES,
                                                seed=self.seed)

    def build(self) -> Deployment:
        # Through the wire form and back, so no delegation object
        # carries a verified-signature flag from an earlier iteration.
        fresh = [(Delegation.from_dict(delegation.to_dict()), supports)
                 for delegation, supports in self.workload.delegations]
        dep = deploy_coalition(
            dataclasses.replace(self.workload, delegations=fresh))
        wallets = [dep.server.wallet] + [home.wallet
                                         for home in dep.homes.values()]
        return Deployment(dep.network, dep.clock, dep.server, dep.engine,
                          wallets, dep)

    def authorize(self, dep: Deployment, run_stats: DiscoveryStats):
        return dep.handle.authorize(
            stats=run_stats, max_remote_queries=self.REMOTE_QUERY_BUDGET)

    def revoke(self, dep: Deployment) -> None:
        # The domain-3 -> domain-4 bridge: issued by D4, revoked at its
        # subject's home.
        bridge = next(
            delegation for delegation, _ in dep.handle.workload.delegations
            if delegation.subject_tag is not None
            and delegation.object_tag is not None
            and delegation.subject_tag.home == "wallet.d3.example"
            and delegation.object_tag.home == "wallet.d4.example")
        dep.handle.homes["wallet.d3.example"].wallet.revoke(
            self.workload.principals["D4"], bridge.id)

    def close(self, dep: Deployment) -> None:
        dep.handle.close()


WORKLOADS = {"disc_fed": FedWorkload, "disc_scc": SccWorkload}


class Iteration(NamedTuple):
    """What one iteration measured.  The four durations are at reference
    host speed (divided by ``speed``, see :mod:`hostspeed`)."""
    speed: float                    # host-speed factor around the timing
    authorize_s: float
    monitor_s: float
    revoke_visible_s: float
    cpu_s: float                    # process CPU over the timed sections
    messages: int                   # the cold proof's traffic
    wire_bytes: int
    total_messages: int             # the whole iteration's traffic
    total_bytes: int
    stats: DiscoveryStats           # authorize + re-authorize, merged
    memo: Dict[str, int]
    cache_hits: int
    cache_lookups: int
    hub_callbacks_on_revoke: int
    handshakes: int
    sessions_reused: int
    gem_evals: int


class WrongAnswer(Exception):
    """An iteration whose outcome is not the one the paper prescribes."""


def _hub_callbacks(dep: Deployment) -> int:
    return sum(wallet.hub.callbacks_delivered for wallet in dep.wallets)


def run_iteration(workload, tracer: Tracer) -> Iteration:
    """One iteration; raises :class:`WrongAnswer` if it came out wrong."""
    with verify_cache.scoped():
        dep = workload.build()
    try:
        with verify_cache.scoped() as memo:
            network = dep.network
            network.reset_counters()
            run_stats, rerun_stats = DiscoveryStats(), DiscoveryStats()

            probe_before = hostspeed.probe()
            cpu = process_time()
            started = perf_counter()
            with tracer.root("authorize"):
                proof = workload.authorize(dep, run_stats)
            authorized = perf_counter()
            messages, wire_bytes = (network.totals.messages,
                                    network.totals.bytes)
            if proof is None:
                raise WrongAnswer("cold authorize found no proof")
            with tracer.root("monitor"):
                monitor = dep.server.wallet.monitor(proof)
            monitored = perf_counter()
            callbacks = _hub_callbacks(dep)
            with tracer.root("revoke"):
                workload.revoke(dep)
            callbacks = _hub_callbacks(dep) - callbacks
            with tracer.root("reauthorize"):
                denied = workload.authorize(dep, rerun_stats)
            finished = perf_counter()
            cpu = process_time() - cpu
            speed = hostspeed.factor([probe_before, hostspeed.probe()])

            problem = check.discovery_problem(
                proof, workload.expected_links, dep.clock.now(), denied,
                monitor)
            if problem is not None:
                raise WrongAnswer(problem)
            run_stats.merge(rerun_stats)
            caches = [wallet.cache_info() for wallet in dep.wallets]
            switchboard = dep.server.switchboard
            return Iteration(
                speed=speed,
                authorize_s=(authorized - started) / speed,
                monitor_s=(monitored - authorized) / speed,
                revoke_visible_s=(finished - monitored) / speed,
                cpu_s=cpu / speed, messages=messages, wire_bytes=wire_bytes,
                total_messages=network.totals.messages,
                total_bytes=network.totals.bytes,
                stats=run_stats, memo=memo.info(),
                cache_hits=sum(c["hits"] + c["negative_hits"]
                               for c in caches),
                cache_lookups=sum(c["hits"] + c["negative_hits"]
                                  + c["misses"] for c in caches),
                hub_callbacks_on_revoke=callbacks,
                handshakes=switchboard.handshakes_completed,
                sessions_reused=switchboard.sessions_reused,
                gem_evals=dep.engine.gem_info()["evals_issued"])
    finally:
        workload.close(dep)


def time_setup(workload) -> List[float]:
    """Set-up, several times over: everything an iteration's timed
    sections rest on, built from the seed under a fresh memo.  Seconds
    at reference host speed."""
    rounds = []
    probe = hostspeed.probe()
    for _ in range(workload.setup_rounds):
        started = perf_counter()
        workload.prepare()
        with verify_cache.scoped():
            workload.close(workload.build())
        elapsed = perf_counter() - started
        before, probe = probe, hostspeed.probe()
        rounds.append(elapsed / hostspeed.factor([before, probe]))
    return rounds


def run_iterations(workload, tracer: Tracer, tally: check.Tally,
                   seconds: Optional[float] = None,
                   count: Optional[int] = None) -> List[Iteration]:
    """Whole iterations until ``seconds`` have passed (at least one) or
    ``count`` are done; the failed ones are tallied and left out."""
    iterations: List[Iteration] = []
    started = perf_counter()
    done = 0
    while (done < count if count is not None
           else done == 0 or perf_counter() - started < seconds):
        done += 1
        # An iteration is two operations: the grant and the denial.
        tally.record(None)
        try:
            iterations.append(run_iteration(workload, tracer))
        except WrongAnswer as wrong:
            tally.record(str(wrong))
            if tally.failed > 20:
                break
        else:
            tally.record(None)
    return iterations


def end_to_end(iterations: List[Iteration],
               setup_rounds: List[float]) -> Dict[str, Measured]:
    """The timing metrics are those of the best of ``stats.SLICES``
    consecutive runs of iterations (see ``stats.SLICES`` for why)."""
    count = len(iterations)
    slices = stats.count_slices(iterations)

    def best(field, statistic, pick=min) -> float:
        return stats.best([[field(i) for i in cut] for cut in slices],
                          statistic, pick, min_samples=3)

    def authorize_s(i: Iteration) -> float:
        return i.authorize_s

    return {
        "authorize_per_s":
            (best(authorize_s, lambda cut: len(cut) / sum(cut), max), count),
        "authorize_p50_ms": (ms(best(authorize_s, stats.p50)), count),
        "authorize_p90_ms":
            (ms(best(authorize_s,
                     lambda cut: stats.percentile(cut, 0.90))), count),
        "revoke_visible_p50_ms":
            (ms(best(lambda i: i.revoke_visible_s, stats.p50)), count),
        "server_cpu_ms_per_op":
            (ms(best(lambda i: i.cpu_s, statistics.fmean)), count),
        "msgs_per_authorize":
            (statistics.fmean(i.messages for i in iterations), count),
        "wire_bytes_per_authorize":
            (statistics.fmean(i.wire_bytes for i in iterations), count),
        "peak_rss_mb":
            (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "setup_s": (statistics.median(setup_rounds), len(setup_rounds)),
    }


def timed_seconds(iterations: List[Iteration]) -> float:
    """Median timed seconds of one iteration (all three sections)."""
    return statistics.median(i.authorize_s + i.monitor_s + i.revoke_visible_s
                             for i in iterations)


def traced_ledger(tracer: Tracer, traced: List[Iteration],
                  bare: List[Iteration]) -> Dict[str, ledger.Entry]:
    """The ledger of the traced iterations (one op = one iteration)."""
    ops = len(traced)
    speed = statistics.median(i.speed for i in traced)
    entries = ledger.from_trace(tracer, ops, timed_seconds(bare),
                                timed_seconds(traced), speed)

    def per_op(total: float) -> ledger.Entry:
        return (total / ops, ops)

    found = sum(i.stats.cache_hits + i.stats.cache_negative_hits
                for i in traced)
    asked = found + sum(i.stats.cache_misses for i in traced)
    memo_hits = sum(i.memo["hits"] for i in traced)
    memo_lookups = memo_hits + sum(i.memo["misses"] for i in traced)
    cache_lookups = sum(i.cache_lookups for i in traced)
    entries.update({
        "discovery.engine.rounds_per_op":
            per_op(sum(i.stats.rounds for i in traced)),
        "discovery.engine.remote_queries_per_op":
            per_op(sum(i.stats.remote_direct_queries
                       + i.stats.remote_subject_queries
                       + i.stats.remote_object_queries for i in traced)),
        "discovery.fastpath.cache_hit_share": (share(found, asked), asked),
        "discovery.gem.evals_per_op":
            per_op(sum(i.gem_evals for i in traced)),
        "net.switchboard.handshakes_per_op":
            per_op(sum(i.handshakes for i in traced)),
        "net.switchboard.sessions_reused_per_op":
            per_op(sum(i.sessions_reused for i in traced)),
        "net.transport.msgs_per_op":
            per_op(sum(i.total_messages for i in traced)),
        "net.transport.bytes_per_op":
            per_op(sum(i.total_bytes for i in traced)),
        "pubsub.callbacks_per_revoke":
            per_op(sum(i.hub_callbacks_on_revoke for i in traced)),
        "crypto.verify_cache.hit_share":
            (share(memo_hits, memo_lookups), memo_lookups),
        "graph.proof_cache.hit_share":
            (share(sum(i.cache_hits for i in traced), cache_lookups),
             cache_lookups),
    })
    return entries
