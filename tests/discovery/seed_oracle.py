"""The seed discovery protocol, kept as the byte-identity oracle.

This is the paper's Section 4.2.1 frontier walk exactly as the seed
shipped it, query for query: one node per round, alternating forward
(subject-towards-object) and reverse expansion by frontier size, a
direct probe toward the home wallet and then a subject (or object)
query, every fetched sub-proof inserted through the coherent cache
with one ``subscribe`` RPC per delegation it depends on (Figure 2,
Steps 2-5).

Production discovery is ``DiscoveryEngine.discover`` (tabled goal
evaluation); this walk left ``src/`` when that became the one path.
It stays here for two jobs: the proofs the engine finds must be
byte-identical to the ones this walk finds (``TestCoherence`` in
``test_gem.py`` and ``test_fastpath.py``), and
``benchmarks/bench_figure2_distributed.py`` prints the paper's step
table from it.  It shares no logic with the engine beyond the wallet
server's public query and subscribe helpers (a support link, which
no cache entry guards, is subscribed to by a bare ``subscribe`` RPC).
"""

from collections import deque
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.core.attributes import AttributeRef, Constraint
from repro.core.delegation import Delegation
from repro.core.errors import DiscoveryError, DRBACError
from repro.core.proof import Proof
from repro.core.roles import Role, Subject, subject_key
from repro.core.tags import DiscoveryTag
from repro.discovery.engine import DiscoveryStats
from repro.discovery.resolver import WalletServer
from repro.net.rpc import RpcError
from repro.net.transport import NetworkError

_REMOTE_FAILURES = (RpcError, NetworkError, DiscoveryError)


def seed_discover(server: WalletServer, subject: Subject, obj: Role,
                  constraints: Iterable[Constraint] = (),
                  bases: Optional[Mapping[AttributeRef, float]] = None,
                  hints: Optional[Mapping[tuple, DiscoveryTag]] = None,
                  max_remote_queries: int = 64,
                  stats: Optional[DiscoveryStats] = None,
                  default_ttl: float = 30.0,
                  subscribe: bool = True) -> Optional[Proof]:
    """Find a proof for ``subject => obj`` from ``server``'s wallet by
    the seed frontier walk; None when the search space (or the query
    budget) is exhausted."""
    return _SeedWalk(server, tuple(constraints), bases,
                     stats if stats is not None else DiscoveryStats(),
                     default_ttl, subscribe
                     ).run(subject, obj, hints, max_remote_queries)


class _SeedWalk:
    def __init__(self, server: WalletServer,
                 constraints: Tuple[Constraint, ...],
                 bases: Optional[Mapping[AttributeRef, float]],
                 stats: DiscoveryStats, default_ttl: float,
                 subscribe: bool) -> None:
        self.server = server
        self.wallet = server.wallet
        self.constraints = constraints
        self.bases = bases
        self.stats = stats
        self.default_ttl = default_ttl
        self.subscribe = subscribe
        self.tags: Dict[tuple, DiscoveryTag] = {}

    def run(self, subject: Subject, obj: Role,
            hints: Optional[Mapping[tuple, DiscoveryTag]],
            max_remote_queries: int) -> Optional[Proof]:
        wallet, stats = self.wallet, self.stats
        self.tags.update(hints or {})
        for delegation in wallet.store.delegations():
            self._harvest(delegation)

        proof = self._finish(subject, obj)
        if proof is not None:
            stats.local_hit = True
            return proof

        forward_frontier: deque = deque()
        reverse_frontier: deque = deque()
        forward_seen: Set[tuple] = set()
        reverse_seen: Set[tuple] = set()

        def push_forward(node: Subject) -> None:
            key = subject_key(node)
            if key not in forward_seen:
                forward_seen.add(key)
                forward_frontier.append(node)

        def push_reverse(node: Subject) -> None:
            key = subject_key(node)
            if key not in reverse_seen:
                reverse_seen.add(key)
                reverse_frontier.append(node)

        # Seed the frontiers with everything reachable locally (the
        # paper's initial local sub-proof queries).
        push_forward(subject)
        for sub_proof in wallet.query_subject(subject):
            push_forward(sub_proof.obj)
        push_reverse(obj)
        for sub_proof in wallet.query_object(obj):
            push_reverse(sub_proof.subject)

        budget = max_remote_queries
        while (forward_frontier or reverse_frontier) and budget > 0:
            stats.rounds += 1
            # Alternate directions; prefer the smaller frontier so the
            # bidirectional meet happens near the middle.
            go_forward = bool(forward_frontier) and (
                not reverse_frontier
                or len(forward_frontier) <= len(reverse_frontier))
            if go_forward:
                used = self._expand(forward_frontier.popleft(), True,
                                    subject, obj, push_forward)
            else:
                used = self._expand(reverse_frontier.popleft(), False,
                                    subject, obj, push_reverse)
            budget -= used
            if used:
                proof = self._finish(subject, obj)
                if proof is not None:
                    return proof
        return None

    def _expand(self, node: Subject, forward: bool, subject: Subject,
                obj: Role, push) -> int:
        """Expand one frontier node at its home: a direct probe toward
        the target first (the paper's opening move), then the
        enumeration query. Returns the remote queries used."""
        tag = self.tags.get(subject_key(node))
        if tag is None:
            return 0
        flag = tag.subject_flag if forward else tag.object_flag
        if not flag.stores_at_home:
            return 0
        if not forward and not isinstance(node, Role):
            return 0
        home = tag.home
        if not home or home == self.server.address:
            return 0
        server, stats = self.server, self.stats
        stats.remote_direct_queries += 1
        stats.wallets_contacted.add(home)
        try:
            if forward:
                remote_proof = server.remote_direct_query(
                    home, node, obj, constraints=self.constraints,
                    bases=self.bases)
            else:
                remote_proof = server.remote_direct_query(
                    home, subject, node, constraints=self.constraints,
                    bases=self.bases)
        except _REMOTE_FAILURES:
            return 1
        if remote_proof is not None:
            self._absorb(remote_proof, home)
            return 1
        try:
            if forward:
                stats.remote_subject_queries += 1
                sub_proofs = server.remote_subject_query(
                    home, node, constraints=self.constraints)
            else:
                stats.remote_object_queries += 1
                sub_proofs = server.remote_object_query(
                    home, node, constraints=self.constraints)
        except _REMOTE_FAILURES:
            return 2
        for sub_proof in sub_proofs:
            self._absorb(sub_proof, home)
            push(sub_proof.obj if forward else sub_proof.subject)
        return 2

    def _absorb(self, proof: Proof, home: str) -> None:
        """Insert a fetched sub-proof into the local trusted wallet.

        Chain delegations go through the coherent cache (with their
        support proofs); validation subscriptions are established at
        the source wallet for every delegation the proof depends on
        (Step 5)."""
        server, wallet, stats = self.server, self.wallet, self.stats
        for delegation in proof.chain:
            self._harvest(delegation)
            if wallet.store.get_delegation(delegation.id) is not None:
                continue
            try:
                server.cache.insert(
                    delegation, proof.supports_for(delegation),
                    home=home, ttl=self._ttl_for(delegation))
                stats.delegations_cached += 1
            except DRBACError:
                # A remote wallet served material the local publication
                # checks reject. Skip it -- a rogue or stale peer must
                # not poison the trusted wallet or abort the search.
                stats.delegations_rejected += 1
                continue
            if self.subscribe:
                try:
                    server.remote_subscribe(home, delegation.id)
                    stats.subscriptions_established += 1
                except (RpcError, NetworkError):
                    pass
        if self.subscribe:
            # Support delegations also gate the proof's validity;
            # monitor them at the source even though they live in the
            # supports map rather than the local graph.
            chain_ids = {d.id for d in proof.chain}
            for delegation in proof.all_delegations():
                if delegation.id in chain_ids:
                    continue
                self._harvest(delegation)
                try:
                    server.rpc.call(home, "subscribe",
                                    {"delegation_id": delegation.id})
                    stats.subscriptions_established += 1
                except (RpcError, NetworkError):
                    pass

    def _finish(self, subject: Subject, obj: Role) -> Optional[Proof]:
        return self.wallet.query_direct(
            subject, obj, constraints=self.constraints, bases=self.bases)

    def _ttl_for(self, delegation: Delegation) -> float:
        ttls = [tag.ttl for tag in (delegation.subject_tag,
                                    delegation.object_tag)
                if tag is not None and tag.ttl > 0]
        return min(ttls) if ttls else self.default_ttl

    def _harvest(self, delegation: Delegation) -> None:
        if delegation.subject_tag is not None:
            self.tags.setdefault(delegation.subject_node,
                                 delegation.subject_tag)
        if delegation.object_tag is not None:
            self.tags.setdefault(delegation.object_node,
                                 delegation.object_tag)
