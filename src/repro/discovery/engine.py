"""Tag-directed distributed proof discovery (paper, Section 4.2.1).

The search the paper describes for a subject of type 'S':

    "The agent first queries its local wallet for sub-proofs of the form
    Sub => *, stopping if it finds one for Sub => Obj. [...] Our algorithm
    utilizes a parallel breadth-first search, starting from [...] Sub's
    home wallet. [...] The returned proofs are inserted into the local
    trusted wallet, with the objects of these proofs serving as the
    roots for further searches."

plus the mirror-image object-towards-subject scheme for 'O' objects
(Section 4.2.3). This engine runs that search as *tabled goal
evaluation* (after Trivellato, Zannone & Etalle's GEM, PAPERS.md): a
goal is "everything home H stores from (or towards) node N"; the origin
sends each goal to its home at most once per search as a one-way
``gem_eval``, the home answers with one ``gem_answers`` push carrying
its local closure, and the origin derives the next goals itself from
the discovery tags of the credentials it has just verified. Because the
origin dedups goals against the search's issued-set, mutually recursive
cross-home delegations terminate with a message count that does not
grow with the number of times a cycle would be revisited.

Every remotely fetched delegation is inserted into the local wallet
through the coherent cache's publication checks (signature, supports,
expiry), and -- matching Step 5 of the case study -- a validation
subscription for each one is established at its source, so a
revocation there is pushed here.

Store-only flags ('s'/'o') differ from search flags ('S'/'O') only in
the *guarantee*: both cause the home wallet to be queried, but only the
search flags promise that every continuing delegation is also
registered, making the search complete.

The frontier walk the seed shipped lives on as the byte-identity oracle
in ``tests/discovery/seed_oracle.py``.
"""

import itertools
from collections import deque
from dataclasses import dataclass, field, fields
from time import perf_counter
from typing import (
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro import obs
from repro.core.attributes import (
    AttributeRef,
    Constraint,
    bases_cache_key,
    constraints_cache_key,
)
from repro.core.delegation import Delegation, prefetch_signatures
from repro.core.errors import DiscoveryError, DRBACError
from repro.core.proof import Proof, find_support, is_valid_proof
from repro.core.roles import Role, Subject, subject_key
from repro.core.tags import DiscoveryTag
from repro.discovery import wire
from repro.discovery.result_cache import DiscoveryCache, make_discovery_key
from repro.discovery.gem import MAX_DEPTH, GoalKey
from repro.discovery.resolver import WalletServer
from repro.net.rpc import RpcError
from repro.net.transport import NetworkError
from repro.pubsub.events import EventKind


# Tokens for idempotent DiscoveryStats.merge (see below).
_STATS_TOKENS = itertools.count(1)


@dataclass
class DiscoveryStats:
    """Counters for one discovery run (Figure 2 / E1 reporting).

    ``remote_subject_queries`` / ``remote_object_queries`` count the
    forward / reverse goals sent to remote homes and ``rounds`` their
    sum (``remote_direct_queries`` is only ever moved by the seed
    oracle's direct probes). The ``cache_*`` block is the result-cache
    traffic; ``wire_messages`` / ``wire_bytes`` are honest
    network-counter deltas measured around the run.
    """

    local_hit: bool = False
    remote_direct_queries: int = 0
    remote_subject_queries: int = 0
    remote_object_queries: int = 0
    wallets_contacted: Set[str] = field(default_factory=set)
    wallets_rejected: Set[str] = field(default_factory=set)
    delegations_cached: int = 0
    delegations_rejected: int = 0
    subscriptions_established: int = 0
    rounds: int = 0
    cache_hits: int = 0
    cache_negative_hits: int = 0
    cache_misses: int = 0
    wire_messages: int = 0
    wire_bytes: int = 0

    def __post_init__(self) -> None:
        # Idempotency bookkeeping (not dataclass fields: excluded from
        # ``fields()`` accumulation, ``to_dict()``, and ``==``).  Every
        # record gets a process-unique token; a target remembers the
        # tokens of the records already folded into it.
        self._token = next(_STATS_TOKENS)
        self._merged: Set[int] = set()

    def merge(self, other: "DiscoveryStats") -> None:
        """Accumulate another run's counters into this record.

        Idempotent: merging the same record twice -- directly, or
        indirectly via an aggregate that already contains it -- is a
        no-op, so a run's counters are counted at most once per target
        no matter how call sites compose their aggregation.
        """
        token = getattr(other, "_token", None)
        if token is not None:
            if token == self._token or token in self._merged:
                return
            self._merged.add(token)
            self._merged |= other._merged
        self.local_hit = self.local_hit or other.local_hit
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "local_hit" or isinstance(value, set):
                continue
            setattr(self, spec.name, value + getattr(other, spec.name))
        self.wallets_contacted |= other.wallets_contacted
        self.wallets_rejected |= other.wallets_rejected

    def to_dict(self) -> dict:
        data = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            data[spec.name] = sorted(value) if isinstance(value, set) \
                else value
        return data


class _Answer(NamedTuple):
    """One accepted ``gem_answers`` push: decoded, or -- while
    ``missing`` names refs this wallet cannot resolve -- waiting for
    ``_pump`` to fetch them."""

    home: str
    goal: GoalKey
    depth: int
    status: str
    payloads: List[Mapping]
    memo: Dict[int, Delegation]
    missing: List[str]
    proofs: List[Proof]
    subs: Dict[str, str]


@dataclass
class _Search:
    """One ``discover`` call's evaluation root: the coalition-wide goal
    bookkeeping every home's answers are checked against."""

    root_id: str
    subject: Subject
    obj: Role
    constraints: Tuple[Constraint, ...]
    bases: Optional[Mapping[AttributeRef, float]]
    tags: Dict[tuple, DiscoveryTag]
    stats: DiscoveryStats
    budget: int
    # The part of the result cache's keys every goal of this search
    # shares.
    key_suffix: tuple
    # Goals waiting to be sent: (home, direction, node, depth).
    queue: Deque[tuple] = field(default_factory=deque)
    # Every (home, goal) ever queued -- a derived goal already in here
    # is a coalition-wide loop, recorded but never re-evaluated.
    issued: Set[Tuple[str, GoalKey]] = field(default_factory=set)
    # Goals on the wire and not yet answered, with their depth. An
    # answer is accepted only for a key in here, from the home it
    # names, exactly once.
    pending: Dict[Tuple[str, GoalKey], int] = field(default_factory=dict)
    # Goals an absorbed closure already answers (see ``_follow``).
    covered: Set[Tuple[str, GoalKey]] = field(default_factory=set)
    answers: Deque[_Answer] = field(default_factory=deque)
    # Certificates received in full this search (resolves the refs a
    # home sends for anything it already shipped).
    received: Dict[str, Delegation] = field(default_factory=dict)
    loop_homes: Set[str] = field(default_factory=set)


class DiscoveryEngine:
    """Drives multi-wallet proof discovery from one local wallet server."""

    def __init__(self, server: WalletServer,
                 default_ttl: float = 30.0,
                 verify_home_authority: bool = False,
                 entity_directory=None,
                 negative_ttl: float = 5.0) -> None:
        """``verify_home_authority`` enables the Section 4.2.1 check that
        a contacted wallet's host holds the tag's authorizing role
        before its answers are trusted; role names in tags are resolved
        through ``entity_directory`` (an
        :class:`~repro.core.identity.EntityDirectory`).

        ``negative_ttl`` bounds how long an empty answer (or an
        unreachable home) is trusted before the goal is sent again;
        positive results are bounded by their discovery-tag leases.
        """
        self.server = server
        self.default_ttl = default_ttl
        self.verify_home_authority = verify_home_authority
        self.entity_directory = entity_directory
        self._authority_cache: Dict[Tuple[str, str], bool] = {}
        self.negative_ttl = negative_ttl
        self.result_cache = DiscoveryCache()
        self.stats = DiscoveryStats()
        # Result-cache coherence rides the wallet's own event stream,
        # exactly like graph/proof_cache.py.
        self._cache_subscription = server.wallet.hub.subscribe_all(
            self._on_hub_event)
        # Live searches by root id (answer pushes land here via the
        # server's sink), and the drbac_gem_* counters shared with the
        # server's table store so engine- and home-side tallies of this
        # host read as one surface.
        self._root_ids = itertools.count()
        self._searches: Dict[str, _Search] = {}
        self.gem_stats = server.gem_tables.stats
        server.gem_answer_sink = self._on_gem_answers
        # Distributed discovery falls back through this hook from
        # Wallet.authorize when the local graph has no proof, so one
        # authorization yields one connected span tree.
        server.wallet.discover = self.discover
        # Engine-level aggregates (per-run DiscoveryStats records stay
        # plain dataclasses; these registry series accumulate across
        # runs for `drbac metrics`).
        self._totals = obs.CounterSet(
            "drbac_discovery", ("runs", "local_hits", "remote_queries"),
            address=server.address)
        self._h_seconds = obs.histogram(
            "drbac_discovery_seconds", **self._totals.labels)

    # ------------------------------------------------------------------

    def _on_hub_event(self, event) -> None:
        kind = event.kind
        # Credentials the engine absorbs mid-search arrive *from* the
        # remote homes, so they cannot make a home's cached answers
        # stale; the publish-drops-negatives arm is suspended while a
        # search runs (every event fired then is its own insertion).
        grows = kind.grows_graph and not self._searches
        self.result_cache.on_event(
            grows, event.delegation_id,
            invalidates=kind.invalidates or kind is EventKind.UPDATED)

    def discovery_info(self) -> dict:
        """Run stats and result-cache counters for the CLI ``--timing``
        output."""
        return {
            "stats": self.stats.to_dict(),
            "result_cache": self.result_cache.info(),
        }

    def gem_info(self) -> dict:
        """Goal-evaluation breakdown (contract pinned by
        ``tests/obs/test_contracts.py``): the
        shared ``drbac_gem_*`` counters plus this host's live
        goal-table count and, next to it, how many (peer, credential)
        holdings it keeps a validation subscription for."""
        info = self.gem_stats.to_dict()
        info["tables"] = len(self.server.gem_tables)
        info["holdings"] = self.server.holdings_count()
        return info

    # ------------------------------------------------------------------

    def discover(self, subject: Subject, obj: Role,
                 constraints: Iterable[Constraint] = (),
                 bases: Optional[Mapping[AttributeRef, float]] = None,
                 hints: Optional[Mapping[tuple, DiscoveryTag]] = None,
                 max_remote_queries: int = 64,
                 stats: Optional[DiscoveryStats] = None
                 ) -> Optional[Proof]:
        """Find a proof for ``subject => obj``, fetching remote credentials
        as directed by discovery tags. Returns None when the search space
        (or the ``max_remote_queries`` goal budget) is exhausted without
        a satisfying proof.
        """
        stats = stats if stats is not None else DiscoveryStats()
        run = DiscoveryStats()
        network = self.server.network
        messages_before = network.totals.messages
        bytes_before = network.totals.bytes
        started = perf_counter()
        with obs.span("discovery.discover", engine=self.server.address,
                      subject=subject, object=obj) as span:
            try:
                return self._discover(subject, obj, tuple(constraints),
                                      bases, hints, max_remote_queries,
                                      run)
            finally:
                run.wire_messages = \
                    network.totals.messages - messages_before
                run.wire_bytes = network.totals.bytes - bytes_before
                stats.merge(run)
                self.stats.merge(run)
                self._totals.c_runs.inc()
                if run.local_hit:
                    self._totals.c_local_hits.inc()
                self._totals.c_remote_queries.inc(run.rounds)
                self._h_seconds.observe(perf_counter() - started)
                span.set(local_hit=run.local_hit,
                         remote_queries=run.rounds,
                         wire_messages=run.wire_messages,
                         wallets=len(run.wallets_contacted))

    def _discover(self, subject: Subject, obj: Role,
                  constraints: Tuple[Constraint, ...],
                  bases: Optional[Mapping[AttributeRef, float]],
                  hints: Optional[Mapping[tuple, DiscoveryTag]],
                  budget: int, stats: DiscoveryStats) -> Optional[Proof]:
        wallet = self.server.wallet
        tags: Dict[tuple, DiscoveryTag] = dict(hints or {})
        for delegation in wallet.store.delegations():
            self._harvest_tags(delegation, tags)

        proof = wallet.query_direct(subject, obj, constraints=constraints,
                                    bases=bases)
        if proof is not None:
            stats.local_hit = True
            return proof

        search = _Search(
            root_id=f"{self.server.address}#gem{next(self._root_ids)}",
            subject=subject, obj=obj, constraints=constraints,
            bases=bases, tags=tags, stats=stats, budget=budget,
            key_suffix=(constraints_cache_key(constraints),
                        bases_cache_key(bases)))
        self._searches[search.root_id] = search
        self.gem_stats.c_roots.inc()
        try:
            self._enqueue(search, subject, "fwd", 0)
            for sub_proof in wallet.query_subject(subject):
                self._enqueue(search, sub_proof.obj, "fwd", 0)
            proof = self._pump(search)
            if proof is None:
                # The bidirectional analog: one reverse root from the
                # object side, when its tag announces an object-flagged
                # home.
                self._enqueue(search, obj, "rev", 0)
                proof = self._pump(search)
            return proof
        finally:
            del self._searches[search.root_id]
            # Homes at either end of a detected back edge drop their
            # table now; every other table is memo state the home
            # expires by TTL sweep.
            search.loop_homes &= stats.wallets_contacted
            for home in sorted(search.loop_homes):
                self.server.send_gem_terminate(home, search.root_id)
                self.gem_stats.c_terminates_sent.inc()

    def _enqueue(self, search: _Search, node: Subject, direction: str,
                 depth: int) -> Optional[str]:
        """Queue the goal ``node`` names, if its tag names a home this
        engine may ask. Returns that home when the goal was already
        issued for this search -- a loop -- and None otherwise."""
        home = self._home_for(node, search.tags, search.stats,
                              direction == "fwd")
        if home is None:
            return None
        key = (home, (direction, subject_key(node)))
        if key in search.issued:
            return home
        if depth <= MAX_DEPTH:
            search.issued.add(key)
            search.queue.append((home, direction, node, depth))
        return None

    def _home_for(self, node: Subject, tags: Dict[tuple, DiscoveryTag],
                  stats: DiscoveryStats, forward: bool) -> Optional[str]:
        """The home a node's tag directs its goal to, or None: no tag,
        a flag that stores nothing there, this host itself, or a host
        that failed the Section 4.2.1 authority check."""
        tag = tags.get(subject_key(node))
        if tag is None:
            return None
        flag = tag.subject_flag if forward else tag.object_flag
        if not flag.stores_at_home:
            return None
        if not forward and not isinstance(node, Role):
            return None
        home = tag.home
        if not home or home == self.server.address:
            return None
        if not self._authorized(home, tag, stats):
            return None
        return home

    def _pump(self, search: _Search) -> Optional[Proof]:
        """Send queued goals until the proof exists, the queue drains or
        the budget is spent. Answers arrive synchronously on this
        simulated transport, so each send is followed by absorbing
        whatever landed; a real deployment would block on the answer
        stream instead -- the control flow is the same because each
        goal begets exactly one answer."""
        stats = search.stats
        now = self.server.wallet.clock.now()
        while search.queue and search.budget > 0:
            home, direction, node, depth = search.queue.popleft()
            goal: GoalKey = (direction, subject_key(node))
            if (home, goal) in search.covered:
                continue
            key = self._cache_key(home, goal, search)
            if self._serve_from_cache(search, key, home, goal, depth,
                                      now):
                continue
            search.budget -= 1
            stats.rounds += 1
            if direction == "fwd":
                stats.remote_subject_queries += 1
            else:
                stats.remote_object_queries += 1
            stats.wallets_contacted.add(home)
            self.gem_stats.c_evals_issued.inc()
            search.pending[(home, goal)] = depth
            try:
                with obs.span("discovery.gem_eval", home=home,
                              root=search.root_id):
                    self.server.remote_gem_eval(
                        home, search.root_id, direction, node,
                        constraints=search.constraints,
                        bases=search.bases)
            except (RpcError, NetworkError, DiscoveryError):
                # Unreachable home: a clean miss, negative-cached so
                # the next ``negative_ttl`` seconds don't retry the
                # dead link. Heals by TTL lapse.
                del search.pending[(home, goal)]
                self.result_cache.store(key, (), now, self.negative_ttl)
                continue
            while search.answers:
                cached_before = stats.delegations_cached
                answer = search.answers.popleft()
                if answer.missing:
                    self._refetch(search, answer)
                self._absorb(search, answer, now)
                if stats.delegations_cached > cached_before:
                    proof = self.server.wallet.query_direct(
                        search.subject, search.obj,
                        constraints=search.constraints, bases=search.bases)
                    if proof is not None:
                        return proof
        return None

    @staticmethod
    def _cache_key(home: str, goal: GoalKey, search: _Search) -> tuple:
        direction, node_key = goal
        if direction == "fwd":
            return make_discovery_key(home, "subject", node_key, None,
                                      *search.key_suffix)
        return make_discovery_key(home, "object", None, node_key,
                                  *search.key_suffix)

    def _serve_from_cache(self, search: _Search, key: tuple, home: str,
                          goal: GoalKey, depth: int, now: float) -> bool:
        """Answer a goal from the result cache. A cached closure counts
        only while every chain link of it is still in the local wallet,
        and live there: then nothing needs inserting (or subscribing
        to) and the goal costs no message."""
        stats = search.stats
        hit, proofs = self.result_cache.lookup(key, now)
        store = self.server.wallet.store
        if not hit or not all(
                store.get_delegation(d.id) is not None
                and not self._dead(d, now)
                for proof in proofs for d in proof.chain):
            stats.cache_misses += 1
            return False
        stats.cache_hits += 1
        if not proofs:
            stats.cache_negative_hits += 1
        self._follow(search, home, goal[0], proofs, depth)
        return True

    def _follow(self, search: _Search, home: str, direction: str,
                proofs: Iterable[Proof], depth: int) -> None:
        """Queue the goals a home's closure continues into: each proof's
        head (its object going forward, its subject in reverse), homed
        by the tags of verified credentials only.

        A head stored at the answering home itself continues nowhere:
        the closure is transitive, so it already holds every link that
        home has from there, and a goal still queued for that head is
        covered too. Not so under constraints -- a shorter chain from
        the head may pass where the one through this goal's node did
        not -- so then every head is asked."""
        covers = not search.constraints
        for proof in proofs:
            head = proof.obj if direction == "fwd" else proof.subject
            tag = search.tags.get(subject_key(head))
            if covers and tag is not None and tag.home == home:
                search.covered.add((home, (direction, subject_key(head))))
                continue
            loop_home = self._enqueue(search, head, direction, depth + 1)
            if loop_home is not None:
                self.gem_stats.c_loops_detected.inc()
                search.loop_homes.update((home, loop_home))

    def _on_gem_answers(self, src: str, params: dict) -> None:
        """The server's ``gem_answers`` sink. A push is accepted only
        from the home a still-unanswered goal of a live search was sent
        to, once; anything else -- an unknown root, another home's
        goal, a replay -- is dropped before it is decoded."""
        search = self._searches.get(params.get("root"))
        depth = None
        if search is not None:
            direction, node = wire.gem_goal_from_wire(params["goal"])
            goal: GoalKey = (direction, subject_key(node))
            depth = search.pending.pop((src, goal), None)
        if depth is None:
            self.gem_stats.c_answers_dropped.inc()
            return
        self.gem_stats.c_answers_received.inc()
        received = search.received
        store = self.server.wallet.store
        memo: Dict[int, Delegation] = {}
        refs: Set[str] = set()
        payloads = params.get("answers", ())
        for payload in payloads:
            for delegation in wire.proof_full_delegations(
                    payload, memo=memo, refs=refs):
                received[delegation.id] = delegation
        # A ref to nothing shipped this search is the home saying "you
        # hold this". Believe it only as far as the wallet agrees: what
        # is gone (a lapsed lease whose unsubscribe was lost, a restart)
        # is fetched by ``_pump`` -- never from in here, on the home's
        # stack.
        held = refs.difference(received)
        missing = sorted(r for r in held
                         if store.get_delegation(r) is None)
        if len(held) > len(missing):
            self.gem_stats.c_refs_from_holdings.inc(
                len(held) - len(missing))
        answer = _Answer(src, goal, depth, params.get("status", "done"),
                         payloads, memo, missing, [],
                         dict(params.get("subs", {})))
        if not missing:
            self._decode(search, answer)
        search.answers.append(answer)

    def _decode(self, search: _Search, answer: _Answer) -> None:
        """Materialize an answer's proofs, resolving refs against what
        this search received in full and then the wallet. A proof with
        a ref neither knows (or one that is malformed) is dropped,
        which leaves the answer incomplete: see ``_absorb``."""
        received = search.received
        store = self.server.wallet.store

        def resolve(delegation_id: str) -> Delegation:
            delegation = received.get(delegation_id)
            if delegation is None:
                delegation = store.get_delegation(delegation_id)
            if delegation is None:
                raise DiscoveryError(
                    f"unresolvable answer ref {delegation_id!r}")
            return delegation

        for payload in answer.payloads:
            try:
                answer.proofs.append(wire.proof_from_wire_session(
                    payload, resolve, memo=answer.memo))
            except DRBACError:
                continue        # unresolved, or not shaped like a proof
        self.gem_stats.c_answer_records.inc(len(answer.proofs))

    def _refetch(self, search: _Search, answer: _Answer) -> None:
        """Recover an answer whose refs the wallet could not resolve:
        fetch each from the home that referred to it, re-establish its
        validation subscription there (idempotent at the home) and
        decode. What comes back goes through ``_insert``'s publication
        checks like anything shipped in full; only its id is checked
        here, so a home cannot pass one credential off as another."""
        rpc, home = self.server.rpc, answer.home
        for ref in answer.missing:
            try:
                record = rpc.call(home, "get_delegation",
                                  {"delegation_id": ref})
                delegation = wire.delegation_from_wire(
                    record["delegation"])
                if delegation.id != ref:
                    raise DiscoveryError(f"{home} answered {ref!r} "
                                         f"with {delegation.id!r}")
                answer.subs[ref] = rpc.call(
                    home, "subscribe",
                    {"delegation_id": ref})["subscription"]
            except (RpcError, NetworkError, DRBACError, KeyError,
                    TypeError):
                # Unreachable, unknown there (a null record), not what
                # was asked for, or not a record at all.
                self.gem_stats.c_refs_unresolved.inc()
                continue
            search.received[ref] = delegation
            self.gem_stats.c_refs_refetched.inc()
        self._decode(search, answer)

    def _absorb(self, search: _Search, answer: _Answer,
                now: float) -> None:
        """Absorb one accepted answer: insert its credentials, remember
        the (home, goal) closure in the result cache, and queue the
        goals it continues into."""
        home, proofs = answer.home, answer.proofs
        verified = self._insert(proofs, home, answer.subs, search.tags,
                                search.stats, now)
        # A ``"duplicate"`` record is an empty closure for a goal the
        # home had already tabled -- "no answer *yet*", never "no
        # path" -- and a closure with rejected links or dropped proofs
        # (a ref left unresolved) is not the home's real answer: none
        # of them may be served to a later search.
        if answer.status == "done" and len(verified) == len(answer.payloads):
            ttl = self._result_ttl(proofs) if proofs else self.negative_ttl
            self.result_cache.store(
                self._cache_key(home, answer.goal, search),
                tuple(proofs), now, ttl,
                delegation_ids=[d.id for p in proofs
                                for d in p.all_delegations()])
        self._follow(search, home, answer.goal[0], verified, answer.depth)

    def _dead(self, delegation: Delegation, now: float) -> bool:
        """``check_link``'s time-varying half, for a link the wallet
        already holds (its signature and namespace were checked when
        it was admitted)."""
        return self.server.wallet.store.is_revoked(delegation.id) \
            or delegation.is_expired(now)

    def _result_ttl(self, proofs: Iterable[Proof]) -> float:
        """A cached result may not outlive the discovery-tag lease of any
        delegation it contains (Section 4.2.1 trust window)."""
        return min(self._ttl_for(d) for p in proofs for d in p.chain)

    def _insert(self, proofs: List[Proof], home: str,
                subs: Mapping[str, str], tags: Dict[tuple, DiscoveryTag],
                stats: DiscoveryStats, now: float) -> List[Proof]:
        """Insert a closure's chain links through the coherent cache's
        publication checks. The validation subscriptions already exist
        -- the home established them when it shipped each certificate
        -- so only the cancel closures are built here. A link the
        wallet already holds is not inserted again, but counts only
        while it is live: a home may still serve what is revoked or
        expired here. Returns the proofs whose every chain link is now
        live in the local wallet; only their tags are harvested."""
        stats.subscriptions_established += len(subs)
        server = self.server
        store = server.wallet.store
        # One batch for every signature this wallet has not admitted yet;
        # a failure is rejected by the insert below, with its accounting.
        prefetch_signatures(
            delegation for proof in proofs
            for delegation in proof.all_delegations()
            if store.get_delegation(delegation.id) is None)

        def cancel_for(delegation_id: str):
            sub_id = subs.get(delegation_id)
            if sub_id is None:
                return None

            def cancel() -> None:
                try:
                    server.rpc.call(home, "unsubscribe",
                                    {"subscription": sub_id})
                except (RpcError, NetworkError):
                    pass

            return cancel

        rejected: Set[str] = set()
        verified: List[Proof] = []
        for proof in proofs:
            for delegation in proof.chain:
                if delegation.id in rejected:
                    break
                if store.get_delegation(delegation.id) is not None:
                    if not self._dead(delegation, now):
                        continue
                    stats.delegations_rejected += 1
                    rejected.add(delegation.id)
                    break
                cancel = cancel_for(delegation.id)
                try:
                    server.cache.insert(
                        delegation, proof.supports_for(delegation),
                        home=home, ttl=self._ttl_for(delegation),
                        cancel_remote=cancel,
                    )
                    stats.delegations_cached += 1
                except DRBACError:
                    # A remote wallet served material the local
                    # publication checks reject (the validator's link
                    # check or support lookup). Skip it -- a
                    # rogue or stale peer must not poison the trusted
                    # wallet or abort the search.
                    stats.delegations_rejected += 1
                    rejected.add(delegation.id)
                    if cancel is not None:
                        cancel()
                    break
            else:
                verified.append(proof)
                for delegation in proof.all_delegations():
                    self._harvest_tags(delegation, tags)
        return verified

    # ------------------------------------------------------------------

    def rediscover_supports(self, delegation: Delegation,
                            stats: Optional[DiscoveryStats] = None,
                            max_remote_queries: int = 32) -> bool:
        """Find fresh support proofs for a held third-party delegation.

        Section 4.2.1: "Although issuers of third-party delegations are
        required to supply their wallets with all necessary support
        chains, it may become necessary at some point to discover new
        supporting delegations. ... As potential subjects of support
        chains, issuers of third party delegations are annotated with
        discovery tags." We therefore run the normal tag-directed search
        for ``issuer => R`` per required assignment role R (the roles the
        acting-as clause enumerates), seeded with the issuer's tag.

        Returns True when every required role ended up with a currently
        valid support proof attached to the delegation.
        """
        wallet = self.server.wallet
        required = delegation.required_supports()
        if not required:
            return True
        hints: Dict[tuple, DiscoveryTag] = {}
        if delegation.issuer_tag is not None:
            hints[subject_key(delegation.issuer)] = delegation.issuer_tag
        now = wallet.clock.now()
        valid = [proof for proof in wallet.store.supports_for(delegation.id)
                 if is_valid_proof(proof, at=now,
                                   revoked=wallet.store.is_revoked)]
        satisfied = 0
        fresh: List = []
        for role in required:
            if find_support(valid, delegation.issuer, role) is not None:
                satisfied += 1
                continue
            found = self.discover(
                delegation.issuer, role, hints=hints,
                max_remote_queries=max_remote_queries, stats=stats)
            if found is not None:
                fresh.append(found)
                satisfied += 1
        if fresh:
            wallet.store.add_supports(delegation.id, fresh)
        return satisfied == len(required)

    def _authorized(self, home: str, tag: DiscoveryTag,
                    stats: DiscoveryStats) -> bool:
        """Section 4.2.1 host authorization: before trusting a wallet,
        check its operator holds the tag's authorizing role."""
        if not self.verify_home_authority or not tag.auth_role_name:
            return True
        cache_key = (home, tag.auth_role_name)
        verdict = self._authority_cache.get(cache_key)
        if verdict is None:
            role = self._resolve_auth_role(tag.auth_role_name)
            verdict = role is not None \
                and self.server.verify_wallet_authority(home, role)
            self._authority_cache[cache_key] = verdict
        if not verdict:
            stats.wallets_rejected.add(home)
        return verdict

    def _resolve_auth_role(self, name: str) -> Optional[Role]:
        if self.entity_directory is None or "." not in name:
            return None
        entity_name, _dot, local = name.partition(".")
        try:
            return Role(self.entity_directory.lookup(entity_name), local)
        except (KeyError, DRBACError):  # unknown entity, malformed name
            return None

    def _ttl_for(self, delegation: Delegation) -> float:
        ttls = [
            tag.ttl for tag in (delegation.subject_tag,
                                delegation.object_tag)
            if tag is not None and tag.ttl > 0
        ]
        return min(ttls) if ttls else self.default_ttl

    @staticmethod
    def _harvest_tags(delegation: Delegation,
                      tags: Dict[tuple, DiscoveryTag]) -> None:
        if delegation.subject_tag is not None:
            tags.setdefault(delegation.subject_node, delegation.subject_tag)
        if delegation.object_tag is not None:
            tags.setdefault(delegation.object_node, delegation.object_tag)
