"""Tag-directed distributed proof discovery (paper, Section 4.2.1).

The search the paper describes for a subject of type 'S':

    "The agent first queries its local wallet for sub-proofs of the form
    Sub => *, stopping if it finds one for Sub => Obj. [...] Our algorithm
    utilizes a parallel breadth-first search, starting from [...] Sub's
    home wallet. [...] The returned proofs are inserted into the local
    trusted wallet, with the objects of these proofs serving as the
    roots for further searches."

plus the mirror-image object-towards-subject scheme for 'O' objects
(Section 4.2.3), run as *tabled goal evaluation*
(:mod:`repro.discovery.gem`): a goal is "everything home H stores from
(or towards) node N"; the origin sends each goal to its home at most
once per search as a one-way ``gem_eval``, the home answers with one
``gem_answers`` push carrying its local closure, and the origin derives
the next goals itself from the discovery tags of the credentials it has
just received.

The evaluation -- which goal next, which answer to accept, what to stage
and when to commit -- is :class:`~repro.discovery.gem.Origin`, a step
function over a read-only view of the wallet. :class:`DiscoveryEngine`
drives it: it sends the goals, serves goals from the result cache,
fetches refs the wallet lost, checks each commit's signatures in one
batch and inserts each fetched delegation through the coherent cache's
publication checks (signature, supports, expiry). The credentials the
requester presents (Step 1 of the case study) are staged the same way
before any goal is sent, and published by the first commit. Matching
Step 5 of the case study, a validation subscription for each fetched
one is established at its source, so a revocation there is pushed
here.

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
from repro.core.errors import DiscoveryError, DRBACError, PublicationError
from repro.core.proof import (
    Proof,
    admit_closure,
    closure_delegations,
    closure_links,
    find_support,
    is_live,
    is_valid_proof,
)
from repro.core.roles import Role, Subject, subject_key
from repro.core.tags import DiscoveryTag
from repro.discovery import wire
from repro.discovery.gem import Answer, Goal, GoalKey, Origin, View
from repro.discovery.result_cache import DiscoveryCache, make_discovery_key
from repro.discovery.resolver import FETCH_ERRORS, WalletServer
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


class DiscoveryEngine:
    """Drives multi-wallet proof discovery from one local wallet server."""

    def __init__(self, server: WalletServer,
                 default_ttl: float = 30.0,
                 entity_directory=None,
                 negative_ttl: float = 5.0) -> None:
        """Given an ``entity_directory`` (an
        :class:`~repro.core.identity.EntityDirectory`, which resolves
        the role names in tags), the engine runs the Section 4.2.1
        check that a contacted wallet's host holds the tag's
        authorizing role before its answers are trusted.

        ``negative_ttl`` bounds how long an empty answer (or an
        unreachable home) is trusted before the goal is sent again;
        positive results are bounded by their discovery-tag leases.
        """
        self.server = server
        self.default_ttl = default_ttl
        self.entity_directory = entity_directory
        self._authority_cache: Dict[Tuple[str, str], bool] = {}
        self.negative_ttl = negative_ttl
        self.result_cache = DiscoveryCache()
        self.stats = DiscoveryStats()
        # Result-cache coherence rides the wallet's own event stream,
        # exactly like graph/proof_cache.py.
        self._cache_subscription = server.wallet.hub.subscribe_all(
            self._on_hub_event)
        # Live searches by root id, each with the inbox its accepted
        # answer pushes wait in (they land via the server's sink), and
        # the server's drbac_gem_* counters, so
        # origin- and home-side tallies of this host read as one
        # surface.
        self._root_ids = itertools.count()
        self._searches: Dict[str, Tuple[Origin, Deque[Answer]]] = {}
        self.gem_stats = server.gem_stats
        server.gem_answer_sink = self._on_gem_answers
        # A revocation pushed before its staged copy is committed is
        # checked against the copy the search received.
        server.cache.received = self._received
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
        self._h_seconds = self._totals.histogram("drbac_discovery_seconds")

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
        shared ``drbac_gem_*`` counters plus how many (peer,
        credential) holdings this host keeps a validation subscription
        for."""
        info = self.gem_stats.to_dict()
        info["holdings"] = self.server.holdings_count()
        return info

    # ------------------------------------------------------------------

    def discover(self, subject: Subject, obj: Role,
                 constraints: Iterable[Constraint] = (),
                 bases: Optional[Mapping[AttributeRef, float]] = None,
                 hints: Optional[Mapping[tuple, DiscoveryTag]] = None,
                 max_remote_queries: int = 64,
                 stats: Optional[DiscoveryStats] = None,
                 presented: Iterable[Tuple[Delegation,
                                           Iterable[Proof]]] = ()
                 ) -> Optional[Proof]:
        """Find a proof for ``subject => obj``, fetching remote credentials
        as directed by discovery tags. Returns None when the search space
        (or the ``max_remote_queries`` goal budget) is exhausted without
        a satisfying proof.

        ``presented`` are the (delegation, support proofs) the requester
        brings along. One the wallet lacks is staged like an answer's
        link: its tags route goals, and the first commit checks its
        signature in the same batch as everything staged, then
        publishes it. A credential the wallet refuses raises the
        :class:`PublicationError` of :meth:`Wallet.publish` -- before
        any goal is sent when only its signature is left unchecked,
        else at that commit, after the goals its tags routed.
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
                                      bases, hints, presented,
                                      max_remote_queries, run)
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
                  presented: Iterable[Tuple[Delegation, Iterable[Proof]]],
                  budget: int, stats: DiscoveryStats) -> Optional[Proof]:
        wallet = self.server.wallet
        store = wallet.store
        view = View(
            address=self.server.address, now=wallet.clock.now(),
            held=store.get_delegation, delegations=store.delegations,
            out_edges=store.graph.out_edges_by_node,
            heads=lambda node: [proof.obj
                                for proof in wallet.query_subject(node)],
            is_revoked=store.is_revoked,
            authorized=lambda home, tag: self._authorized(home, tag, stats))
        origin = Origin(view, f"{self.server.address}#gem"
                        f"{next(self._root_ids)}", subject, obj, constraints,
                        bases, hints or {}, budget, stats, self.gem_stats)
        for delegation, supports in presented:
            supports = tuple(supports)
            if not origin.present(delegation, supports):
                # Refused as it always was (or, should it pass, held).
                wallet.publish(delegation, supports)
        # Without the presented links the wallet's own reach decides;
        # with them, a subject they alone let reach the object commits
        # them at once and asks no home.
        if not origin.presented or origin.reaches():
            if origin.presented:
                self._commit(origin, view.now)
            proof = wallet.query_direct(subject, obj,
                                        constraints=constraints, bases=bases)
            if proof is not None:
                stats.local_hit = True
                return proof

        inbox: Deque[Answer] = deque()
        self._searches[origin.root] = origin, inbox
        self.gem_stats.c_roots.inc()
        try:
            # Forward first; then the bidirectional analog, one reverse
            # root from the object side.
            for direction in ("fwd", "rev"):
                origin.start(direction)
                proof = self._drive(origin, inbox)
                if proof is not None:
                    return proof
            return None
        finally:
            del self._searches[origin.root]

    def _drive(self, origin: Origin, inbox: Deque[Answer]
               ) -> Optional[Proof]:
        """Send the core's goals, one at a time and in its order, until
        the proof exists, the queue drains or the budget is spent; answer
        a goal from the result cache where a held closure does. This is
        the one place that assumes answers arrive synchronously: on the
        simulated network a home's push has landed in ``inbox`` (through
        :meth:`_on_gem_answers`) by the time ``remote_gem_eval``
        returns, so each send is followed by staging whatever landed. A
        real deployment would block on the answer stream instead; the
        core is the same, since each goal begets exactly one answer.

        A staged answer routes goals at once, but enters the wallet only
        at a commit: when the subject reaches the object over the
        wallet's links and the staged ones, and when the queue drains."""
        now = origin.view.now
        while True:
            for goal in iter(origin.next_goal, None):
                key = self._cache_key(goal.home, goal.key, origin)
                if self._serve_from_cache(origin, key, goal, now):
                    continue
                origin.send(goal)
                try:
                    with obs.span("discovery.gem_eval", home=goal.home,
                                  root=origin.root):
                        self.server.remote_gem_eval(
                            goal.home, origin.root, goal.key[0], goal.node,
                            constraints=origin.constraints,
                            bases=origin.bases)
                except (RpcError, NetworkError, DiscoveryError):
                    # Unreachable home: a clean miss, negative-cached so
                    # the next ``negative_ttl`` seconds don't retry the
                    # dead link. Heals by TTL lapse.
                    origin.lost(goal)
                    self.result_cache.store(key, (), now, self.negative_ttl)
                    continue
                while inbox:
                    answer = inbox.popleft()
                    self._refetch(origin, answer)
                    if origin.stage(answer) and origin.reaches() \
                            and self._commit(origin, now):
                        proof = self.server.wallet.query_direct(
                            origin.subject, origin.obj,
                            constraints=origin.constraints,
                            bases=origin.bases)
                        if proof is not None:
                            return proof
            # Drained (or out of budget) short of the object: what is
            # staged still enters the wallet, and no proof can come of
            # it -- but a refused credential may route goals again.
            self._commit(origin, now)
            if not origin.queue or origin.budget <= 0:
                return None

    @staticmethod
    def _cache_key(home: str, goal: GoalKey, origin: Origin) -> tuple:
        direction, node_key = goal
        suffix = (constraints_cache_key(origin.constraints),
                  bases_cache_key(origin.bases))
        if direction == "fwd":
            return make_discovery_key(home, "subject", node_key, None,
                                      *suffix)
        return make_discovery_key(home, "object", None, node_key, *suffix)

    def _serve_from_cache(self, origin: Origin, key: tuple, goal: Goal,
                          now: float) -> bool:
        """Answer a goal from the result cache. A cached closure counts
        only while every chain link of it is still in the local wallet,
        and live there: then nothing needs inserting (or subscribing
        to) and the goal costs no message."""
        stats = origin.stats
        hit, proofs = self.result_cache.lookup(key, now)
        store = self.server.wallet.store
        if not hit or not all(
                store.get_delegation(d.id) is not None
                and is_live(d, now, store.is_revoked)
                for d in closure_links(proofs)):
            stats.cache_misses += 1
            return False
        stats.cache_hits += 1
        if not proofs:
            stats.cache_negative_hits += 1
        origin.served(goal, proofs)
        return True

    def _on_gem_answers(self, src: str, params: dict) -> None:
        """The server's ``gem_answers`` sink. The live search the push
        names decides whether ``src`` was asked for it
        (:meth:`Origin.accept`); an accepted answer waits in that
        search's inbox, to be fetched, decoded and staged by
        :meth:`_drive` -- never from in here, on the home's stack. A push
        whose ``subs`` are not a list of ids is dropped unread."""
        try:
            subs = wire.ids_from_wire(params.get("subs"))
        except DiscoveryError:
            self.gem_stats.c_answers_dropped.inc()
            return
        search = self._searches.get(params.get("root"))
        answer, release = search[0].accept(src, params, subs) \
            if search is not None else (None, subs)
        if answer is None:
            self.gem_stats.c_answers_dropped.inc()
            # Each id goes back to ``src`` unless its copy already
            # counts on it.
            cache = self.server.cache
            for delegation_id in release:
                if not cache.holds(src, delegation_id):
                    cache.release(src, delegation_id)
            return
        self.gem_stats.c_answers_received.inc()
        search[1].append(answer)

    def _received(self, delegation_id: str) -> Optional[Delegation]:
        """A copy of ``delegation_id`` a live search received, if any."""
        return next((origin.received[delegation_id]
                     for origin, _inbox in self._searches.values()
                     if delegation_id in origin.received), None)

    def _refetch(self, origin: Origin, answer: Answer) -> None:
        """Fetch each ref of an answer the wallet could not resolve from
        the home that referred to it, and re-establish its validation
        subscription there (idempotent at the home). What comes back
        goes through ``_insert``'s publication checks like anything
        shipped in full; only its id is checked on arrival
        (``remote_get_delegation``), so a home cannot pass one
        credential off as another."""
        server, home = self.server, answer.home
        for ref in answer.missing:
            try:
                delegation = server.remote_get_delegation(home, ref)
                if server.rpc.call(home, "subscribe",
                                   {"delegation_id": ref})["known"]:
                    answer.subs.append(ref)
            except FETCH_ERRORS:
                self.gem_stats.c_refs_unresolved.inc()
                continue
            origin.receive(delegation)
            self.gem_stats.c_refs_refetched.inc()

    def _commit(self, origin: Origin, now: float) -> bool:
        """Admit what the core staged: one batch for every signature of
        it the wallet has not admitted yet; then the presented
        credentials through :meth:`Wallet.publish`, and -- answer by
        answer, in arrival order -- ``_insert``. A refused presented
        credential raises its :class:`PublicationError` once the answers
        are in. True when a fetched credential entered the wallet."""
        batch = origin.commit()
        # A failure is rejected by the publish or the insert, with its
        # accounting.
        prefetch_signatures(batch.links)
        refusal: Optional[PublicationError] = None
        for delegation, supports in batch.presented:
            try:
                self.server.wallet.publish(delegation, supports)
            except PublicationError as exc:
                refusal = refusal or exc
        cached_before = origin.stats.delegations_cached
        origin.committed(batch, [self._insert(origin, answer, now)
                                 for answer in batch.answers])
        if refusal is not None:
            raise refusal
        return origin.stats.delegations_cached > cached_before

    def _insert(self, origin: Origin, answer: Answer, now: float
                ) -> Tuple[List[Proof], Set[str]]:
        """Insert a staged answer's chain links through the coherent
        cache's publication checks, settle the validation subscriptions
        the home established when it shipped them (``subs``), and keep
        the closure in the result cache if all of it passed. A link the
        wallet already holds is not inserted again, but counts only
        while it is live: a home may still serve what is revoked or
        expired here. Returns the proofs whose every chain link is now
        live in the local wallet, and the ids of the links refused."""
        home, proofs, stats = answer.home, answer.proofs, origin.stats
        stats.subscriptions_established += len(answer.subs)
        cache = self.server.cache
        store = self.server.wallet.store
        # The links accepted here: kept copies, whose stored support
        # proofs may need what the home holds.
        kept: Set[str] = set()

        def admit(delegation: Delegation, proof: Proof) -> bool:
            if store.get_delegation(delegation.id) is None:
                try:
                    cache.insert(delegation, proof.supports_for(delegation),
                                 home=home, ttl=self._ttl_for(delegation))
                except DRBACError:
                    # A remote wallet served material the local
                    # publication checks reject (the validator's link
                    # check or support lookup). Skip it -- a rogue or
                    # stale peer must not poison the trusted wallet or
                    # abort the search.
                    return False
                stats.delegations_cached += 1
            elif not is_live(delegation, now, store.is_revoked):
                return False
            kept.add(delegation.id)
            return True

        verified, rejected = admit_closure(proofs, admit)
        stats.delegations_rejected += len(rejected)
        # Record each id the home now holds for this origin on the copy
        # it guards, or on the kept copies whose stored support proofs
        # it is a link of; with neither, release it.
        users: Dict[str, List[str]] = {}
        for copy in kept:
            if copy in cache:
                for support in store.supports_for(copy):
                    for delegation in support.all_delegations():
                        users.setdefault(delegation.id, []).append(copy)
        for delegation_id in answer.subs:
            if delegation_id in cache or delegation_id not in users:
                cache.hold(home, delegation_id)
            else:
                cache.hold_support(home, delegation_id, users[delegation_id])
        # A closure with rejected links or dropped proofs (a ref left
        # unresolved) is not the home's real answer: it may not be
        # served to a later search. A kept one may not outlive the
        # discovery-tag lease of any delegation it contains (Section
        # 4.2.1 trust window).
        if len(verified) == len(answer.payloads):
            ttl = min(map(self._ttl_for, closure_links(proofs))) if proofs \
                else self.negative_ttl
            self.result_cache.store(
                self._cache_key(home, answer.goal, origin), tuple(proofs),
                now, ttl,
                delegation_ids=[d.id for d in closure_delegations(proofs)])
        return verified, rejected

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
        lacking = [role for role in required
                   if find_support(valid, delegation.issuer, role) is None]
        fresh = [proof for proof in (
            self.discover(delegation.issuer, role, hints=hints,
                          max_remote_queries=max_remote_queries, stats=stats)
            for role in lacking) if proof is not None]
        if fresh:
            wallet.store.add_supports(delegation.id, fresh)
        return len(fresh) == len(lacking)

    def _authorized(self, home: str, tag: DiscoveryTag,
                    stats: DiscoveryStats) -> bool:
        """Section 4.2.1 host authorization: before trusting a wallet,
        check its operator holds the tag's authorizing role."""
        if self.entity_directory is None or not tag.auth_role_name:
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
        if "." not in name:
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
