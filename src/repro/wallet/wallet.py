"""The dRBAC wallet: publication, queries, revocation, monitoring.

Figure 1's contract, implemented:

* **Publication** -- an issuer posts delegations here so others can find
  them. The door runs the validator's own link check and support lookup
  (:mod:`repro.core.proof`), so third-party delegations must arrive with
  support proofs that validate *now* -- "freeing wallets from having to
  conduct recursive searches to collect the supporting chains when
  building proofs" (Section 4.1).
* **Authorization queries** -- direct, object, and subject queries over
  the wallet's trusted delegation graph (Section 4.1), with valued
  attribute constraints.
* **Proof monitoring** -- queries can return the proof wrapped in a
  :class:`~repro.monitor.proof_monitor.ProofMonitor` registered on this
  wallet's subscription hub; revocation or expiry of any constituent
  delegation triggers the monitor's callback.

A wallet trusts its own store: queries do not re-verify signatures (the
publication boundary did), matching "delegations from this proof are
inserted into the local wallet, which is trusted to verify signatures"
(Section 5, Step 5).
"""

from time import perf_counter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro import obs
from repro.core.attributes import AttributeRef, Constraint
from repro.core.clock import Clock, SimClock
from repro.core.delegation import (
    Delegation,
    Revocation,
    is_renewal_of,
    prefetch_signatures,
)
from repro.core.delegation import revoke as _sign_revocation
from repro.core.errors import ProofError, PublicationError
from repro.core.identity import Entity, Principal
from repro.core.proof import (
    Proof,
    check_link,
    check_supports,
    is_valid_proof,
    validate_proof,
)
from repro.core.roles import Role, Subject, subject_key
from repro.crypto import encoding, verify_cache
from repro.graph.proof_cache import (
    KIND_DIRECT,
    KIND_OBJECT,
    KIND_SUBJECT,
    ProofCache,
    make_key,
)
from repro.graph.search import (
    SearchStats,
    SupportProvider,
    build_support_provider,
    direct_query,
    object_query,
    subject_query,
)
from repro.monitor.proof_monitor import ProofMonitor
from repro.pubsub.events import DelegationEvent, EventKind
from repro.pubsub.subscriptions import Subscription, SubscriptionHub
from repro.wallet.storage import WalletStore

# Decision-cache capacity (LRU entries) of a wallet.
CACHE_SIZE = 4096


class Wallet:
    """A credential repository hosted by one participating server.

    ``owner`` identifies the hosting entity (used by discovery to check
    the tag's authorizing role); ``address`` is the wallet's name on the
    simulated network (e.g. ``wallet.bigISP.com``).
    """

    def __init__(self, owner: Union[Principal, Entity, None] = None,
                 address: str = "",
                 clock: Optional[Clock] = None,
                 store: Optional[WalletStore] = None) -> None:
        if isinstance(owner, Principal):
            self.owner: Optional[Entity] = owner.entity
        else:
            self.owner = owner
        self.address = address
        self.clock = clock if clock is not None else SimClock()
        self.store = store if store is not None else WalletStore()
        self.hub = SubscriptionHub()
        # Set by an attached DiscoveryEngine: authorize() falls back to
        # this hook when the local graph yields no proof, so one call
        # covers the paper's full local-then-distributed query contract.
        self.discover: Optional[Callable] = None
        # Wallet-level observability. Counters sit off the warm query
        # path (the proof cache's own hits/misses already count those);
        # the histogram times cold graph searches only.
        self._stats = obs.CounterSet(
            "drbac_wallet",
            ("publishes", "revocations", "authorizations", "searches"),
            address=address)
        self._h_search = self._stats.histogram(
            "drbac_wallet_search_seconds")
        # Keys already announced as expired, to avoid duplicate events.
        self._expired_announced: set = set()
        # Awaited relationships: key -> (subject, obj, constraints)
        self._awaited: Dict[tuple, Tuple[Subject, Role,
                                         Tuple[Constraint, ...]]] = {}
        # Query hot-path acceleration: an event-invalidated decision
        # cache fed by the wallet's own subscription hub (so coherence
        # rides the Section 4.2.2 events).
        self.proof_cache = ProofCache(CACHE_SIZE)
        self._cache_subscription: Subscription = \
            self.hub.subscribe_all(self._on_cache_event)

    # ------------------------------------------------------------------
    # Publication (Figure 1, arrow "publish")
    # ------------------------------------------------------------------

    def publish(self, delegation: Delegation,
                supports: Iterable[Proof] = (),
                at: Optional[float] = None) -> bool:
        """Accept a delegation into the wallet.

        Returns False if the delegation was already present. Raises
        :class:`PublicationError` wrapping the verdict of the validator's
        link check and support lookup (:mod:`repro.core.proof`): a bad
        signature, an expired or revoked delegation, an attribute outside
        its object's namespace, or a required support proof missing or
        invalid now.

        ``at`` overrides the validation timestamp -- used by journal
        replay to re-apply an operation at its original time.
        """
        # The id, not the certificate: a finished span outlives the
        # wallet in the tracer's buffer and must not pin what it saw.
        with obs.span("wallet.publish", wallet=self.address,
                      delegation=delegation.id) as span:
            inserted = self._publish_impl(delegation, supports, at)
            if inserted:
                self._stats.c_publishes.inc()
            span.set(inserted=inserted)
            return inserted

    def _publish_impl(self, delegation: Delegation,
                      supports: Iterable[Proof],
                      at: Optional[float]) -> bool:
        now = self.clock.now() if at is None else at
        supports = tuple(supports)
        try:
            check_link(delegation, now, self.store.is_revoked)
            check_supports(delegation, supports, now, self.store.is_revoked)
        except ProofError as exc:
            raise PublicationError(f"rejecting {delegation}: {exc}") from exc
        inserted = self.store.add_delegation(delegation, supports)
        if inserted:
            self.hub.publish(DelegationEvent(
                kind=EventKind.PUBLISHED,
                delegation_id=delegation.id,
                timestamp=now,
                origin=self.address,
            ))
            self._satisfy_awaiting(now)
        return inserted

    def publish_many(self, items: Iterable[Tuple[Delegation,
                                                 Iterable[Proof]]]) -> int:
        """Publish (delegation, supports) pairs; returns insert count.

        Signature checks for the whole batch (delegations and their
        support-proof chains) are front-loaded through
        :func:`repro.core.delegation.prefetch_signatures`, so the
        per-item ``publish`` calls hit per-object flags instead of
        re-running group arithmetic one certificate at a time. Outcomes
        -- including which item raises first -- are unchanged.
        """
        items = [(delegation, tuple(supports))
                 for delegation, supports in items]
        prefetch_signatures(
            candidate for delegation, supports in items
            for candidate in [delegation] + [
                d for proof in supports for d in proof.all_delegations()])
        inserted = 0
        for delegation, supports in items:
            if self.publish(delegation, supports):
                inserted += 1
        return inserted

    # ------------------------------------------------------------------
    # Revocation (Section 4.2.2)
    # ------------------------------------------------------------------

    def publish_revocation(self, revocation: Revocation,
                           received: Optional[Delegation] = None) -> bool:
        """Accept a signed revocation and push it to subscribers.

        The revocation must verify against the wallet's own copy of the
        delegation -- the stored one, else a link of a stored support
        proof, else ``received``, a copy on its way in whose insert the
        revocation then refuses -- so only that delegation's issuer can
        revoke it here. One for a delegation the wallet has no copy of is
        refused: its signature alone cannot show the signer issued the
        delegation, and accepting it would let anyone pre-censor any
        credential id. One for an id already revoked here answers False
        before any signature check: a replay changes nothing.
        """
        if self.store.is_revoked(revocation.delegation_id):
            return False
        delegation = self.store.find_delegation(revocation.delegation_id)
        if delegation is None:
            delegation = received
        if delegation is None:
            raise PublicationError(
                f"wallet holds no delegation "
                f"{revocation.delegation_id[:12]} to revoke")
        if not revocation.verify(delegation):
            raise PublicationError(
                "revocation does not verify against its delegation"
            )
        self.store.add_revocation(revocation)
        self._stats.c_revocations.inc()
        self.hub.publish(DelegationEvent(
            kind=EventKind.REVOKED,
            delegation_id=revocation.delegation_id,
            timestamp=self.clock.now(),
            origin=self.address,
        ))
        return True

    def revoke(self, principal: Principal, delegation_id: str) -> Revocation:
        """Sign and publish a revocation for a held delegation."""
        delegation = self.store.get_delegation(delegation_id)
        if delegation is None:
            raise PublicationError(
                f"wallet does not hold delegation {delegation_id[:12]}"
            )
        revocation = _sign_revocation(principal, delegation,
                                      revoked_at=self.clock.now())
        self.publish_revocation(revocation)
        return revocation

    def is_revoked(self, delegation_id: str) -> bool:
        return self.store.is_revoked(delegation_id)

    # ------------------------------------------------------------------
    # Lifetime renewal (Section 3.2.2: subscriptions update lifetimes)
    # ------------------------------------------------------------------

    def publish_renewal(self, old_delegation_id: str,
                        renewal: Delegation,
                        at: Optional[float] = None) -> bool:
        """Swap in a re-issued delegation with an extended lifetime.

        The renewal must re-state the held delegation exactly (same
        subject, object, issuer, modifiers, tags, depth limit) with a
        later expiry. The wallet replaces the old certificate, carries
        its support proofs over, and announces an UPDATED event on the
        old delegation's channel -- proof monitors refresh silently
        rather than invalidating.
        """
        old = self.store.get_delegation(old_delegation_id)
        if old is None:
            raise PublicationError(
                f"wallet does not hold delegation "
                f"{old_delegation_id[:12]} to renew"
            )
        revoked = self.store.is_revoked
        try:
            # A renewal answers for the credential it re-states, so the
            # original's revocation revokes it too.
            check_link(renewal, self.clock.now() if at is None else at,
                       lambda delegation_id: revoked(delegation_id)
                       or revoked(old_delegation_id))
        except ProofError as exc:
            raise PublicationError(f"rejecting renewal {renewal}: {exc}") \
                from exc
        if not is_renewal_of(renewal, old):
            raise PublicationError(
                "renewal does not re-state the original delegation with "
                "a later expiry"
            )
        supports = self.store.supports_for(old_delegation_id)
        self.store.remove_delegation(old_delegation_id)
        self._expired_announced.discard(old_delegation_id)
        inserted = self.store.add_delegation(renewal, supports)
        self.hub.publish(DelegationEvent(
            kind=EventKind.UPDATED,
            delegation_id=old_delegation_id,
            timestamp=self.clock.now(),
            origin=self.address,
            detail=renewal.id,
        ))
        return inserted

    # ------------------------------------------------------------------
    # Expiration sweeps
    # ------------------------------------------------------------------

    def expire_sweep(self) -> List[str]:
        """Announce EXPIRED events for delegations newly past expiry.

        Drive this from simulation ticks; returns the announced ids.
        """
        now = self.clock.now()
        announced = []
        for delegation in self.store.delegations():
            if delegation.id in self._expired_announced:
                continue
            if delegation.is_expired(now):
                self._expired_announced.add(delegation.id)
                announced.append(delegation.id)
                self.hub.publish(DelegationEvent(
                    kind=EventKind.EXPIRED,
                    delegation_id=delegation.id,
                    timestamp=now,
                    origin=self.address,
                ))
        return announced

    # ------------------------------------------------------------------
    # Query cache coherence (event-driven; no polling, no TTL guesswork)
    # ------------------------------------------------------------------

    def _on_cache_event(self, event: DelegationEvent) -> None:
        """Wildcard subscriber keeping the decision cache coherent.

        Invalidation matrix (see docs/PERFORMANCE.md): PUBLISHED and
        UPDATED drop every negative/enumeration entry (a renewal can
        bring a lapsed edge back); REVOKED/EXPIRED/UPDATED kill exactly
        the entries whose proofs contain the delegation, via the
        inverted index.
        """
        kind = event.kind
        self.proof_cache.on_event(
            kind.grows_graph, event.delegation_id,
            invalidates=kind.invalidates or kind is EventKind.UPDATED)

    def cache_info(self) -> dict:
        """Decision-cache counters.

        Includes the process-wide signature-verification memo's counters
        under ``crypto_memo`` and the canonical codec's counters under
        ``codec`` (both caches are per process, not per wallet, so the
        numbers aggregate across all wallets).
        """
        info = self.proof_cache.info()
        info["crypto_memo"] = verify_cache.cache_info()
        info["codec"] = encoding.codec_info()
        return info

    # ------------------------------------------------------------------
    # Queries (Figure 1, arrows "query")
    # ------------------------------------------------------------------

    def support_provider(self) -> SupportProvider:
        """Stored support proofs first, recursive in-graph search second.

        Stored supports are re-validated against the wallet's *current*
        revocation knowledge and clock: a support chain that was valid at
        publication time may have been revoked since, and must not prop
        up new proofs (the case-study epilogue depends on this -- revoking
        Sheila's mktg role kills the coalition delegation's support).
        """
        now = self.clock.now()
        fallback = build_support_provider(
            self.store.graph, at=now, revoked=self.store.is_revoked,
        )
        cache: Dict[str, Tuple[Proof, ...]] = {}

        def provider(delegation: Delegation) -> Tuple[Proof, ...]:
            cached = cache.get(delegation.id)
            if cached is not None:
                return cached
            stored = tuple(
                proof for proof in self.store.supports_for(delegation.id)
                if is_valid_proof(proof, at=now,
                                  revoked=self.store.is_revoked)
            )
            if len(stored) >= len(delegation.required_supports()):
                cache[delegation.id] = stored
                return stored
            # Stored supports are missing or no longer valid: try to
            # rediscover replacements inside the local graph.
            rebuilt = fallback(delegation)
            merged = stored + tuple(p for p in rebuilt
                                    if p not in stored)
            cache[delegation.id] = merged
            return merged

        return provider

    def _merged_bases(self, bases: Optional[Mapping[AttributeRef, float]]
                      ) -> Dict[AttributeRef, float]:
        merged = self.store.base_allocations()
        if bases:
            merged.update(bases)
        return merged

    def query_direct(self, subject: Subject, obj: Role,
                     constraints: Iterable[Constraint] = (),
                     bases: Optional[Mapping[AttributeRef, float]] = None,
                     stats: Optional[SearchStats] = None) -> Optional[Proof]:
        """Direct query: one proof for ``subject => obj`` meeting the
        constraints, or None (Section 4.1).

        The result -- positive or negative -- is memoized and served
        until an event invalidates it.
        """
        return self._cached_search(
            KIND_DIRECT, subject, obj, tuple(constraints),
            self._merged_bases(bases), self.clock.now(), stats)

    def query_subject(self, subject: Subject,
                      constraints: Iterable[Constraint] = (),
                      bases: Optional[Mapping[AttributeRef, float]] = None,
                      stats: Optional[SearchStats] = None) -> List[Proof]:
        """Subject query: the sub-proofs ``subject => *`` (Section 4.1)."""
        return list(self._cached_search(
            KIND_SUBJECT, subject, None, tuple(constraints),
            self._merged_bases(bases), self.clock.now(), stats))

    def query_object(self, obj: Role,
                     constraints: Iterable[Constraint] = (),
                     bases: Optional[Mapping[AttributeRef, float]] = None,
                     stats: Optional[SearchStats] = None) -> List[Proof]:
        """Object query: the sub-proofs ``* => obj`` (Section 4.1)."""
        return list(self._cached_search(
            KIND_OBJECT, None, obj, tuple(constraints),
            self._merged_bases(bases), self.clock.now(), stats))

    def _cached_search(self, kind: str, subject: Optional[Subject],
                       obj: Optional[Role],
                       constraints: Tuple[Constraint, ...],
                       merged: Dict[AttributeRef, float], now: float,
                       stats: Optional[SearchStats]
                       ) -> Union[Proof, None, Tuple[Proof, ...]]:
        """One query through the proof cache, under the three query
        methods. A hit returns the memo; a miss searches under a timed
        ``wallet.search`` span and stores the answer: a proof or None,
        or a tuple of proofs."""
        key = make_key(kind,
                       None if subject is None else subject_key(subject),
                       None if obj is None else subject_key(obj),
                       constraints, merged)
        hit, value = self.proof_cache.lookup(key, now)
        if hit:
            return value
        search_started = perf_counter()
        with obs.span("wallet.search", wallet=self.address, kind=kind):
            common = dict(
                at=now, revoked=self.store.is_revoked,
                constraints=constraints, bases=merged,
                support_provider=self.support_provider(),
                stats=stats)
            if kind == KIND_DIRECT:
                result = direct_query(self.store.graph, subject, obj,
                                      **common)
            elif kind == KIND_SUBJECT:
                result = tuple(subject_query(self.store.graph, subject,
                                             **common))
            else:
                result = tuple(object_query(self.store.graph, obj, **common))
        self._stats.c_searches.inc()
        self._h_search.observe(perf_counter() - search_started)
        self.proof_cache.store(key, result, now)
        return result

    def validate(self, proof: Proof,
                 constraints: Iterable[Constraint] = (),
                 bases: Optional[Mapping[AttributeRef, float]] = None
                 ) -> None:
        """Full validation of an externally supplied proof against this
        wallet's clock and revocation knowledge."""
        validate_proof(proof, at=self.clock.now(),
                       revoked=self.store.is_revoked,
                       constraints=constraints,
                       bases=self._merged_bases(bases))

    # ------------------------------------------------------------------
    # Monitoring (Figure 1, arrow "monitor")
    # ------------------------------------------------------------------

    def monitor(self, proof: Proof,
                callback: Optional[Callable] = None,
                constraints: Iterable[Constraint] = (),
                discover: Optional[Callable] = None):
        """Wrap ``proof`` in a proof monitor registered on this wallet.

        ``discover`` optionally wires in distributed re-discovery for
        revalidation (see :class:`ProofMonitor`)."""
        return ProofMonitor(wallet=self, proof=proof, callback=callback,
                            constraints=tuple(constraints),
                            discover=discover)

    def authorize(self, subject: Subject, obj: Role,
                  constraints: Iterable[Constraint] = (),
                  callback: Optional[Callable] = None,
                  presented: Iterable[Tuple[Delegation,
                                            Iterable[Proof]]] = ()):
        """Direct query + monitor wrap: the paper's full query contract
        ("what it returns is a proof wrapped in a proof monitor object").

        :meth:`prove`, then :meth:`monitor` on what it found.  Returns a
        ProofMonitor, or None when no proof exists.
        """
        proof = self.prove(subject, obj, constraints=constraints,
                           presented=presented)
        if proof is None:
            return None
        return self.monitor(proof, callback=callback,
                            constraints=constraints)

    def prove(self, subject: Subject, obj: Role,
              constraints: Iterable[Constraint] = (),
              presented: Iterable[Tuple[Delegation,
                                        Iterable[Proof]]] = ()
              ) -> Optional[Proof]:
        """:meth:`authorize`'s decision, without the monitor.

        When the local graph yields no proof and an attached
        :class:`DiscoveryEngine` has installed its :attr:`discover` hook,
        the search continues across the coalition's wallets, so one call
        spans the whole local-then-distributed contract (and one trace
        tree links the proof search, discovery RPCs, and signature
        verifications it triggered).

        ``presented`` are (delegation, support proofs) the requester
        brings along: published first, or -- those this wallet lacks,
        under a discovery hook -- handed to the discovery, which checks
        them with what it fetches.
        """
        with obs.span("wallet.authorize", wallet=self.address,
                      subject=subject, object=obj) as span:
            self._stats.c_authorizations.inc()
            presented = [(delegation, supports)
                         for delegation, supports in presented
                         if self.store.get_delegation(delegation.id) is None]
            if self.discover is None:
                for delegation, supports in presented:
                    self.publish(delegation, supports)
                presented = []
            proof = None if presented else \
                self.query_direct(subject, obj, constraints=constraints)
            source = "local"
            if proof is None and self.discover is not None:
                source = "discovery"
                proof = self.discover(subject, obj, constraints=constraints,
                                      presented=presented)
            span.set(result="denied" if proof is None else "granted",
                     source=source)
            return proof

    def await_proof(self, subject: Subject, obj: Role,
                    callback: Callable,
                    constraints: Iterable[Constraint] = ()) -> Subscription:
        """Register a callback for when ``subject => obj`` becomes provable
        ("if the wallet initially cannot provide a proof..., the entity can
        register a callback that will be activated when such a proof is
        available", Section 4.2.2)."""
        key = (subject_key(subject), subject_key(obj))
        self._awaited[key] = (subject, obj, tuple(constraints))
        return self.hub.subscribe_proof_available(key, callback)

    def _satisfy_awaiting(self, now: float) -> None:
        if not self._awaited:
            return
        live_keys = set(self.hub.awaiting_keys())
        for key in list(self._awaited):
            if key not in live_keys:
                del self._awaited[key]
                continue
            subject, obj, constraints = self._awaited[key]
            proof = self.query_direct(subject, obj, constraints=constraints)
            if proof is not None:
                del self._awaited[key]
                self.hub.publish_proof_available(key, DelegationEvent(
                    kind=EventKind.AVAILABLE,
                    delegation_id=proof.chain[-1].id,
                    timestamp=now,
                    origin=self.address,
                ))

    # ------------------------------------------------------------------
    # Base attribute allocations
    # ------------------------------------------------------------------

    def set_base_allocation(self, attribute: AttributeRef,
                            value: float) -> None:
        self.store.set_base(attribute, value)

    def base_allocations(self) -> Dict[AttributeRef, float]:
        return self.store.base_allocations()

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.store)

    def __repr__(self) -> str:
        owner = self.owner.display_name if self.owner else "?"
        return (f"Wallet(owner={owner}, address={self.address!r}, "
                f"{len(self.store)} delegations)")
