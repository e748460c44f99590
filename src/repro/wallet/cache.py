"""Coherent caching of remote delegations (paper, Section 4.2.2).

"Wallets can serve as validated caches for copies of delegations whose
home is in other wallets. The copies are kept coherent by registering a
delegation subscription with either the delegation's home wallet or an
authorized proxy."

This module is transport-agnostic: the distributed layer hands it signed
revocations received over remote subscriptions, and calls :meth:`sweep`
from simulation ticks so cached entries lapse when their discovery-tag TTL
passes without reconfirmation from home ("a time-to-live field that
indicates the duration a delegation is valid following validity
confirmation from its home wallet", Section 4.2.1).

An entry records the homes holding a subscription for its copy, and the
(home, credential) holdings that guard the links of its stored support
proofs. A revocation ends the copy and, at the pushing home, the
holding; any other end of the copy calls :attr:`CoherentCache.release`
per home, and a support holding is released with the last copy that
needs it.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.delegation import Delegation, Revocation
from repro.core.errors import PublicationError
from repro.core.proof import Proof
from repro.pubsub.events import DelegationEvent, EventKind
from repro.wallet.wallet import Wallet


@dataclass
class CachedEntry:
    """Bookkeeping for one cached remote delegation."""

    delegation: Delegation
    home: str
    ttl: float
    valid_until: float
    confirmations: int = 0
    # The homes holding a validation subscription for this copy.
    held_at: Set[str] = field(default_factory=set)
    # (home, delegation id) holdings for links of its support proofs.
    support_holdings: Set[Tuple[str, str]] = field(default_factory=set)

    @property
    def requires_monitoring(self) -> bool:
        return self.ttl > 0


class CoherentCache:
    """Manages remote-homed delegations inside a local wallet."""

    def __init__(self, wallet: Wallet) -> None:
        self._wallet = wallet
        self._entries: Dict[str, CachedEntry] = {}
        # Support-link id -> home -> the kept copies whose support
        # proofs that home's holding of the link guards.
        self._support_users: Dict[str, Dict[str, Set[str]]] = {}
        # Support holdings a revoked copy no longer needs: released by
        # the next sweep, so a revocation costs its one push.
        self._unneeded: Set[Tuple[str, str]] = set()
        # ``release(home, delegation_id)`` ends one remote holding; the
        # hosting wallet server points it at its ``unsubscribe``.
        self.release: Callable[[str, str], None] = lambda *_holding: None
        # ``received(delegation_id)``: a copy on its way in -- received
        # by a discovery in progress, not inserted yet -- or None. A
        # revocation that arrives first is checked against it.
        self.received: Callable[[str], Optional[Delegation]] = \
            lambda _delegation_id: None

    # -- insertion --------------------------------------------------------

    def insert(self, delegation: Delegation, supports: Tuple[Proof, ...],
               home: str, ttl: float) -> bool:
        """Cache a delegation fetched from ``home``.

        The delegation goes through the wallet's full publication checks.
        A zero TTL marks a delegation that "does not require monitoring"
        and never lapses. The homes holding a subscription for the copy
        are recorded with :meth:`hold`.
        """
        now = self._wallet.clock.now()
        inserted = self._wallet.publish(delegation, supports)
        valid_until = math.inf if ttl <= 0 else now + ttl
        existing = self._entries.get(delegation.id)
        if existing is not None:
            existing.valid_until = max(existing.valid_until, valid_until)
            existing.confirmations += 1
        else:
            self._entries[delegation.id] = CachedEntry(
                delegation=delegation, home=home, ttl=ttl,
                valid_until=valid_until, confirmations=1,
            )
        return inserted

    def hold(self, home: str, delegation_id: str) -> None:
        """``home`` holds a subscription for ``delegation_id``: record it
        on the cached copy, or, with no copy to guard, release it."""
        entry = self._entries.get(delegation_id)
        if entry is None:
            self.release(home, delegation_id)
        else:
            entry.held_at.add(home)

    def hold_support(self, home: str, delegation_id: str,
                     copies: Iterable[str]) -> None:
        """``home`` holds a subscription for ``delegation_id``, a link of
        the support proofs of ``copies``: record it on each of them that
        is kept, to be released with the last; with none kept, release
        it."""
        kept = [self._entries[copy] for copy in copies
                if copy in self._entries]
        if not kept:
            self.release(home, delegation_id)
            return
        users = self._support_users.setdefault(delegation_id, {}) \
            .setdefault(home, set())
        for entry in kept:
            users.add(entry.delegation.id)
            entry.support_holdings.add((home, delegation_id))

    def holds(self, home: str, delegation_id: str) -> bool:
        """Is ``home``'s holding of ``delegation_id`` recorded, on its
        copy or on a copy whose support proofs it guards?"""
        entry = self._entries.get(delegation_id)
        return (entry is not None and home in entry.held_at) \
            or home in self._support_users.get(delegation_id, ()) \
            or (home, delegation_id) in self._unneeded

    # -- coherence ------------------------------------------------------------

    def confirm(self, delegation_id: str) -> bool:
        """Record a validity confirmation from home; extends the lease."""
        entry = self._entries.get(delegation_id)
        if entry is None:
            return False
        if entry.ttl > 0:
            entry.valid_until = self._wallet.clock.now() + entry.ttl
        entry.confirmations += 1
        return True

    def apply_remote_revocation(self, revocation: Revocation) -> bool:
        """Handle a signed revocation pushed over a remote subscription:
        the copy goes, unreleased, as each home ends its holding -- of
        the copy, or of a support link -- and the holdings of the copy's
        own support links no other copy needs are released by the next
        :meth:`sweep`. One for a copy still on its way in
        (:attr:`received`) is checked against that copy, so the copy's
        insert is refused."""
        delegation_id = revocation.delegation_id
        try:
            accepted = self._wallet.publish_revocation(
                revocation, received=self.received(delegation_id))
        except PublicationError:
            return False
        for home, copies in self._support_users.pop(delegation_id,
                                                    {}).items():
            for copy in copies:
                self._entries[copy].support_holdings.discard(
                    (home, delegation_id))
        self._unneeded = {pair for pair in self._unneeded
                          if pair[1] != delegation_id}
        entry = self._entries.pop(delegation_id, None)
        if entry is not None:
            self._release_supports(entry, defer=True)
        return accepted

    def apply_remote_renewal(self, old_id: str,
                             renewal: Delegation) -> bool:
        """Swap a cached delegation for its renewal (Section 3.2.2 over
        the wire): the wallet validates the renewal relationship, and
        the entry is re-keyed with the old id's holdings released."""
        entry = self._entries.get(old_id)
        try:
            self._wallet.publish_renewal(old_id, renewal)
        except PublicationError:
            return False
        if entry is not None:
            # The renewal keeps the original's support proofs, and with
            # them the holdings that guard their links.
            supports, entry.support_holdings = entry.support_holdings, set()
            self._drop(old_id)
            now = self._wallet.clock.now()
            self._entries[renewal.id] = replace(
                entry, delegation=renewal, held_at=set(),
                support_holdings=supports,
                valid_until=math.inf if entry.ttl <= 0 else now + entry.ttl,
                confirmations=entry.confirmations + 1)
            for home, delegation_id in supports:
                users = self._support_users[delegation_id][home]
                users.discard(old_id)
                users.add(renewal.id)
        return True

    def sweep(self) -> List[str]:
        """Evict entries whose lease lapsed without reconfirmation.

        Each eviction removes the delegation from the wallet graph and
        publishes an EXPIRED event with detail ``ttl-lapsed`` so that proof
        monitors depending on the stale copy fire. The support holdings
        revoked copies left unneeded are released too.
        """
        unneeded, self._unneeded = self._unneeded, set()
        for home, delegation_id in sorted(unneeded):
            if not self.holds(home, delegation_id):
                self.release(home, delegation_id)
        now = self._wallet.clock.now()
        lapsed = [entry for entry in self._entries.values()
                  if entry.valid_until <= now]
        evicted = []
        for entry in lapsed:
            self._drop(entry.delegation.id)
            self._wallet.store.remove_delegation(entry.delegation.id)
            self._wallet.hub.publish(DelegationEvent(
                kind=EventKind.EXPIRED,
                delegation_id=entry.delegation.id,
                timestamp=now,
                origin=self._wallet.address,
                detail="ttl-lapsed",
            ))
            evicted.append(entry.delegation.id)
        return evicted

    def _drop(self, delegation_id: str) -> None:
        entry = self._entries.pop(delegation_id)
        for home in sorted(entry.held_at):
            self.release(home, delegation_id)
        self._release_supports(entry)

    def _release_supports(self, entry: CachedEntry,
                          defer: bool = False) -> None:
        """``entry``'s copy is gone: release each support holding no
        other kept copy needs -- or, with ``defer``, leave it to the
        next :meth:`sweep`."""
        for home, delegation_id in sorted(entry.support_holdings):
            homes = self._support_users[delegation_id]
            homes[home].discard(entry.delegation.id)
            if not homes[home]:
                del homes[home]
                if not homes:
                    del self._support_users[delegation_id]
                if defer:
                    self._unneeded.add((home, delegation_id))
                else:
                    self.release(home, delegation_id)

    # -- introspection ---------------------------------------------------------

    def entry(self, delegation_id: str) -> Optional[CachedEntry]:
        return self._entries.get(delegation_id)

    def ids(self) -> List[str]:
        """The cached delegation ids, as a snapshot the caller may hold
        while entries come and go."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, delegation_id: str) -> bool:
        return delegation_id in self._entries
