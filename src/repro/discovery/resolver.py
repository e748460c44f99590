"""Wallet servers on the simulated network.

A :class:`WalletServer` is a wallet "hosted on a participating server"
(Section 4): it answers the three query forms over RPC, accepts
publications, serves remote delegation subscriptions (pushing signed
revocations to subscribers -- the coherence mechanism of Section 4.2.2),
hands a revocation to the other home its delegation's tags name, and
answers TTL confirmation probes.

The :class:`WalletDirectory` is scenario plumbing: it tracks the servers
in one simulated deployment so builders and tests can reach them by
address without going through the network.
"""

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.core.delegation import Delegation, Revocation
from repro.core.errors import DiscoveryError, DRBACError
from repro.core.identity import Principal
from repro.core.proof import Proof, find_support, is_live, is_valid_proof
from repro.core.roles import subject_from_dict
from repro.discovery import wire
from repro.discovery.gem import GEM_COUNTER_NAMES, answer_push
from repro.net.rpc import RpcError, RpcNode
from repro.net.switchboard import Switchboard
from repro.net.transport import Network, NetworkError
from repro.pubsub.events import DelegationEvent, EventKind
from repro.pubsub.subscriptions import Subscription
from repro.wallet.cache import CoherentCache
from repro.wallet.wallet import Wallet

# What fetching from a peer can raise: unreachable, unknown there (a
# null record), not what was asked for, or not a record at all.
FETCH_ERRORS = (RpcError, NetworkError, DRBACError, KeyError, TypeError)


class WalletServer:
    """A network-visible wallet host."""

    def __init__(self, network: Network, wallet: Wallet,
                 principal: Optional[Principal] = None) -> None:
        if not wallet.address:
            raise DiscoveryError("a wallet server needs a wallet address")
        self.network = network
        self.wallet = wallet
        self.principal = principal
        self.cache = CoherentCache(wallet)
        self.rpc = RpcNode(network, wallet.address)
        # The host's authenticated-channel endpoint. Needs a signing
        # principal; skipped when the host already runs its own
        # switchboard at this address.
        self.switchboard: Optional[Switchboard] = None
        if principal is not None:
            try:
                self.switchboard = Switchboard(network, principal,
                                               wallet.address)
            except NetworkError:
                self.switchboard = None
        # What each peer holds of this wallet's credentials: peer (the
        # transport source) -> delegation id -> live hub subscription;
        # the pair names the subscription. A peer that subscribed to a
        # credential's status has a copy of it, so discovery answers
        # ship it a ref instead.
        self._holdings: Dict[str, Dict[str, Subscription]] = {}
        # This host's own cached copies release their holdings here.
        self.cache.release = self.remote_unsubscribe
        # Goal evaluation: this host's drbac_gem_* counters (a local
        # DiscoveryEngine shares them) and the answer sink it installs.
        self.gem_stats = obs.CounterSet("drbac_gem", GEM_COUNTER_NAMES)
        self.gem_answer_sink: Optional[Callable[[str, dict], None]] = None
        # The delegation whose revocation a peer home is handing over
        # right now: applying it must not send it back.
        self._relayed: Optional[str] = None
        # One hub subscription sees every local mutation: it hands
        # revocations over (see below).
        self._hub_sub = wallet.hub.subscribe_all(self._on_local_event)
        self._expose_all()
        # Counters surfaced in benchmark reports.
        self.events_pushed = 0
        self.pushes_failed = 0

    @property
    def address(self) -> str:
        return self.wallet.address

    def _expose_all(self) -> None:
        self.rpc.expose("direct_query", self._rpc_direct_query)
        self.rpc.expose("subject_query", self._rpc_subject_query)
        self.rpc.expose("object_query", self._rpc_object_query)
        self.rpc.expose("publish", self._rpc_publish)
        self.rpc.expose("subscribe", self._rpc_subscribe)
        self.rpc.expose("unsubscribe", self._rpc_unsubscribe)
        self.rpc.expose("confirm", self._rpc_confirm)
        self.rpc.expose("whoami", self._rpc_whoami)
        self.rpc.expose("prove_role", self._rpc_prove_role)
        self.rpc.expose("get_delegation", self._rpc_get_delegation)
        self.rpc.expose("delegation_event", self._rpc_delegation_event)
        self.rpc.expose("revocation", self._rpc_revocation)
        self.rpc.expose("gem_eval", self._rpc_gem_eval)
        self.rpc.expose("gem_answers", self._rpc_gem_answers)

    # ------------------------------------------------------------------
    # Server-side RPC handlers
    # ------------------------------------------------------------------

    def _rpc_direct_query(self, _src: str, params: dict) -> Optional[dict]:
        proof = self.wallet.query_direct(
            wire.subject_from_wire(params["subject"]),
            wire.role_from_wire(params["object"]),
            constraints=wire.constraints_from_wire(
                params.get("constraints", ())),
            bases=wire.bases_from_wire(params.get("bases", ())),
        )
        return wire.proof_to_wire(proof)

    def _rpc_subject_query(self, _src: str, params: dict) -> List[dict]:
        proofs = self.wallet.query_subject(
            wire.subject_from_wire(params["subject"]),
            constraints=wire.constraints_from_wire(
                params.get("constraints", ())),
            bases=wire.bases_from_wire(params.get("bases", ())),
        )
        return wire.proofs_to_wire(proofs)

    def _rpc_object_query(self, _src: str, params: dict) -> List[dict]:
        proofs = self.wallet.query_object(
            wire.role_from_wire(params["object"]),
            constraints=wire.constraints_from_wire(
                params.get("constraints", ())),
            bases=wire.bases_from_wire(params.get("bases", ())),
        )
        return wire.proofs_to_wire(proofs)

    def _rpc_publish(self, _src: str, params: dict) -> bool:
        delegation = wire.delegation_from_wire(params["delegation"])
        supports = wire.proofs_from_wire(params.get("supports", ()))
        return self.wallet.publish(delegation, supports)

    def _rpc_subscribe(self, src: str, params: dict) -> dict:
        """Hold one delegation for the calling peer (``src``, the
        transport source, never an address the request names), once,
        and answer its status; an id this wallet does not store is
        ``known: False`` and nothing is held for it."""
        delegation_id = params["delegation_id"]
        known = self.wallet.store.get_delegation(delegation_id) is not None
        if known and delegation_id not in self._holdings.get(src, ()):
            self._holdings.setdefault(src, {})[delegation_id] = \
                self.wallet.hub.subscribe(delegation_id,
                                          partial(self._push, src))
        return {"known": known,
                "revoked": self.wallet.is_revoked(delegation_id)}

    def _push(self, peer: str, event: DelegationEvent) -> None:
        """Push a held credential's event (and its signed revocation) to
        ``peer``; a REVOKED one is the last, delivered or not."""
        payload = {"event": event.to_dict()}
        revocation = self.wallet.store.revocation_for(event.delegation_id)
        if revocation is not None:
            payload["revocation"] = revocation.to_dict()
        try:
            self.rpc.notify(peer, "delegation_event", payload)
        except NetworkError:
            # An unreachable subscriber must not fail the publisher:
            # its TTL lease will lapse without confirmation, which is
            # exactly the fallback Section 4.2.1's TTL exists for.
            self.pushes_failed += 1
        else:
            self.events_pushed += 1
        if event.kind is EventKind.REVOKED:
            self._release(peer, event.delegation_id)

    def _rpc_unsubscribe(self, src: str, params: dict) -> None:
        """Drop the caller's *own* holding of one delegation (a notify)."""
        self._release(src, params["delegation_id"])

    def holdings_count(self) -> int:
        """Live (peer, delegation) pairs -- one hub subscription each."""
        return sum(len(held) for held in self._holdings.values())

    def _release(self, peer: str, delegation_id: str) -> None:
        """Forget that ``peer`` holds ``delegation_id``, if it does."""
        held = self._holdings.get(peer, {})
        if delegation_id in held:
            held.pop(delegation_id).cancel()
            if not held:
                del self._holdings[peer]

    def _rpc_confirm(self, _src: str, params: dict) -> dict:
        """TTL confirmation probe: is the delegation still valid here?"""
        delegation_id = params["delegation_id"]
        delegation = self.wallet.store.get_delegation(delegation_id)
        return {"valid": delegation is not None and is_live(
            delegation, self.wallet.clock.now(), self.wallet.is_revoked)}

    def _rpc_whoami(self, _src: str, _params: Any) -> Optional[dict]:
        owner = self.wallet.owner
        return owner.to_dict() if owner is not None else None

    def _rpc_prove_role(self, _src: str, params: dict) -> Optional[dict]:
        """Prove this wallet host's authority (Section 4.2.1: the tag
        names "a dRBAC role required to authorize the home and its
        proxies"). Returns a proof that the wallet owner holds the
        requested role, or None."""
        owner = self.wallet.owner
        if owner is None:
            return None
        role = wire.role_from_wire(params["role"])
        proof = self.wallet.query_direct(owner, role)
        return wire.proof_to_wire(proof)

    def _rpc_get_delegation(self, _src: str, params: dict
                            ) -> Optional[dict]:
        """Fetch one delegation (with its support proofs) by id."""
        delegation = self.wallet.store.get_delegation(
            params["delegation_id"])
        if delegation is None:
            return None
        return {
            "delegation": wire.delegation_to_wire(delegation),
            "supports": wire.proofs_to_wire(
                self.wallet.store.supports_for(delegation.id)),
        }

    # ------------------------------------------------------------------
    # Goal evaluation (the serving side of discovery)
    # ------------------------------------------------------------------

    def _rpc_gem_eval(self, src: str, params: dict) -> None:
        """Evaluate one goal for a search whose origin is ``src``.

        Arrives as a one-message *notify* from the search's origin (the
        coordinating engine); nothing rides back on this exchange. The
        home computes the goal's local closure and pushes a single
        ``gem_answers`` notify straight back to ``src``. It keeps
        nothing per search: the origin dedups goals, accepts one answer
        per goal it sent, and derives the continuing goals itself from
        the tags of what it verifies, so a retransmitted eval is simply
        answered again.
        """
        direction, node = wire.gem_goal_from_wire(params["goal"])
        self.gem_stats.c_evals_served.inc()
        query = self.wallet.query_object if direction == "rev" \
            else self.wallet.query_subject
        proofs = query(
            node,
            constraints=wire.constraints_from_wire(
                params.get("constraints", ())),
            bases=wire.bases_from_wire(params.get("bases", ())))
        self._gem_push_answers(src, params, proofs)

    def _gem_push_answers(self, origin: str, request: dict,
                          proofs: List[Proof]) -> None:
        """Ship this home's local closure for one goal straight to the
        search's origin, as the one notify
        :func:`~repro.discovery.gem.answer_push` builds. The
        certificates it ships newly get their
        validation subscriptions established *here*, server-side, with
        the origin as subscriber -- no subscribe round trips -- and the
        push lists their ids; a push that never left takes them back,
        for nobody holds what it carried."""
        push, subs = answer_push(request, proofs,
                                 self._holdings.get(origin, {}),
                                 self.wallet.store.get_delegation)
        for delegation_id in subs:
            self._rpc_subscribe(origin, {"delegation_id": delegation_id})
        try:
            self.rpc.notify(origin, "gem_answers", push)
        except NetworkError:
            for delegation_id in subs:
                self._release(origin, delegation_id)
            return
        self.gem_stats.c_answers_pushed.inc(len(push["answers"]))

    def _rpc_gem_answers(self, src: str, params: dict) -> None:
        """Answer push arriving at a search's origin; handed, with its
        transport source, to the engine-installed sink (which decides
        whether anyone asked ``src`` for it)."""
        sink = self.gem_answer_sink
        if sink is not None:
            sink(src, params)

    def _on_local_event(self, event: DelegationEvent) -> None:
        """A revocation accepted here follows its delegation's
        placement."""
        if event.kind is EventKind.REVOKED \
                and event.delegation_id != self._relayed:
            self._hand_over_revocation(event.delegation_id)

    def _hand_over_revocation(self, delegation_id: str) -> None:
        """Section 6 at every home: a dual-home delegation (its subject
        and object tags place it in two wallets) is served from both,
        so a home its tags name that accepts the revocation sends it,
        once, to the other. A wallet that merely caches a copy hands
        over nothing."""
        store = self.wallet.store
        delegation = store.get_delegation(delegation_id)
        revocation = store.revocation_for(delegation_id)
        if delegation is None or revocation is None \
                or self.address not in delegation.homes:
            return
        payload = {"revocation": revocation.to_dict()}
        for home in delegation.homes:
            if home == self.address:
                continue
            try:
                self.rpc.notify(home, "revocation", payload)
            except NetworkError:
                # The other home's own subscribers then learn of it by
                # their leases lapsing, as for any lost push.
                self.pushes_failed += 1
            else:
                self.events_pushed += 1

    def _rpc_revocation(self, _src: str, params: dict) -> None:
        """A peer home's hand-over: applied like a subscription push,
        so it counts only if the issuer's signature verifies against
        this wallet's copy, and never handed on again."""
        revocation = Revocation.from_dict(params["revocation"])
        self._relayed = revocation.delegation_id
        try:
            self.cache.apply_remote_revocation(revocation)
        finally:
            self._relayed = None

    def _rpc_delegation_event(self, src: str, params: dict) -> None:
        """Inbound push from a wallet we subscribed at (client side)."""
        event = DelegationEvent.from_dict(params["event"])
        if params.get("revocation") is not None:
            revocation = Revocation.from_dict(params["revocation"])
            self.cache.apply_remote_revocation(revocation)
        elif event.kind is EventKind.UPDATED and event.detail:
            self._apply_remote_renewal(src, event)
        elif event.kind is EventKind.EXPIRED:
            # Expiry is certificate-carried; a push just accelerates the
            # local sweep.
            self.wallet.expire_sweep()

    def _apply_remote_renewal(self, source: str,
                              event: DelegationEvent) -> None:
        """A subscribed delegation was renewed at its home: fetch the
        replacement certificate (a record that is not the credential
        the event named changes nothing), validate it locally, re-key
        the cache entry and hold the renewal at ``source`` (Section
        3.2.2 distributed)."""
        old_id = event.delegation_id
        if self.wallet.store.get_delegation(old_id) is None:
            return
        try:
            renewal = self.remote_get_delegation(source, event.detail)
        except FETCH_ERRORS:
            return
        if self.cache.apply_remote_renewal(old_id, renewal) \
                and renewal.id in self.cache:
            try:
                self.remote_subscribe(source, renewal.id)
            except (RpcError, NetworkError):
                pass    # unguarded: the copy's lease bounds it

    # ------------------------------------------------------------------
    # Client-side helpers (this server calling peers)
    # ------------------------------------------------------------------

    def remote_direct_query(self, remote: str, subject, obj,
                            constraints=(), bases=None) -> Optional[Proof]:
        data = self.rpc.call(remote, "direct_query", {
            "subject": wire.subject_to_wire(subject),
            "object": wire.role_to_wire(obj),
            "constraints": wire.constraints_to_wire(constraints),
            "bases": wire.bases_to_wire(bases),
        })
        return wire.proof_from_wire(data)

    def remote_subject_query(self, remote: str, subject,
                             constraints=()) -> List[Proof]:
        data = self.rpc.call(remote, "subject_query", {
            "subject": wire.subject_to_wire(subject),
            "constraints": wire.constraints_to_wire(constraints),
        })
        return wire.proofs_from_wire(data)

    def remote_object_query(self, remote: str, obj,
                            constraints=()) -> List[Proof]:
        data = self.rpc.call(remote, "object_query", {
            "object": wire.role_to_wire(obj),
            "constraints": wire.constraints_to_wire(constraints),
        })
        return wire.proofs_from_wire(data)

    def remote_publish(self, remote: str, delegation,
                       supports: Tuple[Proof, ...] = ()) -> bool:
        return self.rpc.call(remote, "publish", {
            "delegation": wire.delegation_to_wire(delegation),
            "supports": wire.proofs_to_wire(supports),
        })

    def remote_get_delegation(self, remote: str,
                              delegation_id: str) -> Delegation:
        """Fetch one credential by id from ``remote``; anything but the
        credential the id names raises one of :data:`FETCH_ERRORS`."""
        record = self.rpc.call(remote, "get_delegation",
                               {"delegation_id": delegation_id})
        delegation = wire.delegation_from_wire(record["delegation"])
        if delegation.id != delegation_id:
            raise DiscoveryError(f"{remote} answered {delegation_id!r} "
                                 f"with {delegation.id!r}")
        return delegation

    def remote_subscribe(self, remote: str, delegation_id: str) -> bool:
        """Subscribe this server at ``remote`` to a delegation it caches,
        and record the holding on the cache entry (which releases it
        when the copy goes). False when ``remote`` does not store the
        delegation: nothing is held there."""
        known = self.rpc.call(remote, "subscribe",
                              {"delegation_id": delegation_id})["known"]
        if known:
            self.cache.hold(remote, delegation_id)
        return known

    def remote_unsubscribe(self, remote: str, delegation_id: str) -> None:
        """End this server's holding of ``delegation_id`` at ``remote``:
        one notify, best effort (a lost one leaves a ref in the home's
        next answer, which discovery fetches back)."""
        try:
            self.rpc.notify(remote, "unsubscribe",
                            {"delegation_id": delegation_id})
        except NetworkError:
            pass

    def remote_gem_eval(self, remote: str, root_id: str, direction: str,
                        node, constraints=(), bases=None) -> None:
        """Send one goal to ``remote`` -- a single notify, no reply; the
        home's answer arrives as its own ``gem_answers`` notify, with
        validation subscriptions for what it ships. Empty constraints
        and bases are left out; the home reads them as empty."""
        params = {"root": root_id,
                  "goal": wire.gem_goal_to_wire(direction, node)}
        if constraints:
            params["constraints"] = wire.constraints_to_wire(constraints)
        if bases:
            params["bases"] = wire.bases_to_wire(bases)
        self.rpc.notify(remote, "gem_eval", params)

    def remote_prove_role(self, remote: str, role) -> Optional[Proof]:
        data = self.rpc.call(remote, "prove_role",
                             {"role": wire.role_to_wire(role)})
        return wire.proof_from_wire(data)

    def verify_wallet_authority(self, remote: str, auth_role) -> bool:
        """Check that the wallet at ``remote`` is operated by an entity
        holding ``auth_role``, by asking it to prove the role and
        validating the proof locally. The proof's root delegations are
        self-certified by the role's namespace owner, so a rogue host
        cannot forge authority."""
        try:
            # The typed decoder: a malformed record is a DRBACError.
            owner = subject_from_dict(
                {"kind": "entity",
                 "entity": self.rpc.call(remote, "whoami")})
            proof = self.remote_prove_role(remote, auth_role)
            return proof is not None \
                and find_support((proof,), owner, auth_role) is proof \
                and is_valid_proof(proof, at=self.wallet.clock.now(),
                                   revoked=self.wallet.store.is_revoked)
        except (RpcError, NetworkError, DRBACError):
            return False

    def remote_confirm(self, remote: str, delegation_id: str) -> bool:
        result = self.rpc.call(remote, "confirm",
                               {"delegation_id": delegation_id})
        if result.get("valid"):
            self.cache.confirm(delegation_id)
            return True
        return False

    def close(self) -> None:
        for held in self._holdings.values():
            for subscription in held.values():
                subscription.cancel()
        self._holdings.clear()
        self._hub_sub.cancel()
        if self.switchboard is not None:
            self.switchboard.close()
        self.rpc.close()


class WalletDirectory:
    """Deployment bookkeeping: every wallet server in one simulation."""

    def __init__(self) -> None:
        self._servers: Dict[str, WalletServer] = {}

    def add(self, server: WalletServer) -> WalletServer:
        if server.address in self._servers:
            raise DiscoveryError(
                f"wallet address {server.address!r} already in directory"
            )
        self._servers[server.address] = server
        return server

    def get(self, address: str) -> WalletServer:
        try:
            return self._servers[address]
        except KeyError:
            raise DiscoveryError(
                f"no wallet server at {address!r}"
            ) from None

    def __contains__(self, address: str) -> bool:
        return address in self._servers

    def __len__(self) -> int:
        return len(self._servers)

    def servers(self) -> List[WalletServer]:
        return list(self._servers.values())
