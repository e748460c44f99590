"""Validation proxies: hierarchical caches of online validation agents.

Two passages of the paper meet here:

* Section 4.2.1 -- a discovery tag names "a dRBAC role required to
  authorize the home *and its proxies*": homes are not the only wallets
  allowed to answer for a delegation;
* Section 6 -- "delegation subscriptions permit construction of
  hierarchical directory-based caches of trusted online validation
  agents that can avoid communication of updates irrelevant to
  particular caches."

A :class:`ValidationProxy` wraps a wallet server that mirrors selected
delegations from an upstream wallet (the home, or another proxy). It
holds exactly one upstream subscription per mirrored delegation, no
matter how many downstream clients subscribe at the proxy; an
invalidation pushed by the home therefore costs the home one message per
*child cache*, not one per ultimate subscriber -- and a proxy with no
interested downstream subscribers simply absorbs the update, "avoiding
communication of updates irrelevant to particular caches."

Authorization: a proxy is trustworthy for a delegation exactly when its
host holds the discovery tag's authorizing role, which clients check via
:meth:`WalletServer.verify_wallet_authority` before subscribing.
"""

from typing import List, Optional, Tuple

from repro.core.delegation import Delegation
from repro.core.errors import DiscoveryError
from repro.core.proof import Proof
from repro.core.roles import Role, Subject
from repro.discovery.resolver import WalletServer
from repro.net.rpc import RpcError
from repro.net.transport import NetworkError


class ValidationProxy:
    """A wallet server mirroring credentials from one upstream wallet."""

    def __init__(self, server: WalletServer, upstream: str,
                 default_ttl: float = 0.0) -> None:
        if server.address == upstream:
            raise DiscoveryError("a proxy cannot be its own upstream")
        self.server = server
        self.upstream = upstream
        self.default_ttl = default_ttl

    # -- mirroring --------------------------------------------------------

    def mirror_delegation(self, delegation: Delegation,
                          supports: Tuple[Proof, ...] = (),
                          ttl: Optional[float] = None) -> bool:
        """Cache one delegation and hold a single upstream subscription,
        recorded on the cache entry.

        Idempotent per delegation; re-mirroring refreshes the lease.
        The upstream subscribes before the copy is cached, so a failed
        subscription leaves no unguarded copy behind, and a credential
        the upstream reports revoked is not cached (False).
        """
        cache = self.server.cache
        known = False
        if not self.mirrors(delegation.id):
            try:
                status = self.server.rpc.call(
                    self.upstream, "subscribe",
                    {"delegation_id": delegation.id})
            except (RpcError, NetworkError) as exc:
                raise DiscoveryError(
                    f"cannot subscribe upstream at {self.upstream}: {exc}"
                ) from exc
            known = status["known"]
            if status["revoked"]:
                if known:   # a holding that would never push
                    cache.release(self.upstream, delegation.id)
                return False
        try:
            return cache.insert(delegation, supports, home=self.upstream,
                                ttl=self.default_ttl if ttl is None else ttl)
        finally:
            if known:
                # Recorded on the copy, or released if the insert failed.
                cache.hold(self.upstream, delegation.id)

    def mirror_proofs_for(self, subject: Subject,
                          ttl: Optional[float] = None) -> int:
        """Mirror every sub-proof the upstream serves for ``subject``.

        This is how a directory cache warms itself for a community of
        principals it fronts. Returns the number of delegations mirrored.
        """
        try:
            proofs = self.server.remote_subject_query(self.upstream,
                                                      subject)
        except (RpcError, NetworkError) as exc:
            raise DiscoveryError(
                f"upstream subject query failed: {exc}"
            ) from exc
        return sum(self.mirror_proof(proof, ttl=ttl) for proof in proofs)

    def mirror_proof(self, proof: Proof,
                     ttl: Optional[float] = None) -> int:
        """Mirror all chain delegations of one proof."""
        mirrored = 0
        for delegation in proof.chain:
            if self.mirror_delegation(delegation,
                                      proof.supports_for(delegation),
                                      ttl=ttl):
                mirrored += 1
        return mirrored

    # -- introspection -----------------------------------------------------

    def mirrors(self, delegation_id: str) -> bool:
        """Whether the upstream holds a subscription for this copy."""
        entry = self.server.cache.entry(delegation_id)
        return entry is not None and self.upstream in entry.held_at


def build_proxy_chain(servers: List[WalletServer],
                      default_ttl: float = 0.0) -> List[ValidationProxy]:
    """Wire servers[1:] as a proxy chain under servers[0] (the home).

    ``servers[1]`` proxies the home, ``servers[2]`` proxies
    ``servers[1]``, and so on -- the hierarchical cache of Section 6.
    """
    if len(servers) < 2:
        raise DiscoveryError("a proxy chain needs a home plus >= 1 proxy")
    proxies = []
    for upstream, host in zip(servers, servers[1:]):
        proxies.append(ValidationProxy(host, upstream.address,
                                       default_ttl=default_ttl))
    return proxies
