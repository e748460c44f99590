"""The DisCo facade: what an application developer calls.

Wraps one wallet (optionally with a discovery engine for multi-wallet
deployments) behind two operations:

* :meth:`DiscoService.register_resource` -- "register new protected
  resources whose access is regulated using dRBAC roles";
* :meth:`DiscoService.request_access` -- authenticate the requesting
  principal, discover an authorizing proof (locally or across wallets),
  check attribute constraints, and hand back a monitored
  :class:`~repro.disco.sessions.AccessSession`.
"""

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.attributes import AttributeRef, Constraint
from repro.core.delegation import Delegation
from repro.core.errors import AuthorizationDenied
from repro.core.identity import Entity
from repro.core.proof import Proof
from repro.core.roles import Role
from repro.disco.resources import ProtectedResource, ResourceRegistry
from repro.disco.sessions import AccessSession
from repro.discovery.engine import DiscoveryEngine
from repro.wallet.wallet import Wallet


class DiscoService:
    """Access control for one server's protected resources."""

    def __init__(self, wallet: Wallet,
                 engine: Optional[DiscoveryEngine] = None) -> None:
        self.wallet = wallet
        self.engine = engine
        self.registry = ResourceRegistry()
        self.sessions: List[AccessSession] = []
        self.denials = 0

    # -- registration ----------------------------------------------------

    def register_resource(self, name: str, required_role: Role,
                          bases: Optional[Dict[AttributeRef, float]] = None,
                          constraints: Iterable[Constraint] = ()
                          ) -> ProtectedResource:
        resource = self.registry.register(
            name, required_role, bases=bases, constraints=constraints)
        for attribute, value in (bases or {}).items():
            self.wallet.set_base_allocation(attribute, value)
        return resource

    # -- access ------------------------------------------------------------

    def request_access(self, principal: Entity, resource_name: str,
                       presented: Iterable[Tuple[Delegation,
                                                 Tuple[Proof, ...]]] = (),
                       auto_revalidate: bool = True,
                       on_state_change: Optional[Callable] = None
                       ) -> AccessSession:
        """Authorize ``principal`` for a resource and open a session.

        ``presented`` are credentials the requester brings along (the
        case study's Step 1: Maria's software passes delegation (1)).
        With a discovery engine, those the wallet lacks go to the
        discovery, which checks their signatures with everything it
        fetches and publishes them at its first commit; without one
        they are published before the query. Raises
        :class:`AuthorizationDenied` when no satisfying proof can be
        discovered.
        """
        resource = self.registry.get(resource_name)
        presented = [(delegation, supports)
                     for delegation, supports in presented
                     if self.wallet.store.get_delegation(delegation.id)
                     is None]
        if self.engine is None:
            for delegation, supports in presented:
                self.wallet.publish(delegation, supports)
            presented = []

        bases = resource.base_allocations()
        proof = None if presented else self.wallet.query_direct(
            principal, resource.required_role,
            constraints=resource.constraints, bases=bases)
        if proof is None and self.engine is not None:
            proof = self.engine.discover(
                principal, resource.required_role,
                constraints=resource.constraints, bases=bases,
                presented=presented)
        if proof is None:
            self.denials += 1
            raise AuthorizationDenied(
                f"{principal.display_name} cannot be proven to hold "
                f"{resource.required_role} (resource {resource_name!r})"
            )
        # Sessions heal across wallets: revalidation falls back to
        # distributed discovery when the local wallet comes up empty.
        discover = self.engine.discover if self.engine is not None \
            else None
        monitor = self.wallet.monitor(proof,
                                      constraints=resource.constraints,
                                      discover=discover)
        session = AccessSession(
            principal=principal, resource=resource, monitor=monitor,
            auto_revalidate=auto_revalidate,
            on_state_change=on_state_change,
        )
        self.sessions.append(session)
        return session

    # -- introspection ------------------------------------------------------

    def active_sessions(self) -> List[AccessSession]:
        return [s for s in self.sessions if s.active]

    def terminate_all(self) -> None:
        for session in self.sessions:
            session.terminate()
