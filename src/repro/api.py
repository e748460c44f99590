"""High-level facade: dRBAC in a few lines.

The full library exposes every moving part of the paper's system; most
applications need a handful of idioms. :class:`Domain` bundles a
principal with its wallet and wraps the common operations:

    from repro.api import Domain

    isp = Domain.create("BigISP")
    maria = Domain.create("Maria")

    isp.grant(maria, "member")                       # self-certified
    assert isp.check(maria, "member")

    airnet = Domain.create("AirNet")
    airnet.set_base("BW", 200)
    airnet.trust(isp.role("member"), "member", attrs={"BW": ("<=", 100)})
    airnet.grant_role_to_role("member", "access")
    session = airnet.authorize(maria, "access",
                               evidence=isp.wallet_of(maria))
    print(airnet.explain(maria, "access"))

Everything returned is a first-class core object (Delegation, Proof,
ProofMonitor), so code can drop down to the full API at any point.
"""

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.attributes import AttributeRef, Constraint, Modifier, Operator
from repro.core.clock import Clock, SimClock
from repro.core.delegation import Delegation, issue
from repro.core.identity import Entity, Principal, create_principal
from repro.core.proof import Proof
from repro.core.roles import Role, Subject, attribute_right
from repro.monitor.proof_monitor import ProofMonitor
from repro.wallet.wallet import Wallet

RoleLike = Union[str, Role]
SubjectLike = Union["Domain", Principal, Entity, Role]
AttrSpec = Dict[str, Tuple[str, float]]


class Domain:
    """A principal plus its wallet, with the common idioms attached."""

    def __init__(self, principal: Principal,
                 clock: Optional[Clock] = None,
                 wallet: Optional[Wallet] = None) -> None:
        self.principal = principal
        self.wallet = wallet if wallet is not None else Wallet(
            owner=principal, clock=clock if clock is not None
            else SimClock())

    @classmethod
    def create(cls, name: str, clock: Optional[Clock] = None,
               algorithm: str = "schnorr-secp256k1") -> "Domain":
        """Mint a fresh identity with its own wallet."""
        return cls(create_principal(name, algorithm=algorithm),
                   clock=clock)

    # -- naming -----------------------------------------------------------

    @property
    def entity(self) -> Entity:
        return self.principal.entity

    @property
    def name(self) -> str:
        return self.entity.display_name

    def role(self, name: str, ticks: int = 0) -> Role:
        """A role in this domain's namespace."""
        return Role(self.entity, name, ticks=ticks)

    def attribute(self, name: str) -> AttributeRef:
        """A valued attribute in this domain's namespace."""
        return AttributeRef(self.entity, name)

    def _resolve_role(self, role: RoleLike) -> Role:
        return self.role(role) if isinstance(role, str) else role

    @staticmethod
    def _resolve_subject(subject: SubjectLike) -> Subject:
        if isinstance(subject, Domain):
            return subject.entity
        if isinstance(subject, Principal):
            return subject.entity
        return subject

    def _modifiers(self, attrs: Optional[AttrSpec]) -> List[Modifier]:
        if not attrs:
            return []
        return [
            Modifier(self.attribute(name), Operator.from_token(f"{op}="),
                     value)
            for name, (op, value) in attrs.items()
        ]

    # -- issuing into our own namespace -------------------------------------

    def grant(self, subject: SubjectLike, role: RoleLike,
              attrs: Optional[AttrSpec] = None,
              expiry: Optional[float] = None,
              depth_limit: Optional[int] = None) -> Delegation:
        """Self-certified grant of one of our roles; published locally.

        ``attrs`` maps attribute names to ``(op, value)`` pairs with op
        one of ``"<"``, ``"-"``, ``"*"`` (the Table 2 operators).
        """
        delegation = issue(
            self.principal, self._resolve_subject(subject),
            self._resolve_role(role),
            modifiers=self._modifiers(attrs), expiry=expiry,
            depth_limit=depth_limit,
        )
        self.wallet.publish(delegation)
        return delegation

    def grant_role_to_role(self, holder: RoleLike, granted: RoleLike,
                           attrs: Optional[AttrSpec] = None) -> Delegation:
        """Holders of one role gain another (role hierarchy edge)."""
        return self.grant(self._resolve_role(holder), granted,
                          attrs=attrs)

    def grant_assignment(self, subject: SubjectLike,
                         role: RoleLike) -> Delegation:
        """Give the subject the right of assignment on one of our roles
        (the paper's ``R'``)."""
        return self.grant(subject, self._resolve_role(role).with_tick())

    def grant_attribute_right(self, subject: SubjectLike, attr: str,
                              op: str) -> Delegation:
        """Give the subject the right to set one of our attributes."""
        right = attribute_right(self.attribute(attr),
                                Operator.from_token(f"{op}="))
        delegation = issue(self.principal,
                           self._resolve_subject(subject), right)
        self.wallet.publish(delegation)
        return delegation

    def trust(self, foreign: Role, local_role: RoleLike,
              attrs: Optional[AttrSpec] = None) -> Delegation:
        """A coalition bridge: holders of a *foreign* role gain one of
        our roles (modulated by ``attrs``). Self-certified -- we own the
        object role."""
        return self.grant(foreign, local_role, attrs=attrs)

    # -- accepting foreign credentials ---------------------------------------

    def accept(self, delegation: Delegation,
               supports: Iterable[Proof] = ()) -> bool:
        """Publish an externally issued delegation into our wallet."""
        return self.wallet.publish(delegation, tuple(supports))

    def wallet_of(self, subject: SubjectLike) -> List[
            Tuple[Delegation, Tuple[Proof, ...]]]:
        """The credentials this domain holds about ``subject`` -- what a
        client would present elsewhere (Step 1 of the case study)."""
        target = self._resolve_subject(subject)
        result = []
        for delegation in self.wallet.store.delegations():
            if delegation.subject == target:
                result.append(
                    (delegation,
                     self.wallet.store.supports_for(delegation.id)))
        return result

    # -- attribute bases ------------------------------------------------------

    def set_base(self, attr: str, value: float) -> None:
        self.wallet.set_base_allocation(self.attribute(attr), value)

    # -- decisions ---------------------------------------------------------------

    def check(self, subject: SubjectLike, role: RoleLike,
              require: Optional[Dict[str, float]] = None) -> bool:
        """Boolean authorization check, optionally with minimum grants."""
        constraints = [
            Constraint(self.attribute(name), minimum)
            for name, minimum in (require or {}).items()
        ]
        return self.wallet.query_direct(
            self._resolve_subject(subject), self._resolve_role(role),
            constraints=constraints) is not None

    def authorize(self, subject: SubjectLike, role: RoleLike,
                  evidence: Iterable[Tuple[Delegation,
                                           Tuple[Proof, ...]]] = (),
                  require: Optional[Dict[str, float]] = None,
                  callback=None) -> Optional[ProofMonitor]:
        """Full authorization: absorb presented evidence, find a proof,
        return it wrapped in a monitor (None when unprovable)."""
        for delegation, supports in evidence:
            if self.wallet.store.get_delegation(delegation.id) is None:
                self.wallet.publish(delegation, supports)
        constraints = [
            Constraint(self.attribute(name), minimum)
            for name, minimum in (require or {}).items()
        ]
        return self.wallet.authorize(
            self._resolve_subject(subject), self._resolve_role(role),
            constraints=constraints, callback=callback)

    def grants_for(self, subject: SubjectLike, role: RoleLike
                   ) -> Optional[Dict[AttributeRef, float]]:
        """The modulated allocations an authorization carries."""
        proof = self.wallet.query_direct(
            self._resolve_subject(subject), self._resolve_role(role))
        if proof is None:
            return None
        return proof.grants(self.wallet.base_allocations())

    def explain(self, subject: SubjectLike, role: RoleLike) -> str:
        """Human-readable proof tree, or a denial notice."""
        from repro.analysis.explain import explain_proof
        proof = self.wallet.query_direct(
            self._resolve_subject(subject), self._resolve_role(role))
        if proof is None:
            return (f"{self._resolve_subject(subject)} cannot be proven "
                    f"to hold {self._resolve_role(role)}")
        return explain_proof(proof)

    # -- lifecycle ------------------------------------------------------------

    def revoke(self, delegation: Delegation) -> None:
        """Revoke one of our delegations (must be held in our wallet)."""
        self.wallet.revoke(self.principal, delegation.id)

    def __repr__(self) -> str:
        return f"Domain({self.name}, {len(self.wallet)} delegations)"
