"""RT0 credentials and Li-Winsborough chain discovery.

RT0 (Li, Winsborough, Mitchell [11]) has four credential forms defining
the members of a role ``A.r``:

* **simple member**:       ``A.r <- D``            (a principal)
* **simple containment**:  ``A.r <- B.r1``         (all members of B.r1)
* **linking**:             ``A.r <- A.r1.r2``      (all members of B.r2
  for every member B of A.r1 -- a *linked* name)
* **intersection**:        ``A.r <- B.r1 & C.r2``  (members of both)

Membership is the least solution of the induced set equations. The
``members``/``is_member`` decision below is the standard worklist
(backward search) algorithm from the credential-chain-discovery paper,
which the dRBAC paper credits as contemporaneous related work for its
discovery-tag scheme.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

RoleRef = Tuple[str, str]                  # (authority, role name)
LinkedRole = Tuple[str, str, str]          # A.r1.r2


@dataclass(frozen=True)
class RT0Credential:
    """``head <- body`` where head is a role and body one of the four
    RT0 subject forms."""

    head: RoleRef
    kind: str  # "member" | "containment" | "linked" | "intersection"
    principal: Optional[str] = None
    role: Optional[RoleRef] = None
    linked: Optional[LinkedRole] = None
    roles: Optional[Tuple[RoleRef, RoleRef]] = None

    def __str__(self) -> str:
        head = f"{self.head[0]}.{self.head[1]}"
        if self.kind == "member":
            return f"{head} <- {self.principal}"
        if self.kind == "containment":
            return f"{head} <- {self.role[0]}.{self.role[1]}"
        if self.kind == "linked":
            a, r1, r2 = self.linked
            return f"{head} <- {a}.{r1}.{r2}"
        (b, r1), (c, r2) = self.roles
        return f"{head} <- {b}.{r1} & {c}.{r2}"


def member(head: RoleRef, principal: str) -> RT0Credential:
    return RT0Credential(head=head, kind="member", principal=principal)


def containment(head: RoleRef, role: RoleRef) -> RT0Credential:
    return RT0Credential(head=head, kind="containment", role=role)


def linked(head: RoleRef, authority: str, r1: str, r2: str) -> RT0Credential:
    return RT0Credential(head=head, kind="linked",
                         linked=(authority, r1, r2))


def intersection(head: RoleRef, left: RoleRef,
                 right: RoleRef) -> RT0Credential:
    return RT0Credential(head=head, kind="intersection",
                         roles=(left, right))


class RT0System:
    """A credential store with least-fixpoint membership evaluation."""

    def __init__(self) -> None:
        self._credentials: List[RT0Credential] = []
        self._by_head: Dict[RoleRef, List[RT0Credential]] = {}
        self.names_created: Set[RoleRef] = set()

    def add(self, credential: RT0Credential) -> None:
        self._credentials.append(credential)
        self._by_head.setdefault(credential.head, []).append(credential)
        self.names_created.add(credential.head)

    # -- membership ------------------------------------------------------

    def members(self, role: RoleRef) -> Set[str]:
        """All principals in ``role`` (backward search, least fixpoint).

        Iterates to a fixpoint over the set equations induced by the
        credentials reachable backward from ``role``. Termination:
        memberships only grow and the universe of principals is finite.
        """
        relevant = self._reachable_heads(role)
        solution: Dict[RoleRef, Set[str]] = {
            head: set() for head in relevant}
        changed = True
        while changed:
            changed = False
            for head in relevant:
                for credential in self._by_head.get(head, ()):
                    added = self._evaluate(credential, solution)
                    if not added <= solution[head]:
                        solution[head] |= added
                        changed = True
        return solution.get(role, set())

    def is_member(self, principal: str, role: RoleRef) -> bool:
        return principal in self.members(role)

    def _evaluate(self, credential: RT0Credential,
                  solution: Dict[RoleRef, Set[str]]) -> Set[str]:
        if credential.kind == "member":
            return {credential.principal}
        if credential.kind == "containment":
            return set(solution.get(credential.role, set()))
        if credential.kind == "linked":
            authority, r1, r2 = credential.linked
            result: Set[str] = set()
            for middle in solution.get((authority, r1), set()):
                result |= solution.get((middle, r2), set())
            return result
        left, right = credential.roles
        return (solution.get(left, set())
                & solution.get(right, set()))

    def _reachable_heads(self, role: RoleRef) -> Set[RoleRef]:
        """Roles whose solutions can influence ``role`` (backward cone).

        Linked roles make the cone dynamic: ``A.r1.r2`` pulls in
        ``(m, r2)`` for every *potential* member m, so we conservatively
        include every defined head matching the second link name. That
        over-approximation only costs work, never correctness.
        """
        reachable: Set[RoleRef] = set()
        stack = [role]
        while stack:
            current = stack.pop()
            if current in reachable:
                continue
            reachable.add(current)
            for credential in self._by_head.get(current, ()):
                if credential.kind == "containment":
                    stack.append(credential.role)
                elif credential.kind == "linked":
                    authority, r1, r2 = credential.linked
                    stack.append((authority, r1))
                    for head in self._by_head:
                        if head[1] == r2:
                            stack.append(head)
                elif credential.kind == "intersection":
                    stack.extend(credential.roles)
        return reachable

    # -- chain discovery ---------------------------------------------------------

    def discover_chain(self, principal: str, role: RoleRef
                       ) -> Optional[List[RT0Credential]]:
        """A credential chain witnessing ``principal in role``.

        Reconstructed from the fixpoint solution; None if not a member.
        The chain lists, in order, one credential per derivation step.
        """
        if not self.is_member(principal, role):
            return None
        witness: List[RT0Credential] = []
        visiting: Set[RoleRef] = set()

        def find(target: RoleRef) -> bool:
            if target in visiting:
                return False
            visiting.add(target)
            try:
                for credential in self._by_head.get(target, ()):
                    if credential.kind == "member" \
                            and credential.principal == principal:
                        witness.append(credential)
                        return True
                for credential in self._by_head.get(target, ()):
                    if credential.kind == "containment" \
                            and self.is_member(principal, credential.role):
                        witness.append(credential)
                        return find(credential.role)
                    if credential.kind == "linked":
                        authority, r1, r2 = credential.linked
                        for middle in self.members((authority, r1)):
                            if self.is_member(principal, (middle, r2)):
                                witness.append(credential)
                                return find((middle, r2))
                    if credential.kind == "intersection":
                        left, right = credential.roles
                        if self.is_member(principal, left) \
                                and self.is_member(principal, right):
                            witness.append(credential)
                            return find(left)
                return False
            finally:
                visiting.discard(target)

        return witness if find(role) else None

    # -- the phantom-role idiom (Section 6 comparison) -------------------------

    def grant_via_phantom(self, owner: str, privilege: str,
                          third_party: str, grantee: str
                          ) -> Tuple[RT0Credential, ...]:
        """RT0's equivalent of dRBAC third-party delegation.

        The owner links a role in the third party's namespace into the
        privilege (``owner.privilege <- third_party.phantom``); the third
        party then admits grantees to its phantom role. As in SPKI, the
        phantom name pollutes the third party's namespace.
        """
        phantom = f"phantom-{owner}-{privilege}"
        issued = []
        link = containment((owner, privilege), (third_party, phantom))
        if link not in self._by_head.get((owner, privilege), []):
            issued.append(link)
            self.add(link)
        grant = member((third_party, phantom), grantee)
        issued.append(grant)
        self.add(grant)
        return tuple(issued)

    # -- metrics ---------------------------------------------------------------

    def namespace_size(self, authority: str) -> int:
        return sum(1 for head in self.names_created
                   if head[0] == authority)
