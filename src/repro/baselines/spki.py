"""SDSI/SPKI name certificates and Clarke-style chain discovery.

SDSI names are local: ``K.n`` is the name ``n`` in the namespace of key
``K``. A name certificate binds ``K.n`` to a subject, which may be a key
or another (possibly extended) name. Membership follows by rewriting
(name reduction); Clarke et al.'s discovery algorithm computes the
closure needed to decide it.

The point of this baseline for dRBAC (Section 6): "in both SDSI/SPKI and
RT0, the only way to allow a third party T to delegate a privilege P
controlled by entity O is to introduce a phantom role representing P into
T's namespace" -- :meth:`SPKISystem.grant_via_phantom` implements exactly
that idiom and counts the names it pollutes T's namespace with, which the
E3 benchmark compares against dRBAC third-party delegations (zero new
names).
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

# A fullname is a key plus a (possibly empty) sequence of name segments.
Fullname = Tuple[str, Tuple[str, ...]]


def key_name(key: str) -> Fullname:
    return (key, ())


def local_name(key: str, name: str) -> Fullname:
    return (key, (name,))


@dataclass(frozen=True)
class NameCert:
    """``issuer.name -> subject`` (4-tuple name cert, no validity logic)."""

    issuer: str
    name: str
    subject: Fullname

    def __str__(self) -> str:
        subject_key, segments = self.subject
        rendered = ".".join([subject_key, *segments])
        return f"{self.issuer}.{self.name} -> {rendered}"


class SPKISystem:
    """A store of name certs with name-reduction membership decisions."""

    def __init__(self) -> None:
        self._certs: List[NameCert] = []
        self._by_definition: Dict[Tuple[str, str], List[NameCert]] = {}
        self.names_created: Set[Tuple[str, str]] = set()
        self.certs_issued = 0

    # -- issuance --------------------------------------------------------

    def add_cert(self, cert: NameCert) -> None:
        self._certs.append(cert)
        self._by_definition.setdefault(
            (cert.issuer, cert.name), []).append(cert)
        self.names_created.add((cert.issuer, cert.name))
        self.certs_issued += 1

    def define(self, issuer: str, name: str, subject: Fullname) -> NameCert:
        cert = NameCert(issuer=issuer, name=name, subject=subject)
        self.add_cert(cert)
        return cert

    # -- membership (name reduction) ----------------------------------------

    def members(self, key: str, name: str,
                max_steps: int = 100_000) -> Set[str]:
        """All keys that ``key.name`` resolves to.

        Worklist resolution of the rewriting semantics: a fullname
        ``K n1 n2 ... nk`` is resolved by resolving ``K.n1`` to keys and
        recursing on the remaining segments.
        """
        return self._resolve((key, (name,)), max_steps)

    def is_member(self, principal_key: str, key: str, name: str) -> bool:
        return principal_key in self.members(key, name)

    def _resolve(self, fullname: Fullname, max_steps: int) -> Set[str]:
        resolved: Dict[Fullname, Set[str]] = {}
        in_progress: Set[Fullname] = set()
        steps = [0]

        def resolve(target: Fullname) -> Set[str]:
            if steps[0] > max_steps:
                raise RuntimeError("SPKI name reduction exceeded step limit")
            key, segments = target
            if not segments:
                return {key}
            if target in resolved:
                return resolved[target]
            if target in in_progress:
                # Cyclic definitions resolve to the least fixpoint; on
                # this path, contribute nothing (standard treatment).
                return set()
            in_progress.add(target)
            head, rest = segments[0], segments[1:]
            keys: Set[str] = set()
            for cert in self._by_definition.get((key, head), ()):
                steps[0] += 1
                subject_key, subject_segments = cert.subject
                for resolved_key in resolve(
                        (subject_key, subject_segments)):
                    if rest:
                        keys |= resolve((resolved_key, rest))
                    else:
                        keys.add(resolved_key)
            in_progress.discard(target)
            resolved[target] = keys
            return keys

        return resolve(fullname)

    # -- chain discovery (Clarke-style certificate chains) ---------------------

    def discover_chain(self, principal_key: str, key: str, name: str
                       ) -> Optional[List[NameCert]]:
        """A certificate chain witnessing ``principal_key in key.name``.

        Depth-first construction over the reduction relation; returns
        None when the principal is not a member.
        """
        visiting: Set[Fullname] = set()

        def search(target: Fullname) -> Optional[List[NameCert]]:
            target_key, segments = target
            if not segments:
                return [] if target_key == principal_key else None
            if target in visiting:
                return None
            visiting.add(target)
            try:
                head, rest = segments[0], segments[1:]
                for cert in self._by_definition.get((target_key, head), ()):
                    subject_key, subject_segments = cert.subject
                    chain = search((subject_key,
                                    subject_segments + rest))
                    if chain is not None:
                        return [cert, *chain]
                return None
            finally:
                visiting.discard(target)

        return search((key, (name,)))

    # -- the phantom-role idiom --------------------------------------------

    def grant_via_phantom(self, owner_key: str, privilege: str,
                          third_party_key: str,
                          grantee_key: str) -> Tuple[NameCert, ...]:
        """Let ``third_party`` hand out ``owner.privilege`` the SPKI way.

        Because SPKI has no third-party delegation, the owner must link a
        *phantom name* in the third party's namespace into the privilege:

        1. owner:        ``owner.privilege -> third_party.phantom-<priv>``
        2. third party:  ``third_party.phantom-<priv> -> grantee``

        Step 1 is issued once per (owner privilege, third party) pair;
        step 2 per grantee. Both steps mint names in the third party's
        namespace -- the "namespace pollution" dRBAC's third-party
        delegation avoids. Returns the certs issued by this call.
        """
        phantom = f"phantom-{owner_key}-{privilege}"
        issued = []
        link = (owner_key, privilege,
                local_name(third_party_key, phantom))
        already_linked = any(
            cert.issuer == link[0] and cert.name == link[1]
            and cert.subject == link[2]
            for cert in self._by_definition.get((owner_key, privilege), ())
        )
        if not already_linked:
            issued.append(self.define(owner_key, privilege,
                                      local_name(third_party_key, phantom)))
        issued.append(self.define(third_party_key, phantom,
                                  key_name(grantee_key)))
        return tuple(issued)

    # -- metrics ------------------------------------------------------------

    def namespace_size(self, key: str) -> int:
        """Distinct names defined in ``key``'s namespace."""
        return sum(1 for issuer, _name in self.names_created
                   if issuer == key)
