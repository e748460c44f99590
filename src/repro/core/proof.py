"""Proofs: delegation chains plus the support proofs that authorize them.

A *proof* (paper, Section 2) is a graph of delegations demonstrating that
"principal P has the permissions of role R", written ``P => R``. Its
skeleton is a *primary chain* of delegations

    d1 = [P -> R1] I1,  d2 = [R1 -> R2] I2, ...,  dk = [R(k-1) -> R] Ik

where each delegation's subject equals the previous delegation's object.
Every third-party delegation in the chain (and every attribute modulated
outside its issuer's namespace) must be accompanied by a *support proof*
establishing the issuer's right of assignment; support proofs are
recursive, themselves possibly containing third-party delegations
(Section 3.1.2).

Validation (:func:`validate_proof`) walks the primary chain once: it
must link up, span exactly ``subject => obj`` and respect every depth
limit, and each link must pass the **link check** (:func:`check_link`:
signature, expiry, revocation, attribute namespace) and the **support
lookup** (:func:`check_supports`: per required role, the first support
proof claiming ``issuer => role``, validated recursively, depth-capped
and cycle-checked). These are the only copies of the credential rules:
wallet publication runs the same two checks, so a wallet never grants a
proof its own validator refuses. Every failure is a :class:`ProofError`.

The composed attribute modifiers of the primary chain, applied to the
object's base allocations, give the final modulated grant -- reproducing
the paper's Step 5 aggregation (BW 100, storage 30, hours 18 in the case
study).
"""

from typing import (
    Callable,
    Container,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.attributes import (
    AttributeRef,
    Constraint,
    ModifierSet,
    check_constraints,
)
from repro.core.delegation import Delegation, prefetch_signatures
from repro.core.errors import (
    MALFORMED,
    DRBACError,
    ExpiredError,
    ProofError,
    RevokedError,
    SignatureInvalidError,
)
from repro.core.identity import Entity
from repro.core.roles import (
    Role,
    Subject,
    role_from_dict,
    subject_from_dict,
    subject_key,
)
from repro.crypto.encoding import Canonical, canonical_encode

# Maximum support-proof nesting depth; the paper's idiom is recursive and
# this guards against adversarially deep (or cyclic) certificate bundles.
MAX_SUPPORT_DEPTH = 16

RevokedSet = Union[Container[str], Callable[[str], bool]]

# The support map of every proof without supports. A proof never
# mutates its map (growth copies one before adding to it), so the
# empty one is shared.
_NO_SUPPORTS: Dict[str, Tuple["Proof", ...]] = {}


class Proof:
    """An immutable proof that ``subject => obj``.

    ``supports`` maps a delegation id to the tuple of support proofs
    accompanying that delegation (one per required assignment role).
    """

    __slots__ = ("_subject", "_obj", "_chain", "_supports", "_modifiers",
                 "_binding", "_depth_budget", "_parent", "_flat", "_wire")

    def __init__(self, subject: Subject, obj: Role,
                 chain: Iterable[Delegation],
                 supports: Optional[Mapping[str, Tuple["Proof", ...]]] = None
                 ) -> None:
        self._subject = subject
        self._obj = obj
        self._chain = tuple(chain)
        self._supports: Dict[str, Tuple[Proof, ...]] = \
            dict(supports) if supports else _NO_SUPPORTS
        if not self._chain:
            raise ProofError("a proof requires a non-empty delegation chain")
        # ``_binding`` binds each attribute to the chain's operator; it
        # is a fold in another order when a prepend defers ``_modifiers``
        # (None until read), and lets the prepend refuse a clash at once.
        self._modifiers = self._binding = \
            _compose_chain_modifiers(self._chain)
        self._depth_budget = _depth_budget(self._chain)
        self._parent = None
        self._flat = self._wire = None      # derived on first use

    # -- construction helpers --------------------------------------------

    @staticmethod
    def single(delegation: Delegation,
               supports: Iterable["Proof"] = ()) -> "Proof":
        """A one-link proof: exactly what ``delegation`` states."""
        support_map = {delegation.id: tuple(supports)} if supports else None
        return Proof(subject=delegation.subject, obj=delegation.obj,
                     chain=(delegation,), supports=support_map)

    def extend(self, delegation: Delegation,
               supports: Iterable["Proof"] = ()) -> "Proof":
        """Append a delegation whose subject is this proof's object.

        One fold step, no re-fold: the modifiers take one more step of
        the left fold, the depth budget one integer step, and the
        support map is this proof's own unless the link brings any.
        Only the chain tuple is copied."""
        if subject_key(delegation.subject) != subject_key(self._obj):
            raise ProofError(
                f"cannot extend {self} with {delegation}: subject mismatch"
            )
        modifiers = self.modifiers.combine(delegation.modifiers)
        budget = self._depth_budget
        if budget is not None:
            budget -= 1
        limit = delegation.depth_limit
        if limit is not None and (budget is None or limit < budget):
            budget = limit
        merged = self._supports
        if supports:
            merged = dict(merged)
            merged[delegation.id] = tuple(supports)
        return self._grown(self._subject, delegation.obj,
                           self._chain + (delegation,), merged,
                           modifiers, modifiers, budget)

    def prepend(self, delegation: Delegation,
                supports: Iterable["Proof"] = ()) -> "Proof":
        """Put a delegation whose object is this proof's subject in
        front: ``Proof.single(delegation, supports).join(self)``, with
        no re-fold. The left fold of the modifiers now starts at the new
        link, so it is deferred until :attr:`modifiers` is read; an
        attribute the new link binds to another operator is refused at
        once. Only the chain tuple is copied."""
        if subject_key(self._subject) != subject_key(delegation.obj):
            raise ProofError(
                f"cannot join: {delegation.obj} does not match "
                f"{self._subject}"
            )
        binding = delegation.modifiers.combine(self._binding)
        # A link that modifies nothing is an identity step of the fold.
        modifiers = None if delegation.modifiers else self._modifiers
        budget = self._depth_budget
        limit = delegation.depth_limit
        if limit is not None:
            limit -= len(self._chain)
            if budget is None or limit < budget:
                budget = limit
        merged = self._supports
        if supports:
            merged = {delegation.id: tuple(supports)}
            merged.update(self._supports)
        return self._grown(delegation.subject, self._obj,
                           (delegation,) + self._chain, merged,
                           modifiers, binding, budget)

    def _grown(self, subject: Subject, obj: Role,
               chain: Tuple[Delegation, ...],
               supports: Dict[str, Tuple["Proof", ...]],
               modifiers: Optional[ModifierSet], binding: ModifierSet,
               budget: Optional[int]) -> "Proof":
        grown = Proof.__new__(Proof)
        grown._subject, grown._obj, grown._chain = subject, obj, chain
        grown._supports = supports
        grown._modifiers, grown._binding = modifiers, binding
        grown._depth_budget = budget
        grown._parent = self
        grown._flat = grown._wire = None
        return grown

    def join(self, other: "Proof") -> "Proof":
        """Concatenate two proofs: ``S => M`` + ``M => O`` -> ``S => O``."""
        if subject_key(other._subject) != subject_key(self._obj):
            raise ProofError(
                f"cannot join: {self._obj} does not match {other._subject}"
            )
        merged = dict(self._supports)
        for delegation_id, proofs in other._supports.items():
            merged[delegation_id] = proofs
        return Proof(subject=self._subject, obj=other._obj,
                     chain=self._chain + other._chain, supports=merged)

    # -- growth tree -------------------------------------------------------

    @property
    def parent(self) -> Optional["Proof"]:
        """The proof this one was grown from by :meth:`extend` or
        :meth:`prepend`, or None. A closure is a tree under this link:
        where a member's parent is also a member, the member adds only
        :meth:`grown_link` to it."""
        return self._parent

    def grown_link(self) -> Delegation:
        """The link this proof added to :attr:`parent`: its last, or
        its first when it was prepended."""
        return self._chain[-1] if self.extends_parent() else self._chain[0]

    def grown_delegations(self) -> Tuple[Delegation, ...]:
        """What this proof holds beyond :attr:`parent`: the grown link,
        then its supports' delegations."""
        link = self.grown_link()
        return (link,) + _walk(list(self._supports.get(link.id, ())))

    def extends_parent(self) -> bool:
        """Whether this proof grew from :attr:`parent` at its object end.
        (An extension shares its parent's first link; a prepended link
        cannot be its parent's first, which starts at its own object.)"""
        return self._chain[0] is self._parent._chain[0]

    def detached(self) -> "Proof":
        """This proof without its :attr:`parent`: a search's answer,
        held alone, pins none of the prefixes it was grown from."""
        if self._parent is None:
            return self
        copy = Proof.__new__(Proof)
        for name in Proof.__slots__:
            setattr(copy, name, getattr(self, name))
        copy._parent = None
        return copy

    # -- accessors ----------------------------------------------------------

    @property
    def subject(self) -> Subject:
        return self._subject

    @property
    def obj(self) -> Role:
        return self._obj

    @property
    def chain(self) -> Tuple[Delegation, ...]:
        return self._chain

    @property
    def modifiers(self) -> ModifierSet:
        """Attribute modifiers composed along the primary chain."""
        if self._modifiers is None:
            self._modifiers = _compose_chain_modifiers(self._chain)
        return self._modifiers

    @property
    def depth_budget(self) -> Optional[int]:
        """How many more links the chain may grow under the tightest
        depth limit carried by its delegations (Section 6 extension).

        None means unlimited; a negative value marks a chain that already
        violates some link's limit (validation rejects it).
        """
        return self._depth_budget

    def supports_for(self, delegation: Delegation) -> Tuple["Proof", ...]:
        return self._supports.get(delegation.id, ())

    def all_delegations(self) -> Tuple[Delegation, ...]:
        """Every delegation in the proof, supports included (deduplicated).

        This is the set a proof monitor must subscribe to: invalidation of
        *any* of them invalidates the proof.
        """
        if self._flat is None:
            self._flat = _walk([self])
        return self._flat

    def depth(self) -> int:
        """Length of the primary chain."""
        return len(self._chain)

    # -- attribute aggregation ----------------------------------------------

    def grants(self, bases: Mapping[AttributeRef, float]
               ) -> Dict[AttributeRef, float]:
        """Final modulated allocations given the object's base values."""
        return self.modifiers.apply(bases)

    def satisfies(self, constraints: Iterable[Constraint],
                  bases: Mapping[AttributeRef, float]) -> bool:
        """True iff the aggregated grant meets every constraint."""
        return check_constraints(self.modifiers, constraints, bases)

    # -- display / identity ---------------------------------------------------

    def __str__(self) -> str:
        return f"Proof({self._subject} => {self._obj}, {len(self._chain)} links)"

    def __repr__(self) -> str:
        return str(self)

    # -- wire serialization -----------------------------------------------

    def to_dict(self) -> dict:
        """Wire representation carried in object/subject query responses."""
        return self._wire_dict(Delegation.to_dict, Proof.to_dict)

    def wire_bytes(self) -> bytes:
        """``canonical_encode(self.to_dict())``, spliced from parts, once."""
        if self._wire is None:
            self._wire = canonical_encode(self._wire_dict(
                lambda d: Canonical(d.wire_bytes()),
                lambda p: Canonical(p.wire_bytes())))
        return self._wire

    def _wire_dict(self, link: Callable, support: Callable) -> dict:
        return {
            "subject": self._subject.subject_map(),
            "object": self._obj.to_dict(),
            "chain": [link(d) for d in self._chain],
            "supports": {
                delegation_id: [support(p) for p in proofs]
                for delegation_id, proofs in self._supports.items()
            },
        }

    @staticmethod
    def from_dict(data: dict) -> "Proof":
        """Decode a wire representation. Does not validate; callers run
        :func:`validate_proof` before trusting anything received. A
        malformed record raises :class:`ProofError` only."""
        try:
            return Proof(
                subject=subject_from_dict(data["subject"]),
                obj=role_from_dict(data["object"]),
                chain=tuple(Delegation.from_dict(d) for d in data["chain"]),
                supports={
                    delegation_id: tuple(
                        Proof.from_dict(p) for p in proofs
                    )
                    for delegation_id, proofs
                    in data.get("supports", {}).items()
                },
            )
        except (*MALFORMED, DRBACError) as exc:
            if isinstance(exc, ProofError):
                raise
            raise ProofError(f"malformed proof record: {exc}") from exc

    def _canonical_key(self) -> tuple:
        return (
            tuple(d.id for d in self._chain),
            tuple(sorted(
                (delegation_id, tuple(p._canonical_key() for p in proofs))
                for delegation_id, proofs in self._supports.items()
            )),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Proof):
            return NotImplemented
        return self._canonical_key() == other._canonical_key()

    def __hash__(self) -> int:
        return hash(self._canonical_key())


def validate_proof(proof: Proof, at: float,
                   revoked: Optional[RevokedSet] = None,
                   constraints: Iterable[Constraint] = (),
                   bases: Optional[Mapping[AttributeRef, float]] = None,
                   max_depth: int = MAX_SUPPORT_DEPTH) -> None:
    """Validate ``proof`` at time ``at``; raise :class:`ProofError` on any
    violation. See the module docstring for the checked rules."""
    prefetch_signatures(proof.all_delegations())
    _validate(proof, at, _revocation_test(revoked), max_depth,
              active=frozenset())
    if constraints:
        if not proof.satisfies(constraints, bases or {}):
            raise ProofError(
                f"{proof} does not satisfy attribute constraints"
            )


def validate_proofs(proofs: Iterable[Proof], at: float,
                    revoked: Optional[RevokedSet] = None,
                    constraints: Iterable[Constraint] = (),
                    bases: Optional[Mapping[AttributeRef, float]] = None,
                    max_depth: int = MAX_SUPPORT_DEPTH) -> None:
    """Validate several proofs, batching the signature work across all of
    them; raises on the first violation in iteration order, with the same
    exception :func:`validate_proof` would have raised."""
    proofs = list(proofs)
    prefetch_signatures(delegation for proof in proofs
                        for delegation in proof.all_delegations())
    for proof in proofs:
        validate_proof(proof, at, revoked=revoked, constraints=constraints,
                       bases=bases, max_depth=max_depth)


def is_valid_proof(proof: Proof, at: float,
                   revoked: Optional[RevokedSet] = None,
                   constraints: Iterable[Constraint] = (),
                   bases: Optional[Mapping[AttributeRef, float]] = None
                   ) -> bool:
    """Boolean convenience wrapper around :func:`validate_proof`."""
    try:
        validate_proof(proof, at, revoked=revoked, constraints=constraints,
                       bases=bases)
    except ProofError:
        return False
    return True


def check_link(delegation: Delegation, at: float,
               is_revoked: Callable[[str], bool]) -> None:
    """Raise :class:`ProofError` unless ``delegation`` verifies, is live
    at ``at``, and sets only attributes of its object's namespace
    (Section 3.2.1). The message names the rule, not the delegation."""
    if not delegation.verify_signature():
        raise SignatureInvalidError("signature does not verify")
    check_link_terms(delegation, at, is_revoked)


def check_link_terms(delegation: Delegation, at: float,
                     is_revoked: Callable[[str], bool]) -> None:
    """:func:`check_link` without the signature: raise
    :class:`ProofError` unless ``delegation`` is live at ``at`` and sets
    only attributes of its object's namespace."""
    if delegation.is_expired(at):
        raise ExpiredError(f"expired at {delegation.expiry}")
    if is_revoked(delegation.id):
        raise RevokedError("revoked")
    for attribute in delegation.modifiers.attributes():
        if attribute.entity != delegation.obj.entity:
            raise ProofError(
                f"attribute {attribute} is not in the namespace of object "
                f"{delegation.obj}"
            )


def is_live(delegation: Delegation, at: float,
            is_revoked: Callable[[str], bool]) -> bool:
    """:func:`check_link_terms`' time-varying half: neither expired at
    ``at`` nor revoked. All a link needs rechecked once a wallet holds
    it (its signature and namespace were checked when it was
    admitted)."""
    return not delegation.is_expired(at) and not is_revoked(delegation.id)


def is_admissible(delegation: Delegation, supports: Tuple[Proof, ...],
                  at: float, is_revoked: Callable[[str], bool]) -> bool:
    """The publication checks ``delegation`` can pass before its
    signature is checked: :func:`check_link_terms`, and a support proof
    claimed among ``supports`` for each role it requires (the claims
    are validated where it is published)."""
    try:
        check_link_terms(delegation, at, is_revoked)
    except ProofError:
        return False
    return all(find_support(supports, delegation.issuer, role) is not None
               for role in delegation.required_supports())


def check_supports(delegation: Delegation, supports: Tuple[Proof, ...],
                   at: float, is_revoked: Callable[[str], bool]) -> None:
    """Raise :class:`ProofError` unless each role ``delegation``
    requires has a support among ``supports`` that validates alone."""
    if supports:
        prefetch_signatures(d for proof in supports
                            for d in proof.all_delegations())
    _lookup_supports(delegation, supports, at, is_revoked,
                     MAX_SUPPORT_DEPTH, frozenset())


def find_support(proofs: Iterable[Proof], issuer: Entity,
                 role: Role) -> Optional[Proof]:
    """The first of ``proofs`` claiming ``issuer => role``, or None."""
    for proof in proofs:
        if isinstance(proof.subject, Entity) and proof.subject == issuer \
                and proof.obj == role:
            return proof
    return None


def _validate(proof: Proof, at: float, is_revoked: Callable[[str], bool],
              depth_left: int, active: frozenset) -> None:
    """One walk over the chain: linkage from each link's node keys, then
    the link check and support lookup per link."""
    if depth_left < 0:
        raise ProofError("support proofs nested beyond the depth limit")
    node, end = subject_key(proof.subject), subject_key(proof.obj)
    if (node, end) in active:
        raise ProofError(
            f"cyclic support structure at {proof.subject} => {proof.obj}"
        )
    active = active | {(node, end)}
    budget = proof.depth_budget
    if budget is not None and budget < 0:
        raise ProofError(
            "chain exceeds a delegation's re-delegation depth limit"
        )
    chain = proof.chain
    for index, delegation in enumerate(chain):
        if subject_key(delegation.subject) != node:
            raise ProofError(
                f"broken chain at link {index}: {chain[index - 1].obj} != "
                f"{delegation.subject}" if index else
                f"chain starts at {delegation.subject}, proof claims "
                f"{proof.subject}"
            )
        try:
            check_link(delegation, at, is_revoked)
            _lookup_supports(delegation,
                             proof._supports.get(delegation.id, ()), at,
                             is_revoked, depth_left - 1, active)
        except ProofError as exc:
            raise type(exc)(f"link {index}: {delegation}: {exc}") from None
        node = subject_key(delegation.obj)
    if node != end:
        raise ProofError(
            f"chain ends at {chain[-1].obj}, proof claims {proof.obj}"
        )


def _lookup_supports(delegation: Delegation, supports: Tuple[Proof, ...],
                     at: float, is_revoked: Callable[[str], bool],
                     depth_left: int, active: frozenset) -> None:
    for role in delegation.required_supports():
        support = find_support(supports, delegation.issuer, role)
        if support is None:
            raise ProofError(
                f"no support proof shows "
                f"{delegation.issuer.display_name} => {role}"
            )
        try:
            _validate(support, at, is_revoked, depth_left, active)
        except ProofError as exc:
            raise type(exc)(
                f"support proof for {role} is invalid: {exc}") from None


def closure_delegations(proofs: Sequence[Proof]) -> Iterator[Delegation]:
    """Every delegation of a closure, supports included: each member's
    :meth:`~Proof.all_delegations` in turn, except that a member whose
    parent came earlier adds only its grown link and that link's
    supports -- the rest are its parent's. O(closure), not O(n * L)."""
    for proof, grown in _tree(proofs):
        yield from proof.grown_delegations() if grown \
            else proof.all_delegations()


def closure_links(proofs: Sequence[Proof]) -> Iterator[Delegation]:
    """The chain links of a closure, by the same rule as
    :func:`closure_delegations`: a member whose parent came earlier adds
    only its grown link."""
    for proof, grown in _tree(proofs):
        if grown:
            yield proof.grown_link()
        else:
            yield from proof._chain


def admit_closure(proofs: Sequence[Proof],
                  admit: Callable[[Delegation, Proof], bool]
                  ) -> Tuple[List[Proof], Set[str]]:
    """The members of a closure whose every chain link ``admit``
    passes, and the ids of the links it failed. A member whose parent
    passed adds only its grown link to check; a link that failed fails
    every member holding it without being asked again."""
    failed: Set[str] = set()
    passed: List[Proof] = []
    members: Set[int] = set()
    for proof in proofs:
        grown = proof.parent is not None and id(proof.parent) in members
        for delegation in (proof.grown_link(),) if grown else proof._chain:
            if delegation.id in failed or not admit(delegation, proof):
                failed.add(delegation.id)
                break
        else:
            passed.append(proof)
            members.add(id(proof))
    return passed, failed


def _tree(proofs: Sequence[Proof]) -> Iterator[Tuple[Proof, bool]]:
    """Each member of a closure, and whether its parent came earlier."""
    members: Set[int] = set()
    for proof in proofs:
        parent = proof.parent
        yield proof, parent is not None and id(parent) in members
        members.add(id(proof))


def _walk(stack: List[Proof]) -> Tuple[Delegation, ...]:
    """The delegations of ``stack``'s proofs and their supports, each
    once, in first-sighting order of a depth-first walk."""
    flat: Dict[str, Delegation] = {}
    while stack:
        proof = stack.pop()
        for delegation in proof._chain:
            flat.setdefault(delegation.id, delegation)
            stack.extend(proof._supports.get(delegation.id, ()))
    return tuple(flat.values())


def _depth_budget(chain: Tuple[Delegation, ...]) -> Optional[int]:
    budget = None
    last = len(chain) - 1
    for index, delegation in enumerate(chain):
        if delegation.depth_limit is None:
            continue
        remaining = delegation.depth_limit - (last - index)
        if budget is None or remaining < budget:
            budget = remaining
    return budget


def _compose_chain_modifiers(chain: Tuple[Delegation, ...]) -> ModifierSet:
    composed = ModifierSet.identity()
    for delegation in chain:
        composed = composed.combine(delegation.modifiers)
    return composed


def _revocation_test(revoked: Optional[RevokedSet]) -> Callable[[str], bool]:
    if revoked is None:
        return lambda _delegation_id: False
    if callable(revoked):
        return revoked
    return lambda delegation_id: delegation_id in revoked
