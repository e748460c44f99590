"""Delegation certificates: the signed atoms of dRBAC trust.

A delegation (paper, Section 2) has the shape::

    [Subject -> Object] Issuer

optionally extended (Tables 1-2) with a ``with`` clause of valued-attribute
modifiers, an expiration date, discovery tags on subject/object/issuer, and
an ``acting as`` clause on third-party delegations. The relationship is
cryptographically signed by the issuer.

Classification (Section 3.1):

* **self-certified** -- the object role belongs to the issuer's namespace;
  no further authorization needed, and every valid proof is rooted in
  self-certified delegations;
* **third-party** -- the object role belongs to another namespace; each
  such delegation must be accompanied by a *support proof* that the issuer
  holds the object's right of assignment (``Object'``);
* **assignment** -- the object carries at least one tick: it delegates a
  right of assignment rather than the role itself;
* attribute modulation in the ``with`` clause is similarly self-certified
  when the attribute's namespace is the issuer's, and otherwise requires a
  support proof for the attribute-assignment right (Table 2).
"""

from dataclasses import dataclass, field
from enum import Enum
from operator import methodcaller
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.attributes import AttributeRef, Modifier, ModifierSet, Operator
from repro.core.errors import (
    MALFORMED,
    DRBACError,
    DelegationError,
    SignatureInvalidError,
)
from repro.core.identity import Entity, Principal
from repro.core.roles import (
    Role,
    Subject,
    attribute_right,
    role_from_dict,
    subject_from_dict,
    subject_key,
)
from repro.core.tags import DiscoveryTag
from repro.crypto import keys as _keys
from repro.crypto import verify_cache
from repro.crypto.encoding import canonical_encode
from repro.crypto.hashing import sha256_hex


# The map keys of a delegation's three discovery tags.
_TAG_FIELDS = ("subject_tag", "object_tag", "issuer_tag")

_wire_map = methodcaller("to_dict")


class DelegationKind(str, Enum):
    """Primary classification by object-namespace ownership."""

    SELF_CERTIFIED = "self-certified"
    THIRD_PARTY = "third-party"


@dataclass(frozen=True)
class Delegation:
    """An immutable, signed delegation certificate.

    Build via :func:`issue` (which signs) or :meth:`from_dict` (wire
    decode); direct construction is for internal use and does not verify
    the signature -- call :meth:`verify_signature`.
    """

    subject: Subject
    obj: Role
    issuer: Entity
    modifiers: ModifierSet = field(default_factory=ModifierSet.identity)
    expiry: Optional[float] = None
    issued_at: Optional[float] = None
    subject_tag: Optional[DiscoveryTag] = None
    object_tag: Optional[DiscoveryTag] = None
    issuer_tag: Optional[DiscoveryTag] = None
    acting_as: Tuple[Role, ...] = ()
    # Re-delegation depth limit (the Section 6 extension: "dRBAC can be
    # extended to limit delegation depth"): at most this many further
    # links may follow this delegation in a proof's primary chain. None
    # means unlimited; 0 makes the granted privilege non-extendable.
    depth_limit: Optional[int] = None
    signature: bytes = b""

    def __post_init__(self) -> None:
        if not isinstance(self.obj, Role):
            raise DelegationError("delegation object must be a role")
        if not isinstance(self.subject, (Entity, Role)):
            raise DelegationError(
                "delegation subject must be an entity or a role"
            )
        if isinstance(self.subject, Role) and self.subject == self.obj:
            raise DelegationError("subject and object may not be identical")
        if self.expiry is not None and self.issued_at is not None \
                and self.expiry <= self.issued_at:
            raise DelegationError("expiry must be after issuance time")
        for role in self.acting_as:
            if not isinstance(role, Role) or not role.is_assignment_right:
                raise DelegationError(
                    "acting-as clauses enumerate assignment roles"
                )
        if self.depth_limit is not None and self.depth_limit < 0:
            raise DelegationError("depth limit cannot be negative")

    # -- classification -------------------------------------------------

    @property
    def kind(self) -> DelegationKind:
        if self.obj.entity == self.issuer:
            return DelegationKind.SELF_CERTIFIED
        return DelegationKind.THIRD_PARTY

    @property
    def is_self_certified(self) -> bool:
        return self.kind is DelegationKind.SELF_CERTIFIED

    @property
    def is_third_party(self) -> bool:
        return self.kind is DelegationKind.THIRD_PARTY

    @property
    def is_assignment(self) -> bool:
        """True iff this delegates a right of assignment (ticked object)."""
        return self.obj.is_assignment_right

    @property
    def is_terminal(self) -> bool:
        """Entity subjects may not re-delegate (Section 3.1.1)."""
        return isinstance(self.subject, Entity)

    def required_supports(self) -> Tuple[Role, ...]:
        """Roles the issuer must hold for this delegation to be valid.

        Empty for fully self-certified delegations. A third-party object
        contributes ``Object'``; each attribute modulated outside the
        issuer's namespace contributes the attribute-assignment right.
        Computed once per certificate, like :meth:`signing_bytes`.
        """
        cached = self.__dict__.get("_required_supports")
        if cached is None:
            required = []
            if self.obj.entity != self.issuer:
                required.append(self.obj.with_tick())
            for modifier in self.modifiers.to_modifiers():
                if modifier.attribute.entity != self.issuer:
                    required.append(attribute_right(modifier.attribute,
                                                    modifier.operator))
            cached = tuple(required)
            object.__setattr__(self, "_required_supports", cached)
        return cached

    # -- identity and integrity ------------------------------------------

    def signing_bytes(self) -> bytes:
        """The canonical byte payload covered by the signature.

        A pure function of the frozen fields, so it is computed once and
        cached on the instance -- every id lookup, signature check, and
        wire encode reuses the same bytes. (Frozen dataclasses still
        have a ``__dict__``; the cache slots are invisible to the
        generated ``__eq__``/``__hash__``.)
        """
        cached = self.__dict__.get("_signing_bytes")
        if cached is None:
            cached = canonical_encode(self._payload_dict())
            object.__setattr__(self, "_signing_bytes", cached)
        return cached

    @property
    def id(self) -> str:
        """Stable content hash identifying this delegation."""
        cached = self.__dict__.get("_id")
        if cached is None:
            cached = sha256_hex(self.signing_bytes())
            object.__setattr__(self, "_id", cached)
        return cached

    @property
    def short_id(self) -> str:
        return self.id[:12]

    def verify_signature(self) -> bool:
        """Verify the issuer's signature over the canonical payload.

        The first successful check sets a per-object flag, so each
        immutable certificate is verified at most once per process (the
        process-wide memo in :mod:`repro.crypto.verify_cache` extends
        the same guarantee across re-decoded copies). Failures are never
        cached.
        """
        if self.__dict__.get("_sig_ok"):
            verify_cache.note_object_hit()
            return True
        if not self.signature:
            return False
        result = self.issuer.verify(self.signing_bytes(), self.signature)
        if result:
            object.__setattr__(self, "_sig_ok", True)
        return result

    def ensure_signed(self) -> None:
        """Raise :class:`SignatureInvalidError` unless the signature holds."""
        if not self.verify_signature():
            raise SignatureInvalidError(
                f"signature check failed for {self}"
            )

    def is_expired(self, at: float) -> bool:
        """True iff the delegation's expiration date has passed at ``at``."""
        return self.expiry is not None and at >= self.expiry

    # -- graph plumbing ---------------------------------------------------

    @property
    def subject_node(self) -> tuple:
        return subject_key(self.subject)

    @property
    def object_node(self) -> tuple:
        return subject_key(self.obj)

    @property
    def homes(self) -> Tuple[str, ...]:
        """The home wallets this delegation's own tags place it in
        (Section 4.2.1): its subject's home under ``s``/``S``, then its
        object's under ``o``/``O``; a home named twice counts once."""
        placed: Tuple[str, ...] = ()
        if self.subject_tag is not None \
                and self.subject_tag.subject_flag.stores_at_home:
            placed = (self.subject_tag.home,)
        if self.object_tag is not None \
                and self.object_tag.object_flag.stores_at_home \
                and self.object_tag.home not in placed:
            placed += (self.object_tag.home,)
        return placed

    # -- serialization ------------------------------------------------------

    def _payload_dict(self, table=None) -> dict:
        """The signed fields as a map; with ``table``, as a session push
        ships them (see :meth:`to_dict`)."""
        if table is None:
            subject, obj = self.subject.subject_map(), self.obj.to_dict()
            name = _wire_map
        else:
            name = table.index
            subject, obj = name(self.subject), name(self.obj)
        payload = {
            "v": 1,
            "subject": subject,
            "object": obj,
            "issuer": name(self.issuer),
            "modifiers": [
                {
                    "attr_entity": name(m.attribute.entity),
                    "attr_name": m.attribute.name,
                    "op": m.operator.value,
                    "value": m.value,
                }
                for m in self.modifiers.to_modifiers()
            ],
            "acting_as": [name(role) for role in self.acting_as],
        }
        if self.expiry is not None:
            payload["expiry"] = self.expiry
        if self.issued_at is not None:
            payload["issued_at"] = self.issued_at
        if self.depth_limit is not None:
            payload["depth_limit"] = self.depth_limit
        for key, tag in zip(_TAG_FIELDS, (self.subject_tag, self.object_tag,
                                          self.issuer_tag)):
            if tag is not None:
                payload[key] = name(tag)
        return payload

    def to_dict(self, table=None) -> dict:
        """Full wire representation, signature included.

        A session push (:mod:`repro.discovery.wire`) names each
        principal, role and discovery tag once, in a table beside its
        records: with ``table`` -- whose ``index(value)`` is a value's
        position in it -- every one of them in the delegation is that
        position, and :meth:`from_dict` given the decoded table reads
        it back."""
        data = self._payload_dict(table)
        data["signature"] = self.signature
        return data

    def wire_bytes(self) -> bytes:
        """``canonical_encode(self.to_dict())``, cached on the instance."""
        cached = self.__dict__.get("_wire_bytes")
        if cached is None:
            cached = canonical_encode(self.to_dict())
            object.__setattr__(self, "_wire_bytes", cached)
        return cached

    @staticmethod
    def from_dict(data: dict, table=None) -> "Delegation":
        """Decode a wire representation. Does not verify the signature;
        a malformed record raises :class:`DelegationError` only.

        With ``table`` -- a session push's decoded table (see
        :meth:`to_dict`), whose ``subject``, ``role``, ``entity`` and
        ``tag`` each take a position and give the value there, if it is
        one of theirs (``ValueError`` else) -- every principal, role
        and tag is read from it: the very object the table holds."""
        try:
            if table is None:
                subject = subject_from_dict(data["subject"])
                entity, role, tag = Entity.from_dict, role_from_dict, _tag_from
            else:
                subject = table.subject(data["subject"])
                entity, role, tag = table.entity, table.role, table.tag
            modifiers = ModifierSet(
                Modifier(
                    attribute=AttributeRef(
                        entity=entity(m["attr_entity"]),
                        name=m["attr_name"],
                    ),
                    operator=Operator(m["op"]),
                    value=m["value"],
                )
                for m in data.get("modifiers", ())
            )
            return Delegation(
                subject=subject,
                obj=role(data["object"]),
                issuer=entity(data["issuer"]),
                modifiers=modifiers,
                expiry=_number(data.get("expiry"), "expiry"),
                issued_at=_number(data.get("issued_at"), "issued_at"),
                subject_tag=tag(data.get("subject_tag")),
                object_tag=tag(data.get("object_tag")),
                issuer_tag=tag(data.get("issuer_tag")),
                acting_as=tuple(map(role, data.get("acting_as", ()))),
                depth_limit=data.get("depth_limit"),
                signature=_blob(data.get("signature", b"")),
            )
        except (*MALFORMED, DRBACError) as exc:
            if isinstance(exc, DelegationError):
                raise
            raise DelegationError(
                f"malformed delegation record: {exc}"
            ) from exc

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        clause = ""
        if len(self.modifiers):
            clause = f" with {self.modifiers}"
        expiry = f" <expiry: {self.expiry}>" if self.expiry is not None else ""
        return (f"[{self.subject} -> {self.obj}{clause}] "
                f"{self.issuer.display_name}{expiry}")

    def __repr__(self) -> str:
        return f"Delegation({self}, id={self.short_id})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delegation):
            return NotImplemented
        return self.id == other.id and self.signature == other.signature

    def __hash__(self) -> int:
        return hash(self.id)


def issue(principal: Principal,
          subject: Subject,
          obj: Role,
          modifiers: Iterable[Modifier] = (),
          expiry: Optional[float] = None,
          issued_at: Optional[float] = None,
          subject_tag: Optional[DiscoveryTag] = None,
          object_tag: Optional[DiscoveryTag] = None,
          issuer_tag: Optional[DiscoveryTag] = None,
          acting_as: Iterable[Role] = (),
          depth_limit: Optional[int] = None) -> Delegation:
    """Create and sign a delegation issued by ``principal``.

    This is the single constructor used by application code; everything it
    produces verifies under :meth:`Delegation.verify_signature`.
    """
    modifier_set = modifiers if isinstance(modifiers, ModifierSet) \
        else ModifierSet(modifiers)
    unsigned = Delegation(
        subject=subject,
        obj=obj,
        issuer=principal.entity,
        modifiers=modifier_set,
        expiry=expiry,
        issued_at=issued_at,
        subject_tag=subject_tag,
        object_tag=object_tag,
        issuer_tag=issuer_tag,
        acting_as=tuple(acting_as),
        depth_limit=depth_limit,
    )
    signature = principal.sign(unsigned.signing_bytes())
    return Delegation(
        subject=unsigned.subject,
        obj=unsigned.obj,
        issuer=unsigned.issuer,
        modifiers=unsigned.modifiers,
        expiry=unsigned.expiry,
        issued_at=unsigned.issued_at,
        subject_tag=unsigned.subject_tag,
        object_tag=unsigned.object_tag,
        issuer_tag=unsigned.issuer_tag,
        acting_as=unsigned.acting_as,
        depth_limit=unsigned.depth_limit,
        signature=signature,
    )


def renew(principal: Principal, delegation: Delegation,
          new_expiry: float, issued_at: Optional[float] = None
          ) -> Delegation:
    """Re-issue ``delegation`` with an extended lifetime.

    Implements the Section 3.2.2 mechanism: "dRBAC also provides an
    additional mechanism, delegation subscriptions, for updating
    credential lifetimes" -- the issuer signs a fresh certificate with
    identical rights and a later expiry; wallets swap it in and announce
    an UPDATED event (see :meth:`repro.wallet.wallet.Wallet.publish_renewal`).

    Only the original issuer may renew, and only to a later expiry.
    """
    if principal.entity != delegation.issuer:
        raise DelegationError(
            f"{principal} cannot renew a delegation issued by "
            f"{delegation.issuer.display_name}"
        )
    if delegation.expiry is None:
        raise DelegationError(
            "an unlimited-lifetime delegation has nothing to renew"
        )
    if new_expiry <= delegation.expiry:
        raise DelegationError(
            f"renewal must extend the lifetime (old expiry "
            f"{delegation.expiry}, proposed {new_expiry})"
        )
    return issue(
        principal,
        subject=delegation.subject,
        obj=delegation.obj,
        modifiers=delegation.modifiers,
        expiry=new_expiry,
        issued_at=issued_at,
        subject_tag=delegation.subject_tag,
        object_tag=delegation.object_tag,
        issuer_tag=delegation.issuer_tag,
        acting_as=delegation.acting_as,
        depth_limit=delegation.depth_limit,
    )


def is_renewal_of(new: Delegation, old: Delegation) -> bool:
    """True iff ``new`` re-states ``old`` with a later (or first) expiry."""
    if new.issuer != old.issuer:
        return False
    if old.expiry is None:
        # Unlimited lifetime cannot be extended (and must not be
        # shortened through the renewal path -- that is revocation's job).
        return False
    if new.expiry is not None and new.expiry <= old.expiry:
        return False

    def essence(d: Delegation) -> dict:
        payload = d._payload_dict()
        payload.pop("expiry", None)
        payload.pop("issued_at", None)
        return payload

    return essence(new) == essence(old)


@dataclass(frozen=True)
class Revocation:
    """A signed notice that a delegation is no longer valid.

    Only the original issuer can revoke (checked by :func:`revoke` at
    creation and by :meth:`verify` at acceptance time). Revocations are
    propagated through delegation subscriptions (paper, Section 4.2.2).
    """

    delegation_id: str
    issuer: Entity
    revoked_at: float
    signature: bytes = b""

    def signing_bytes(self) -> bytes:
        cached = self.__dict__.get("_signing_bytes")
        if cached is None:
            cached = canonical_encode({
                "v": 1,
                "kind": "revocation",
                "delegation": self.delegation_id,
                "issuer": self.issuer.to_dict(),
                "revoked_at": self.revoked_at,
            })
            object.__setattr__(self, "_signing_bytes", cached)
        return cached

    def verify(self, delegation: Delegation) -> bool:
        """True iff this revocation legitimately covers ``delegation``."""
        if self.delegation_id != delegation.id:
            return False
        if self.issuer != delegation.issuer:
            return False
        return self.verify_standalone()

    def verify_standalone(self) -> bool:
        """Signature check without the delegation in hand (cache layers).

        Per-object positive caching, same contract as
        :meth:`Delegation.verify_signature`.
        """
        if self.__dict__.get("_sig_ok"):
            verify_cache.note_object_hit()
            return True
        result = self.issuer.verify(self.signing_bytes(), self.signature)
        if result:
            object.__setattr__(self, "_sig_ok", True)
        return result

    def to_dict(self) -> dict:
        return {
            "delegation": self.delegation_id,
            "issuer": self.issuer.to_dict(),
            "revoked_at": self.revoked_at,
            "signature": self.signature,
        }

    @staticmethod
    def from_dict(data: dict) -> "Revocation":
        """Decode; a malformed record raises :class:`DelegationError`."""
        try:
            delegation_id = data["delegation"]
            if delegation_id.__class__ is not str:
                raise TypeError("the revoked id must be a string")
            return Revocation(
                delegation_id=delegation_id,
                issuer=Entity.from_dict(data["issuer"]),
                revoked_at=data["revoked_at"],
                signature=_blob(data["signature"]),
            )
        except (*MALFORMED, DRBACError) as exc:
            raise DelegationError(
                f"malformed revocation record: {exc}") from exc


# Either signed-certificate type; both expose signing_bytes()/issuer/
# signature and the per-object ``_sig_ok`` fast flag.
SignedCertificate = Union[Delegation, "Revocation"]


def verify_signatures(certificates: Sequence[SignedCertificate]
                      ) -> List[bool]:
    """Batch-verify issuer signatures on delegations and/or revocations.

    Semantically identical to calling ``verify_signature()`` /
    ``verify_standalone()`` on each certificate, but amortized: objects
    whose per-object flag or memo entry already proves them are skipped,
    and the rest are checked through
    :func:`repro.crypto.keys.verify_batch` (one random-linear-combination
    multi-scalar multiplication for the Schnorr group). Successes set
    the same per-object flags the individual paths use.
    """
    results: List[Optional[bool]] = [None] * len(certificates)
    pending: List[int] = []
    items: List[_keys.BatchItem] = []
    for index, certificate in enumerate(certificates):
        if certificate.__dict__.get("_sig_ok"):
            verify_cache.note_object_hit()
            results[index] = True
            continue
        if not certificate.signature:
            results[index] = False
            continue
        pending.append(index)
        items.append((certificate.issuer.public_key,
                      certificate.signing_bytes(),
                      certificate.signature))
    if items:
        for index, verdict in zip(pending, _keys.verify_batch(items)):
            results[index] = verdict
            if verdict:
                object.__setattr__(certificates[index], "_sig_ok", True)
    return [bool(verdict) for verdict in results]


def prefetch_signatures(delegations: Iterable[Delegation]) -> None:
    """Batch-verify the distinct, not yet proven signatures among
    ``delegations`` ahead of a sequential pass over them.

    Purely an accelerator: successes land in the per-object flags and
    the process memo, so the per-certificate checks that follow
    short-circuit. Failures are deliberately NOT acted on here -- the
    sequential path re-verifies and raises or rejects with the exact
    error, index and ordering (relative to expiry/revocation checks) it
    always had. No-op for a single fresh certificate (nothing to
    amortize).
    """
    fresh: dict = {}
    for delegation in delegations:
        if not delegation.__dict__.get("_sig_ok"):
            fresh.setdefault(delegation.id, delegation)
    if len(fresh) > 1:
        verify_signatures(list(fresh.values()))


def revoke(principal: Principal, delegation: Delegation,
           revoked_at: float) -> Revocation:
    """Issue a signed revocation for ``delegation``.

    Raises :class:`DelegationError` if ``principal`` is not the issuer.
    """
    if principal.entity != delegation.issuer:
        raise DelegationError(
            f"{principal} cannot revoke a delegation issued by "
            f"{delegation.issuer.display_name}"
        )
    unsigned = Revocation(delegation_id=delegation.id,
                          issuer=principal.entity,
                          revoked_at=revoked_at)
    return Revocation(delegation_id=unsigned.delegation_id,
                      issuer=unsigned.issuer,
                      revoked_at=unsigned.revoked_at,
                      signature=principal.sign(unsigned.signing_bytes()))


def _number(value, name: str):
    """``value`` if it is None or a number (an optional time field)."""
    if value is None or isinstance(value, (int, float)):
        return value
    raise TypeError(f"{name} must be a number")


def _blob(value) -> bytes:
    """``value`` as bytes, if it is bytes-like (not a count to fill)."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    raise TypeError("a signature must be bytes")


def _tag_from(data) -> Optional[DiscoveryTag]:
    return DiscoveryTag.from_dict(data) if data else None
