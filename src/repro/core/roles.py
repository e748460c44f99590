"""Roles, rights of assignment, and attribute-assignment rights.

The central construct of dRBAC (paper, Section 2): a role is a name within
an entity's namespace, e.g. ``BigISP.member``. Three refinements from
Section 3:

* **Right of assignment** -- the right to delegate role ``R`` is itself a
  role, written ``R'`` (Section 3.1.2). Ticks nest: ``R''`` is the right to
  delegate ``R'``.
* **Attribute-assignment rights** -- the right to *set* a valued attribute
  in future delegations is a role too (Table 2, "while the Valued Attribute
  is not a Role, the right to set it is a Role"), written e.g.
  ``AirNet.storage -= '``.
* **Subjects** -- a delegation's subject is an entity or any role-like
  object; entity subjects terminate delegation chains ("these privileges
  may not be further delegated", Section 3.1.1).

Both kinds of role-like objects are represented by :class:`Role`; an
attribute-assignment right is a Role whose ``operator`` field is set and
whose tick count is at least 1.
"""

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.attributes import AttributeRef, Operator, _valid_local_name
from repro.core.errors import MALFORMED, DelegationError
from repro.core.identity import Entity, entity_content_key
from repro.crypto.encoding import CanonicalMap
from repro.crypto.pools import make_room

# Decoded roles, keyed by their complete content; bounded FIFO like
# ``keys._pk_intern``.
_ROLE_INTERN_LIMIT = 4096
_role_intern: dict = {}


@dataclass(frozen=True)
class Role:
    """A named class of permissions in ``entity``'s namespace.

    ``ticks`` counts trailing prime marks: ``Role(E, "a", ticks=1)`` is
    ``E.a'``, the right of assignment on ``E.a``. When ``operator`` is not
    None the object is an attribute-assignment right (``E.a <op>= '``...),
    in which case ``ticks >= 1`` is required: the bare attribute itself is
    a value, not a role.
    """

    entity: Entity
    name: str
    ticks: int = 0
    operator: Optional[Operator] = None

    def __post_init__(self) -> None:
        if not _valid_local_name(self.name):
            raise DelegationError(f"invalid role name {self.name!r}")
        if self.ticks < 0:
            raise DelegationError("tick count cannot be negative")
        if self.operator is not None and self.ticks < 1:
            raise DelegationError(
                "an attribute-assignment right needs at least one tick; "
                "the bare attribute is not a role"
            )

    # -- classification ------------------------------------------------

    @property
    def is_assignment_right(self) -> bool:
        """True for ``R'`` and deeper (including attribute rights)."""
        return self.ticks >= 1

    @property
    def is_attribute_right(self) -> bool:
        """True iff this is the right to set a valued attribute."""
        return self.operator is not None

    # -- derivations ---------------------------------------------------

    def with_tick(self) -> "Role":
        """The right of assignment on this role: ``R`` -> ``R'``."""
        return Role(entity=self.entity, name=self.name,
                    ticks=self.ticks + 1, operator=self.operator)

    def without_tick(self) -> "Role":
        """Strip one tick: ``R'`` -> ``R``. Errors at zero ticks."""
        if self.ticks == 0:
            raise DelegationError(f"{self} carries no tick to strip")
        if self.operator is not None and self.ticks == 1:
            raise DelegationError(
                f"{self} is a base attribute right; stripping its tick "
                f"would leave a bare attribute, which is not a role"
            )
        return Role(entity=self.entity, name=self.name,
                    ticks=self.ticks - 1, operator=self.operator)

    @property
    def base(self) -> "Role":
        """The underlying tick-free role (attribute rights keep one tick)."""
        floor = 1 if self.operator is not None else 0
        return Role(entity=self.entity, name=self.name,
                    ticks=floor, operator=self.operator)

    @property
    def attribute(self) -> AttributeRef:
        """For attribute rights: the attribute this right governs."""
        if self.operator is None:
            raise DelegationError(f"{self} is not an attribute right")
        return AttributeRef(entity=self.entity, name=self.name)

    # -- display -------------------------------------------------------

    @property
    def qualified_name(self) -> str:
        return f"{self.entity.display_name}.{self.name}"

    def __str__(self) -> str:
        ticks = "'" * self.ticks
        if self.operator is None:
            return f"{self.qualified_name}{ticks}"
        return f"{self.qualified_name} {self.operator.token} {ticks}"

    def __repr__(self) -> str:
        return f"Role({self})"

    # -- content-derived caches (an interned role is shared) -------------

    def to_dict(self) -> dict:
        """The wire map, built and encoded once per instance."""
        cached = self.__dict__.get("_map")
        if cached is None:
            record = {"entity": self.entity.to_dict(), "name": self.name,
                      "ticks": self.ticks}
            if self.operator is not None:
                record["op"] = self.operator.value
            cached = CanonicalMap(record)
            object.__setattr__(self, "_map", cached)
        return cached

    def subject_map(self) -> dict:
        """The map a delegation carries for this role as its subject."""
        cached = self.__dict__.get("_subject_map")
        if cached is None:
            cached = CanonicalMap({"kind": "role", **self.to_dict()})
            object.__setattr__(self, "_subject_map", cached)
        return cached

    @property
    def node_key(self) -> tuple:
        """This role's graph-node key (see :func:`subject_key`)."""
        cached = self.__dict__.get("_node_key")
        if cached is None:
            op = self.operator.value if self.operator else ""
            cached = ("role", self.entity.id, self.name, self.ticks, op)
            object.__setattr__(self, "_node_key", cached)
        return cached


def attribute_right(attribute: AttributeRef, operator: Operator,
                    ticks: int = 1) -> Role:
    """Build the role representing the right to set ``attribute``.

    ``ticks=1`` (the default) is the plain right to set the attribute in
    one's own delegations, the object form of Table 2's "Delegation of
    Assignment for Valued Attributes".
    """
    return Role(entity=attribute.entity, name=attribute.name,
                ticks=ticks, operator=operator)


# A delegation's subject: a principal's identity or any role-like object.
Subject = Union[Entity, Role]


def subject_key(subject: Subject) -> tuple:
    """A stable, hashable graph-node key for a subject or object.

    Entities key by fingerprint; roles by (fingerprint, name, ticks,
    operator). Used by the delegation graph and the discovery engine.
    """
    if isinstance(subject, (Entity, Role)):
        return subject.node_key
    raise DelegationError(
        f"not a valid subject: {type(subject).__name__}"
    )


# -- wire maps ----------------------------------------------------------------


def subject_from_dict(data: dict) -> Subject:
    """Decode a subject map (see :meth:`Role.subject_map`); a malformed
    map raises :class:`DelegationError`."""
    try:
        if data.get("kind") == "entity":
            return Entity.from_dict(data["entity"])
    except MALFORMED as exc:
        raise DelegationError(f"malformed entity record: {exc}") from exc
    return role_from_dict(data)


def role_from_dict(data: dict, table=None) -> Role:
    """Decode a role map; equal content yields one shared instance per
    process. Only exact ``str`` names, nicknames and operators and an
    exact ``int`` tick count are interned (``True`` is not ``1``); any
    other field takes the plain path, and a malformed map raises
    :class:`DelegationError`. A :class:`CanonicalMap` is looked up by
    its bytes, which fix its content exactly.

    With ``table`` -- the entries of a session push's table decoded so
    far, whose ``entity(position)`` is the principal at a position, if
    it holds one (``ValueError`` else) -- the map's ``entity`` is a
    position in it, and the role is interned by that principal's
    content: its map's bytes."""
    encoded = data.encoded \
        if table is None and data.__class__ is CanonicalMap else None
    role = _role_intern.get(encoded) if encoded else None
    if role is not None:
        return role
    try:
        name, ticks = data["name"], data.get("ticks", 0)
        has_op = "op" in data
        op = data["op"] if has_op else None
        if table is None:
            entity = None
            entity_key = entity_content_key(data["entity"])
        else:
            entity = table.entity(data["entity"])
            entity_key = (entity.to_dict().encoded,)
        intern_key = (*entity_key, name, ticks, op) if entity_key \
            and name.__class__ is str and ticks.__class__ is int \
            and (not has_op or op.__class__ is str) else None
        role = _role_intern.get(intern_key) if intern_key else None
        if role is None:
            if entity is None:
                entity = Entity.from_dict(data["entity"])
            role = Role(entity=entity, name=name, ticks=ticks,
                        operator=Operator(op) if has_op else None)
            if intern_key:
                make_room(_role_intern, _ROLE_INTERN_LIMIT)
                _role_intern[encoded or intern_key] = role
        return role
    except MALFORMED as exc:
        raise DelegationError(f"malformed role record: {exc}") from exc
