"""The monotone valued-attribute algebra (paper, Section 3.2.1).

Valued attributes let a delegation modulate the level of access it grants
("a bandwidth of at most 100 units and 20 units less of storage") without
an explosion in the number of roles. The paper's design constraints:

* each valued attribute lives in an entity's namespace, disjoint from the
  role namespace (:class:`AttributeRef`);
* each attribute is associated with a *single* operator, and modifier
  values are restricted so that composition along a delegation chain is
  monotone non-increasing -- "no entity is able to delegate greater
  permissions than they have themselves";
* supported operators (Table 2):

  - ``-=``  subtract a positive quantity; identity 0
  - ``*=``  multiply by a factor in (0, 1]; identity 1
  - ``<=``  take the minimum along the chain; identity +inf

Composition is associative and commutative per attribute, which is what
makes bidirectional search and pruning sound (Section 4.2.3): the final
grant for an attribute can only decrease as a chain is extended.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.core.errors import AttributeError_
from repro.core.identity import Entity


class Operator(str, Enum):
    """The three monotone modulation operators of Table 2."""

    SUBTRACT = "-"
    MULTIPLY = "*"
    MIN = "<"

    @property
    def token(self) -> str:
        """Concrete-syntax token, e.g. ``-=`` for SUBTRACT."""
        return f"{self.value}="

    @property
    def identity(self) -> float:
        """The neutral modifier value for this operator."""
        if self is Operator.SUBTRACT:
            return 0.0
        if self is Operator.MULTIPLY:
            return 1.0
        return math.inf

    @staticmethod
    def from_token(token: str) -> "Operator":
        for op in Operator:
            if op.token == token:
                return op
        raise AttributeError_(f"unknown attribute operator {token!r}")


@dataclass(frozen=True)
class AttributeRef:
    """A valued attribute name within an entity's namespace.

    e.g. ``AirNet.BW`` -- the attribute ``BW`` controlled by AirNet.
    """

    entity: Entity
    name: str

    def __post_init__(self) -> None:
        if not _valid_local_name(self.name):
            raise AttributeError_(f"invalid attribute name {self.name!r}")

    @property
    def qualified_name(self) -> str:
        return f"{self.entity.display_name}.{self.name}"

    def __str__(self) -> str:
        return self.qualified_name

    def __repr__(self) -> str:
        return f"AttributeRef({self.qualified_name})"


@dataclass(frozen=True)
class Modifier:
    """One attribute modulation set in a delegation's ``with`` clause.

    e.g. ``AirNet.BW <= 100`` or ``AirNet.storage -= 20``.
    """

    attribute: AttributeRef
    operator: Operator
    value: float

    def __post_init__(self) -> None:
        value = self.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise AttributeError_("modifier value must be a number")
        object.__setattr__(self, "value", float(value))
        value = self.value
        if math.isnan(value):
            raise AttributeError_("modifier value may not be NaN")
        if self.operator is Operator.SUBTRACT:
            if value < 0 or math.isinf(value):
                raise AttributeError_(
                    f"-= requires a finite positive quantity, got {value}"
                )
        elif self.operator is Operator.MULTIPLY:
            if not (0.0 < value <= 1.0):
                raise AttributeError_(
                    f"*= requires a factor in (0, 1], got {value}"
                )
        else:  # MIN
            if value < 0:
                raise AttributeError_(
                    f"<= requires a non-negative bound, got {value}"
                )

    def __str__(self) -> str:
        return f"{self.attribute} {self.operator.token} {_format_number(self.value)}"


class ModifierSet:
    """An immutable composition of modifiers, one slot per attribute.

    A delegation carries a ModifierSet built from its ``with`` clause; proof
    validation combines the sets of every delegation in a chain into a
    single set whose application to the object's base allocations yields
    the final grant (the paper's Step 5: "the server wallet then aggregates
    the valued attributes").
    """

    __slots__ = ("_slots",)

    def __init__(self, modifiers: Iterable[Modifier] = ()) -> None:
        slots: Dict[AttributeRef, Tuple[Operator, float]] = {}
        for modifier in modifiers:
            existing = slots.get(modifier.attribute)
            if existing is None:
                slots[modifier.attribute] = (modifier.operator, modifier.value)
            else:
                op, value = existing
                if op is not modifier.operator:
                    raise AttributeError_(
                        f"attribute {modifier.attribute} bound to operator "
                        f"{op.token}, cannot also use {modifier.operator.token}"
                    )
                slots[modifier.attribute] = (
                    op, _compose(op, value, modifier.value)
                )
        self._slots = slots

    @staticmethod
    def identity() -> "ModifierSet":
        """The neutral element: modifies nothing."""
        return _IDENTITY

    def combine(self, other: "ModifierSet") -> "ModifierSet":
        """Compose two modifier sets (chain extension).

        Raises :class:`AttributeError_` if the same attribute appears under
        two different operators -- the paper binds each attribute to one.
        """
        if not other._slots:
            return self
        if not self._slots:
            return other
        result = ModifierSet()
        slots = dict(self._slots)
        for attribute, (op, value) in other._slots.items():
            existing = slots.get(attribute)
            if existing is None:
                slots[attribute] = (op, value)
            else:
                prior_op, prior_value = existing
                if prior_op is not op:
                    raise AttributeError_(
                        f"attribute {attribute} bound to operator "
                        f"{prior_op.token}, cannot also use {op.token}"
                    )
                slots[attribute] = (op, _compose(op, prior_value, value))
        result._slots = slots
        return result

    def operator_of(self, attribute: AttributeRef) -> Optional[Operator]:
        entry = self._slots.get(attribute)
        return entry[0] if entry else None

    def value_of(self, attribute: AttributeRef) -> Optional[float]:
        entry = self._slots.get(attribute)
        return entry[1] if entry else None

    def attributes(self) -> Iterable[AttributeRef]:
        return self._slots.keys()

    def apply(self, bases: Mapping[AttributeRef, float]
              ) -> Dict[AttributeRef, float]:
        """Apply the composed modifiers to base allocations.

        Returns the final grant for every attribute in ``bases``; attributes
        never mentioned along the chain pass through unmodified. Modified
        attributes with no base allocation contribute a grant derived from
        the operator identity base (+inf for ``<=`` yields the composed
        bound; ``-=``/``*=`` with no base are meaningless and raise).
        """
        grants: Dict[AttributeRef, float] = {}
        for attribute, base in bases.items():
            entry = self._slots.get(attribute)
            if entry is None:
                grants[attribute] = float(base)
            else:
                op, value = entry
                grants[attribute] = _apply(op, float(base), value)
        for attribute, (op, value) in self._slots.items():
            if attribute in grants:
                continue
            if op is Operator.MIN:
                grants[attribute] = value
            else:
                raise AttributeError_(
                    f"attribute {attribute} modulated with {op.token} but "
                    f"has no base allocation"
                )
        return grants

    def grant_upper_bound(self, attribute: AttributeRef,
                          base: float) -> float:
        """Best-case grant for ``attribute`` given this (partial) chain.

        Because composition is monotone non-increasing, extending the chain
        can only lower this bound -- which makes it a sound pruning test
        during search (Section 4.2.3).
        """
        entry = self._slots.get(attribute)
        if entry is None:
            return float(base)
        op, value = entry
        return _apply(op, float(base), value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModifierSet):
            return NotImplemented
        return self._slots == other._slots

    def __hash__(self) -> int:
        return hash(frozenset(self._slots.items()))

    def __len__(self) -> int:
        return len(self._slots)

    def __str__(self) -> str:
        if not self._slots:
            return "<identity>"
        parts = [
            f"{attribute} {op.token} {_format_number(value)}"
            for attribute, (op, value) in sorted(
                self._slots.items(),
                key=lambda item: (item[0].qualified_name, item[0].entity.id),
            )
        ]
        return " and ".join(parts)

    def to_modifiers(self) -> Tuple[Modifier, ...]:
        """Explode back into individual modifiers (sorted, deterministic)."""
        if not self._slots:
            return ()
        return tuple(
            Modifier(attribute=attribute, operator=op, value=value)
            for attribute, (op, value) in sorted(
                self._slots.items(),
                key=lambda item: (item[0].qualified_name, item[0].entity.id),
            )
        )


_IDENTITY = ModifierSet()


@dataclass(frozen=True)
class Constraint:
    """A query-side requirement: the final grant must be >= ``minimum``.

    Direct/subject/object queries may carry constraints (paper, Section
    4.1); search prunes chains whose best-case grant already violates one.
    """

    attribute: AttributeRef
    minimum: float

    def __post_init__(self) -> None:
        if math.isnan(self.minimum):
            raise AttributeError_("constraint minimum may not be NaN")

    def __str__(self) -> str:
        return f"{self.attribute} >= {_format_number(self.minimum)}"


def check_constraints(modifiers: ModifierSet,
                      constraints: Iterable[Constraint],
                      bases: Mapping[AttributeRef, float]) -> bool:
    """Return True iff every constraint is satisfiable by this chain.

    ``bases`` gives the object's base allocations. An attribute with
    neither a base nor a ``<=`` bound cannot be evaluated and fails closed.
    """
    for constraint in constraints:
        attribute = constraint.attribute
        if attribute in bases:
            bound = modifiers.grant_upper_bound(attribute, bases[attribute])
        elif modifiers.operator_of(attribute) is Operator.MIN:
            bound = modifiers.value_of(attribute)
        else:
            return False
        if bound < constraint.minimum:
            return False
    return True


def constraints_cache_key(constraints: Iterable[Constraint]
                          ) -> Tuple[Tuple[str, str, float], ...]:
    """Order-insensitive canonical key for a constraint set."""
    return tuple(sorted(
        (c.attribute.entity.id, c.attribute.name, c.minimum)
        for c in constraints
    ))


def bases_cache_key(bases: Optional[Mapping[AttributeRef, float]]
                    ) -> Tuple[Tuple[str, str, float], ...]:
    """Order-insensitive canonical key for base allocations."""
    if not bases:
        return ()
    return tuple(sorted(
        (attribute.entity.id, attribute.name, float(value))
        for attribute, value in bases.items()
    ))


def _compose(op: Operator, left: float, right: float) -> float:
    if op is Operator.SUBTRACT:
        return left + right
    if op is Operator.MULTIPLY:
        return left * right
    return min(left, right)


def _apply(op: Operator, base: float, value: float) -> float:
    if op is Operator.SUBTRACT:
        return base - value
    if op is Operator.MULTIPLY:
        return base * value
    return min(base, value)


def _format_number(value: float) -> str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _valid_local_name(name: str) -> bool:
    return bool(name) and all(
        ch.isalnum() or ch in ("_", "-") for ch in name
    ) and not name[0].isdigit()
