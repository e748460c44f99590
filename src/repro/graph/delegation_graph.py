"""The indexed delegation store backing every wallet.

Each delegation ``[Subject -> Object] Issuer`` is an edge from the subject
node to the object node. The graph maintains three indexes -- by subject
node, by object node, and by delegation id -- so that forward search,
reverse search, and revocation all run without scans.

The graph itself is policy-free: it accepts any structurally valid signed
delegation and leaves signature checking, support-proof enforcement, and
revocation bookkeeping to the wallet layer (Section 4.1 puts those at the
publication boundary).
"""

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.attributes import AttributeRef, Operator
from repro.core.delegation import Delegation
from repro.core.roles import Subject, subject_key


class DelegationGraph:
    """A mutable, indexed collection of delegations."""

    def __init__(self, delegations: Iterable[Delegation] = ()) -> None:
        self._by_id: Dict[str, Delegation] = {}
        self._out: Dict[tuple, List[Delegation]] = {}
        self._in: Dict[tuple, List[Delegation]] = {}
        # attribute -> operator -> how many stored delegations modulate
        # the attribute with it, and the attributes with several.
        self._operators: Dict[AttributeRef, Dict[Operator, int]] = {}
        self._mixed: Tuple[AttributeRef, ...] = ()
        for delegation in delegations:
            self.add(delegation)

    # -- mutation -----------------------------------------------------------

    def add(self, delegation: Delegation) -> bool:
        """Insert a delegation; returns False if already present."""
        if delegation.id in self._by_id:
            return False
        self._by_id[delegation.id] = delegation
        self._out.setdefault(delegation.subject_node, []).append(delegation)
        self._in.setdefault(delegation.object_node, []).append(delegation)
        for attribute in delegation.modifiers.attributes():
            counts = self._operators.setdefault(attribute, {})
            operator = delegation.modifiers.operator_of(attribute)
            counts[operator] = counts.get(operator, 0) + 1
            if counts[operator] == 1 and len(counts) == 2:
                self._find_mixed()
        return True

    def remove(self, delegation_id: str) -> Optional[Delegation]:
        """Remove by id; returns the removed delegation or None."""
        delegation = self._by_id.pop(delegation_id, None)
        if delegation is None:
            return None
        out_list = self._out.get(delegation.subject_node, [])
        out_list[:] = [d for d in out_list if d.id != delegation_id]
        if not out_list:
            self._out.pop(delegation.subject_node, None)
        in_list = self._in.get(delegation.object_node, [])
        in_list[:] = [d for d in in_list if d.id != delegation_id]
        if not in_list:
            self._in.pop(delegation.object_node, None)
        for attribute in delegation.modifiers.attributes():
            counts = self._operators[attribute]
            operator = delegation.modifiers.operator_of(attribute)
            counts[operator] -= 1
            if not counts[operator]:
                del counts[operator]
                if not counts:
                    del self._operators[attribute]
                elif len(counts) == 1:
                    self._find_mixed()
        return delegation

    def _find_mixed(self) -> None:
        self._mixed = tuple(attribute
                            for attribute, counts in self._operators.items()
                            if len(counts) > 1)

    # -- lookups ------------------------------------------------------------

    def get(self, delegation_id: str) -> Optional[Delegation]:
        return self._by_id.get(delegation_id)

    def __contains__(self, delegation_id: str) -> bool:
        return delegation_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Delegation]:
        return iter(self._by_id.values())

    def out_edges(self, subject: Subject) -> Tuple[Delegation, ...]:
        """Delegations whose subject is ``subject`` (forward expansion)."""
        return tuple(self._out.get(subject_key(subject), ()))

    def in_edges(self, obj: Subject) -> Tuple[Delegation, ...]:
        """Delegations whose object is ``obj`` (reverse expansion)."""
        return tuple(self._in.get(subject_key(obj), ()))

    def out_edges_by_node(self, node: tuple) -> Tuple[Delegation, ...]:
        return tuple(self._out.get(node, ()))

    def in_edges_by_node(self, node: tuple) -> Tuple[Delegation, ...]:
        return tuple(self._in.get(node, ()))

    def mixed_attributes(self) -> Tuple[AttributeRef, ...]:
        """Attributes the stored delegations modulate with more than one
        operator. A chain may bind each attribute to one operator only
        (Section 3.2.1), so on these attributes which operator a partial
        chain has bound decides which suffixes it can still take."""
        return self._mixed

    def nodes(self) -> Set[tuple]:
        """All nodes appearing as a subject or object of some delegation."""
        return set(self._out) | set(self._in)

    def subject_nodes(self) -> Set[tuple]:
        return set(self._out)

    def copy(self) -> "DelegationGraph":
        """A shallow copy sharing the (immutable) delegations."""
        clone = DelegationGraph()
        for delegation in self._by_id.values():
            clone.add(delegation)
        return clone
