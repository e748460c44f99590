"""Wire encoding for inter-wallet RPC parameters.

Everything crossing the simulated network is plain data (dicts, lists,
numbers, bytes, strings) so the transport can canonically encode it and
count honest byte sizes.

Two encoding families live here:

* the plain ``*_to_wire``/``*_from_wire`` pairs -- every value is
  self-contained, decodable with no shared state;
* the ``*_session`` pairs -- credential-deduplicated proofs for the
  answers of one discovery search. A home replaces a delegation the
  origin already has -- held under a live validation subscription, or
  shipped earlier in the same answer -- with the 32 raw bytes of its
  id (SAFE's content-hash links); the origin
  resolves refs against what it received in full during the same
  search, then its wallet. A record carries only what the origin
  cannot derive: no endpoints (the chain's ends are the proof's) and
  no empty support map. Each certificate therefore crosses the wire
  only while the origin lacks it, and the byte counters record the
  savings honestly because the refs are what actually crosses the
  simulated wire.

  The same holds inside what does ship: a push names each principal,
  role and discovery tag once, in its table (:class:`Table` while it
  is encoded, :func:`table_from_wire` to decode it, once per push),
  and a delegation in full names each of them by its position there.
"""

from typing import (
    Any,
    Callable,
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

from repro.core.attributes import AttributeRef, Constraint
from repro.core.delegation import Delegation
from repro.core.errors import MALFORMED, DiscoveryError, DRBACError
from repro.core.identity import Entity
from repro.core.proof import Proof
from repro.core.roles import Role, Subject, role_from_dict, subject_from_dict
from repro.core.tags import DiscoveryTag


def subject_to_wire(subject: Subject) -> dict:
    return subject.subject_map()


def subject_from_wire(data: dict) -> Subject:
    return subject_from_dict(data)


def role_to_wire(role: Role) -> dict:
    return role.to_dict()


def role_from_wire(data: dict) -> Role:
    return role_from_dict(data)


def constraints_to_wire(constraints: Iterable[Constraint]) -> List[dict]:
    return [
        {
            "entity": c.attribute.entity.to_dict(),
            "name": c.attribute.name,
            "minimum": c.minimum,
        }
        for c in constraints
    ]


def constraints_from_wire(data: Iterable[dict]) -> Tuple[Constraint, ...]:
    """Decode a constraint list; anything else raises
    :class:`DiscoveryError`."""
    try:
        return tuple(Constraint(attribute=_attribute_from_wire(record),
                                minimum=record["minimum"])
                     for record in data)
    except (*MALFORMED, DRBACError) as exc:
        raise DiscoveryError(f"not a constraint list: {exc}") from exc


def bases_to_wire(bases: Optional[Mapping[AttributeRef, float]]
                  ) -> List[dict]:
    if not bases:
        return []
    return [
        {
            "entity": attribute.entity.to_dict(),
            "name": attribute.name,
            "value": value,
        }
        for attribute, value in bases.items()
    ]


def bases_from_wire(data: Iterable[dict]) -> dict:
    """Decode a base-allocation list; anything else raises
    :class:`DiscoveryError`."""
    try:
        return {_attribute_from_wire(record): record["value"]
                for record in data}
    except (*MALFORMED, DRBACError) as exc:
        raise DiscoveryError(f"not a base-allocation list: {exc}") from exc


def _attribute_from_wire(record: Mapping) -> AttributeRef:
    return AttributeRef(entity=Entity.from_dict(record["entity"]),
                        name=record["name"])


def proof_to_wire(proof: Optional[Proof]) -> Optional[dict]:
    return None if proof is None else proof.to_dict()


def proof_from_wire(data: Optional[dict]) -> Optional[Proof]:
    return None if data is None else Proof.from_dict(data)


def proofs_to_wire(proofs: Iterable[Proof]) -> List[dict]:
    return [proof.to_dict() for proof in proofs]


def proofs_from_wire(data: Iterable[dict]) -> List[Proof]:
    return [Proof.from_dict(record) for record in data]


def delegation_to_wire(delegation: Delegation) -> dict:
    return delegation.to_dict()


def delegation_from_wire(data: dict) -> Delegation:
    return Delegation.from_dict(data)


# ---------------------------------------------------------------------------
# Goal-evaluation framing
# ---------------------------------------------------------------------------
#
# Discovery rides two one-way notify kinds (docs/PROTOCOL.md):
#
# * ``gem_eval``    -- origin -> home: evaluate one goal for a root;
# * ``gem_answers`` -- home -> origin: the home's local closure for
#   that goal as *session-encoded* proofs deduplicated against what the
#   origin holds, plus the raw ids of the subscriptions it established.


def gem_goal_to_wire(direction: str, node: Subject) -> dict:
    return {"dir": direction, "node": node.subject_map()}


def gem_goal_from_wire(data: Mapping) -> Tuple[str, Subject]:
    return data["dir"], subject_from_dict(data["node"])


def ids_to_wire(delegation_ids: Iterable[str]) -> List[bytes]:
    """Delegation ids as the 32 raw bytes a session ref uses."""
    return [bytes.fromhex(delegation_id) for delegation_id in delegation_ids]


def ids_from_wire(data: Any) -> List[str]:
    """Decode :func:`ids_to_wire`; anything else: :class:`DiscoveryError`."""
    if not isinstance(data, list) or not all(
            isinstance(entry, bytes) and len(entry) == _ID_BYTES
            for entry in data):
        raise DiscoveryError(f"not a list of {_ID_BYTES}-byte ids")
    return [entry.hex() for entry in data]


# ---------------------------------------------------------------------------
# Session-deduplicated proof encoding
# ---------------------------------------------------------------------------
#
# A record is {"chain": [...], "supports": {...}}, "supports" absent when
# empty. A chain entry is a delegation map or the 32 raw bytes of a
# delegation id: a delegation's wire form is always a map, so a
# ``bytes`` entry is unambiguously a reference. The endpoints are not
# sent: Table 1 linkage makes them the chain's first subject and last
# object, and the decoder takes them from there.
#
# A delegation map names its principals, roles and tags by their
# positions in the push's table (``Delegation.to_dict(table)``): a list
# of entity, role and tag maps, each value once, in first-use order, a
# role's map naming its entity by an earlier position. The decoded
# table (:class:`Entries`) resolves a position to the value and records
# it as read: a push whose table holds a value twice, or one that no
# role entry and no delegation map the origin reads names, is refused
# whole by its origin.
#
# An answer's closure is a tree -- each proof its parent plus one link
# -- and is shipped as one: a proof grown from an earlier record of the
# same answer is {"parent": i, "chain": [link], "supports"?}, the index
# of that record and only the link it adds (appended on a forward goal,
# put in front on a reverse one), with that link's supports. Only while
# the parent is shorter than MAX_GROWN_DEPTH and the link leads to a
# node no link of the parent led to: a grown record then decodes to at
# most MAX_GROWN_DEPTH links, so an answer's decoded size stays linear
# in its bytes. A proof grown past either ships in full.

MAX_GROWN_DEPTH = 32
_ID_BYTES = 32
_RECORD_KEYS = frozenset(("chain", "supports"))
_GROWN_KEYS = frozenset(("parent", "chain", "supports"))
_NO_SUPPORTS: dict = {}     # read only
_ENTITY_KEYS = frozenset(("key", "nickname"))
_TAG_KEYS = frozenset(("home", "auth_role", "ttl", "flags"))
_ROLE_KEYS = frozenset(("entity", "name", "ticks", "op"))


class Table:
    """The table one push names its principals, roles and discovery
    tags by, built while the push is encoded: each distinct value once,
    in first-use order (``entries``), at the position :meth:`index`
    hands out for it."""

    __slots__ = ("entries", "_positions", "_by_id")

    def __init__(self) -> None:
        self.entries: List[dict] = []
        # A value's position by its wire map's bytes, and by the id of
        # the object named: every value of the push lives while it is
        # encoded, so an id stands for one object throughout.
        self._positions: dict = {}
        self._by_id: dict = {}

    def index(self, value: Union[Entity, Role, DiscoveryTag]) -> int:
        """The position of a principal, role or tag. A role's entry is
        its map with its principal named by position (spliced:
        :meth:`~repro.crypto.encoding.CanonicalMap.replacing`), so that
        principal comes first."""
        position = self._by_id.get(id(value))
        if position is None:
            value_map = value.to_dict()
            position = self._positions.get(value_map.encoded)
            if position is None:
                key = value_map.encoded
                if value.__class__ is Role:
                    value_map = value_map.replacing(
                        "entity", self.index(value.entity))
                position = self._positions[key] = len(self.entries)
                self.entries.append(value_map)
            self._by_id[id(value)] = position
        return position


class Entries(list):
    """A push's decoded table: its principals, roles and tags by
    position, and the positions read so far (``named``). ``subject``,
    ``role``, ``entity`` and ``tag`` each take a position and give the
    value there if it is of their kind (``tag`` passes None through);
    anything else -- no ``int`` (a ``bool`` is not one), out of range,
    another kind -- raises ``ValueError``."""

    def __init__(self) -> None:
        super().__init__()
        self.named: Set[int] = set()
        # Position -> value: the subjects (principals and roles), and
        # each kind's own.
        self._subjects: dict = {}
        self._of: dict = {Entity: {}, Role: {}, DiscoveryTag: {}}
        self.subject = _reader(self._subjects, self.named)
        self.role = _reader(self._of[Role], self.named)
        self.entity = _reader(self._of[Entity], self.named)
        self.tag = _reader(self._of[DiscoveryTag], self.named,
                           optional=True)

    def add(self, value: Union[Entity, Role, DiscoveryTag]) -> None:
        """Append a decoded entry."""
        self._of[value.__class__][len(self)] = value
        if value.__class__ is not DiscoveryTag:
            self._subjects[len(self)] = value
        self.append(value)


def _reader(values: dict, named: Set[int], optional: bool = False
            ) -> Callable[[Any], Any]:
    get, add = values.get, named.add

    def read(position: Any) -> Any:
        value = get(position)
        if value is None or position.__class__ is not int:
            if optional and position is None:
                return None
            raise ValueError(f"{position!r} names no such table entry")
        add(position)
        return value

    return read


def table_from_wire(data: Any) -> Entries:
    """Decode a push's table, once per push: a list of principal, role
    and tag maps, each decoded to its (interned) value -- a role's
    principal by its position among the entries before it. Anything
    else -- an entry of no such shape, or one that repeats an earlier
    entry's value -- raises :class:`DiscoveryError`."""
    if not isinstance(data, list):
        raise DiscoveryError("a push's table is a list")
    table = Entries()
    seen: Set[bytes] = set()
    for entry in data:
        keys = entry.keys() if isinstance(entry, dict) else ()
        try:
            if keys == _ENTITY_KEYS:
                value = Entity.from_dict(entry)
            elif keys == _TAG_KEYS:
                value = DiscoveryTag.from_dict(entry)
            elif "name" in keys and "entity" in keys and keys <= _ROLE_KEYS:
                value = role_from_dict(entry, table)
            else:
                raise DiscoveryError(
                    "a table entry is a principal, role or tag map")
            encoded = value.to_dict().encoded
        except (*MALFORMED, DRBACError) as exc:
            raise DiscoveryError(f"not a table entry: {exc}") from exc
        if encoded in seen:
            raise DiscoveryError("a table names each value once")
        seen.add(encoded)
        table.add(value)
    return table


def proofs_to_wire_session(proofs: List[Proof], sent_ids: Set[str],
                           table: Table) -> List[dict]:
    """Encode one answer's closure, in order: a proof grown from an
    earlier one names that record instead of repeating its chain."""
    index: dict = {}
    records = []
    for position, proof in enumerate(proofs):
        parent = proof.parent
        at = None if parent is None else index.get(id(parent))
        if at is not None and not _grows_simply(
                parent, proof.grown_link(), proof.extends_parent()):
            at = None
        records.append(proof_to_wire_session(proof, sent_ids, table, at))
        index[id(proof)] = position
    return records


def _grows_simply(parent: Proof, link: Delegation, forward: bool) -> bool:
    """Whether ``parent`` is shorter than :data:`MAX_GROWN_DEPTH` and
    ``link``, grown at its object end if ``forward`` else its subject
    end, leads to a node no link of ``parent`` led to that way. (A
    chain may come back to its fixed end once: a closure holds the
    cycles through its goal's node.)"""
    chain = parent.chain
    if len(chain) >= MAX_GROWN_DEPTH:
        return False
    if forward:
        return link.obj.node_key not in [
            delegation.obj.node_key for delegation in chain]
    return link.subject.node_key not in [
        delegation.subject.node_key for delegation in chain]


def proof_to_wire_session(proof: Proof, sent_ids: Set[str], table: Table,
                          parent: Optional[int] = None) -> dict:
    """Encode ``proof`` for a session whose peer has already received the
    delegations in ``sent_ids`` (mutated: newly shipped ids are added).
    A delegation shipped in full names its principals, roles and tags
    by their positions in ``table``. ``parent`` is the index of the earlier
    record of the same answer that ``proof`` grew from by
    :meth:`~Proof.grown_link`; then only that link and its supports are
    encoded."""

    def encode(p: Proof, links: Iterable[Delegation]) -> dict:
        chain, supported = [], []
        for delegation in links:
            delegation_id = delegation.id
            if delegation_id in sent_ids:
                chain.append(bytes.fromhex(delegation_id))
            else:
                sent_ids.add(delegation_id)
                chain.append(delegation.to_dict(table))
            proofs = p.supports_for(delegation)
            if proofs:
                supported.append((delegation_id, proofs))
        # Supports after the whole chain: they see its links as sent.
        if not supported:
            return {"chain": chain}
        return {
            "chain": chain,
            "supports": {delegation_id: [encode(s, s.chain) for s in proofs]
                         for delegation_id, proofs in supported},
        }

    if parent is None:
        return encode(proof, proof.chain)
    record = encode(proof, (proof.grown_link(),))
    record["parent"] = parent
    return record


def proof_full_delegations(data: Mapping, table: Entries,
                           memo: Optional[dict] = None,
                           refs: Optional[Set[str]] = None
                           ) -> Iterator[Delegation]:
    """Yield every delegation that appears *in full* in a session-encoded
    proof. Used to pre-seed the receiver's store before decoding -- a
    certificate shipped in one payload of an answer resolves refs in
    the others. The ids the proof only refers to are added to ``refs``.
    ``table`` is the push's decoded table (:func:`table_from_wire`).
    Anything not shaped like a session record raises
    :class:`DiscoveryError`.

    ``memo`` (entry-identity keyed) shares the materialized
    :class:`Delegation` objects with a later
    :func:`proof_from_wire_session` pass over the *same* payload
    objects, so each wire entry is decoded once, not once per pass.
    The caller owns the memo's lifetime: keys are ``id(entry)``, valid
    only while it keeps the payloads alive.
    """
    memo = {} if memo is None else memo
    stack = [data]
    while stack:
        chain, supports = _session_record(stack.pop())
        for link in _links(chain, memo, table):
            if link.__class__ is not str:
                yield link
            elif refs is not None:
                refs.add(link)
        for proofs in supports.values():
            stack.extend(proofs)


def proof_from_wire_session(data: Mapping, table: Entries,
                            resolve: Callable[[str], Delegation],
                            record: Optional[Callable[[Delegation], None]]
                            = None,
                            memo: Optional[dict] = None,
                            earlier: Sequence[Optional[Proof]] = (),
                            forward: bool = True) -> Proof:
    """Decode a session-encoded proof; its subject and object are its
    chain's ends. A record with any key beside ``chain`` and
    ``supports`` -- endpoints that could disagree with the chain -- is
    refused, except an answer's own ``parent``.

    ``table`` is the push's decoded table (:func:`table_from_wire`): a
    delegation in full names its principals, roles and tags by their
    positions in it, and one that names a position badly raises.
    ``resolve`` maps a ref id to the full :class:`Delegation` (the
    search's received-store or the wallet -- raising on an unknown
    id). ``record`` is called
    with every delegation that arrived *in full*, letting the caller
    populate the received-store for future refs. ``memo`` reuses
    delegations already materialized from these exact entry dicts by
    :func:`proof_full_delegations` (see there for the contract).
    ``earlier`` holds what the answer's earlier records decoded to
    (None for one that failed): a ``parent`` record is that proof
    grown by its one link, through :meth:`Proof.extend` when
    ``forward``, else :meth:`Proof.prepend`, so it passes their
    linkage check; one whose parent is :data:`MAX_GROWN_DEPTH` links
    long, or whose link leads back to a node a link of the parent led
    to, is refused.
    A record that is not shaped like a proof raises a
    :class:`~repro.core.errors.DRBACError`; what ``resolve`` and
    ``record`` raise passes through.
    """
    memo = {} if memo is None else memo

    def links(entries: list) -> List[Delegation]:
        chain = []
        for link in _links(entries, memo, table):
            if link.__class__ is str:
                link = resolve(link)
            elif record is not None:
                record(link)
            chain.append(link)
        return chain

    def decode(node: Mapping) -> Proof:
        entries, supports = _session_record(node)
        if not node.keys() <= _RECORD_KEYS:
            raise DiscoveryError("a session record carries only its chain "
                                 "and supports; its ends are derived")
        chain = links(entries)
        return Proof(
            subject=chain[0].subject,
            obj=chain[-1].obj,
            chain=chain,
            supports={
                delegation_id: tuple(decode(p) for p in proofs)
                for delegation_id, proofs in supports.items()
            },
        )

    if not isinstance(data, dict) or "parent" not in data:
        return decode(data)
    entries, supports = _session_record(data)
    parent = data["parent"]
    if not data.keys() <= _GROWN_KEYS or len(entries) != 1 \
            or parent.__class__ is not int \
            or not 0 <= parent < len(earlier):
        raise DiscoveryError("a grown record names an earlier record of "
                             "its answer and carries one link")
    grown_from = earlier[parent]
    if grown_from is None:
        raise DiscoveryError(f"record {parent} did not decode")
    link, = links(entries)
    if not supports.keys() <= {link.id}:
        raise DiscoveryError("a grown record supports only its own link")
    if not _grows_simply(grown_from, link, forward):
        raise DiscoveryError(
            f"a grown record's parent is shorter than {MAX_GROWN_DEPTH} "
            "links and its link leads to a node no link of it led to")
    proofs = tuple(decode(p) for p in supports.get(link.id, ()))
    if forward:
        return grown_from.extend(link, proofs)
    return grown_from.prepend(link, proofs)


def _session_record(node: Any) -> Tuple[list, dict]:
    """The chain and supports of a session-encoded proof record, or a
    :class:`DiscoveryError` if ``node`` is not shaped like one: a map
    with a non-empty ``chain`` list and, only when there are any,
    ``supports`` lists keyed by delegation id."""
    if isinstance(node, dict):
        chain = node.get("chain")
        supports = node.get("supports", _NO_SUPPORTS)
        if isinstance(chain, list) and chain \
                and isinstance(supports, dict) \
                and (supports is _NO_SUPPORTS or supports) \
                and all(isinstance(proofs, list)
                        for proofs in supports.values()):
            return chain, supports
    raise DiscoveryError("not a session-encoded proof record")


def _links(entries: list, memo: dict, table: Entries) -> Iterator[Any]:
    """Each chain entry as the hex id it refers to or the
    :class:`Delegation` it carries, its principals, roles and tags
    taken from ``table`` (decoded once per entry object, via ``memo``).
    :class:`DiscoveryError` for anything else."""
    for entry in entries:
        if isinstance(entry, bytes):
            if len(entry) != _ID_BYTES:
                raise DiscoveryError(
                    f"a ref is {_ID_BYTES} bytes, not {len(entry)}")
            yield entry.hex()
        elif isinstance(entry, dict):
            delegation = memo.get(id(entry))
            if delegation is None:
                try:
                    delegation = Delegation.from_dict(entry, table)
                except DRBACError as exc:
                    raise DiscoveryError(
                        f"not a delegation map: {exc}") from exc
                memo[id(entry)] = delegation
            yield delegation
        else:
            raise DiscoveryError(
                "a chain entry is a delegation map or a 32-byte ref")
