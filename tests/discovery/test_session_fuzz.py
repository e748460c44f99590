"""The session-encoded ``gem_answers`` record under hostile input.

A home's answer is untrusted input at the origin (ROADMAP item 1: the
decode boundary is the security boundary). The record is
``{"chain": [...], "supports": {...}}``: each chain entry a delegation
map or a 32-byte id, the endpoints derived from the chain, ``supports``
absent when empty. The contract pinned here:

* ``proof_full_delegations`` raises only :class:`DiscoveryError`;
* ``proof_from_wire_session`` raises only a :class:`DRBACError`;
* a valid record still round-trips to the very proof the home encoded.

The fuzzer starts from valid answers -- the Table 3 proof with its
support proofs, and a ring coalition's chains, encoded against one
sent-set so later answers carry refs -- and mutates them the ways a
lying or broken home could: truncate a chain, give a ref the wrong
length, splice in a record or a chain from another proof, flip an
entry's type, or name endpoints.

An answer's ``subs`` -- the ids the home now holds for the origin --
is a list of 32-byte ids. Anything else drops the whole answer, counted
in ``answers_dropped``, before any of it is applied.

A push names each principal, role and discovery tag once, in its
``table``, and a delegation in full names them by position. A table
that is not a list, holds anything but entity, role and tag maps (a
role's entity named by an earlier position), repeats a value or holds
one nothing names drops the whole push the same way; a position that is
out of range, negative, a ``bool``, no ``int`` or another kind of entry
drops only its record (and what refers to a
credential only that record ships in full). Neither leaves the entity,
role, tag or key intern pools holding anything but what their keys
say, and the honest push still decodes to the proofs the home encoded.

A closure ships as a tree (``{"parent": i, "chain": [link]}`` for a
proof grown from an earlier record of its answer). Its fuzzer gives a
grown record a parent that is later or itself, out of range, not an
int, or not linked to the new link, a chain of more than one link, a
link back to a node a link of the parent led to, or a parent already
``MAX_GROWN_DEPTH`` links long; that record may only raise a
:class:`DRBACError`. Any closure, in either direction and with any of
its credentials already held, still round-trips to the proofs the home
encoded, a chain longer than ``MAX_GROWN_DEPTH`` included.
"""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import identity, roles, tags
from repro.core.delegation import Delegation, issue
from repro.core.errors import DiscoveryError, DRBACError
from repro.core.identity import Entity, create_principal, entity_content_key
from repro.core.roles import Role, subject_key
from repro.core.tags import DiscoveryTag
from repro.crypto import keys
from repro.crypto.encoding import canonical_decode, canonical_encode
from repro.discovery import wire
from repro.discovery.engine import DiscoveryStats
from repro.discovery.gem import GEM_COUNTER_NAMES, Goal, Origin, View
from repro.wallet.wallet import Wallet
from repro.workloads import build_case_study, topology
from repro.workloads.scenarios import deploy_coalition


def _valid_answers():
    """(proof, payload) pairs, encoded in order against one sent-set."""
    case = build_case_study(seed=3)
    wallet = case.populate_wallet(Wallet(owner=case.air_net))
    table3 = wallet.query_direct(case.maria.entity, case.airnet_access)
    ring = topology.make_ring_coalition(4, seed=5)
    ring_wallet = Wallet(owner=ring.principals["D0"])
    for delegation, supports in ring.delegations:
        ring_wallet.publish(delegation, supports)
    ring_proofs = ring_wallet.query_subject(ring.subject)
    proofs = [table3, *case.coalition_support, *ring_proofs]
    assert table3.supports_for(case.d2_coalition) and len(ring_proofs) > 2
    sent = set()
    return [(proof, wire.proof_to_wire_session(proof, sent, TABLE))
            for proof in proofs]


# One push: every answer is encoded against one table.
TABLE = wire.Table()
ANSWERS = _valid_answers()
ENTRIES = wire.table_from_wire(TABLE.entries)
# The same table, decoded from its bytes.
ENTRIES_VIA_BYTES = wire.table_from_wire(
    canonical_decode(canonical_encode(TABLE.entries)))
KNOWN = {d.id: d for proof, _payload in ANSWERS
         for d in proof.all_delegations()}


def _tabled(delegation):
    """``delegation`` in full, as the push names its principals, roles
    and tags (all of which the push's table already holds)."""
    size = len(TABLE.entries)
    data = delegation.to_dict(TABLE)
    assert len(TABLE.entries) == size
    return data


def _resolve(delegation_id):
    delegation = KNOWN.get(delegation_id)
    if delegation is None:
        raise DiscoveryError(f"unknown ref {delegation_id}")
    return delegation


def _copy(record):
    """A structural copy: fresh records and chain lists, shared leaves."""
    copied = {"chain": list(record["chain"])}
    if "supports" in record:
        copied["supports"] = {key: [_copy(p) for p in proofs]
                              for key, proofs in record["supports"].items()}
    return copied


def _records(payload):
    """Every record of a payload, supports included, outermost first."""
    found, stack = [], [payload]
    while stack:
        record = stack.pop()
        found.append(record)
        for proofs in record.get("supports", {}).values():
            stack.extend(reversed(proofs))
    return found


def _ref(entry):
    """The 32-byte id of a chain entry, whichever form it has."""
    if isinstance(entry, bytes):
        return entry
    return bytes.fromhex(Delegation.from_dict(entry, ENTRIES).id)


def _decode_both(payload, table=ENTRIES):
    """Run both passes; return what each raised (None: nothing)."""
    raised = []
    try:
        list(wire.proof_full_delegations(payload, table))
        raised.append(None)
    except DiscoveryError as exc:
        raised.append(exc)
    try:
        wire.proof_from_wire_session(payload, table, _resolve)
        raised.append(None)
    except DRBACError as exc:
        raised.append(exc)
    return raised


class TestValidRecords:
    def test_round_trip_is_byte_identical(self):
        received = {}

        def resolve(delegation_id):
            return received.get(delegation_id) or _resolve(delegation_id)

        for proof, payload in ANSWERS:
            for candidate, table in (
                    (payload, ENTRIES),
                    (canonical_decode(canonical_encode(payload)),
                     ENTRIES_VIA_BYTES)):
                decoded = wire.proof_from_wire_session(
                    candidate, table, resolve,
                    lambda d: received.__setitem__(d.id, d))
                assert canonical_encode(decoded.to_dict()) \
                    == canonical_encode(proof.to_dict())

    def test_the_pool_has_every_record_shape(self):
        records = [r for _p, payload in ANSWERS for r in _records(payload)]
        entries = [e for r in records for e in r["chain"]]
        assert any("supports" in r for r in records)
        assert any(isinstance(e, bytes) for e in entries)
        assert any(isinstance(e, dict) for e in entries)
        assert all(r.keys() <= {"chain", "supports"} for r in records)
        assert all(r.get("supports", True) for r in records)
        assert all(len(e) == 32 for e in entries if isinstance(e, bytes))


def _with_chain(chain):
    return {"chain": chain}


_FIRST = ANSWERS[0][1]
_A_REF = _ref(_FIRST["chain"][0])


@pytest.mark.parametrize("record", [
    _with_chain([]),
    _with_chain([_A_REF[:31]]),
    _with_chain([_A_REF + b"\0"]),
    _with_chain([b""]),
    _with_chain([_A_REF.hex()]),
    _with_chain([_FIRST["chain"][0], _A_REF.hex()]),
    _with_chain([{"ref": _A_REF.hex()}]),
    _with_chain([{"subject": []}]),
    {"chain": [_A_REF], "supports": {}},
    {"chain": [_A_REF], "supports": {_A_REF.hex(): [{"chain": []}]}},
], ids=["empty-chain", "ref-31", "ref-33", "ref-0", "str-ref",
        "str-ref-after-map", "old-ref-map", "broken-map", "empty-supports",
        "empty-support-chain"])
def test_a_misshapen_record_raises_the_typed_error(record):
    first, second = _decode_both(record)
    assert isinstance(first, DiscoveryError)
    assert isinstance(second, DiscoveryError)


@pytest.mark.parametrize("key", ["subject", "object"])
def test_an_endpoint_that_disagrees_with_the_chain_is_refused(key):
    """The record names an end its chain does not have: never a proof."""
    proof, payload = ANSWERS[0]
    other = ANSWERS[-1][0]
    wrong = other.subject.subject_map() if key == "subject" \
        else other.obj.to_dict()
    assert wrong != (proof.subject.subject_map() if key == "subject"
                     else proof.obj.to_dict())
    record = dict(_copy(payload), **{key: wrong})
    _full, decoded = _decode_both(record)
    assert isinstance(decoded, DiscoveryError)


# -- the mutation fuzzer ---------------------------------------------------


@st.composite
def mutated_answers(draw):
    """(kind, payload, must_raise): one valid answer with one mutation
    applied, and whether both passes must refuse it."""
    _proof, original = draw(st.sampled_from(ANSWERS))
    payload = _copy(original)
    record = draw(st.sampled_from(_records(payload)))
    chain = record["chain"]
    index = draw(st.integers(0, len(chain) - 1))
    kind = draw(st.sampled_from(["truncate", "ref-length", "splice-chain",
                                 "splice-record", "flip", "endpoint",
                                 "signature"]))
    must_raise = False
    if kind == "truncate":
        del chain[index:]
        must_raise = not chain
    elif kind == "ref-length":
        length = draw(st.integers(0, 64).filter(lambda n: n != 32))
        chain[index] = (_ref(chain[index]) * 2)[:length]
        must_raise = True
    elif kind == "splice-chain":
        _p, donor = draw(st.sampled_from(ANSWERS))
        donor_chain = draw(st.sampled_from(_records(donor)))["chain"]
        start = draw(st.integers(0, len(donor_chain) - 1))
        chain[index:] = donor_chain[start:]
    elif kind == "splice-record":
        _p, donor = draw(st.sampled_from(ANSWERS))
        grafted = _copy(draw(st.sampled_from(_records(donor))))
        key = _ref(chain[index]).hex()
        record.setdefault("supports", {}).setdefault(key, []).append(
            grafted)
    elif kind == "flip":
        position = draw(st.integers(0, len(_FLIPS) - 1))
        chain[index] = _FLIPS[position](_ref(chain[index]))
        must_raise = position < len(_WRONG_TYPES)
    elif kind == "signature":
        # The credential in full, one bit of its signature flipped: well
        # shaped, signed by nobody.
        chain[index] = _signature_flipped(
            _tabled(KNOWN[_ref(chain[index]).hex()]))
    else:
        donor, _payload = draw(st.sampled_from(ANSWERS))
        if draw(st.booleans()):
            record["subject"] = donor.subject.subject_map()
        else:
            record["object"] = donor.obj.to_dict()
    return kind, payload, must_raise


def _signature_flipped(data):
    """A delegation map with one bit of its signature flipped."""
    signature = data["signature"]
    return dict(data, signature=signature[:-1]
                + bytes([signature[-1] ^ 1]))


# A chain entry flipped to another type: the wrong ones first, then the
# two right ones (the map for a ref, the ref for a map).
_WRONG_TYPES = [lambda ref: ref.hex(), lambda ref: 7, lambda ref: [ref],
                lambda ref: None, lambda ref: True, lambda ref: 1.5,
                lambda ref: {"ref": ref.hex()}]
_FLIPS = _WRONG_TYPES + [lambda ref: _tabled(KNOWN[ref.hex()]),
                         lambda ref: ref]


# The example budget is the loaded profile's (tests/conftest.py): 10 in
# tier-1, 200 under ``--hypothesis-profile=long``.
@settings(deadline=None)
@given(mutated_answers(), st.booleans())
def test_a_mutated_answer_raises_only_the_typed_error(mutation, via_bytes):
    """Whatever the mutation, each pass either succeeds or raises its
    typed error (``_decode_both`` lets nothing else through); the
    mutations that break the record's shape are refused by both, and
    named endpoints by the decoder. A flipped signature breaks no
    shape: it decodes, to a credential that does not verify -- which
    the origin's commit refuses."""
    kind, payload, must_raise = mutation
    table = ENTRIES
    if via_bytes:
        payload = canonical_decode(canonical_encode(payload))
        table = ENTRIES_VIA_BYTES
    full, decoded = _decode_both(payload, table)
    if must_raise:
        assert isinstance(full, DiscoveryError)
        assert isinstance(decoded, DiscoveryError)
    if kind == "endpoint":
        assert isinstance(decoded, DiscoveryError)
    if kind == "signature":
        assert full is None and decoded is None
        assert not all(delegation.verify_signature() for delegation
                       in wire.proof_full_delegations(payload, table))


# -- the push's table --------------------------------------------------------
#
# A push names each principal and discovery tag once, in its ``table``;
# a delegation shipped in full names them by their positions in it.


def _slots(data):
    """(container, key) of each table position a tabled delegation map
    names."""
    slots = [(data, key) for key in ("subject", "object", "issuer",
                                     "subject_tag", "object_tag",
                                     "issuer_tag") if key in data]
    slots += [(data["acting_as"], at)
              for at in range(len(data["acting_as"]))]
    slots += [(modifier, "attr_entity") for modifier in data["modifiers"]]
    return slots


def _named(payload):
    """The table positions a payload's delegations in full name, each
    as often as it is named."""
    return [container[key] for record in _records(payload)
            for entry in record["chain"] if isinstance(entry, dict)
            for container, key in _slots(entry)]


def _index_slots():
    """(payload, record, entry, slot, drops): the places a delegation in
    full names a table entry where what a bad index there drops does not
    hang on the order an origin reads the push in. ``drops`` is
    ``"record"`` in a payload each of whose entries a role entry or a
    delegation of another payload names too -- the origin still reads
    them all, whichever of the payload's maps it could not -- and
    ``"push"`` at the one place anything names an entry."""
    counts = collections.Counter()
    by_payload = collections.defaultdict(set)
    for k, (_proof, payload) in enumerate(ANSWERS):
        counts.update(_named(payload))
        by_payload[k].update(_named(payload))
    in_roles = {entry["entity"] for entry in TABLE.entries
                if "name" in entry}

    def covered(k):
        elsewhere = in_roles.union(*(named for j, named
                                     in by_payload.items() if j != k))
        return by_payload[k] <= elsewhere

    slots = []
    for k, (_proof, payload) in enumerate(ANSWERS):
        for r, record in enumerate(_records(payload)):
            for c, entry in enumerate(record["chain"]):
                if not isinstance(entry, dict):
                    continue
                for s, (container, key) in enumerate(_slots(entry)):
                    if covered(k):
                        slots.append((k, r, c, s, "record"))
                    elif counts[container[key]] == 1 \
                            and container[key] not in in_roles:
                        slots.append((k, r, c, s, "push"))
    return slots


def _map_copy(data):
    """A delegation map whose nested maps and lists are fresh too."""
    return {key: dict(value) if isinstance(value, dict)
            else [dict(item) if isinstance(item, dict) else item
                  for item in value] if isinstance(value, list)
            else value for key, value in data.items()}


def _dependents(k):
    """Payload ``k`` and every payload that refers to a credential only
    ``k`` ships in full: what a bad index in ``k`` takes down."""
    shipped = {d.id for d in wire.proof_full_delegations(ANSWERS[k][1],
                                                         ENTRIES)}
    return {k} | {j for j, (_p, payload) in enumerate(ANSWERS)
                  if any(isinstance(entry, bytes) and entry.hex() in shipped
                         for record in _records(payload)
                         for entry in record["chain"])}


SLOTS = _index_slots()
ORIGIN = create_principal("Origin")
HOME = "w.home"
NODE = ANSWERS[0][0].subject
ENTITY_AT = next(k for k, value in enumerate(ENTRIES)
                 if isinstance(value, Entity))
TAG_AT = next(k for k, value in enumerate(ENTRIES)
              if isinstance(value, DiscoveryTag))
ROLE_AT = [k for k, value in enumerate(ENTRIES) if isinstance(value, Role)]


def _push(payloads, table):
    return {"root": "w.origin#gem0",
            "goal": wire.gem_goal_to_wire("fwd", NODE),
            "answers": payloads, "table": table, "subs": []}


def _deliver(push):
    """Hand ``push`` to an origin that asked HOME its goal and holds
    nothing. Returns the proofs it decodes, or None if it refused the
    whole push -- and then the goal is still unanswered."""
    wallet = Wallet(owner=ORIGIN, address="w.origin")
    store = wallet.store
    origin = Origin(
        View(address="w.origin", now=wallet.clock.now(),
             held=store.get_delegation, delegations=store.delegations,
             out_edges=store.graph.out_edges_by_node,
             heads=lambda _node: [], is_revoked=store.is_revoked,
             authorized=lambda _home, _tag: True),
        "w.origin#gem0", NODE, ANSWERS[0][0].obj, (), None, {}, 64,
        DiscoveryStats(), obs.CounterSet("drbac_gem", GEM_COUNTER_NAMES))
    goal = Goal(HOME, ("fwd", subject_key(NODE)), NODE, 0)
    origin.send(goal)
    answer, release = origin.accept(HOME, push, [])
    if answer is None:
        assert (HOME, goal.key) in origin.pending and release == []
        return None
    origin.stage(answer)
    return answer.proofs


def _encoded(proofs):
    return [canonical_encode(proof.to_dict()) for proof in proofs]


def _pools_hold_their_content():
    """Every interned entity, role, tag and key is what its key says."""
    for key, entity in identity._entity_intern.items():
        assert entity_content_key(entity.to_dict()) == key
    for key, role in roles._role_intern.items():
        op = role.operator.value if role.operator else None
        entity = role.entity.to_dict()
        assert key in (role.to_dict().encoded, role.subject_map().encoded,
                       (entity.encoded, role.name, role.ticks, op),
                       entity_content_key(entity)
                       + (role.name, role.ticks, op))
    for key, tag in tags._tag_intern.items():
        assert (tag.home, tag.auth_role_name, tag.ttl, tag.flags) == key
    for key, public_key in keys._pk_intern.items():
        assert (public_key.algorithm, public_key.key_bytes) == key


def test_an_honest_push_names_each_value_once_and_decodes_whole():
    table = TABLE.entries
    assert len({canonical_encode(entry) for entry in table}) == len(table)
    assert set(range(len(table))) == {
        position for _p, payload in ANSWERS for position in _named(payload)}
    assert {type(value) for value in ENTRIES} == {Entity, Role,
                                                  DiscoveryTag}
    assert all(table[k]["entity"] < k for k in ROLE_AT)
    assert {drops for *_slot, drops in SLOTS} == {"record", "push"}
    proofs = _deliver(_push([payload for _p, payload in ANSWERS], table))
    assert _encoded(proofs) == _encoded(proof for proof, _p in ANSWERS)


# A value that is no table entry: neither a principal's map nor a tag's.
_NOT_ENTRIES = [
    5, None, "x", [], b"\0" * 33, {},
    ROLE_MAP := Role(ORIGIN.entity, "r").to_dict(),
    ORIGIN.entity.subject_map(),
    dict(ORIGIN.entity.to_dict(), extra=1),
    {"key": ORIGIN.entity.to_dict()["key"]},
    {"key": {"algorithm": "schnorr-secp256k1", "key": b"\0" * 33},
     "nickname": "Null"},
    {"key": {"algorithm": "no-such", "key": b"\2" * 33}, "nickname": ""},
]
_TAG = DiscoveryTag.parse("<w.other.example:Other.w:30:So>")
_NOT_ENTRIES += [
    {key: value for key, value in _TAG.to_dict().items() if key != "ttl"},
    dict(_TAG.to_dict(), flags="Xo"),
    dict(_TAG.to_dict(), flags=5),
    dict(_TAG.to_dict(), home=None),
    dict(_TAG.to_dict(), home=5),
    dict(_TAG.to_dict(), auth_role=7),
    {"entity": 10 ** 9, "name": "r"},
    {"entity": -1, "name": "r"},
    {"entity": True, "name": "r"},
    {"entity": "0", "name": "r"},
    {"name": "r"},
    {"entity": 0, "name": "r", "extra": 1},
]


@st.composite
def hostile_tables(draw):
    """(kind, payloads, table, k): the push with one mutation of its
    table or of an index into it, and the payload that mutation broke
    (None: the whole push)."""
    kind = draw(st.sampled_from(
        ["index-range", "index-negative", "index-bool", "index-type",
         "index-kind", "not-a-list", "entry", "role-ahead", "repeat",
         "unused"]))
    payloads = [_copy(payload) for _p, payload in ANSWERS]
    table = list(TABLE.entries)
    if kind.startswith("index"):
        k, r, c, s, drops = draw(st.sampled_from(SLOTS))
        record = _records(payloads[k])[r]
        entry = record["chain"][c] = _map_copy(record["chain"][c])
        container, key = _slots(entry)[s]
        if kind == "index-range":
            bad = draw(st.integers(len(table), len(table) + 2 ** 40))
        elif kind == "index-negative":
            bad = draw(st.integers(max_value=-1))
        elif kind == "index-bool":
            bad = draw(st.booleans())
        elif kind == "index-type":
            bad = draw(st.sampled_from(
                [str(container[key]), float(container[key]), b"\0",
                 [container[key]], {"i": container[key]},
                 table[container[key]]]))
        else:
            # A tag where a principal or role is named, or the other
            # way round.
            bad = ENTITY_AT if isinstance(ENTRIES[container[key]],
                                          DiscoveryTag) else TAG_AT
        container[key] = bad
        return kind, payloads, table, k if drops == "record" else None
    if kind == "not-a-list":
        table = draw(st.sampled_from([None, 5, "x", b"", {}, {"0": table}]))
    elif kind == "entry":
        table[draw(st.integers(0, len(table) - 1))] = draw(
            st.sampled_from(_NOT_ENTRIES))
    elif kind == "role-ahead":
        # A role whose principal is itself or an entry after it.
        k = draw(st.sampled_from(ROLE_AT))
        table[k] = dict(table[k], entity=draw(st.integers(k, len(table))))
    elif kind == "repeat":
        repeated = dict(table[draw(st.integers(0, len(table) - 1))])
        if "ttl" in repeated and draw(st.booleans()):
            repeated["ttl"] = int(repeated["ttl"])   # the same tag
        table.insert(draw(st.integers(0, len(table))), repeated)
    else:
        table.append(draw(st.sampled_from(
            [ORIGIN.entity.to_dict(), _TAG.to_dict()])))
    return kind, payloads, table, None


@settings(deadline=None)
@given(hostile_tables(), st.booleans())
def test_a_hostile_table_stops_at_the_boundary(mutation, via_bytes):
    """A table that is not a list, holds anything but principal, role
    and tag maps, names a role's principal by its own or a later
    position, repeats a value or holds one nothing names: the whole
    push is refused, and its goal stays unanswered. An index that is
    out of range, negative, a ``bool``, no ``int`` or names another
    kind of entry: its record raises a DRBACError in both passes, and
    only it -- with what refers to a credential only it ships -- is
    dropped, unless the entry it named is then named by nothing the
    origin reads: then the push is, as for an unused entry. Either way the intern pools stay true to their keys, and
    the honest push still decodes to the proofs the home encoded."""
    kind, payloads, table, k = mutation
    if via_bytes:
        payloads, table = canonical_decode(canonical_encode(
            [payloads, table]))
    proofs = _deliver(_push(payloads, table))
    if k is None:
        assert proofs is None
        if not kind.startswith("index") and kind != "unused":
            with pytest.raises(DiscoveryError):
                wire.table_from_wire(table)
    else:
        full, decoded = _decode_both(payloads[k])
        assert isinstance(full, DiscoveryError)
        assert isinstance(decoded, DRBACError)
        assert _encoded(proofs) == _encoded(
            proof for j, (proof, _p) in enumerate(ANSWERS)
            if j not in _dependents(k))
    _pools_hold_their_content()
    honest = _deliver(_push([payload for _p, payload in ANSWERS],
                            TABLE.entries))
    assert _encoded(honest) == _encoded(proof for proof, _p in ANSWERS)


# -- tree-encoded answers ----------------------------------------------------
#
# An answer's closure ships as a tree: a proof grown from an earlier
# record names it (``"parent": i``) and carries only its one new link,
# appended on a forward goal and put in front on a reverse one.


def _closures():
    """(proofs, forward) closures of a ring coalition's wallet and of a
    chain two links past ``MAX_GROWN_DEPTH``, both directions, each
    with at least one grown record."""
    closures = []
    for workload in (topology.make_ring_coalition(4, seed=5),
                     topology.make_chain(wire.MAX_GROWN_DEPTH + 2, seed=5)):
        wallet = Wallet(owner=next(iter(workload.principals.values())))
        for delegation, supports in workload.delegations:
            wallet.publish(delegation, supports)
        forward = wallet.query_subject(workload.subject)
        closures.append((forward, True))
        closures += [(wallet.query_object(proof.obj), False)
                     for proof in forward]
    return [(proofs, forward) for proofs, forward in closures
            if any(p.parent is not None for p in proofs)]


def _past_the_depth(proofs):
    """(k, j): proof ``j`` grown from member ``k``, which is already
    ``MAX_GROWN_DEPTH`` links long."""
    position = {id(proof): k for k, proof in enumerate(proofs)}
    return [(position[id(proof.parent)], j)
            for j, proof in enumerate(proofs)
            if id(proof.parent) in position
            and proof.parent.depth() >= wire.MAX_GROWN_DEPTH]


CLOSURES = _closures()
DEEP_CLOSURES = [(proofs, forward) for proofs, forward in CLOSURES
                 if _past_the_depth(proofs)]
ROGUE = create_principal("Rogue")
TREE_KNOWN = {d.id: d for proofs, _f in CLOSURES for p in proofs
              for d in p.all_delegations()}


def _tree_resolve(delegation_id):
    delegation = TREE_KNOWN.get(delegation_id)
    if delegation is None:
        raise DiscoveryError(f"unknown ref {delegation_id}")
    return delegation


def _decode_tree(payloads, table, forward):
    """Decode an answer record by record as the origin does, against
    its table's ``entries``: a record that raises a DRBACError decodes
    to None. Nothing else may escape either pass."""
    table = wire.table_from_wire(table)
    decoded, raised = [], []
    for payload in payloads:
        try:
            list(wire.proof_full_delegations(payload, table))
        except DiscoveryError:
            pass
        try:
            decoded.append(wire.proof_from_wire_session(
                payload, table, _tree_resolve, earlier=decoded,
                forward=forward))
            raised.append(None)
        except DRBACError as exc:
            decoded.append(None)
            raised.append(exc)
    return decoded, raised


def test_both_directions_ship_grown_records():
    assert {forward for _p, forward in CLOSURES} == {True, False}
    assert {forward for _p, forward in DEEP_CLOSURES} == {True, False}
    for proofs, forward in CLOSURES:
        payloads = wire.proofs_to_wire_session(proofs, set(), wire.Table())
        assert any("parent" in p for p in payloads)
        for _k, j in _past_the_depth(proofs):
            assert "parent" not in payloads[j]


@settings(deadline=None)
@given(st.data(), st.booleans())
def test_a_tree_answer_round_trips(data, via_bytes):
    """Any closure, either direction, with any set of its delegations
    already held by the origin (shipped as refs), decodes to the very
    proofs the home encoded."""
    proofs, forward = data.draw(st.sampled_from(CLOSURES))
    ids = sorted({d.id for p in proofs for d in p.all_delegations()})
    held = set(data.draw(st.sets(st.sampled_from(ids))))
    table = wire.Table()
    payloads = wire.proofs_to_wire_session(proofs, set(held), table)
    entries = table.entries
    if via_bytes:
        payloads, entries = canonical_decode(canonical_encode(
            [payloads, entries]))
    decoded, raised = _decode_tree(payloads, entries, forward)
    assert raised == [None] * len(proofs)
    for original, proof in zip(proofs, decoded):
        assert canonical_encode(proof.to_dict()) \
            == canonical_encode(original.to_dict())


def _entered(proof, forward):
    """The nodes a link of ``proof`` led to when it grew that way, but
    its open end (a link may not loop on one node)."""
    if forward:
        return [d.obj for d in proof.chain[:-1]]
    return [d.subject for d in proof.chain[1:]]


def _revisitable(proofs, forward):
    """The grown records whose parent has a node to lead back to."""
    payloads = wire.proofs_to_wire_session(proofs, set(), wire.Table())
    return [k for k, payload in enumerate(payloads)
            if "parent" in payload and _entered(proofs[k].parent, forward)]


REVISIT_CLOSURES = [(proofs, forward) for proofs, forward in CLOSURES
                    if _revisitable(proofs, forward)]


@st.composite
def mutated_trees(draw):
    """(payloads, table, forward, index): a tree answer and its table's
    entries, whose grown record ``index`` got one ``parent``
    mutation."""
    kind = draw(st.sampled_from(["forward-ref", "out-of-range", "type",
                                 "multi-link", "unlinked", "revisit",
                                 "too-deep"]))
    proofs, forward = draw(st.sampled_from(
        {"too-deep": DEEP_CLOSURES, "revisit": REVISIT_CLOSURES}.get(
            kind, CLOSURES)))
    table = wire.Table()
    payloads = wire.proofs_to_wire_session(proofs, set(), table)
    if kind == "too-deep":
        # The record the home had to ship in full, sent grown instead.
        parent, index = draw(st.sampled_from(_past_the_depth(proofs)))
        link = proofs[index].grown_link()
        payloads[index] = {"parent": parent,
                           "chain": [link.to_dict(table)]}
        return payloads, table.entries, forward, index
    grown = _revisitable(proofs, forward) if kind == "revisit" \
        else [k for k, p in enumerate(payloads) if "parent" in p]
    index = draw(st.sampled_from(grown))
    record = payloads[index] = dict(payloads[index])
    if kind == "revisit":
        # A link from the parent's open end back to a node a link of
        # the parent led to.
        parent = proofs[record["parent"]]
        back = draw(st.sampled_from(_entered(parent, forward)))
        link = issue(ROGUE, parent.obj, back) if forward \
            else issue(ROGUE, back, parent.subject)
        record["chain"] = [link.to_dict(table)]
        record.pop("supports", None)
    elif kind == "forward-ref":
        record["parent"] = draw(st.integers(index, len(payloads) - 1))
    elif kind == "out-of-range":
        record["parent"] = draw(st.one_of(st.integers(max_value=-1),
                                          st.integers(min_value=len(payloads))))
    elif kind == "type":
        record["parent"] = draw(st.sampled_from(
            [True, False, 0.0, "0", None, [0], {"i": 0}, b"\0"]))
    elif kind == "multi-link":
        donor = proofs[draw(st.integers(0, len(proofs) - 1))]
        extra = [d.to_dict(table) for d in donor.chain]
        record["chain"] = record["chain"] + extra if draw(st.booleans()) \
            else extra + record["chain"]
    else:
        link = proofs[index].grown_link()
        unlinked = [k for k in range(index)
                    if (proofs[k].obj != link.subject if forward
                        else proofs[k].subject != link.obj)]
        if not unlinked:
            record["parent"] = index      # a self reference instead
        else:
            record["parent"] = draw(st.sampled_from(unlinked))
    return payloads, table.entries, forward, index


@settings(deadline=None)
@given(mutated_trees(), st.booleans())
def test_a_mutated_parent_raises_only_the_typed_error(mutation, via_bytes):
    """A parent that is later, itself, out of range, not an int, given
    with more than one link, not linked to the new link, revisited by
    it, or already MAX_GROWN_DEPTH links long: that record is refused
    (a DRBACError, nothing else), and so is every record grown from
    it; the records before it are untouched."""
    payloads, table, forward, index = mutation
    if via_bytes:
        payloads, table = canonical_decode(canonical_encode(
            [payloads, table]))
    decoded, raised = _decode_tree(payloads, table, forward)
    assert isinstance(raised[index], DRBACError)
    assert raised[:index] == [None] * index


def test_a_looping_answer_decodes_to_bounded_chains():
    """Two links A -> B and B -> A and a long run of records, each grown
    from the one before by the other link: decoded in full, the run
    would hold chains quadratic in its length. The second record may
    close the cycle on A; the third leads to B again, so it and
    everything grown from it is dropped."""
    a, b = Role(ROGUE.entity, "a"), Role(ROGUE.entity, "b")
    there, back = issue(ROGUE, a, b), issue(ROGUE, b, a)
    known = {there.id: there, back.id: back}
    table = wire.Table()
    payloads = [{"chain": [there.to_dict(table)]}]
    for k in range(1, 200):
        link = back if k % 2 else there
        payloads.append({"parent": k - 1,
                         "chain": [bytes.fromhex(link.id)]})
    entries = wire.table_from_wire(table.entries)
    decoded = []
    for payload in payloads:
        try:
            decoded.append(wire.proof_from_wire_session(
                payload, entries, known.__getitem__, earlier=decoded))
        except DRBACError:
            decoded.append(None)
    assert decoded[1].chain == (there, back)
    assert decoded[2:] == [None] * 198


# -- an answer's ``subs`` ----------------------------------------------------


@pytest.mark.parametrize("subs", [
    None, 5, _A_REF, {}, {_A_REF.hex(): "wallet.d1.example/sub/0"},
    [_A_REF.hex()], [_A_REF[:31]], [_A_REF + b"\0"], [[_A_REF]],
    [_A_REF, None]],
    ids=["missing", "int", "bare-ref", "empty-map", "token-map", "str-id",
         "ref-31", "ref-33", "nested", "ref-then-none"])
def test_misshapen_subs_raise_the_typed_error(subs):
    with pytest.raises(DiscoveryError):
        wire.ids_from_wire(subs)


@settings(deadline=None)
@given(st.lists(st.binary(min_size=32, max_size=32)), st.booleans())
def test_subs_round_trip(raw, via_bytes):
    ids = [entry.hex() for entry in raw]
    data = wire.ids_to_wire(ids)
    if via_bytes:
        data = canonical_decode(canonical_encode(data))
    assert wire.ids_from_wire(data) == ids


RING = topology.make_ring_coalition(3, seed=53)


def test_an_answer_with_misshapen_subs_is_dropped_whole():
    """Every answer arrives with its ``subs`` in the retired token form:
    each is dropped before anything of it is inserted, cached or
    settled, and the search ends empty without raising. Once answers
    are well formed again the proof is found -- the homes' refs to
    what they believe the origin holds are fetched back."""
    dep = deploy_coalition(RING)
    server, engine = dep.server, dep.engine
    sink = server.gem_answer_sink

    def token_subs(src, params):
        sink(src, dict(params, subs={
            entry.hex(): f"{src}/sub/0" for entry in params["subs"]}))

    try:
        server.gem_answer_sink = token_subs
        assert dep.authorize() is None
        info = engine.gem_info()
        assert info["answers_dropped"] == info["evals_issued"] > 0
        assert info["answers_received"] == 0
        assert len(server.cache) == len(engine.result_cache) == 0
        server.gem_answer_sink = sink
        assert dep.authorize() is not None
        assert engine.gem_info()["refs_refetched"] > 0
    finally:
        dep.close()


def test_an_answer_with_a_flipped_signature_grants_nothing():
    """A rogue on the path flips one bit of the signature of every
    credential the ring's homes ship in full. Each answer still routes
    the next goal, but the commit refuses what it carries: no grant,
    nothing unverifiable in the wallet or the result cache, and every
    holding the homes set up for it released. Once answers are honest
    again the proof is found, shipped in full once more."""
    dep = deploy_coalition(RING)
    server, engine = dep.server, dep.engine
    sink = server.gem_answer_sink

    def flip(record):
        record = dict(record, chain=[
            _signature_flipped(entry) if isinstance(entry, dict) else entry
            for entry in record["chain"]])
        if "supports" in record:
            record["supports"] = {key: [flip(p) for p in proofs]
                                  for key, proofs
                                  in record["supports"].items()}
        return record

    def rogue(src, params):
        sink(src, dict(params, answers=[flip(record) for record
                                        in params["answers"]]))

    stats = DiscoveryStats()
    try:
        server.gem_answer_sink = rogue
        assert dep.authorize(stats=stats) is None
        assert stats.delegations_rejected > 0
        assert stats.delegations_cached == 0
        assert stats.rounds > 1             # the tags still routed
        assert len(server.cache) == len(engine.result_cache) == 0
        assert all(home.holdings_count() == 0
                   for home in dep.homes.values())
        server.gem_answer_sink = sink
        assert dep.authorize() is not None
        assert engine.gem_info()["refs_from_holdings"] == 0
    finally:
        dep.close()


@pytest.mark.parametrize("mutate", [
    lambda table: {"entries": table},
    lambda table: [5, *table[1:]],
    lambda table: [*table, *table[:1]] or [ROGUE.entity.to_dict()] * 2,
    lambda table: [*table, ROGUE.entity.to_dict()],
], ids=["not-a-list", "not-an-entry", "repeated", "unused"])
def test_an_answer_with_a_malformed_table_is_dropped_whole(mutate):
    """Every push arrives with its table broken: each is dropped before
    anything of it is inserted, cached or held, counted in
    ``answers_dropped``, and the holdings its home set up for it are
    released. Once the tables are whole again the proof is found."""
    dep = deploy_coalition(RING)
    server, engine = dep.server, dep.engine
    sink = server.gem_answer_sink

    def broken(src, params):
        sink(src, dict(params, table=mutate(list(params["table"]))))

    try:
        server.gem_answer_sink = broken
        assert dep.authorize() is None
        info = engine.gem_info()
        assert info["answers_dropped"] == info["evals_issued"] > 0
        assert info["answers_received"] == 0
        assert len(server.cache) == len(engine.result_cache) == 0
        assert all(home.holdings_count() == 0
                   for home in dep.homes.values())
        server.gem_answer_sink = sink
        assert dep.authorize() is not None
    finally:
        dep.close()
