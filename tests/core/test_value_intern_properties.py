"""Encoded once, parsed once: value maps and interns against the seed
codec.

Entities, roles, subjects and discovery tags carry their canonical
bytes (``CanonicalMap``) and their decoders intern them by exact
content.  Neither may change a byte: every encoding here must be the
reference codec's encoding of a plain deep copy, a decode followed by
an encode must give the same bytes back, and an intern hit must be
what a fresh, never-interned construction is.  Interned values hold
content-derived caches only, so a signature is checked afresh under
every fresh verification memo.  Example budgets follow the Hypothesis
profile (``--hypothesis-profile=long`` in CI).
"""

import copy
import json
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    AttributeRef,
    Delegation,
    DelegationError,
    DiscoveryError,
    DiscoveryTag,
    Entity,
    Modifier,
    ObjectFlag,
    Operator,
    ParseError,
    Principal,
    Proof,
    ProofError,
    Revocation,
    Role,
    SubjectFlag,
    create_principal,
    issue,
)
from repro.core import identity, roles, tags
from repro.core.delegation import verify_signatures
from repro.core.roles import role_from_dict, subject_from_dict
from repro.crypto import schnorr, verify_cache
from repro.crypto.encoding import (
    CanonicalMap,
    canonical_decode,
    canonical_encode,
)
from repro.crypto.hashing import sha256_hex
from repro.crypto.keys import PublicKey
from repro.discovery import wire

from ..crypto.reference_codec import reference_encode

# Key generation dominates example cost; keys are immutable, so a small
# pool is shared. Nicknames are drawn per example.
PRINCIPALS = [create_principal(f"VP{index}") for index in range(3)]

_nicknames = st.text(max_size=6)
_names = st.one_of(
    st.sampled_from(["member", "access", "staff_2", "x-y"]),
    st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll")),
            min_size=1, max_size=5))
_ttls = st.one_of(st.integers(0, 10 ** 6),
                  st.floats(0.0, 1e6, allow_nan=False))


def plain(value):
    """A deep copy holding only dicts, lists and scalars."""
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


@st.composite
def entities(draw):
    key = draw(st.sampled_from(PRINCIPALS)).entity.public_key
    return Entity(public_key=key, nickname=draw(_nicknames))


@st.composite
def role_values(draw, min_ticks=0):
    ticks = draw(st.integers(min_ticks, 3))
    operator = draw(st.one_of(st.none(), st.sampled_from(list(Operator)))) \
        if ticks else None
    return Role(entity=draw(entities()), name=draw(_names), ticks=ticks,
                operator=operator)


@st.composite
def tag_values(draw):
    return DiscoveryTag(
        home=draw(st.text(min_size=1, max_size=8)),
        auth_role_name=draw(_nicknames),
        ttl=float(draw(_ttls)),
        subject_flag=draw(st.sampled_from(list(SubjectFlag))),
        object_flag=draw(st.sampled_from(list(ObjectFlag))))


@st.composite
def delegation_values(draw):
    signer = draw(st.sampled_from(PRINCIPALS))
    issuer = Principal(entity=Entity(signer.entity.public_key,
                                     draw(_nicknames)),
                       keypair=signer.keypair)
    subject = draw(st.one_of(entities(), role_values()))
    obj = draw(role_values())
    if obj == subject:
        obj = obj.with_tick()
    modifiers = []
    if draw(st.booleans()):
        op = draw(st.sampled_from(list(Operator)))
        modifiers.append(Modifier(AttributeRef(issuer.entity, "quota"), op,
                                  {Operator.SUBTRACT: 5.0,
                                   Operator.MULTIPLY: 0.5,
                                   Operator.MIN: 100.0}[op]))
    optional_tag = st.one_of(st.none(), tag_values())
    return issue(
        issuer, subject, obj, modifiers=modifiers,
        expiry=draw(st.one_of(st.none(), st.integers(1, 10 ** 6),
                              st.floats(1.0, 1e6))),
        issued_at=draw(st.one_of(st.none(), st.just(0.5))),
        subject_tag=draw(optional_tag), object_tag=draw(optional_tag),
        issuer_tag=draw(optional_tag),
        acting_as=draw(st.lists(role_values(min_ticks=1), max_size=2)),
        depth_limit=draw(st.one_of(st.none(), st.integers(0, 5))))


@st.composite
def proof_values(draw):
    supports = [Proof.single(draw(delegation_values()))
                for _ in range(draw(st.integers(0, 2)))]
    return Proof.single(draw(delegation_values()), supports=supports)


def _fresh_role(record: dict) -> Role:
    """``record``'s role, built without any decoder or intern."""
    entity = record["entity"]
    key = entity["key"]
    return Role(entity=Entity(PublicKey(key["algorithm"], key["key"]),
                              entity["nickname"]),
                name=record["name"], ticks=record["ticks"],
                operator=Operator(record["op"]) if "op" in record else None)


class TestValueMaps:
    @given(st.data())
    def test_each_map_is_the_reference_encoding_and_built_once(self, data):
        role = data.draw(role_values())
        entity = data.draw(entities())
        tag = data.draw(tag_values())
        for value, maps in ((entity, (entity.to_dict, entity.subject_map,
                                      entity.public_key.to_dict)),
                            (role, (role.to_dict, role.subject_map)),
                            (tag, (tag.to_dict,))):
            for make in maps:
                record = make()
                assert isinstance(record, dict) and record is make()
                assert canonical_encode(record) == record.encoded \
                    == reference_encode(plain(record))

    @given(st.data())
    def test_decode_then_encode_gives_the_same_bytes(self, data):
        role = data.draw(role_values())
        entity = data.draw(entities())
        tag = data.draw(tag_values())
        for value, decode in ((entity, Entity.from_dict),
                              (role, role_from_dict),
                              (tag, DiscoveryTag.from_dict)):
            encoded = canonical_encode(value.to_dict())
            for record in (canonical_decode(encoded), plain(value.to_dict()),
                           value.to_dict()):
                assert canonical_encode(decode(record).to_dict()) == encoded
        for subject in (entity, role):
            encoded = canonical_encode(subject.subject_map())
            back = subject_from_dict(canonical_decode(encoded))
            assert canonical_encode(back.subject_map()) == encoded

    @given(st.data())
    def test_an_intern_hit_is_a_fresh_construction(self, data):
        role = data.draw(role_values())
        record = plain(role.to_dict())
        first = role_from_dict(record)
        fresh = _fresh_role(record)
        for hit in (role_from_dict(plain(record)),
                    role_from_dict(canonical_decode(canonical_encode(record)))):
            assert hit is first
        for hit in (first, role_from_dict(role.to_dict())):
            assert hit == fresh
            assert hit.entity.nickname == fresh.entity.nickname
            assert canonical_encode(hit.to_dict()) \
                == canonical_encode(fresh.to_dict()) \
                == reference_encode(record)
            assert hit.node_key == fresh.node_key


class TestCertificates:
    @given(delegation_values())
    def test_delegation_bytes_are_the_reference_encoding(self, delegation):
        record = plain(delegation.to_dict())
        payload = {key: item for key, item in record.items()
                   if key != "signature"}
        assert canonical_encode(delegation.to_dict()) \
            == delegation.wire_bytes() == reference_encode(record)
        assert delegation.signing_bytes() == reference_encode(payload)
        assert delegation.id == sha256_hex(reference_encode(payload))
        for wire_form in (canonical_decode(delegation.wire_bytes()), record,
                          delegation.to_dict()):
            back = Delegation.from_dict(wire_form)
            assert back.wire_bytes() == delegation.wire_bytes()
            assert back.signing_bytes() == delegation.signing_bytes()
            assert back.id == delegation.id

    @given(proof_values())
    def test_proof_bytes_are_the_reference_encoding(self, proof):
        record = plain(proof.to_dict())
        assert proof.wire_bytes() == canonical_encode(proof.to_dict()) \
            == reference_encode(record)
        back = Proof.from_dict(canonical_decode(proof.wire_bytes()))
        assert back.wire_bytes() == proof.wire_bytes()
        assert Proof.from_dict(record).wire_bytes() == proof.wire_bytes()


class TestTypeExactInterns:
    def test_ttl_300_and_300_0_make_the_same_tag(self):
        record = {"home": "w.ttl.example", "auth_role": "A.wallet",
                  "flags": "So"}
        as_int = DiscoveryTag.from_dict(dict(record, ttl=300))
        as_float = DiscoveryTag.from_dict(dict(record, ttl=300.0))
        fresh = tags.parse_tag_fields("w.ttl.example", "A.wallet", 300.0,
                                      "So")
        assert as_int == as_float == fresh
        assert as_int.ttl.__class__ is float
        assert canonical_encode(as_int.to_dict()) \
            == canonical_encode(as_float.to_dict()) \
            == canonical_encode(fresh.to_dict())

    def test_nickname_variants_are_distinct_values(self):
        key = PRINCIPALS[0].entity.public_key.to_dict()
        decoded = [Entity.from_dict({"key": key, "nickname": nickname})
                   for nickname in ("VP0", "VP0 ", "", "vp0", "VPØ")]
        assert len({id(entity) for entity in decoded}) == 5
        assert len({canonical_encode(e.to_dict()) for e in decoded}) == 5
        for entity in decoded:
            fresh = Entity(PublicKey.from_dict(key), entity.nickname)
            assert canonical_encode(entity.to_dict()) \
                == canonical_encode(fresh.to_dict())

    @pytest.mark.parametrize("order", [(1, True), (True, 1)])
    def test_true_ticks_are_not_one(self, order):
        entity = PRINCIPALS[1].entity.to_dict()
        # Not a dict keyed by ticks: True and 1 are one key there.
        decoded = [(ticks, role_from_dict({"entity": entity,
                                           "name": "ticked", "ticks": ticks}))
                   for ticks in order]
        by_bool = {ticks is True: role for ticks, role in decoded}
        assert by_bool[True].ticks is True
        assert by_bool[False].ticks.__class__ is int
        assert by_bool[True] is not by_bool[False]
        assert canonical_encode(by_bool[True].to_dict()) \
            != canonical_encode(by_bool[False].to_dict())
        for ticks, role in decoded:
            record = {"entity": plain(entity), "name": "ticked",
                      "ticks": ticks}
            assert canonical_encode(role.to_dict()) == reference_encode(record)

    def test_oddly_typed_fields_bypass_the_intern(self):
        key = PRINCIPALS[2].entity.public_key.to_dict()
        odd = [{"key": key, "nickname": 7},
               {"key": dict(key, key=bytearray(key["key"])), "nickname": ""}]
        for record in odd:
            assert identity.entity_content_key(record) is None
            assert Entity.from_dict(record) is not Entity.from_dict(record)
        role = {"entity": PRINCIPALS[2].entity.to_dict(), "name": "odd",
                "ticks": 1, "op": Operator.MIN}
        assert role_from_dict(role) is not role_from_dict(role)
        assert role_from_dict(role) == role_from_dict(dict(role, op="<"))


class TestCanonicalMap:
    def test_every_mutator_raises(self):
        record = CanonicalMap({"name": "x", "ticks": 1})
        for mutate in (lambda m: m.__setitem__("name", "y"),
                       lambda m: m.__delitem__("name"),
                       lambda m: m.clear(),
                       lambda m: m.pop("name"),
                       lambda m: m.popitem(),
                       lambda m: m.setdefault("other", 1),
                       lambda m: m.update(name="y"),
                       lambda m: m.__ior__({"name": "y"})):
            with pytest.raises(TypeError):
                mutate(record)
        assert record == {"name": "x", "ticks": 1}
        assert record.encoded == canonical_encode({"name": "x", "ticks": 1})

    def test_copies_are_equal_plain_dicts(self):
        role = Role(PRINCIPALS[0].entity, "copied", ticks=2,
                    operator=Operator.MULTIPLY)
        record = role.to_dict()
        for copied in (pickle.loads(pickle.dumps(record)),
                       copy.deepcopy(record), copy.copy(record)):
            assert copied.__class__ is dict and copied == plain(record)
            assert canonical_encode(copied) == record.encoded
        assert copy.deepcopy(record)["entity"].__class__ is dict
        tag = DiscoveryTag.parse("<w.json.example:A.wallet:30:So>").to_dict()
        assert json.loads(json.dumps(tag)) == plain(tag)


class TestFailedDecodes:
    def test_a_failed_decode_interns_nothing(self):
        entity = PRINCIPALS[0].entity.to_dict()
        sizes = (len(roles._role_intern), len(tags._tag_intern))
        for bad in ({"entity": entity, "name": "bad name", "ticks": 0},
                    {"entity": entity, "name": "failing", "ticks": -1},
                    {"entity": entity, "name": "failing", "ticks": 1,
                     "op": "?"}):
            with pytest.raises(DelegationError):
                role_from_dict(bad)
        with pytest.raises(ParseError):
            DiscoveryTag.from_dict({"home": "w.fail.example", "flags": "zz"})
        assert (len(roles._role_intern), len(tags._tag_intern)) == sizes
        good = role_from_dict({"entity": entity, "name": "failing",
                               "ticks": 1, "op": "-"})
        assert good.ticks == 1 and good.operator is Operator.SUBTRACT
        assert DiscoveryTag.from_dict(
            {"home": "w.fail.example", "flags": "So"}).flags == "So"

    def test_a_failed_delegation_decode_leaves_the_next_one_correct(self):
        good = issue(PRINCIPALS[0], PRINCIPALS[1].entity,
                     Role(PRINCIPALS[0].entity, "after"))
        record = plain(good.to_dict())
        with pytest.raises(DelegationError):
            Delegation.from_dict(dict(record, object=dict(
                record["object"], ticks="one")))
        assert Delegation.from_dict(record).wire_bytes() == good.wire_bytes()


_DELEGATION = plain(issue(PRINCIPALS[0], PRINCIPALS[1].entity,
                          Role(PRINCIPALS[0].entity, "typed")).to_dict())
_PROOF = plain(Proof.single(Delegation.from_dict(_DELEGATION)).to_dict())


@pytest.mark.parametrize("record", [
    {"subject": [], "object": {}, "issuer": {}},
    dict(_DELEGATION, subject=None),
    dict(_DELEGATION, expiry="tomorrow"),
    dict(_DELEGATION, signature=10 ** 12),
    dict(_DELEGATION, subject_tag={"home": "w", "ttl": 10 ** 400}),
    dict(_DELEGATION, subject_tag={"home": "w", "flags": "??"}),
    dict(_DELEGATION, modifiers=[{"op": "-"}]),
    dict(_DELEGATION, acting_as=5),
    5,
], ids=["empty-shapes", "null-subject", "text-expiry", "count-signature",
        "huge-ttl", "bad-flags", "bare-modifier", "int-acting-as", "int"])
def test_delegation_decode_raises_only_delegation_error(record):
    with pytest.raises(DelegationError):
        Delegation.from_dict(record)


@pytest.mark.parametrize("record", [
    dict(_PROOF, subject=None),
    dict(_PROOF, chain=5),
    {"chain": 5},
    dict(_PROOF, chain=[{"subject": []}]),
    dict(_PROOF, supports=[]),
    dict(_PROOF, supports={"x": 5}),
    dict(_PROOF, chain=[]),
], ids=["null-subject", "int-chain", "only-chain", "bad-link",
        "list-supports", "int-support", "empty-chain"])
def test_proof_decode_raises_only_proof_error(record):
    with pytest.raises(ProofError):
        Proof.from_dict(record)


@pytest.mark.parametrize("record", [
    {"delegation": ["x"], "issuer": {}, "revoked_at": 1.0,
     "signature": b""},
    {"delegation": "x", "issuer": [], "revoked_at": 1.0, "signature": b""},
    {"delegation": "x", "issuer": PRINCIPALS[0].entity.to_dict(),
     "revoked_at": 1.0, "signature": 10 ** 12},
    {"delegation": "x"},
])
def test_revocation_decode_raises_only_delegation_error(record):
    with pytest.raises(DelegationError):
        Revocation.from_dict(record)


_MISSHAPEN_SESSION_PROOFS = [
    {"chain": 5}, 5, {"chain": [5]}, {"chain": [{"ref": ["x"]}]},
    {"chain": [], "supports": []}, {"chain": [], "supports": {"x": 5}},
]


@pytest.mark.parametrize("record", _MISSHAPEN_SESSION_PROOFS + [
    {"chain": [{"ref": "x"}]}, {"chain": [{"subject": []}]},
])
def test_a_misshapen_session_proof_is_a_typed_error(record):
    def resolve(delegation_id):
        raise DiscoveryError(f"unknown {delegation_id}")

    with pytest.raises((DiscoveryError, DelegationError, ProofError)):
        wire.proof_from_wire_session(record, wire.Entries(), resolve)


@pytest.mark.parametrize("record", _MISSHAPEN_SESSION_PROOFS)
def test_a_misshapen_session_proof_ships_nothing(record):
    with pytest.raises(DiscoveryError):
        list(wire.proof_full_delegations(record, wire.Entries()))


class TestNoTrustStateOnInterns:
    def test_each_fresh_memo_checks_the_signature_again(self, monkeypatch):
        """Two decodes of one delegation share interned values but no
        verdict: under each fresh memo the kernel runs again, singly
        and batched."""
        issuer = PRINCIPALS[0]
        subject_tag = DiscoveryTag.parse("<w.trust.example:A.w:30:So>")
        credentials = [issue(issuer, PRINCIPALS[1].entity,
                             Role(issuer.entity, name),
                             subject_tag=subject_tag)
                       for name in ("trusted", "batched")]
        records = [canonical_decode(d.wire_bytes()) for d in credentials]
        calls = []
        single, batch = schnorr.SchnorrPublicKey.verify, \
            schnorr.verify_batch_bisect
        monkeypatch.setattr(
            schnorr.SchnorrPublicKey, "verify",
            lambda key, message, signature: calls.append("verify")
            or single(key, message, signature))
        monkeypatch.setattr(
            schnorr, "verify_batch_bisect",
            lambda items: calls.append(("batch", len(items)))
            or batch(items))
        decoded, per_memo = [], []
        for _ in range(2):
            with verify_cache.scoped():
                first = Delegation.from_dict(records[0])
                assert first.verify_signature()
                assert verify_signatures(
                    [Delegation.from_dict(record) for record in records]) \
                    == [True, True]
                decoded.append(first)
            per_memo.append(calls[:])
            calls.clear()
        # The batch skips only what this memo proved: nothing crosses.
        assert per_memo[0] == per_memo[1]
        assert per_memo[0][:2] == ["verify", ("batch", 1)]
        assert decoded[0] is not decoded[1]
        assert decoded[0].obj is decoded[1].obj
        assert decoded[0].subject_tag is decoded[1].subject_tag

    def test_interned_values_hold_content_derived_caches_only(self):
        record = canonical_decode(issue(
            PRINCIPALS[2], Role(PRINCIPALS[1].entity, "cached", ticks=1),
            Role(PRINCIPALS[2].entity, "cached"),
            object_tag=DiscoveryTag.parse("<w.cache.example::0:-O>"),
        ).wire_bytes())
        delegation = Delegation.from_dict(record)
        assert delegation.verify_signature()
        assert delegation.subject_node and delegation.object_node
        caches = {"_map", "_subject_map", "_node_key"}
        values = [(delegation.subject, {"entity", "name", "ticks",
                                        "operator"}),
                  (delegation.obj, {"entity", "name", "ticks", "operator"}),
                  (delegation.issuer, {"public_key", "nickname"}),
                  (delegation.object_tag, {"home", "auth_role_name", "ttl",
                                           "subject_flag", "object_flag"}),
                  (delegation.issuer.public_key,
                   {"algorithm", "key_bytes", "_verifier", "_fingerprint"})]
        for value, fields in values:
            assert set(vars(value)) <= fields | caches, value
