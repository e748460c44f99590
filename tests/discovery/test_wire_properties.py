"""Property-based guarantees for the discovery wire format.

Everything the discovery pipeline puts on the simulated network must
(1) round-trip exactly through the ``wire`` encoders, (2) survive
``canonical_encode`` -- the transport rejects anything else, and its
byte counters only mean something if re-encoding is deterministic --
and (3) under the session (credential-dedup) encoding, ship each
delegation at most once per channel while decoding back byte-identical
proofs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AttributeRef, Constraint, Role, create_principal
from repro.core.delegation import issue
from repro.core.proof import Proof
from repro.crypto.encoding import (
    EncodingError,
    canonical_decode,
    canonical_encode,
)
from repro.discovery import wire

# Key generation is the expensive part of example generation; entities
# are immutable, so a small module-level pool is safe to share across
# examples.
PRINCIPALS = [create_principal(f"WP{i}") for i in range(4)]

ROLE_NAMES = ("member", "access", "admin")


@st.composite
def delegation_chains(draw):
    """A 1-3 link chain of signed, self-certified delegations (each link
    issued by its object role's namespace owner), with sprinkled
    expiries and ticks -- enough shape variety to exercise every wire
    field that matters for round-tripping."""
    length = draw(st.integers(min_value=1, max_value=3))
    subject = PRINCIPALS[draw(st.integers(0, len(PRINCIPALS) - 1))].entity
    chain = []
    node = subject
    for _ in range(length):
        issuer = PRINCIPALS[draw(st.integers(0, len(PRINCIPALS) - 1))]
        role = Role(issuer.entity, draw(st.sampled_from(ROLE_NAMES)),
                    ticks=draw(st.integers(0, 1)))
        if role == node:    # a link may not delegate a role to itself
            role = Role(issuer.entity, role.name, ticks=role.ticks + 1)
        expiry = draw(st.one_of(
            st.none(), st.floats(min_value=1.0, max_value=1e6)))
        chain.append(issue(issuer, node, role, expiry=expiry))
        node = role
    return chain


@st.composite
def proofs(draw):
    chain = draw(delegation_chains())
    proof = Proof.single(chain[0])
    for delegation in chain[1:]:
        proof = proof.extend(delegation)
    return proof


@st.composite
def constraint_sets(draw):
    entity = PRINCIPALS[draw(st.integers(0, len(PRINCIPALS) - 1))].entity
    names = draw(st.lists(st.sampled_from(("BW", "storage", "hours")),
                          unique=True, max_size=3))
    return tuple(
        Constraint(AttributeRef(entity, name),
                   draw(st.floats(min_value=0.0, max_value=1e6)))
        for name in names
    )


class TestCanonicalRoundTrip:
    @given(proofs())
    @settings(max_examples=25, deadline=None)
    def test_proof_round_trip_and_canonical(self, proof):
        data = wire.proof_to_wire(proof)
        encoded = canonical_encode(data)
        # Deterministic: encoding the decoded payload reproduces the
        # exact bytes (what the transport's byte counters rely on).
        assert canonical_encode(canonical_decode(encoded)) == encoded
        decoded = wire.proof_from_wire(canonical_decode(encoded))
        assert decoded == proof
        assert canonical_encode(decoded.to_dict()) == encoded

    @given(delegation_chains())
    @settings(max_examples=25, deadline=None)
    def test_delegation_round_trip(self, chain):
        for delegation in chain:
            data = canonical_decode(canonical_encode(
                wire.delegation_to_wire(delegation)))
            restored = wire.delegation_from_wire(data)
            assert restored.id == delegation.id
            assert restored.signing_bytes() == delegation.signing_bytes()
            assert restored.verify_signature()

    @given(constraint_sets())
    @settings(max_examples=25, deadline=None)
    def test_constraints_round_trip(self, constraints):
        data = canonical_decode(canonical_encode(
            wire.constraints_to_wire(constraints)))
        assert wire.constraints_from_wire(data) == constraints

    @given(constraint_sets())
    @settings(max_examples=15, deadline=None)
    def test_bases_round_trip(self, constraints):
        bases = {c.attribute: c.minimum for c in constraints}
        data = canonical_decode(canonical_encode(
            wire.bases_to_wire(bases)))
        assert wire.bases_from_wire(data) == bases


class TestNonCanonicalRejected:
    @given(proofs())
    @settings(max_examples=10, deadline=None)
    def test_trailing_bytes_rejected(self, proof):
        encoded = canonical_encode(wire.proof_to_wire(proof))
        with pytest.raises(EncodingError):
            canonical_decode(encoded + b"\x00")

    @given(proofs())
    @settings(max_examples=10, deadline=None)
    def test_truncation_rejected(self, proof):
        encoded = canonical_encode(wire.proof_to_wire(proof))
        with pytest.raises(EncodingError):
            canonical_decode(encoded[:-1])

    def test_unsorted_map_keys_rejected(self):
        # Two single-key canonical maps spliced into one two-key map
        # with keys out of order: a structurally plausible payload that
        # only a non-canonical encoder would produce.
        ordered = canonical_encode({"a": 1, "b": 2})
        a_only = canonical_encode({"a": 1})
        b_only = canonical_encode({"b": 2})
        # Map header (tag + count=2) followed by the two entries in the
        # wrong order.
        swapped = ordered[:5] + b_only[5:] + a_only[5:]
        assert len(swapped) == len(ordered)
        with pytest.raises(EncodingError):
            canonical_decode(swapped)


def _proof_refs(payload):
    """Every 32-byte id placeholder in a session-encoded proof, as hex."""
    stack = [payload]
    while stack:
        node = stack.pop()
        for entry in node["chain"]:
            if isinstance(entry, bytes):
                yield entry.hex()
        for proofs_ in node.get("supports", {}).values():
            stack.extend(proofs_)


class TestSessionEncoding:
    @given(st.lists(proofs(), min_size=1, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_with_dedup(self, proof_list):
        sent_ids, table = set(), wire.Table()
        payloads = [wire.proof_to_wire_session(p, sent_ids, table)
                    for p in proof_list]
        entries = wire.table_from_wire(table.entries)
        # Each delegation crosses the channel in full at most once...
        shipped = []
        for payload in payloads:
            shipped.extend(d.id for d in
                           wire.proof_full_delegations(payload, entries))
        assert len(shipped) == len(set(shipped))
        # ...and every ref points at something already shipped.
        seen = set()
        for payload in payloads:
            refs = set(_proof_refs(payload))
            full = {d.id for d in
                    wire.proof_full_delegations(payload, entries)}
            assert refs <= (seen | full)
            seen |= full
        # Receiver side: decode against a received-store fed by record().
        received = {}
        decoded = [
            wire.proof_from_wire_session(
                payload, entries, received.__getitem__,
                lambda d: received.__setitem__(d.id, d))
            for payload in payloads
        ]
        for original, restored in zip(proof_list, decoded):
            assert restored == original
            assert canonical_encode(restored.to_dict()) == \
                canonical_encode(original.to_dict())

    @given(proofs())
    @settings(max_examples=15, deadline=None)
    def test_session_payload_is_canonical(self, proof):
        sent_ids, table = set(), wire.Table()
        # Encode twice: the second payload is all refs, still canonical.
        wire.proof_to_wire_session(proof, sent_ids, table)
        second = wire.proof_to_wire_session(proof, sent_ids, table)
        encoded = canonical_encode(second)
        assert canonical_encode(canonical_decode(encoded)) == encoded
        assert not list(wire.proof_full_delegations(
            second, wire.table_from_wire(table.entries)))

    @given(proofs())
    @settings(max_examples=10, deadline=None)
    def test_unresolvable_ref_raises(self, proof):
        sent_ids = {d.id for d in proof.chain}   # pretend already sent
        payload = wire.proof_to_wire_session(proof, sent_ids, wire.Table())

        def resolve(_delegation_id):
            raise KeyError(_delegation_id)

        with pytest.raises(KeyError):
            wire.proof_from_wire_session(payload, wire.Entries(), resolve)
