"""Encoded once: cached wire bytes and the split decode, against the
seed codec.

``Delegation.wire_bytes()`` and ``Proof.wire_bytes()`` are what a
service shard splices into its answers, so they must be, byte for
byte, the reference codec's encoding of ``to_dict()`` -- which itself
stays a plain dict.  ``canonical_split`` followed by a decode of each
span must accept and reject exactly what one full decode does, on
request frames and on every mutation of them.  Example budgets follow
the Hypothesis profile (``--hypothesis-profile=long`` in CI).
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core import Delegation, Proof
from repro.crypto.encoding import (
    Canonical, EncodingError, canonical_decode, canonical_encode,
    canonical_split,
)

from ..crypto.reference_codec import reference_encode
from .test_wire_properties import delegations


def _plain(value):
    """True iff ``value`` holds only what the codec decodes to (no
    ``Canonical``, no objects)."""
    if isinstance(value, dict):
        return all(isinstance(key, str) and _plain(item)
                   for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return all(_plain(item) for item in value)
    return not isinstance(value, Canonical) and (
        value is None or isinstance(value, (bool, int, float, str, bytes)))


@st.composite
def proofs(draw, org, alice, bob):
    """A one-link proof over a drawn delegation, with drawn support
    proofs (themselves possibly supported) -- wire shape only; nothing
    here has to validate."""
    delegation = draw(delegations(org, alice, bob))
    supports = []
    for _ in range(draw(st.integers(0, 2))):
        inner = draw(delegations(org, alice, bob))
        nested = [Proof.single(draw(delegations(org, alice, bob)))] \
            if draw(st.booleans()) else []
        supports.append(Proof.single(inner, supports=nested))
    return Proof.single(delegation, supports=supports)


def _split_then_decode(data):
    return {key: canonical_decode(span)
            for key, span in canonical_split(data).items()}


def _outcome(decode, data):
    try:
        return decode(data)
    except EncodingError:
        return EncodingError


@st.composite
def request_frames(draw, org, alice, bob):
    request = {"op": draw(st.sampled_from(["authorize", "publish"])),
               "ns": draw(st.sampled_from(["org.a", "org.b"])),
               "credential": draw(delegations(org, alice, bob)).to_dict()}
    if draw(st.booleans()):
        request["id"] = draw(st.integers(-2**40, 2**40))
    return canonical_encode(request)


@st.composite
def mutations(draw, frame):
    """``frame`` truncated, spliced, or with a byte flipped, inserted or
    dropped -- type bytes and length fields included."""
    at = draw(st.integers(0, len(frame) - 1))
    kind = draw(st.sampled_from(["flip", "insert", "drop", "truncate",
                                 "length"]))
    if kind == "flip":
        return frame[:at] + bytes((frame[at] ^ draw(st.integers(1, 255)),)) \
            + frame[at + 1:]
    if kind == "insert":
        return frame[:at] + bytes((draw(st.integers(0, 255)),)) + frame[at:]
    if kind == "drop":
        return frame[:at] + frame[at + 1:]
    if kind == "truncate":
        return frame[:at]
    # Overwrite four bytes as a u32: an inflated or shrunk length/count.
    return frame[:at] + draw(st.binary(min_size=4, max_size=4)) \
        + frame[at + 4:]


class TestCachedWireBytes:
    @given(st.data())
    def test_delegation_wire_bytes_are_the_reference_encoding(
            self, org, alice, bob, data):
        delegation = data.draw(delegations(org, alice, bob))
        wire = delegation.to_dict()
        assert _plain(wire)
        assert delegation.wire_bytes() == reference_encode(wire) \
            == canonical_encode(wire)
        assert delegation.wire_bytes() is delegation.wire_bytes()
        assert Delegation.from_dict(
            canonical_decode(delegation.wire_bytes())) == delegation

    @given(st.data())
    def test_proof_wire_bytes_are_the_reference_encoding(
            self, org, alice, bob, data):
        proof = data.draw(proofs(org, alice, bob))
        wire = proof.to_dict()
        assert _plain(wire)
        assert proof.wire_bytes() == reference_encode(wire) \
            == canonical_encode(wire)
        assert proof.wire_bytes() is proof.wire_bytes()
        assert Proof.from_dict(canonical_decode(proof.wire_bytes())) == proof

    @given(st.integers(min_value=0, max_value=1000))
    def test_searched_proofs_splice_their_links(self, seed):
        from repro.graph.search import direct_query
        from repro.workloads.topology import make_random_dag
        workload = make_random_dag(5, 8, seed=seed)
        proof = direct_query(workload.graph(), workload.subject,
                             workload.obj,
                             support_provider=workload.support_provider())
        if proof is None:
            return
        assert proof.wire_bytes() == reference_encode(proof.to_dict())
        assert _plain(proof.to_dict())


class TestSplitThenDecode:
    @given(st.data())
    def test_equals_a_full_decode_on_request_frames(self, org, alice, bob,
                                                    data):
        frame = data.draw(request_frames(org, alice, bob))
        assert _split_then_decode(frame) == canonical_decode(frame)

    @given(st.data())
    def test_agrees_with_a_full_decode_on_mutated_frames(self, org, alice,
                                                         bob, data):
        frame = data.draw(request_frames(org, alice, bob))
        mutated = data.draw(mutations(frame))
        whole = _outcome(canonical_decode, mutated)
        if not isinstance(whole, dict):
            whole = EncodingError       # split reads maps only
        assert _outcome(_split_then_decode, mutated) == whole
