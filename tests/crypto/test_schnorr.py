import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ec
from repro.crypto.schnorr import (
    SIGNATURE_SIZE,
    SchnorrError,
    SchnorrPrivateKey,
    SchnorrPublicKey,
    generate_schnorr_keypair,
)

from .reference_verify import (
    mirrored_signature,
    off_curve_x,
    reference_verify,
)


@pytest.fixture(scope="module")
def key():
    return generate_schnorr_keypair(rng=random.Random(21))


class TestKeys:
    def test_scalar_in_range(self, key):
        assert 1 <= key.d < ec.N

    def test_out_of_range_scalar_rejected(self):
        with pytest.raises(SchnorrError):
            SchnorrPrivateKey(0)
        with pytest.raises(SchnorrError):
            SchnorrPrivateKey(ec.N)

    def test_public_key_round_trip(self, key):
        encoded = key.public_key.encode()
        assert SchnorrPublicKey.decode(encoded) == key.public_key

    def test_identity_public_key_rejected(self):
        with pytest.raises(SchnorrError):
            SchnorrPublicKey(ec.INFINITY)

    def test_seeded_reproducible(self):
        a = generate_schnorr_keypair(rng=random.Random(9))
        b = generate_schnorr_keypair(rng=random.Random(9))
        assert a.d == b.d


class TestSignVerify:
    def test_round_trip(self, key):
        sig = key.sign(b"hello")
        assert len(sig) == SIGNATURE_SIZE
        assert key.public_key.verify(b"hello", sig)

    def test_deterministic(self, key):
        assert key.sign(b"m") == key.sign(b"m")

    def test_distinct_messages_distinct_nonces(self, key):
        # Leading 33 bytes encode R = kG; equal R across messages would
        # leak the key.
        assert key.sign(b"m1")[:33] != key.sign(b"m2")[:33]

    def test_wrong_message_rejected(self, key):
        assert not key.public_key.verify(b"other", key.sign(b"hello"))

    def test_wrong_key_rejected(self, key):
        other = generate_schnorr_keypair(rng=random.Random(22))
        assert not other.public_key.verify(b"hello", key.sign(b"hello"))

    def test_truncated_rejected(self, key):
        sig = key.sign(b"hello")
        assert not key.public_key.verify(b"hello", sig[:-1])

    def test_empty_signature_rejected(self, key):
        assert not key.public_key.verify(b"hello", b"")

    def test_garbage_r_point_rejected(self, key):
        sig = bytearray(key.sign(b"hello"))
        sig[0] = 0x07  # invalid SEC1 prefix
        assert not key.public_key.verify(b"hello", bytes(sig))

    def test_zero_s_rejected(self, key):
        sig = key.sign(b"hello")
        forged = sig[:33] + (0).to_bytes(32, "big")
        assert not key.public_key.verify(b"hello", forged)

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=10, deadline=None)
    def test_sign_verify_property(self, key, message):
        assert key.public_key.verify(message, key.sign(message))

    @given(st.integers(min_value=0, max_value=SIGNATURE_SIZE - 1))
    @settings(max_examples=20, deadline=None)
    def test_any_bitflip_rejected(self, key, index):
        sig = bytearray(key.sign(b"fixed message"))
        sig[index] ^= 0x01
        assert not key.public_key.verify(b"fixed message", bytes(sig))


def _mutate(kind: str, signature: bytes, filler: int) -> bytes:
    """One way to spoil a valid signature; ``filler`` picks the variant."""
    r, s = signature[:33], signature[33:]
    if kind == "parity":
        return bytes([r[0] ^ 1]) + r[1:] + s
    if kind == "prefix":
        return bytes([(0, 1, 4, 5, 255)[filler % 5]]) + r[1:] + s
    if kind == "x_ge_p":
        x = ec.P + filler % (2**256 - ec.P)
        return r[:1] + x.to_bytes(32, "big") + s
    if kind == "x_off_curve":
        return r[:1] + off_curve_x().to_bytes(32, "big") + s
    if kind == "s_zero":
        return r + bytes(32)
    if kind == "s_ge_n":
        return r + (ec.N + filler % (2**256 - ec.N)).to_bytes(32, "big")
    if kind == "short":
        return signature[:-1]
    if kind == "long":
        return signature + bytes([filler % 256])
    return signature


SPOILED_BYTES = ("parity", "prefix", "x_ge_p", "x_off_curve", "s_zero",
                 "s_ge_n", "short", "long")
MUTATIONS = ("valid",) + SPOILED_BYTES + ("wrong_key", "wrong_message")


class TestAcceptSetIdentity:
    """The check that never decompresses R accepts exactly what the
    decode-and-compare reference does."""

    @given(kind=st.sampled_from(MUTATIONS),
           message=st.binary(min_size=0, max_size=40),
           filler=st.integers(min_value=0, max_value=2**64),
           container=st.sampled_from((bytes, bytearray, memoryview)))
    @settings(max_examples=80, deadline=None)
    def test_verdict_equals_reference(self, key, kind, message, filler,
                                      container):
        signature = container(_mutate(kind, key.sign(message), filler))
        public = key.public_key
        if kind == "wrong_key":
            public = generate_schnorr_keypair(
                rng=random.Random(filler)).public_key
        if kind == "wrong_message":
            message += b"!"
        verdict = public.verify(message, signature)
        assert verdict == reference_verify(public.point, message,
                                           signature)
        assert verdict == (kind == "valid")

    def test_every_mutation_is_exercised(self, key):
        """Hypothesis samples; this walks each case once, so none of
        the listed rejections can silently go untested."""
        signature = key.sign(b"walk")
        for kind in SPOILED_BYTES:
            spoiled = _mutate(kind, signature, filler=7)
            assert spoiled != signature
            assert not key.public_key.verify(b"walk", spoiled)
            assert not reference_verify(key.public_key.point, b"walk",
                                        spoiled)

    def test_negated_nonce_rejected(self, key):
        """The parity byte is compared, not just x. Flipping it on a
        finished signature also changes the challenge, so this one is
        made by a cheating signer (``mirrored_signature``): the sum
        lands on the committed x with the other y."""
        message = b"mirror"
        signature = mirrored_signature(key.d, message)
        assert not reference_verify(key.public_key.point, message,
                                    signature)
        assert not key.public_key.verify(message, signature)

    def test_scalar_alias_rejected(self, key, monkeypatch):
        """s and s + N give the same ``s*G``; only the range check tells
        them apart. A real s is never small enough for s + N to fit 32
        bytes, so the challenge is pinned to make one."""
        from repro.crypto import schnorr

        from . import reference_verify as reference

        e, s = 0xE, 0x5
        monkeypatch.setattr(schnorr, "_challenge", lambda *args: e)
        monkeypatch.setattr(reference, "challenge", lambda *args: e)
        nonce = ec.double_scalar_mult(s, ec.GENERATOR, ec.N - e,
                                      key.public_key.point).encode()
        honest = nonce + s.to_bytes(32, "big")
        alias = nonce + (s + ec.N).to_bytes(32, "big")
        for signature, verdict in ((honest, True), (alias, False)):
            assert key.public_key.verify(b"m", signature) is verdict
            assert reference.reference_verify(
                key.public_key.point, b"m", signature) is verdict

    def test_single_check_never_decompresses_r(self, key, monkeypatch):
        """No modular square root on a never-seen signature: the nonce
        bytes are compared, not decoded."""
        signature = key.sign(b"never seen before")
        decoded = []
        real_decode = ec.Point.decode

        def spy(data):
            decoded.append(bytes(data))
            return real_decode(data)

        monkeypatch.setattr(ec.Point, "decode", staticmethod(spy))
        assert key.public_key.verify(b"never seen before", signature)
        assert decoded == []


class TestZeroSRetry:
    """The s == 0 branch in sign() retries over the SAME message.

    Historically sign() recursed with ``message + b"\\x00"``, producing
    a signature that never verified for the message actually passed in.
    The branch is astronomically rare, so it is forced here by stubbing
    the nonce derivation: the first attempt returns a k0 for which the
    (also stubbed, but otherwise faithful) challenge yields exactly
    s = k0 + e*d = 0 mod n.
    """

    def test_forced_zero_s_retries_same_message(self, monkeypatch):
        from repro.crypto import schnorr

        key = SchnorrPrivateKey(random.Random(77).randrange(1, ec.N))
        message = b"force the zero-s branch"
        k0 = 0x1234567890ABCDEF1234567890ABCDEF
        r0 = ec.scalar_mult(k0)
        # e0 makes s = k0 + e0*d == 0 (mod n) on the first attempt.
        e0 = (-k0 * pow(key.d, -1, ec.N)) % ec.N
        assert (k0 + e0 * key.d) % ec.N == 0

        real_nonce = schnorr._deterministic_nonce
        real_challenge = schnorr._challenge
        nonce_calls = []

        def fake_nonce(d, msg, start=0):
            nonce_calls.append((msg, start))
            if start == 0:
                return k0
            return real_nonce(d, msg, start=start)

        def fake_challenge(r_bytes, public_point, msg):
            if r_bytes == r0.encode():
                return e0
            return real_challenge(r_bytes, public_point, msg)

        monkeypatch.setattr(schnorr, "_deterministic_nonce", fake_nonce)
        monkeypatch.setattr(schnorr, "_challenge", fake_challenge)
        signature = key.sign(message)

        # The retry re-derived a nonce for the SAME message with an
        # advanced counter -- never a mutated message.
        assert nonce_calls == [(message, 0), (message, 1)]
        # And the result verifies for the original message under the
        # real, unstubbed scheme (the second attempt's R differs from
        # r0, so fake_challenge delegated to the real one).
        monkeypatch.setattr(schnorr, "_challenge", real_challenge)
        monkeypatch.setattr(schnorr, "_deterministic_nonce", real_nonce)
        assert signature[:33] != r0.encode()
        assert key.public_key.verify(message, signature)

    def test_nonce_start_offsets_historical_derivation(self):
        from repro.crypto.schnorr import _deterministic_nonce

        d = 0xABCDEF
        msg = b"nonce schedule"
        assert _deterministic_nonce(d, msg) == \
            _deterministic_nonce(d, msg, start=0)
        assert _deterministic_nonce(d, msg, start=1) != \
            _deterministic_nonce(d, msg, start=0)
