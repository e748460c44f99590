"""A Schnorr key is checked on construction and decompressed on first
verify.

``PublicKey`` refuses bad key bytes at once, but proves ``x`` is on
secp256k1 by the Jacobi symbol of ``x^3 + 7`` (``ec.check_encoding``)
instead of computing ``y``: most keys a wallet admits name a subject
and never verify anything. These properties pin that the check refuses
exactly what ``SchnorrPublicKey.decode`` refuses, with the same message,
and that the square root moved rather than multiplied.
"""

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.crypto import ec, keys
from repro.crypto.schnorr import SchnorrPublicKey

ALGORITHM = "schnorr-secp256k1"


def _x_bytes(x: int, prefix: int = 2) -> bytes:
    return bytes([prefix]) + x.to_bytes(32, "big")


def _off_curve_x() -> int:
    """The smallest x with no point above it."""
    return next(x for x in range(1, 100)
                if ec._jacobi((pow(x, 3, ec.P) + ec.B) % ec.P) < 0)


def _fresh_encodings(count: int, seed: int):
    """Valid compressed keys that no decode has seen (and interned)."""
    rng = random.Random(seed)
    return [ec.scalar_mult(rng.randrange(1, ec.N)).encode()
            for _ in range(count)]


def _corpus():
    """(name, data): valid keys, each malformed shape, ``x >= P``, an
    off-curve ``x``, infinity, and bytearray / memoryview inputs."""
    valid = _fresh_encodings(4, seed=37)
    generator = ec.GENERATOR.encode()
    off_curve = _x_bytes(_off_curve_x())
    return [
        ("valid-0", valid[0]),
        ("valid-1", valid[1]),
        ("valid-odd-y", b"\x03" + valid[2][1:]),
        ("generator", generator),
        ("valid-bytearray", bytearray(valid[0])),
        ("valid-memoryview", memoryview(valid[1])),
        ("off-curve-bytearray", bytearray(off_curve)),
        ("off-curve-memoryview", memoryview(b"\x03" + off_curve[1:])),
        ("empty", b""),
        ("prefix-only", b"\x02"),
        ("truncated", valid[2][:-1]),
        ("trailing-byte", valid[2] + b"\x00"),
        ("two-points", valid[2] + valid[3]),
        ("uncompressed-prefix", b"\x04" + valid[3][1:]),
        ("unknown-prefix", b"\x05" + valid[3][1:]),
        ("zero-prefix-33", bytes(33)),
        ("infinity", b"\x00"),
        ("infinity-trailing", b"\x00\x00"),
        ("infinity-then-point", b"\x00" + generator),
        ("x-equals-p", _x_bytes(ec.P)),
        ("x-above-p", _x_bytes(ec.P + 1, prefix=3)),
        ("x-max", _x_bytes(2 ** 256 - 1)),
        ("x-off-curve", off_curve),
        ("x-zero", _x_bytes(0)),
        ("str", "02" * 33),
        ("none", None),
    ]


def _decode_verdict(data):
    """What ``SchnorrPublicKey.decode`` says: None, or its message."""
    try:
        SchnorrPublicKey.decode(data)
    except ValueError as exc:
        return str(exc)
    return None


def _construct_verdict(data):
    """What ``PublicKey`` says: None, or its message less the prefix."""
    try:
        keys.PublicKey(ALGORITHM, data)
    except keys.SignatureError as exc:
        message = str(exc)
        assert message.startswith("bad schnorr key: "), message
        return message[len("bad schnorr key: "):]
    return None


def _agree(data) -> None:
    # The construction runs first, so that a valid key is not yet in
    # the decoded-point pool and the check does the work.
    constructed = _construct_verdict(data)
    assert constructed == _decode_verdict(data), data


class TestAcceptSet:
    @pytest.mark.parametrize("name,data", _corpus(),
                             ids=[name for name, _data in _corpus()])
    def test_corpus(self, name, data):
        _agree(data)

    def test_corpus_covers_every_refusal(self):
        messages = {_decode_verdict(data) for _name, data in _corpus()}
        assert messages >= {
            None,
            "expected bytes, got str",
            "invalid compressed point encoding",
            "trailing bytes after compressed point",
            "trailing bytes after infinity encoding",
            "x coordinate out of range",
            "x is not on the curve",
            "public key may not be the identity point",
        }

    @given(prefix=st.sampled_from([2, 2, 3, 3, 0, 4]),
           x=st.one_of(st.integers(0, 2 ** 256 - 1),
                       st.integers(ec.P - 4, 2 ** 256 - 1)))
    @example(prefix=2, x=ec.GX)
    @example(prefix=3, x=ec.P)
    def test_drawn_33_byte_strings(self, prefix, x):
        """About half of all x have no point above them."""
        _agree(_x_bytes(x, prefix))

    def test_check_is_what_the_key_runs(self):
        """``ec.check_encoding`` and ``Point.decode`` refuse alike, and
        the check reports the infinity encoding instead of refusing it
        (the Schnorr layer refuses the identity point)."""
        for _name, data in _corpus():
            try:
                ec.Point.decode(data)
                decoded = None
            except ec.ECError as exc:
                decoded = str(exc)
            try:
                infinity = ec.check_encoding(data)
                checked = None
            except ec.ECError as exc:
                infinity, checked = None, str(exc)
            assert checked == decoded, data
            if checked is None:
                assert infinity == (bytes(data) == b"\x00")


class TestJacobiSymbol:
    @staticmethod
    def _euler(a: int) -> int:
        power = pow(a, (ec.P - 1) // 2, ec.P)
        return -1 if power == ec.P - 1 else power

    @given(st.integers(0, 3 * ec.P))
    @example(0)
    @example(1)
    @example(ec.P)
    @example(ec.P - 1)
    def test_equals_eulers_criterion(self, a):
        assert ec._jacobi(a) == self._euler(a)

    def test_decides_curve_membership(self):
        for x in range(1, 64):
            y_squared = (pow(x, 3, ec.P) + ec.B) % ec.P
            y = pow(y_squared, (ec.P + 1) // 4, ec.P)
            assert (ec._jacobi(y_squared) == 1) == \
                ((y * y) % ec.P == y_squared), x


class TestDecompressedOnFirstVerify:
    @pytest.fixture()
    def square_roots(self, monkeypatch):
        """The bytes of every ``Point.decode`` that decompresses (misses
        the point pool), from an empty pool so that no earlier test's
        decode can answer."""
        monkeypatch.setattr(ec, "_point_intern", {})
        calls = []
        real = ec.Point.decode

        def spy(data):
            if bytes(data) not in ec._point_intern:
                calls.append(bytes(data))
            return real(data)

        monkeypatch.setattr(ec.Point, "decode", staticmethod(spy))
        return calls

    def test_construction_and_generation_take_no_square_root(
            self, square_roots):
        for encoded in _fresh_encodings(3, seed=41):
            key = keys.PublicKey(ALGORITHM, encoded)
            assert "_verifier" not in vars(key)
        rng = random.Random(43)
        pairs = [keys.generate_keypair(rng=rng) for _ in range(3)]
        for pair in pairs:
            assert pair.public.verify(b"m", pair.sign(b"m"))
            # The same key arriving as bytes: the pool answers.
            again = keys.PublicKey(ALGORITHM, pair.public.key_bytes)
            assert again.verify(b"again", pair.sign(b"again"))
        assert square_roots == []

    def test_first_verify_decompresses_once(self, square_roots):
        pair = keys.generate_keypair(rng=random.Random(47))
        signature = pair.sign(b"first")
        ec._point_intern.clear()        # as in a process that never made it
        key = keys.PublicKey(ALGORITHM, pair.public.key_bytes)
        assert square_roots == []
        assert key.verify(b"first", signature)
        assert square_roots == [key.key_bytes]
        assert key.verify(b"second", pair.sign(b"second"))
        assert not key.verify(b"third", signature)
        assert keys.verify_batch([(key, b"first", signature)]) == [True]
        assert square_roots == [key.key_bytes]
