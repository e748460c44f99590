"""Known-answer tests pinning the optimized EC ladders and Schnorr.

The window tables, the GLV decomposition, and the Strauss/Shamir joint
ladders are all pure performance machinery: they must agree bit-for-bit
with published secp256k1 multiples, with the table-free reference
implementation (``scalar_mult_plain``), and with signatures produced
before the optimizations existed. These tests hold that line.
"""

import random

import pytest

from repro.crypto import ec
from repro.crypto.schnorr import SchnorrPrivateKey, SchnorrPublicKey

# Published small multiples of the secp256k1 generator (SEC2 / the
# standard reference vectors reproduced in many implementations).
GENERATOR_MULTIPLES = {
    1: (0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
        0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8),
    2: (0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5,
        0x1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A),
    3: (0xF9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9,
        0x388F7B0F632DE8140FE337E62A37F3566500A99934C2231B6CB9FD7584B8E672),
    4: (0xE493DBF1C10D80F3581E4904930B1404CC6C13900EE0758474FA94ABE8C4CD13,
        0x51ED993EA0D455B75642E2098EA51448D967AE33BFBDFE40CFE97BDC47739922),
    5: (0x2F8BDE4D1A07209355B4A7250A5C5128E88B84BDDC619AB7CBA8D569B240EFE4,
        0xD8AC222636E5E3D6D4DBA9DDA6C9C426F788271BAB0D6840DCA87D3AA6AC62D6),
    1 << 128: (
        0x8F68B9D2F63B5F339239C1AD981F162EE88C5678723EA3351B7B444C9EC4C0DA,
        0x662A9F2DBA063986DE1D90C2B6BE215DBBEA2CFE95510BFDF23CBF79501FFF82),
}


def _sum(terms):
    """``sum(scalar * point)`` through the tables-or-ladder kernel."""
    return ec._from_jacobian(ec._multi_scalar_mult_jac(terms))


class TestScalarMultKAT:
    @pytest.mark.parametrize("k", sorted(GENERATOR_MULTIPLES))
    def test_generator_multiples(self, k):
        expected = ec.Point(*GENERATOR_MULTIPLES[k])
        assert ec.scalar_mult(k) == expected          # table path
        assert ec.scalar_mult_plain(k) == expected    # reference path

    def test_order_minus_one_is_negated_generator(self):
        assert ec.scalar_mult(ec.N - 1) == ec.point_neg(ec.GENERATOR)

    def test_order_annihilates(self):
        assert ec.scalar_mult(ec.N) == ec.INFINITY
        assert ec.scalar_mult_plain(ec.N) == ec.INFINITY


class TestGLV:
    def test_lambda_acts_by_beta(self):
        # lambda * (x, y) == (beta * x, y) must hold on the generator.
        mapped = ec.Point((ec.GX * ec.GLV_BETA) % ec.P, ec.GY)
        assert ec.scalar_mult_plain(ec.GLV_LAMBDA) == mapped

    def test_split_recombines(self):
        rng = random.Random(11)
        for _ in range(50):
            k = rng.randrange(1, ec.N)
            k1, k2 = ec._glv_split(k)
            assert (k1 + k2 * ec.GLV_LAMBDA) % ec.N == k
            assert abs(k1).bit_length() <= 129
            assert abs(k2).bit_length() <= 129


class TestDoubleScalarMult:
    def test_matches_plain_composition(self):
        rng = random.Random(13)
        for _ in range(20):
            d = rng.randrange(1, ec.N)
            point = ec.scalar_mult_plain(d)  # fresh point: cold path
            a = rng.randrange(1, ec.N)
            b = rng.randrange(1, ec.N)
            expected = ec.point_add(ec.scalar_mult_plain(a, point),
                                    ec.scalar_mult_plain(b))
            assert ec.double_scalar_mult(b, ec.GENERATOR, a, point) \
                == expected

    def test_degenerate_scalars(self):
        point = ec.scalar_mult_plain(12345)
        assert ec.double_scalar_mult(0, ec.GENERATOR, 7, point) \
            == ec.scalar_mult_plain(7, point)
        assert ec.double_scalar_mult(7, ec.GENERATOR, 0, point) \
            == ec.scalar_mult_plain(7)
        assert ec.double_scalar_mult(0, ec.GENERATOR, 0, point) \
            == ec.INFINITY
        assert ec.double_scalar_mult(3, ec.INFINITY, 2, point) \
            == ec.scalar_mult_plain(2, point)

    def test_hot_points_use_tables_and_still_agree(self):
        point = ec.scalar_mult_plain(99991)
        a, b = 0xDEADBEEF, 0xFEEDFACE
        expected = ec.point_add(ec.scalar_mult_plain(a, point),
                                ec.scalar_mult_plain(b))
        # Repeat past the table-build threshold; answers must not move.
        for _ in range(ec._TABLE_BUILD_THRESHOLD + 2):
            assert ec.double_scalar_mult(b, ec.GENERATOR, a, point) \
                == expected

    def test_multi_scalar_mult_matches_composition(self):
        rng = random.Random(17)
        terms = []
        expected = ec.INFINITY
        for index in range(9):
            point = ec.scalar_mult_plain(rng.randrange(1, ec.N))
            # Duplicate every third point to exercise coefficient merge,
            # and mix short (batch-coefficient-sized) with full scalars.
            repeats = 2 if index % 3 == 0 else 1
            for _ in range(repeats):
                scalar = rng.randrange(1, 1 << 64) if index % 2 \
                    else rng.randrange(1, ec.N)
                terms.append((scalar, point))
                expected = ec.point_add(
                    expected, ec.scalar_mult_plain(scalar, point))
        assert _sum(terms) == expected
        assert _sum([]) == ec.INFINITY

    def test_multi_scalar_cancellation(self):
        point = ec.scalar_mult_plain(424242)
        terms = [(5, point), (ec.N - 5, point)]
        assert _sum(terms) == ec.INFINITY


# A fixed signing key and pre-computed signatures: the deterministic
# nonce schedule means these must never change across refactors of the
# verify/sign internals (they were generated by the pre-double-scalar
# implementation).
_FIXED_D = 0x0123456789ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789ABCDEF
_FIXED_PUB = bytes.fromhex(
    "034646ae5047316b4230d0086c8acec687f00b1cd9d1dc634f6cb358ac0a9a8fff")
SIGN_VECTORS = [
    (b"", bytes.fromhex(
        "027841ded348776e1c6e11dd5456eda373b60c325f659cabd38d2d60e0de6964"
        "735f642cde3028b6b181747dcd4e4d66271482d9a48a8885919bbdfddee0ce16"
        "68")),
    (b"dRBAC delegation", bytes.fromhex(
        "020688432a6bc55c152971ca153d2478d29fb6f497402a95a9301438277ae605"
        "4e14f5c98016fad32e2b4a6a2f27260a37bbc8b8ba09f2c27430c879376ef063"
        "fc")),
    (b"case study", bytes.fromhex(
        "03d81a2e85e180e2503ceb63c7953584d93242c3cef2a7dabd8532b3ffa379f1"
        "984caf34564e4c7b9a1a64b7260027ef80a641cb024b309ca7c23689076dd887"
        "6a")),
]


class TestSchnorrVectors:
    def test_public_key_vector(self):
        key = SchnorrPrivateKey(_FIXED_D)
        assert key.public_key.encode() == _FIXED_PUB

    @pytest.mark.parametrize("message,expected",
                             SIGN_VECTORS, ids=["empty", "text", "case"])
    def test_sign_is_pinned(self, message, expected):
        assert SchnorrPrivateKey(_FIXED_D).sign(message) == expected

    @pytest.mark.parametrize("message,expected",
                             SIGN_VECTORS, ids=["empty", "text", "case"])
    def test_verify_accepts_vectors(self, message, expected):
        public = SchnorrPublicKey.decode(_FIXED_PUB)
        assert public.verify(message, expected)
        assert not public.verify(message + b"x", expected)
