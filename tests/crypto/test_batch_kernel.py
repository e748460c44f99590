"""The batch equation's nonce ladder and the bound its randomizers rest on.

``ec._split_nonce_sum(first, [(a, b, R), ...])`` is the right-hand side
of ``schnorr.verify_batch``'s equation: ``first`` with coefficient 1,
every other nonce point ``R`` with coefficient ``a + b*lambda`` for two
32-bit halves. The property test holds it to ``scalar_mult_plain``; the
lattice test pins why a pair of halves names its coefficient uniquely,
which is what keeps a forged item's chance of passing at 2**-64.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import ec

HALF = 1 << 32

# Halves at the edges the width-3 recoding is most likely to get wrong
# (zero, one, all ones, alternating bits, a carry out of the top bit)
# and anything else in [0, 2**32).
halves = st.one_of(
    st.sampled_from([0, 1, 3, 5, HALF - 1, 0xAAAAAAAA, 0x55555555,
                     0xBFFFFFFF, 1 << 31]),
    st.integers(min_value=0, max_value=HALF - 1))

points = st.integers(min_value=1, max_value=ec.N - 1).map(ec.scalar_mult)


def _expected(first, split_terms):
    total = first
    for a, b, point in split_terms:
        total = ec.point_add(total, ec.scalar_mult_plain(
            (a + b * ec.GLV_LAMBDA) % ec.N, point))
    return total


class TestSplitNonceSum:
    @given(first=points,
           split_terms=st.lists(st.tuples(halves, halves, points),
                                max_size=7))
    def test_matches_plain_multiplication(self, first, split_terms):
        ladder = ec._split_nonce_sum(first, split_terms)
        assert ec._from_jacobian(ladder) == _expected(first, split_terms)

    def test_empty_tail_zero_and_full_halves(self):
        """No tail is ``first`` alone; zero halves add nothing; 2**32 - 1
        recodes to 33 digits, the ladder's full height."""
        first = ec.scalar_mult(11)
        r = ec.scalar_mult(13)
        for split in ([], [(0, 0, r)], [(0, 5, r)], [(7, 0, r)],
                      [(0, 0, r), (HALF - 1, HALF - 1, first)]):
            assert ec._from_jacobian(ec._split_nonce_sum(first, split)) \
                == _expected(first, split)


class TestEquation:
    def test_a_point_is_not_its_negation(self):
        """The Jacobian comparison checks y as well as x: ``-P`` has
        P's x, and a cheating signer's mirrored nonce lands there."""
        left = [(0xBEEF, ec.GENERATOR)]
        point = ec.scalar_mult(0xBEEF)
        r = ec.scalar_mult(0x77)
        tail = [(3, 0, r)]
        assert ec.batch_equation_holds(
            left + [(3 * 0x77, ec.GENERATOR)], point, tail)
        assert not ec.batch_equation_holds(
            left + [(3 * 0x77, ec.GENERATOR)], ec.point_neg(point), tail)
        assert not ec.batch_equation_holds(
            [(-0xBEEF - 3 * 0x77, ec.GENERATOR)], point, tail)


def _gauss_reduce(u, v):
    """Lagrange-Gauss reduction of a 2-D lattice basis: returns (b1, b2)
    with ``|b1| <= |b2|`` and ``|2<b1, b2>| <= |b1|^2``, so b1 is a
    shortest nonzero vector of the lattice (Euclidean norm)."""
    def norm2(w):
        return w[0] * w[0] + w[1] * w[1]
    if norm2(u) < norm2(v):
        u, v = v, u
    while True:
        dot = u[0] * v[0] + u[1] * v[1]
        q = (2 * dot + norm2(v)) // (2 * norm2(v))   # round(dot / |v|^2)
        u = (u[0] - q * v[0], u[1] - q * v[1])
        if norm2(u) >= norm2(v):
            return v, u
        u, v = v, u


class TestRandomizerInjectivity:
    def test_collision_lattice_has_no_short_vector(self):
        """Two draws give the same z iff their difference (c, d) solves
        c + d*lambda == 0 mod N with |c|, |d| < 2**32. Those solutions
        form the lattice spanned by (N, 0) and (-lambda, 1); its
        shortest vector has max-norm above 2**33, and every nonzero
        vector w has ``max|w_i| >= |w| / sqrt(2) >= |b1| / sqrt(2)``,
        also above 2**33. So ``(a, b) -> a + b*lambda mod N`` is
        injective on [0, 2**32)**2 and a bad item passes with
        probability <= 2**-64."""
        b1, b2 = _gauss_reduce((ec.N, 0), (-ec.GLV_LAMBDA, 1))
        for vector in (b1, b2):
            assert (vector[0] + vector[1] * ec.GLV_LAMBDA) % ec.N == 0
        # Still a basis of the same lattice: determinant +-N.
        assert abs(b1[0] * b2[1] - b1[1] * b2[0]) == ec.N
        norm2 = b1[0] ** 2 + b1[1] ** 2
        assert abs(2 * (b1[0] * b2[0] + b1[1] * b2[1])) <= norm2
        assert norm2 <= b2[0] ** 2 + b2[1] ** 2
        assert max(abs(b1[0]), abs(b1[1])) > 1 << 33
        assert math.isqrt(norm2 // 2) > 1 << 33
        # About 2**128: the published GLV basis vector, up to sign.
        assert {abs(b1[0]), abs(b1[1])} == {ec._GLV_A1, -ec._GLV_B1}
