"""The batch equation's bucket sum and the bound its randomizers rest on.

``ec._bucket_sum(terms, first, [(a, b, R), ...])`` is the difference of
the two sides of ``schnorr.verify_batch``'s equation: ``first`` with
coefficient 1, every other nonce point ``R`` with coefficient ``a +
b*lambda`` for two 32-bit halves, less ``sum(terms)``; the equation
holds iff it is the point at infinity. The property tests hold it to
``scalar_mult_plain``, on random points and on the sums an attacker can
arrange (repeated and mirrored nonces, a nonce equal to a key or to one
of its table entries, buckets that cancel). The fixed-base tables whose
entries the key side adds are held to it too, at both widths, on the
scalars whose signed GLV digits are likeliest to go wrong. The lattice
test pins why a pair of halves names its coefficient uniquely, which is
what keeps a forged item's chance of passing at 2**-64.
"""

import contextlib
import functools
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.crypto import ec, schnorr
from repro.crypto.schnorr import SchnorrPrivateKey, verify_batch, \
    verify_batch_bisect

HALF = 1 << 32

# Halves at the edges the signed 4-bit recoding is most likely to get
# wrong (zero, one, all ones, digits 8 and 9 on either side of the sign
# boundary, a carry out of the top window) and anything else in
# [0, 2**32).
EDGE_HALVES = [0, 1, 3, 5, 8, 9, HALF - 1, 0x88888888, 0x99999999,
               0xAAAAAAAA, 0x55555555, 0xBFFFFFFF, 1 << 31]
halves = st.one_of(st.sampled_from(EDGE_HALVES),
                   st.integers(min_value=0, max_value=HALF - 1))
# Halves from a handful of values, so that digits meet in one bucket.
few_halves = st.sampled_from([0, 1, 3, 7, 8, 9, 0x33, 0x77777777])

points = st.integers(min_value=1, max_value=ec.N - 1).map(ec.scalar_mult)


def _expected(terms, first, split_terms):
    total = first
    for a, b, point in split_terms:
        total = ec.point_add(total, ec.scalar_mult_plain(
            (a + b * ec.GLV_LAMBDA) % ec.N, point))
    for scalar, point in terms:
        total = ec.point_add(total, ec.point_neg(
            ec.scalar_mult_plain(scalar, point)))
    return total


def _bucket_sum(terms, first, split_terms):
    return ec._from_jacobian(ec._bucket_sum(terms, first, split_terms))


class TestSplitNonceSum:
    """The nonce side of the bucket sum (test ids from the ladder it
    replaced)."""

    @given(first=points,
           split_terms=st.lists(st.tuples(halves, halves, points),
                                max_size=7))
    def test_matches_plain_multiplication(self, first, split_terms):
        assert _bucket_sum([], first, split_terms) \
            == _expected([], first, split_terms)

    def test_empty_tail_zero_and_full_halves(self):
        """No tail is ``first`` alone; zero halves add nothing; 2**32 - 1
        recodes to eight -1 digits and a carry, the ladder's full
        height."""
        first = ec.scalar_mult(11)
        r = ec.scalar_mult(13)
        for split in ([], [(0, 0, r)], [(0, 5, r)], [(7, 0, r)],
                      [(0, 0, r), (HALF - 1, HALF - 1, first)],
                      [(0x88888888, 0x99999999, r)]):
            assert _bucket_sum([], first, split) == _expected([], first, split)


# A key with a comb table, one with a window table: their entries join
# the unit bucket negated, where a nonce can meet them.
COMB_KEY = ec.scalar_mult(0xC0FFEE)
WINDOW_KEY = ec.scalar_mult(0xBEEF01)


@functools.lru_cache(maxsize=None)
def _tables():
    return (ec._FixedBaseTable(COMB_KEY, ec._COMB_BITS),
            ec._FixedBaseTable(WINDOW_KEY, ec._WINDOW_BITS))


@contextlib.contextmanager
def _tabled():
    """COMB_KEY on its comb and WINDOW_KEY on its window table, as the
    bucket sum finds them; the promotion maps as they were afterwards."""
    comb, window = _tables()
    comb_key = (COMB_KEY.x, COMB_KEY.y)
    window_key = (WINDOW_KEY.x, WINDOW_KEY.y)
    ec._comb_cache[comb_key] = comb
    saved_table = ec._table_cache.get(window_key)
    ec._table_cache[window_key] = window
    try:
        yield comb, window
    finally:
        del ec._comb_cache[comb_key]
        ec._comb_use_counts.pop(window_key, None)
        if saved_table is None:
            del ec._table_cache[window_key]
        else:
            ec._table_cache[window_key] = saved_table


def _entry(table, scalar, index):
    """The ``index``-th entry (cyclically) ``table`` adds for
    ``scalar``, as a point: a digit of either GLV half."""
    entries = table.entries(scalar)
    return ec.Point(*entries[index % len(entries)])


scalars = st.integers(min_value=1, max_value=ec.N - 1)


class TestDegenerateSums:
    """Sums an attacker can arrange, since it picks the nonce points:
    equal points in one bucket double, opposite points cancel, and a
    bucket or column may end empty."""

    @given(r=points, first=points,
           tail=st.lists(st.tuples(few_halves, few_halves), min_size=1,
                         max_size=8))
    @example(r=ec.scalar_mult(5), first=ec.scalar_mult(5),
             tail=[(3, 0), (3, 0), (1, 0), (8, 8)])
    def test_a_nonce_repeated_across_items(self, r, first, tail):
        split = [(a, b, r) for a, b in tail]
        assert _bucket_sum([], first, split) == _expected([], first, split)

    @given(r=points, first=points,
           tail=st.lists(st.tuples(few_halves, few_halves, st.booleans()),
                         min_size=1, max_size=8))
    @example(r=ec.scalar_mult(5), first=ec.scalar_mult(5),
             tail=[(3, 0, False), (3, 0, True), (1, 0, True),
                   (7, 7, False), (7, 7, False), (7, 7, True)])
    def test_a_nonce_with_its_negation(self, r, first, tail):
        minus_r = ec.point_neg(r)
        split = [(a, b, minus_r if negated else r)
                 for a, b, negated in tail]
        assert _bucket_sum([], first, split) == _expected([], first, split)
        # first = -R and a coefficient-1 R: the unit bucket cancels.
        split = [(1, 0, r)] + split
        assert _bucket_sum([], minus_r, split) \
            == _expected([], minus_r, split)

    @given(comb_scalar=scalars, window_scalar=scalars, g_scalar=scalars,
           picks=st.lists(st.tuples(st.sampled_from(["key", "comb",
                                                     "window"]),
                                    st.integers(0, 43), st.booleans(),
                                    few_halves, few_halves),
                          min_size=1, max_size=6),
           as_first=st.booleans())
    @example(comb_scalar=5, window_scalar=3, g_scalar=7,
             picks=[("comb", 0, False, 1, 0), ("comb", 0, False, 1, 0),
                    ("window", 0, True, 1, 0), ("key", 1, False, 3, 0)],
             as_first=True)
    def test_a_nonce_equal_to_a_key_or_a_table_entry(
            self, comb_scalar, window_scalar, g_scalar, picks, as_first):
        terms = [(comb_scalar, COMB_KEY), (window_scalar, WINDOW_KEY),
                 (g_scalar, ec.GENERATOR)]
        with _tabled() as (comb, window):
            nonces = []
            for kind, index, negated, a, b in picks:
                if kind == "key":
                    nonce = COMB_KEY if index & 1 else WINDOW_KEY
                elif kind == "comb":
                    nonce = _entry(comb, comb_scalar, index)
                else:
                    nonce = _entry(window, window_scalar, index)
                if negated:
                    nonce = ec.point_neg(nonce)
                nonces.append((a, b, nonce))
            first = nonces[0][2] if as_first else ec.scalar_mult(17)
            assert _bucket_sum(terms, first, nonces) \
                == _expected(terms, first, nonces)

    @given(first=points, rs=st.lists(points, min_size=1, max_size=5),
           key_scalar=scalars)
    def test_halves_all_zero(self, first, rs, key_scalar):
        """Only ``first`` and the key side are left."""
        split = [(0, 0, r) for r in rs]
        terms = [(key_scalar, COMB_KEY)]
        with _tabled():
            assert _bucket_sum(terms, first, split) \
                == _expected(terms, first, split)

    @given(r=points, s=points, a=halves, b=halves)
    @example(r=ec.scalar_mult(5), s=ec.scalar_mult(6), a=3, b=0x7777)
    def test_a_bucket_that_cancels_to_nothing(self, r, s, a, b):
        """R and -R with the same halves empty every bucket they share;
        what is left is ``first`` and S's term."""
        split = [(a, b, r), (3, 5, s), (a, b, ec.point_neg(r))]
        assert _bucket_sum([], r, split) == _expected([], r, split)
        # And the whole equation cancels: S's term on the key side.
        z = (3 + 5 * ec.GLV_LAMBDA) % ec.N
        key_side = [(1, r), (z, s)]
        assert _bucket_sum(key_side, r, split) == ec.INFINITY
        assert ec.batch_equation_holds(key_side, r, split)
        assert not ec.batch_equation_holds(key_side[:1], r, split)


def _from_halves(k1, k2):
    """The scalar ``k1 + k2*lambda``, checked to split back into exactly
    these halves, so a test of its digits tests what it means to."""
    scalar = (k1 + k2 * ec.GLV_LAMBDA) % ec.N
    assert ec._glv_split(scalar) == (k1, k2)
    return scalar


def _edge_scalars(bits):
    """Scalars whose GLV halves are likeliest to be recoded wrong at
    width ``bits``: a digit of exactly +-2**(bits-1) in either half and
    just past it (a carry), halves whose every digit carries into the
    top window, negative halves, and 1, N-1 and lambda."""
    top = 1 << (bits - 1)
    long = (1 << 127) - 1
    carried = (1 << 120) - 1
    pairs = [(top, 0), (-top, 0), (0, top), (0, -top), (top + 1, -top - 1),
             (-top - 1, top), (long, 0), (-long, 0), (carried, -carried),
             (-carried, carried), (top << (bits * 4), -top << bits)]
    return [_from_halves(k1, k2) for k1, k2 in pairs] \
        + [1, ec.N - 1, ec.GLV_LAMBDA]


WIDTHS = [ec._WINDOW_BITS, ec._COMB_BITS]


@functools.lru_cache(maxsize=None)
def _table(bits):
    return ec._FixedBaseTable(COMB_KEY, bits)


def _entries_sum(table, scalar):
    total = ec.INFINITY
    for x, y in table.entries(scalar):
        total = ec.point_add(total, ec.Point(x, y))
    return total


class TestFixedBaseTables:
    """``entries(scalar)`` are affine points summing to ``scalar * P``,
    at most two per window (one per GLV half), and ``mult_jac`` is
    their sum: held to ``scalar_mult_plain`` at both widths."""

    def test_halves_fit_below_the_top_window(self):
        """The GLV rounding leaves each half within half a basis vector
        of zero: below 2**128, so the top window takes any carry."""
        bound = 1 << ec._GLV_HALF_BITS
        assert ec._GLV_A1 + ec._GLV_A2 < 2 * bound
        assert ec._GLV_A1 - ec._GLV_B1 < 2 * bound
        for bits in WIDTHS:
            windows = len(_table(bits).windows)
            # The top window's digit is at most 2**(128 - bits*(w-1)),
            # plus a carry: still a digit.
            assert bits * windows > ec._GLV_HALF_BITS
            assert (bound >> (bits * (windows - 1))) + 1 <= 1 << (bits - 1)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_table_shape(self, bits):
        table = _table(bits)
        top = 1 << (bits - 1)
        assert all(len(row) == top + 1 and row[0] is None
                   for row in table.windows)
        # Comb: 13 x 512 = 6 656 entries; window: 22 x 32 = 704.
        assert len(table.windows) * top \
            == {ec._COMB_BITS: 6656, ec._WINDOW_BITS: 704}[bits]
        for window, row in enumerate(table.windows[:3]):
            for digit in (1, 2, top):
                assert ec.Point(*row[digit]) == ec.scalar_mult_plain(
                    digit << (bits * window), COMB_KEY)

    @pytest.mark.parametrize("bits", WIDTHS)
    def test_edge_scalars(self, bits):
        table = _table(bits)
        for scalar in _edge_scalars(bits):
            expected = ec.scalar_mult_plain(scalar, COMB_KEY)
            assert _entries_sum(table, scalar) == expected, hex(scalar)
            assert table.mult(scalar) == expected, hex(scalar)
            assert len(table.entries(scalar)) <= 2 * len(table.windows)

    @pytest.mark.parametrize("bits", WIDTHS)
    @given(scalar=st.integers(min_value=1, max_value=ec.N - 1))
    def test_matches_plain_multiplication(self, bits, scalar):
        table = _table(bits)
        expected = ec.scalar_mult_plain(scalar, COMB_KEY)
        assert _entries_sum(table, scalar) == expected
        assert table.mult(scalar) == expected
        assert len(table.entries(scalar)) <= 2 * len(table.windows)


def _signed_with_nonce(private, message, k):
    """A valid signature of ``message`` under nonce ``k``: two of them
    share R (or -R, for ``N - k``)."""
    r_bytes = ec.scalar_mult(k).encode()
    e = schnorr._challenge(r_bytes, private.public_key.point, message)
    return r_bytes + ((k + e * private.d) % ec.N).to_bytes(32, "big")


class TestSharedNonces:
    def test_forged_item_among_shared_nonces_is_rejected(self):
        """Signatures by two keys whose nonces repeat R, mirror it as
        -R, and equal a signer's key: the batch accepts them, and one
        forged item among them is refused and named."""
        alice = SchnorrPrivateKey(0xA11CE)
        bob = SchnorrPrivateKey(0xB0B)
        k = 0x5EED5
        nonces = [k, k, ec.N - k, k, ec.N - k, alice.d, bob.d, ec.N - k]
        items = []
        for index, nonce in enumerate(nonces):
            signer = alice if index % 2 else bob
            message = b"shared nonce #%d" % index
            items.append((signer.public_key, message,
                          _signed_with_nonce(signer, message, nonce)))
        assert schnorr.equation_wins(len(items), 2)
        assert all(public.verify(message, signature)
                   for public, message, signature in items)
        assert verify_batch(items)
        assert verify_batch(items, rng=random.Random(5))
        for bad in (0, 2, 5):
            forged = list(items)
            public, message, signature = forged[bad]
            forged[bad] = (public, message + b"!", signature)
            assert not verify_batch(forged)
            assert not verify_batch(forged, rng=random.Random(5))
            assert verify_batch_bisect(forged) == [
                index != bad for index in range(len(items))]


class TestEquation:
    def test_a_point_is_not_its_negation(self):
        """The sum is a point, not an x: ``-P`` has P's x, and a
        cheating signer's mirrored nonce lands there."""
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
