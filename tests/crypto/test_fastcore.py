"""The crypto core against its oracles: comb/wNAF scalar multiplication
vs ``scalar_mult_plain``, the canonical codec vs the seed codec
(``reference_codec.py``), and the bounded intern pools under threads.

There is one implementation of each primitive and no switch; what pins
it is an independent, slower computation of the same value. (The file
and some test names date from when a runtime switch selected a second
"seed arm"; they are kept so test ids stay stable.)
"""

import struct
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delegation import Delegation
from repro.crypto import ec, encoding, keys
from repro.workloads import build_case_study, build_distributed_federation

from .reference_codec import reference_decode, reference_encode
from .reference_verify import double_scalar_mult_equals

# Scalars at the edges the recodings are most likely to get wrong:
# zero, tiny, window boundaries, the group order's neighbors (n reduces
# to 0, n+1 to 1), and all-ones patterns.
EDGE_SCALARS = [
    0, 1, 2, 3, 15, 16, 17, 255, 256, 257,
    2**128 - 1, 2**128, 2**128 + 1,
    ec.N - 2, ec.N - 1, ec.N, ec.N + 1,
    2**256 - 1,
]


@pytest.fixture()
def hot_point():
    """A non-generator point with its comb table already built."""
    point = ec.scalar_mult(0xC0FFEE)
    key = (point.x, point.y)
    if key not in ec._comb_cache:
        with ec._FAST_LOCK:
            if key not in ec._comb_cache:
                ec._comb_cache[key] = ec._FixedBaseTable(point, ec._COMB_BITS)
    return point


def _sum(terms):
    """``sum(scalar * point)`` through the tables-or-ladder kernel."""
    return ec._from_jacobian(ec._multi_scalar_mult_jac(terms))


class TestCombAndWnafCorrectness:
    @pytest.mark.parametrize("scalar", EDGE_SCALARS)
    def test_generator_comb_matches_plain_on_edges(self, scalar):
        assert ec.scalar_mult(scalar) == ec.scalar_mult_plain(scalar % ec.N)

    @pytest.mark.parametrize("scalar", EDGE_SCALARS)
    def test_variable_base_matches_plain_on_edges(self, scalar,
                                                  hot_point):
        assert ec.scalar_mult(scalar, hot_point) \
            == ec.scalar_mult_plain(scalar % ec.N, hot_point)

    @given(st.integers(min_value=1, max_value=ec.N - 1))
    @settings(max_examples=20, deadline=None)
    def test_generator_comb_matches_plain(self, scalar):
        assert ec.scalar_mult(scalar) == ec.scalar_mult_plain(scalar)

    @given(st.integers(min_value=1, max_value=ec.N - 1),
           st.integers(min_value=1, max_value=ec.N - 1))
    @settings(max_examples=15, deadline=None)
    def test_double_scalar_mult_arms_agree(self, a, b):
        q = ec.scalar_mult(0xBEEF)
        assert ec.double_scalar_mult(a, ec.GENERATOR, b, q) == ec.point_add(
            ec.scalar_mult_plain(a), ec.scalar_mult_plain(b, q))

    @given(st.lists(st.integers(min_value=1, max_value=ec.N - 1),
                    min_size=1, max_size=5))
    @settings(max_examples=10, deadline=None)
    def test_multi_scalar_mult_arms_agree(self, scalars):
        terms = [(scalar, ec.scalar_mult(index + 2))
                 for index, scalar in enumerate(scalars)]
        expected = ec.INFINITY
        for scalar, point in terms:
            expected = ec.point_add(expected,
                                    ec.scalar_mult_plain(scalar, point))
        assert _sum(terms) == expected

    @given(st.integers(min_value=1, max_value=ec.N - 1))
    @settings(max_examples=10, deadline=None)
    def test_equals_agrees_with_materialized_sum(self, a):
        q = ec.scalar_mult(0xF00D)
        expected = ec.point_add(ec.scalar_mult_plain(a),
                                ec.scalar_mult_plain(a + 1, q))
        assert double_scalar_mult_equals(
            a, ec.GENERATOR, a + 1, q, expected)
        assert not double_scalar_mult_equals(
            a, ec.GENERATOR, a + 1, q, ec.GENERATOR)

    def test_is_infinity_both_arms(self):
        terms = [(5, ec.GENERATOR), (ec.N - 5, ec.GENERATOR)]
        assert _sum(terms) == ec.INFINITY
        assert _sum(terms[:1]) != ec.INFINITY
        # A nonce side that cancels to infinity too: R + 1*(-R).
        first = ec.scalar_mult(0x5EED)
        cancel = [(1, 0, ec.point_neg(first))]
        assert ec.batch_equation_holds(terms, first, cancel)
        assert not ec.batch_equation_holds(terms[:1], first, cancel)

    @given(st.lists(st.integers(min_value=1, max_value=2**64 - 1),
                    min_size=0, max_size=4),
           st.integers(min_value=0, max_value=1))
    @settings(max_examples=10, deadline=None)
    def test_equation_sides_compare_as_points(self, draws, skew):
        """sum(terms) == first + sum((a + b*lambda) * R) exactly when
        the two sums are the same point: the split nonce ladder on one
        side, tables/ladders on the other, compared in Jacobian
        coordinates."""
        first = ec.scalar_mult(0x5EED)
        split = [(draw & 0xFFFFFFFF, draw >> 32,
                  ec.scalar_mult(0x5EEE + index))
                 for index, draw in enumerate(draws)]
        total = 0x5EED + sum((a + b * ec.GLV_LAMBDA) * (0x5EEE + index)
                             for index, (a, b, _r) in enumerate(split))
        q = ec.scalar_mult(0xF00D)
        terms = [(total + skew - 7 * 0xF00D, ec.GENERATOR), (7, q)]
        assert ec.batch_equation_holds(terms, first, split) == (skew == 0)

    def test_wnaf_digits_reconstruct_scalar(self):
        for scalar in EDGE_SCALARS:
            digits = ec._wnaf_digits(scalar)
            value = 0
            for position, digit in enumerate(digits):
                value += digit << position
            assert value == scalar
            assert all(d == 0 or (d % 2 == 1 and abs(d) <= 15)
                       for d in digits)


class TestCodecArms:
    """The production codec against the seed codec kept as an oracle."""

    def test_credential_tree_byte_identical(self):
        """Real delegation wire dicts (case study, federation with
        discovery tags) encode to the oracle's bytes, and both decoders
        give back the dict whose id the issuer signed."""
        delegations = [delegation for delegation, _supports
                       in build_case_study().all_delegations()]
        for domain in build_distributed_federation(domains=3,
                                                   seed=5).domains:
            delegations += domain.credentials + [domain.bridge]
        for delegation in delegations:
            wire = delegation.to_dict()
            encoded = encoding.canonical_encode(wire)
            assert encoded == reference_encode(wire)
            decoded = encoding.canonical_decode(encoded)
            assert decoded == reference_decode(encoded) == wire
            assert Delegation.from_dict(decoded).id == delegation.id

    def test_strict_errors_match_in_both_arms(self):
        unsorted = b"M" + struct.pack(">I", 2) \
            + b"S" + struct.pack(">I", 1) + b"b" \
            + encoding.canonical_encode(1) \
            + b"S" + struct.pack(">I", 1) + b"a" \
            + encoding.canonical_encode(2)
        bad_inputs = [
            encoding.canonical_encode(1) + b"x",   # trailing bytes
            encoding.canonical_encode("hey")[:-1],  # truncated
            b"",                                    # empty
            b"Z",                                   # unknown tag
            b"I" + struct.pack(">I", 2) + b"\x00\x02",  # non-minimal int
            unsorted,                               # unsorted map keys
        ]
        for data in bad_inputs:
            for decode in (encoding.canonical_decode, reference_decode):
                with pytest.raises(encoding.EncodingError):
                    decode(data)

    def test_memoryview_decode_matches_bytes(self):
        wire = {"roles": ["admin", "member"], "depth": 3,
                "blob": b"\x00" * 16}
        blob = encoding.canonical_encode(wire)
        assert encoding.canonical_decode(memoryview(blob)) == wire
        assert encoding.canonical_decode(bytearray(blob)) == wire


class TestInternPools:
    def test_point_intern_returns_same_object(self):
        encoded = ec.scalar_mult(0xABCDEF).encode()
        assert ec.Point.decode(encoded) is ec.Point.decode(encoded)

    def test_point_intern_bounded(self):
        for scalar in range(2, 60):
            ec.Point.decode(ec.scalar_mult(scalar).encode())
        assert len(ec._point_intern) <= ec._POINT_INTERN_LIMIT

    def test_atom_pool_bounded(self):
        for index in range(encoding._ATOM_LIMIT + 50):
            encoding.canonical_decode(
                encoding.canonical_encode(f"atom-{index}"))
        assert len(encoding._atoms) <= encoding._ATOM_LIMIT

    def test_oversized_strings_not_interned(self):
        long_string = "x" * (encoding._ATOM_MAX_LEN + 1)
        decoded = encoding.canonical_decode(
            encoding.canonical_encode(long_string))
        assert decoded == long_string
        assert long_string not in encoding._atoms

    def test_comb_cache_bounded_with_promotion_freeze(self, monkeypatch):
        """The comb cache never exceeds its limit, and once full it
        stops promoting (no eviction: a comb build is far too expensive
        to thrash; later points fall back to window tables)."""
        monkeypatch.setattr(ec, "_COMB_BUILD_THRESHOLD", 1)
        monkeypatch.setattr(ec, "_COMB_CACHE_LIMIT", 2)
        points = [ec.scalar_mult(0x1111 * (index + 1))
                  for index in range(4)]
        saved = dict(ec._comb_cache)
        ec._comb_cache.clear()
        try:
            promoted = [ec._comb_for(point) is not None
                        for point in points]
            assert promoted == [True, True, False, False]
            assert len(ec._comb_cache) == 2
            early = {(p.x, p.y) for p in points[:2]}
            assert set(ec._comb_cache) == early
            # The frozen-out point still multiplies correctly.
            assert ec.scalar_mult(7, points[-1]) == \
                ec.scalar_mult_plain(7, points[-1])
        finally:
            ec._comb_cache.clear()
            ec._comb_cache.update(saved)


def _rsa_record(serial: int) -> dict:
    """A well-formed, never-seen public-key record that costs nothing to
    mint (RSA keys are validated by range checks alone)."""
    modulus = ((1 << 600) + serial).to_bytes(76, "big")
    exponent = (65537).to_bytes(3, "big")
    return {"algorithm": "rsa-fdh-sha256",
            "key": struct.pack(">I", len(modulus)) + modulus
            + struct.pack(">I", len(exponent)) + exponent}


def _decode_if_on_curve(data: bytes) -> None:
    try:
        ec.Point.decode(data)
    except ec.ECError:      # about half of all x have no y
        pass


class TestThreads:
    THREADS = 4

    def _race(self, work, lanes):
        """Run ``work(item)`` over each lane's items on its own thread,
        all released together, switching as often as CPython allows."""
        assert len(lanes) == self.THREADS
        errors = []
        barrier = threading.Barrier(self.THREADS)

        def worker(items):
            barrier.wait(timeout=30)
            try:
                for item in items:
                    work(item)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(items,))
                   for items in lanes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_thread_safety_smoke(self):
        """Concurrent multiplications racing on cold points (table and
        comb builds included) all agree with the plain ladder."""
        base = ec.scalar_mult(0xDEADBEEF)
        expected = ec.scalar_mult_plain(0x12345, base)
        errors = []

        def worker():
            try:
                for _ in range(30):
                    if ec.scalar_mult(0x12345, base) != expected:
                        raise AssertionError("wrong product")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_full_pools_survive_racing_evictions(self, monkeypatch):
        """Every miss on a full pool evicts, and the pools are shared by
        all threads without a lock: two evictions may pick the same
        oldest key, or one may find the dict resized under its iterator.
        Neither may surface from ``canonical_decode`` & co., and a pool
        may run over its limit only by the inserts in flight."""
        monkeypatch.setattr(encoding, "_ATOM_LIMIT", 32)
        monkeypatch.setattr(keys, "_PK_INTERN_LIMIT", 8)
        monkeypatch.setattr(ec, "_POINT_INTERN_LIMIT", 8)

        def lanes(count, make):
            return [[make(lane * count + index) for index in range(count)]
                    for lane in range(self.THREADS)]

        self._race(encoding.canonical_decode, lanes(
            50_000, lambda n: b"S" + struct.pack(">I", 10) + b"a%09d" % n))
        self._race(encoding.canonical_encode, lanes(
            5_000, lambda n: {"k%d" % n: "v%d" % n}))
        self._race(keys.PublicKey.from_dict, lanes(3_000, _rsa_record))
        self._race(_decode_if_on_curve, lanes(
            150, lambda n: b"\x02" + (n + 1).to_bytes(32, "big")))

        for pool, limit in ((encoding._atoms, encoding._ATOM_LIMIT),
                            (encoding._enc_strs, encoding._ATOM_LIMIT),
                            (encoding._enc_keys, encoding._ATOM_LIMIT),
                            (keys._pk_intern, keys._PK_INTERN_LIMIT),
                            (ec._point_intern, ec._POINT_INTERN_LIMIT)):
            assert len(pool) <= limit + self.THREADS
