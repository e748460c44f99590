import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ec, keys, verify_cache
from repro.workloads.topology import make_scc_heavy


class TestPointValidation:
    def test_generator_on_curve(self):
        assert not ec.GENERATOR.is_infinity

    def test_off_curve_rejected(self):
        with pytest.raises(ec.ECError):
            ec.Point(1, 1)

    def test_half_infinity_rejected(self):
        with pytest.raises(ec.ECError):
            ec.Point(None, 5)

    def test_out_of_field_rejected(self):
        with pytest.raises(ec.ECError):
            ec.Point(ec.P, 0)


class TestGroupLaws:
    def test_identity(self):
        assert ec.point_add(ec.GENERATOR, ec.INFINITY) == ec.GENERATOR
        assert ec.point_add(ec.INFINITY, ec.GENERATOR) == ec.GENERATOR

    def test_inverse(self):
        neg = ec.point_neg(ec.GENERATOR)
        assert ec.point_add(ec.GENERATOR, neg) == ec.INFINITY

    def test_doubling_matches_addition(self):
        assert ec.point_add(ec.GENERATOR, ec.GENERATOR) == ec.scalar_mult(2)

    def test_associativity_sample(self):
        p2 = ec.scalar_mult(2)
        p3 = ec.scalar_mult(3)
        left = ec.point_add(ec.point_add(ec.GENERATOR, p2), p3)
        right = ec.point_add(ec.GENERATOR, ec.point_add(p2, p3))
        assert left == right

    def test_order_annihilates(self):
        assert ec.scalar_mult(ec.N) == ec.INFINITY

    def test_order_minus_one_is_negation(self):
        assert ec.scalar_mult(ec.N - 1) == ec.point_neg(ec.GENERATOR)


class TestScalarMult:
    @given(st.integers(min_value=1, max_value=ec.N - 1))
    @settings(max_examples=20, deadline=None)
    def test_table_matches_plain(self, scalar):
        assert ec.scalar_mult(scalar) == ec.scalar_mult_plain(scalar)

    @given(st.integers(min_value=1, max_value=2**64))
    @settings(max_examples=15, deadline=None)
    def test_distributive(self, scalar):
        # (k+1)G == kG + G
        assert ec.point_add(ec.scalar_mult(scalar), ec.GENERATOR) == \
            ec.scalar_mult(scalar + 1)

    def test_zero_gives_infinity(self):
        assert ec.scalar_mult(0) == ec.INFINITY

    def test_variable_base_consistency(self):
        base = ec.scalar_mult(123456789)
        # Warm the per-point table path with repeated use.
        results = [ec.scalar_mult(10**12 + 7, base) for _ in range(5)]
        assert all(r == results[0] for r in results)
        assert results[0] == ec.scalar_mult_plain(10**12 + 7, base)


class TestEncoding:
    def test_round_trip(self):
        for scalar in (1, 2, 3, 7, 100, 2**200):
            point = ec.scalar_mult(scalar)
            assert ec.Point.decode(point.encode()) == point

    def test_infinity_round_trip(self):
        assert ec.Point.decode(ec.INFINITY.encode()) == ec.INFINITY

    def test_compressed_length(self):
        assert len(ec.GENERATOR.encode()) == 33

    def test_bad_prefix_rejected(self):
        encoded = bytearray(ec.GENERATOR.encode())
        encoded[0] = 0x05
        with pytest.raises(ec.ECError):
            ec.Point.decode(bytes(encoded))

    def test_not_on_curve_x_rejected(self):
        # x = 5 has no point with prefix parity tricks on some curves;
        # find an x with no square root by brute scan.
        for x in range(1, 50):
            y_squared = (pow(x, 3, ec.P) + ec.B) % ec.P
            y = pow(y_squared, (ec.P + 1) // 4, ec.P)
            if (y * y) % ec.P != y_squared:
                bad = b"\x02" + x.to_bytes(32, "big")
                with pytest.raises(ec.ECError):
                    ec.Point.decode(bad)
                return
        pytest.skip("no non-residue x below 50 (unexpected)")

    def test_oversized_x_rejected(self):
        bad = b"\x02" + ec.P.to_bytes(32, "big")
        with pytest.raises(ec.ECError):
            ec.Point.decode(bad)

    def test_trailing_bytes_after_point_rejected(self):
        encoded = ec.GENERATOR.encode()
        with pytest.raises(ec.ECError, match="trailing"):
            ec.Point.decode(encoded + b"\x00")
        with pytest.raises(ec.ECError, match="trailing"):
            ec.Point.decode(encoded + encoded)

    def test_trailing_bytes_after_infinity_rejected(self):
        with pytest.raises(ec.ECError, match="trailing"):
            ec.Point.decode(b"\x00\x00")
        with pytest.raises(ec.ECError, match="trailing"):
            ec.Point.decode(b"\x00" + ec.GENERATOR.encode())

    def test_truncated_point_rejected(self):
        with pytest.raises(ec.ECError):
            ec.Point.decode(ec.GENERATOR.encode()[:-1])
        with pytest.raises(ec.ECError):
            ec.Point.decode(b"")

    def test_memoryview_and_bytearray_inputs_decode(self):
        encoded = ec.GENERATOR.encode()
        assert ec.Point.decode(bytearray(encoded)) == ec.GENERATOR
        assert ec.Point.decode(memoryview(encoded)) == ec.GENERATOR


class TestPromotionCaches:
    def test_one_shot_points_stay_out(self, monkeypatch):
        """Signature nonce points are seen once per signature and must
        never be counted towards, or promoted into, a window or comb
        table: only the generator and the issuer keys earn one. (A
        nonce point that does costs ~0.4 MB per comb and, because the
        comb cache freezes when full, a slot a real key then cannot
        get.)"""
        caches = ("_table_cache", "_comb_cache", "_use_counts",
                  "_comb_use_counts")
        for name in caches:
            monkeypatch.setattr(ec, name, {})
        ec._table_cache[(ec.GX, ec.GY)] = ec._WindowTable(ec.GENERATOR)
        workload = make_scc_heavy(6, 6, seed=1)
        items = [(d.issuer.public_key, d.signing_bytes(), d.signature)
                 for d, _supports in workload.delegations]
        assert len(items) == 43
        for _round in range(30):
            # A fresh memo per pass: nothing carries, every check runs.
            with verify_cache.scoped():
                assert all(keys.verify_batch(items))
            with verify_cache.scoped():
                assert all(public.verify(message, signature)
                           for public, message, signature in items)
        reusable = {(ec.GX, ec.GY)} | {
            (point.x, point.y) for point in
            (public._decode().point for public, _m, _s in items)}
        assert len(reusable) == 7
        for name in caches:
            assert set(getattr(ec, name)) <= reusable, name
        assert set(ec._comb_cache) == set(ec._table_cache) == reusable
