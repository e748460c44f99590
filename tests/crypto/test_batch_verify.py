"""Batch verification: RLC batching agrees with individual verifies.

The contract under test (ISSUE satellite): ``verify_batch`` accepts iff
every individual ``verify`` accepts, and tampering any single signature,
message, or key makes the batch reject with bisection naming exactly the
tampered index.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import crypto, obs
from repro.crypto import ec, schnorr, verify_cache
from repro.crypto.schnorr import (
    SchnorrPrivateKey,
    equation_wins,
    verify_batch,
    verify_batch_bisect,
)

from .reference_verify import (
    mirrored_signature,
    off_curve_x,
    reference_verify,
)


def _key(seed: int) -> SchnorrPrivateKey:
    return SchnorrPrivateKey(random.Random(seed).randrange(1, 10 ** 60))


def _items(count: int, seed: int = 0):
    items = []
    for index in range(count):
        key = _key(1000 + seed * 100 + index)
        message = b"batch message %d/%d" % (seed, index)
        items.append((key.public_key, message, key.sign(message)))
    return items


TAMPER_KINDS = ("signature", "message", "key")


def _tamper(items, index, kind):
    public, message, signature = items[index]
    items = list(items)
    if kind == "signature":
        # Flip a bit in s (the trailing scalar), keeping R well-formed.
        tampered = signature[:-1] + bytes([signature[-1] ^ 1])
        items[index] = (public, message, tampered)
    elif kind == "message":
        items[index] = (public, message + b"!", signature)
    else:
        items[index] = (_key(999999).public_key, message, signature)
    return items


class TestSchnorrBatch:
    def test_empty_and_singleton(self):
        assert verify_batch([])
        items = _items(1)
        assert verify_batch(items)
        assert not verify_batch(_tamper(items, 0, "signature"))

    def test_all_good_batch_accepts(self):
        assert verify_batch(_items(7))

    @pytest.mark.parametrize("kind", TAMPER_KINDS)
    def test_single_tamper_rejects_and_bisects(self, kind):
        items = _items(6, seed=3)
        bad = 4
        tampered = _tamper(items, bad, kind)
        assert not verify_batch(tampered)
        verdicts = verify_batch_bisect(tampered)
        assert verdicts == [i != bad for i in range(len(items))]

    def test_malformed_signature_rejects(self):
        items = _items(3, seed=5)
        items[1] = (items[1][0], items[1][1], b"garbage")
        assert not verify_batch(items)
        assert verify_batch_bisect(items) == [True, False, True]

    def test_multiple_tampered_indices_all_named(self):
        items = _items(8, seed=7)
        tampered = _tamper(_tamper(items, 2, "message"), 6, "signature")
        verdicts = verify_batch_bisect(tampered)
        assert verdicts == [i not in (2, 6) for i in range(len(items))]

    def test_fixed_rng_does_not_let_errors_cancel(self):
        # Even with a caller-controlled (non-cryptographic) rng the
        # batch must reject an item whose equation fails.
        items = _tamper(_items(4, seed=9), 1, "message")
        assert not verify_batch(items, rng=random.Random(1234))


@settings(max_examples=25, deadline=None)
@given(data=st.data(),
       count=st.integers(min_value=1, max_value=5))
def test_property_batch_iff_individuals(data, count):
    """verify_batch accepts exactly when every individual verify does."""
    items = _items(count, seed=data.draw(st.integers(0, 50)))
    tamper_at = data.draw(
        st.one_of(st.none(), st.integers(0, count - 1)))
    if tamper_at is not None:
        kind = data.draw(st.sampled_from(TAMPER_KINDS))
        items = _tamper(items, tamper_at, kind)
    individuals = [public.verify(message, signature)
                   for public, message, signature in items]
    assert verify_batch(items) == all(individuals)
    assert verify_batch_bisect(items) == individuals


# (items, distinct keys) on both sides of the dispatch boundary: the
# shapes the call sites produce ((2, 2) a federation answer, (7, 2) a
# cyclic-coalition closure) and the boundary's nearest neighbours.
SHAPES = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 2), (4, 4),
          (6, 4), (7, 2), (9, 3)]


def _shaped(count: int, keys: int, seed: int = 0):
    """``count`` valid items signed round-robin by ``keys`` keys."""
    signers = [_key(5000 + index) for index in range(keys)]
    items = []
    for index in range(count):
        signer = signers[index % keys]
        message = b"shape %d/%d/%d #%d" % (count, keys, seed, index)
        items.append((signer.public_key, message, signer.sign(message)))
    return items


def _reference(items):
    return [reference_verify(public.point, message, signature)
            for public, message, signature in items]


class _Ones:
    """An ``rng`` that makes every coefficient 1: the unweighted sum."""

    def __init__(self):
        self.draws = []

    def randrange(self, low, high):
        self.draws.append((low, high))
        return 1


class TestDispatch:
    """The arm is chosen from (items, distinct keys) alone, and both
    arms give the single check's verdict for every item."""

    def test_shapes_cover_both_sides(self):
        sides = {equation_wins(count, keys) for count, keys in SHAPES}
        assert sides == {True, False}
        assert equation_wins(7, 2) and not equation_wins(2, 2)
        # Monotone: more signatures per key never un-wins the equation.
        for keys in range(1, 8):
            wins = [equation_wins(count, keys)
                    for count in range(keys, 80)]
            assert wins == sorted(wins)

    @pytest.mark.parametrize("count,keys", SHAPES)
    def test_kernel_follows_the_shape(self, count, keys, monkeypatch):
        equations = []
        real = ec.batch_equation_holds
        monkeypatch.setattr(
            ec, "batch_equation_holds",
            lambda *sides: equations.append(sides) or real(*sides))
        assert verify_batch(_shaped(count, keys))
        assert len(equations) == (1 if equation_wins(count, keys) else 0)

    @pytest.mark.parametrize("count,keys", SHAPES)
    def test_forged_item_at_every_position(self, count, keys):
        items = _shaped(count, keys)
        for bad in range(count):
            kind = TAMPER_KINDS[bad % len(TAMPER_KINDS)]
            tampered = _tamper(items, bad, kind)
            expected = _reference(tampered)
            assert expected == [index != bad for index in range(count)]
            assert not verify_batch(tampered)
            assert verify_batch_bisect(tampered) == expected

    @given(data=st.data(), shape=st.sampled_from(SHAPES))
    @settings(max_examples=30, deadline=None)
    def test_property_mixes_match_single_check(self, data, shape):
        count, keys = shape
        items = _shaped(count, keys, seed=data.draw(st.integers(0, 3)))
        for index in range(count):
            kind = data.draw(st.sampled_from((None,) + TAMPER_KINDS))
            if kind is not None:
                items = _tamper(items, index, kind)
        expected = _reference(items)
        assert verify_batch(items) == all(expected)
        assert verify_batch_bisect(items) == expected

    def test_off_curve_nonce_rejected_by_the_equation(self):
        items = _shaped(7, 2)
        public, message, signature = items[3]
        items[3] = (public, message,
                    b"\x02" + off_curve_x().to_bytes(32, "big")
                    + signature[33:])
        assert not verify_batch(items)
        assert verify_batch_bisect(items) == [i != 3 for i in range(7)]

    def test_negated_nonce_rejected_by_the_equation(self):
        """A cheating signer's (-R bytes, s answering +R): the equation
        decompresses R with the parity it was given, so the item fails
        there exactly as it fails the single check."""
        items = _shaped(7, 2)
        signer = _key(5000)
        assert signer.public_key == items[0][0]
        items[0] = (signer.public_key, b"m",
                    mirrored_signature(signer.d, b"m"))
        assert _reference(items) == [i != 0 for i in range(7)]
        assert not verify_batch(items)
        assert verify_batch_bisect(items) == _reference(items)


class TestSoundness:
    """Same equation, same coefficients: 1 for the first item, and for
    every other item ``a + b*lambda`` from the halves of one 64-bit,
    nonzero draw, fresh from ``secrets`` on every call unless a test
    forces it."""

    @staticmethod
    def _cancellation_pair(slots=(0, 1)):
        """Four signatures under one key, the two at ``slots`` spoiled
        as (s1 + d, s2 - d): each is invalid, their plain sum is not."""
        items = _shaped(4, 1)
        delta = 0xD15EA5E
        for index, shift in zip(slots, (delta, -delta)):
            public, message, signature = items[index]
            s = (int.from_bytes(signature[33:], "big") + shift) % ec.N
            items[index] = (public, message,
                            signature[:33] + s.to_bytes(32, "big"))
        return items

    def test_cancellation_pair_rejected(self):
        items = self._cancellation_pair()
        assert equation_wins(4, 1)
        assert _reference(items) == [False, False, True, True]
        # Forced all-ones coefficients reach the equation, and the
        # unweighted sum they produce does accept the pair ... (a draw
        # of 1 is the halves (1, 0): z = 1; item 0 draws nothing.)
        ones = _Ones()
        assert verify_batch(items, rng=ones)
        assert ones.draws == [(1, 1 << 64)] * 3
        # ... which is exactly what fresh random weights prevent.
        assert not verify_batch(items)
        assert not verify_batch(items, rng=random.Random(99))
        assert verify_batch_bisect(items) == [False, False, True, True]

    def test_forced_rng_unused_on_the_single_side(self):
        ones = _Ones()
        assert not equation_wins(2, 2)
        assert verify_batch(_shaped(2, 2), rng=ones)
        assert ones.draws == []

    def test_coefficients_fresh_nonzero_64_bit(self, monkeypatch):
        seen = []
        real = ec.batch_equation_holds

        def spy(key_terms, first, split_terms):
            assert all(0 <= a < 1 << 32 and 0 <= b < 1 << 32
                       for a, b, _point in split_terms)
            seen.append([a | b << 32 for a, b, _point in split_terms])
            # The first item's key term, one per drawn item, and G.
            assert len(key_terms) == len(split_terms) + 2
            return real(key_terms, first, split_terms)

        monkeypatch.setattr(ec, "batch_equation_holds", spy)
        items = _shaped(7, 2)
        assert verify_batch(items)
        assert verify_batch(items)
        assert len(seen) == 2
        # One draw per item after the first, which draws nothing.
        assert all(len(row) == 6 and all(0 < draw < 1 << 64
                                         for draw in row)
                   for row in seen)
        assert seen[0] != seen[1]
        # A zero draw from the entropy blob is bumped to 1, not used.
        monkeypatch.setattr(schnorr.secrets, "token_bytes",
                            lambda size: bytes(size))
        assert verify_batch(items)
        assert seen[-1] == [1] * 6


def _equation_spy(monkeypatch):
    """Record every batch equation evaluated, with its verdict."""
    verdicts = []
    real = ec.batch_equation_holds

    def spy(*sides):
        verdicts.append(real(*sides))
        return verdicts[-1]

    monkeypatch.setattr(ec, "batch_equation_holds", spy)
    return verdicts


def _pinned_items(count, keys, e):
    """``count`` items valid while every challenge is pinned to ``e``:
    ``R = s*G - e*Q`` for small chosen s, so an s + N alias fits 32
    bytes."""
    signers = [_key(5000 + index) for index in range(keys)]
    items = []
    for index in range(count):
        public = signers[index % keys].public_key
        s = 5 + index
        nonce = ec.double_scalar_mult(s, ec.GENERATOR, ec.N - e,
                                      public.point).encode()
        items.append((public, b"pinned #%d" % index,
                      nonce + s.to_bytes(32, "big")))
    return items


SPOILS = ("s_bit", "mirrored_r", "off_curve_x", "s_zero", "s_alias",
          "length")
# The spoils the equation itself must refuse. The checks that run before
# it refuse the rest; s = 0, s + N and the long signature would pass the
# equation without them.
EQUATION_SPOILS = ("s_bit", "mirrored_r")


class TestSpoiledSlot:
    """One spoiled item in the coefficient-1 slot or in the last slot
    of a (7, 2) batch: the batch rejects, bisection names that index,
    and each reject check is needed for it."""

    COUNT, KEYS = 7, 2

    def _spoiled(self, monkeypatch, how, slot):
        pinned_e = 0xE
        if how in ("s_zero", "s_alias"):
            monkeypatch.setattr(schnorr, "_challenge",
                                lambda *args: pinned_e)
            items = _pinned_items(self.COUNT, self.KEYS, pinned_e)
            assert verify_batch(items)
        else:
            items = _shaped(self.COUNT, self.KEYS)
        public, message, signature = items[slot]
        if how == "s_bit":
            signature = signature[:-1] + bytes([signature[-1] ^ 1])
        elif how == "mirrored_r":
            signer = _key(5000 + slot % self.KEYS)
            assert signer.public_key == public
            signature = mirrored_signature(signer.d, message)
        elif how == "off_curve_x":
            signature = (b"\x02" + off_curve_x().to_bytes(32, "big")
                         + signature[33:])
        elif how == "s_zero":
            # R = -e*Q: the equation holds for s = 0.
            nonce = ec.scalar_mult(ec.N - pinned_e, public.point).encode()
            signature = nonce + bytes(32)
        elif how == "s_alias":
            s = int.from_bytes(signature[33:], "big")
            signature = signature[:33] + (s + ec.N).to_bytes(32, "big")
        else:
            # One byte too many; read past the length check it is s.
            signature = signature[:33] + b"\x00" + signature[33:]
        items[slot] = (public, message, signature)
        return items

    @pytest.mark.parametrize("slot", [0, COUNT - 1])
    @pytest.mark.parametrize("how", SPOILS)
    def test_batch_rejects_and_bisect_names_the_slot(self, how, slot,
                                                     monkeypatch):
        items = self._spoiled(monkeypatch, how, slot)
        assert equation_wins(self.COUNT, self.KEYS)
        public, message, signature = items[slot]
        assert not public.verify(message, signature)
        equations = _equation_spy(monkeypatch)
        assert not verify_batch(items)
        # The equation ran and refused the item, or it never ran.
        assert equations == ([False] if how in EQUATION_SPOILS else [])
        del equations[:]
        assert verify_batch_bisect(items) == [
            index != slot for index in range(self.COUNT)]
        # The good halves were accepted by the equation, not bypassed.
        assert True in equations

    @pytest.mark.parametrize("slots", [(0, 3), (2, 3)])
    def test_cancellation_pair_rejected_in_any_slots(self, slots,
                                                     monkeypatch):
        items = TestSoundness._cancellation_pair(slots)
        expected = [index not in slots for index in range(4)]
        assert _reference(items) == expected
        equations = _equation_spy(monkeypatch)
        assert verify_batch(items, rng=_Ones())
        assert not verify_batch(items)
        assert not verify_batch(items, rng=random.Random(99))
        assert equations == [True, False, False]
        assert verify_batch_bisect(items) == expected


class _OpCounter:
    """Counts the group operations every kernel is made of: the three
    Jacobian ones, and the bucket sum's batched affine additions and
    the one inversion each batch of them shares."""

    def __init__(self, monkeypatch):
        self.counts = {"mixed": 0, "add": 0, "double": 0, "affine": 0,
                       "inverse": 0}
        for label, name in (("mixed", "_jacobian_add_affine"),
                            ("add", "_jacobian_add"),
                            ("double", "_jacobian_double")):
            monkeypatch.setattr(ec, name, self._wrap(label,
                                                     getattr(ec, name)))
        affine_sums = ec._affine_sums

        def counted_sums(chords):
            self.counts["affine"] += len(chords)
            self.counts["inverse"] += 1
            return affine_sums(chords)

        monkeypatch.setattr(ec, "_affine_sums", counted_sums)

    def _wrap(self, label, function):
        def counted(*args):
            self.counts[label] += 1
            return function(*args)
        return counted

    def take(self) -> dict:
        taken, self.counts = self.counts, dict.fromkeys(self.counts, 0)
        return taken


# What each operation weighs against a mixed addition (timed on CPython
# 3.11): a doubling, a batched affine addition, a field inversion.
_WEIGHTS = {"mixed": 1, "add": 1.45, "double": 0.65, "affine": 0.7,
            "inverse": 4}


def _weighed(counts) -> float:
    return sum(_WEIGHTS[label] * count for label, count in counts.items())


class TestCostModel:
    """The dispatch constants are the kernels' own operation counts."""

    @pytest.fixture()
    def hot_items(self):
        """A (7, 2) batch whose keys, like the generator, have comb
        tables: the steady state of any issuer seen 24 times."""
        items = _shaped(7, 2)
        added = []
        for point in [ec.GENERATOR] + [items[i][0].point for i in (0, 1)]:
            if (point.x, point.y) not in ec._comb_cache:
                ec._comb_cache[(point.x, point.y)] = \
                    ec._FixedBaseTable(point, ec._COMB_BITS)
                added.append((point.x, point.y))
        yield items
        for key in added:
            del ec._comb_cache[key]

    def test_counted_operations_match_the_constants(self, hot_items,
                                                    monkeypatch):
        counter = _OpCounter(monkeypatch)
        for public, message, signature in hot_items:
            assert public.verify(message, signature)
        single = counter.take()
        assert verify_batch(hot_items, rng=random.Random(7))
        batch = counter.take()
        count, keys = 7, 2
        # Single check: two comb multiplications of at most 26 mixed
        # additions, one per signed digit of each GLV half, each joined
        # to the running sum (the first join is onto the identity:
        # free), no doublings and no bucket sum.
        assert single["double"] == 0 and single["add"] == 2 * count
        assert single["affine"] == single["inverse"] == 0
        assert schnorr._SINGLE_COST == 2 * 26
        assert 0.95 * schnorr._SINGLE_COST * count \
            <= single["mixed"] <= schnorr._SINGLE_COST * count
        # Equation: one bucket sum. Every point it places is added once,
        # by a batched affine addition or, the last one left in a
        # column, by one of the ladder's mixed additions: the comb
        # entries of each key and of G, the first nonce, the signed
        # digits of the other nonces' halves and the bucket sums spread
        # over their columns. Nothing cancels in a batch of honest
        # signatures, and no key is cold.
        digits, spread = _bucket_points(7, count)
        entries = batch["affine"] + batch["mixed"] - 1 - digits - spread
        tables = 26 * (keys + 1)
        assert 0.95 * tables <= entries <= tables
        assert batch["add"] == 0 and 28 <= batch["double"] <= 32
        assert batch["mixed"] <= 33 and batch["inverse"] <= 8
        # The constants, each point weighed as an affine addition.
        weight = _WEIGHTS["affine"]
        assert abs(weight * 26 - schnorr._COMB_COST) <= 1
        assert abs(weight * digits / (count - 1)
                   - schnorr._NONCE_COST) <= 1.5
        ladder = _weighed(batch) - schnorr._COMB_COST * (keys + 1) \
            - schnorr._NONCE_COST * (count - 1)
        assert abs(ladder - schnorr._LADDER_COST) \
            <= 0.15 * schnorr._LADDER_COST
        # And the comparison the dispatch rule makes comes out the same
        # way when weighed: fewer operations per signature.
        assert _weighed(batch) < 0.75 * _weighed(single)

    def test_a_comb_multiplication_is_at_most_26_additions(
            self, hot_items, monkeypatch):
        point = hot_items[0][0].point
        comb = ec._comb_cache[(point.x, point.y)]
        assert sum(len(row) - 1 for row in comb.windows) <= 6656
        counter = _OpCounter(monkeypatch)
        rng = random.Random(26)
        for scalar in [1, ec.N - 1, ec.GLV_LAMBDA] + [
                rng.randrange(1, ec.N) for _ in range(40)]:
            comb.mult_jac(scalar)
            counts = counter.take()
            assert counts["mixed"] <= 26
            assert counts["double"] == counts["add"] == 0

    def test_small_batch_costs_what_its_single_checks_cost(
            self, hot_items, monkeypatch):
        pair = [hot_items[0], hot_items[1]]
        counter = _OpCounter(monkeypatch)
        assert all(public.verify(message, signature)
                   for public, message, signature in pair)
        single = counter.take()
        assert verify_batch(pair)
        assert counter.take() == single
        assert single["double"] == 0


def _bucket_points(seed: int, count: int):
    """(nonzero signed 4-bit digits, points the bucket sums add) of the
    halves of the draws ``random.Random(seed)`` hands ``verify_batch``
    for ``count`` items: a digit of magnitude 3, 5, 6 or 7 lands in a
    bucket, whose sum goes to one column per set bit of the magnitude --
    one point more than the bucket's last, for 3, 5 and 6, two for 7."""
    rng = random.Random(seed)
    digits = 0
    buckets = set()
    for _ in range(count - 1):
        draw = rng.randrange(1, 1 << 64)
        for half in (draw & 0xFFFFFFFF, draw >> 32):
            window = 0
            while half:
                digit = half % 16
                if digit > 8:
                    digit -= 16
                half = (half - digit) >> 4
                if digit:
                    digits += 1
                    if abs(digit) in (3, 5, 6, 7):
                        buckets.add((window, abs(digit)))
                window += 1
    spread = sum(bin(magnitude).count("1") - 1
                 for _w, magnitude in buckets)
    return digits, spread


class TestKeysBatchDispatch:
    """repro.crypto.verify_batch: the algorithm-agnostic front door."""

    @pytest.fixture(scope="class")
    def rsa_keypair(self):
        return crypto.generate_keypair(
            "rsa-fdh-sha256", rng=random.Random(33))

    def test_mixed_algorithms_match_individual(self, rsa_keypair):
        schnorr_kp = crypto.generate_keypair(rng=random.Random(44))
        good = b"mixed batch"
        items = [
            (schnorr_kp.public, good, schnorr_kp.sign(good)),
            (rsa_keypair.public, good, rsa_keypair.sign(good)),
            (schnorr_kp.public, b"bad", schnorr_kp.sign(good)),
            (rsa_keypair.public, b"bad", rsa_keypair.sign(good)),
            (schnorr_kp.public, good, "not-bytes"),
        ]
        expected = [key.verify(message, signature)
                    if isinstance(signature, bytes) else False
                    for key, message, signature in items]
        assert expected == [True, True, False, False, False]
        with verify_cache.scoped():         # a fresh memo: every item runs
            assert crypto.verify_batch(items) == expected
        # With the memo on: once cold, then served from the memo.
        assert crypto.verify_batch(items) == expected
        before = verify_cache.cache_info()["hits"]
        assert crypto.verify_batch(items) == expected
        assert verify_cache.cache_info()["hits"] >= before + 2

    def test_rsa_verify_many_parity(self, rsa_keypair):
        rsa = rsa_keypair._private
        pairs = [(b"a", rsa.sign(b"a")), (b"b", rsa.sign(b"a"))]
        assert rsa.public_key.verify_many(pairs) == [True, False]

    def _keyed(self, count: int, keys: int):
        pairs = [crypto.generate_keypair(rng=random.Random(600 + index))
                 for index in range(keys)]
        items = []
        for index in range(count):
            pair = pairs[index % keys]
            message = b"front door %d" % index
            items.append((pair.public, message, pair.sign(message)))
        return items

    def test_failing_batch_is_not_evaluated_twice(self, monkeypatch):
        """One forged item in 8: the whole batch, then two halves per
        level of the bisection -- 7 evaluations, not 8."""
        items = self._keyed(8, 2)
        public, message, signature = items[5]
        items[5] = (public, message + b"!", signature)
        evaluations = []
        real = schnorr.verify_batch

        def counted(span, rng=None):
            evaluations.append(len(span))
            return real(span, rng=rng)

        monkeypatch.setattr(schnorr, "verify_batch", counted)
        with verify_cache.scoped() as memo:
            verdicts = crypto.verify_batch(items)
            assert verdicts == [index != 5 for index in range(8)]
            assert evaluations == [8, 4, 4, 2, 1, 1, 2]
            # The failure is not memoised; the successes are.
            assert memo.info()["entries"] == 7
            assert not memo.lookup(public._memo_key(message + b"!",
                                                    signature))
        with verify_cache.scoped():
            assert crypto.verify_batch(items) == verdicts

    @pytest.mark.parametrize("count,keys,kernel",
                             [(7, 2, "equation"), (2, 2, "single")])
    def test_span_names_the_kernel(self, count, keys, kernel):
        items = self._keyed(count, keys)
        obs.reset()
        with obs.enabled_ctx(), verify_cache.scoped():
            assert all(crypto.verify_batch(items))
        spans = [span for span in obs.tracer().finished()
                 if span.name == "crypto.verify_batch"]
        assert [span.attrs for span in spans] == [
            {"items": count, "keys": keys, "kernel": kernel}]
