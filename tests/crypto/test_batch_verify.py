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
        real = ec.multi_scalar_mult_equals
        monkeypatch.setattr(
            ec, "multi_scalar_mult_equals",
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
    """Same equation, same coefficients: 64-bit, nonzero, fresh from
    ``secrets`` on every call unless a test forces them."""

    def _cancellation_pair(self):
        """Four signatures under one key, the first two spoiled as
        (s1 + d, s2 - d): each is invalid, their plain sum is not."""
        items = _shaped(4, 1)
        delta = 0xD15EA5E
        for index, shift in ((0, delta), (1, -delta)):
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
        # unweighted sum they produce does accept the pair ...
        ones = _Ones()
        assert verify_batch(items, rng=ones)
        assert ones.draws == [(1, 1 << 64)] * 4
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
        real = ec.multi_scalar_mult_equals

        def spy(key_terms, nonce_terms):
            seen.append([z for z, _point in nonce_terms])
            assert len(key_terms) == len(nonce_terms) + 1
            return real(key_terms, nonce_terms)

        monkeypatch.setattr(ec, "multi_scalar_mult_equals", spy)
        items = _shaped(7, 2)
        assert verify_batch(items)
        assert verify_batch(items)
        assert len(seen) == 2
        assert all(len(row) == 7 and all(0 < z < 1 << 64 for z in row)
                   for row in seen)
        assert seen[0] != seen[1]
        # A zero draw from the entropy blob is bumped to 1, not used.
        monkeypatch.setattr(schnorr.secrets, "token_bytes",
                            lambda size: bytes(size))
        assert verify_batch(items)
        assert seen[-1] == [1] * 7


class _OpCounter:
    """Counts the three group operations every kernel is made of."""

    def __init__(self, monkeypatch):
        self.counts = {"mixed": 0, "add": 0, "double": 0}
        for label, name in (("mixed", "_jacobian_add_affine"),
                            ("add", "_jacobian_add"),
                            ("double", "_jacobian_double")):
            monkeypatch.setattr(ec, name, self._wrap(label,
                                                     getattr(ec, name)))

    def _wrap(self, label, function):
        def counted(*args):
            self.counts[label] += 1
            return function(*args)
        return counted

    def take(self) -> dict:
        taken, self.counts = self.counts, dict.fromkeys(self.counts, 0)
        return taken


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
                ec._comb_cache[(point.x, point.y)] = ec._CombTable(point)
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
        # Single check: two comb multiplications, each joined to the
        # running sum (the first join is onto the identity: free), no
        # doublings.
        assert single["double"] == 0 and single["add"] == 2 * count
        assert 0.95 * schnorr._SINGLE_COST * count \
            <= single["mixed"] <= schnorr._SINGLE_COST * count
        # Equation: a comb multiplication per key and for the generator,
        # ~21 additions per nonce point, at most 64 shared doublings.
        tables = schnorr._COMB_COST * (keys + 1)
        assert 0.95 * tables <= batch["mixed"] - _naf_weight(7, count) \
            <= tables
        assert abs(_naf_weight(7, count) / count
                   - schnorr._NONCE_COST) <= 2
        assert 60 <= batch["double"] <= 64 and batch["add"] == keys + 1
        # And the comparison the dispatch rule makes comes out the same
        # way when counted: fewer operations per signature.
        assert sum(batch.values()) < 0.75 * sum(single.values())

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


def _naf_weight(seed: int, count: int) -> int:
    """Nonzero NAF digits of the coefficients ``random.Random(seed)``
    hands ``verify_batch`` for ``count`` items."""
    rng = random.Random(seed)
    return sum(1 for _ in range(count)
               for digit in ec._wnaf_digits(rng.randrange(1, 1 << 64), 2)
               if digit)


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
