"""Coherence of the signature-verification memo.

Mutating nothing but process state -- eviction at the bound,
``cache_clear()``, a fresh scoped memo with freshly decoded objects --
never changes any verify outcome; only counters move. The memo has no
off switch: the reference verdicts come from a fresh memo and fresh
objects, or from the decode-and-compare oracle in
``reference_verify.py``.
"""

import random
import time

import pytest

from repro import crypto
from repro.core.delegation import issue, revoke, verify_signatures
from repro.core.identity import create_principal
from repro.core.proof import Proof, validate_proof
from repro.core.roles import Role
from repro.crypto import verify_cache
from repro.crypto.verify_cache import VerificationMemo

from .reference_verify import reference_verify


@pytest.fixture(autouse=True)
def fresh_memo():
    """Isolate each test in a fresh scoped memo."""
    with verify_cache.scoped() as memo:
        yield memo


def _fresh(certificate):
    """A re-decoded copy: same bytes, no per-object flag."""
    return type(certificate).from_dict(certificate.to_dict())


def _signed(count, seed=0):
    keypair = crypto.generate_keypair(rng=random.Random(100 + seed))
    return keypair.public, [
        (b"memo message %d" % index, keypair.sign(b"memo message %d" % index))
        for index in range(count)
    ]


class TestMemoMechanics:
    def test_hit_miss_counters(self):
        public, [(message, signature)] = _signed(1)
        info0 = verify_cache.cache_info()
        assert public.verify(message, signature)
        assert public.verify(message, signature)
        info = verify_cache.cache_info()
        assert info["misses"] == info0["misses"] + 1
        assert info["hits"] == info0["hits"] + 1
        assert info["entries"] == 1

    def test_negative_results_never_cached(self):
        public, [(message, signature)] = _signed(1, seed=1)
        assert not public.verify(message + b"!", signature)
        assert not public.verify(message + b"!", signature)
        assert verify_cache.cache_info()["entries"] == 0

    def test_eviction_at_bound_preserves_outcomes(self):
        public, signed = _signed(10, seed=2)
        with verify_cache.scoped(VerificationMemo(maxsize=4)):
            outcomes = [public.verify(m, s) for m, s in signed]
            assert all(outcomes)
            info = verify_cache.cache_info()
            assert info["entries"] == 4
            assert info["evictions"] >= 6
            # Evicted entries re-verify from scratch with identical
            # results; tampered inputs still fail even while their
            # neighbors hit.
            assert [public.verify(m, s) for m, s in signed] == outcomes
            assert not public.verify(signed[0][0] + b"!", signed[0][1])

    def test_cache_clear_preserves_outcomes(self):
        public, signed = _signed(5, seed=3)
        before = [public.verify(m, s) for m, s in signed]
        verify_cache.cache_clear()
        assert verify_cache.cache_info()["entries"] == 0
        assert [public.verify(m, s) for m, s in signed] == before

    def test_configure_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            VerificationMemo(maxsize=0)


class TestDisabledEquivalence:
    """Memo hits and full checks agree: a warm memo gives the verdicts
    of a fresh memo with fresh objects, and of the oracle."""

    def test_verify_outcomes_identical(self):
        public, signed = _signed(4, seed=4)
        bad = [(m + b"x", s) for m, s in signed]
        cold = [public.verify(m, s) for m, s in signed + bad]
        warm = [public.verify(m, s) for m, s in signed + bad]
        reference = [reference_verify(public._decode().point, m, s)
                     for m, s in signed + bad]
        assert cold == warm == reference == [True] * 4 + [False] * 4
        info = verify_cache.cache_info()
        assert info["entries"] == 4           # successes only
        assert info["hits"] == 4

    def test_proof_validation_identical(self):
        alice = create_principal("Alice", rng=random.Random(5))
        bob = create_principal("Bob", rng=random.Random(6))
        role = Role(entity=bob.entity, name="guest")
        middle = Role(entity=bob.entity, name="staff")
        d1 = issue(bob, alice.entity, middle)
        d2 = issue(bob, middle, role)
        proof = Proof.single(d1).extend(d2)
        now = time.time()
        revocation = revoke(bob, d1, now)
        validate_proof(proof, at=now)  # verified, flags set
        validate_proof(proof, at=now)  # served by the flags
        assert revocation.verify(d1)
        assert revocation.verify(d1)
        with verify_cache.scoped():    # nothing carries: same verdicts
            fresh_d1 = _fresh(d1)
            validate_proof(Proof.single(fresh_d1).extend(_fresh(d2)),
                           at=now)
            assert _fresh(revocation).verify(fresh_d1)

    def test_batch_helper_identical_and_flags_gated(self):
        alice = create_principal("Alice", rng=random.Random(7))
        bob = create_principal("Bob", rng=random.Random(8))
        role = Role(entity=bob.entity, name="dev")
        good = issue(bob, alice.entity, role)
        forged = issue(bob, alice.entity,
                       Role(entity=bob.entity, name="ops"))
        object.__setattr__(forged, "signature", b"\x00" * 65)
        forged.__dict__.pop("_sig_ok", None)
        certificates = [good, revoke(bob, good, 1.0), forged]
        with_memo = verify_signatures(certificates)
        assert verify_signatures(certificates) == with_memo
        assert with_memo == [True, True, False]
        # Successes set the per-object flags; a failure never does.
        assert [c.__dict__.get("_sig_ok", False)
                for c in certificates] == with_memo
        # Failures are never cached, so ``forged`` is as fresh as the
        # re-decoded copies.
        copies = [_fresh(good), _fresh(certificates[1]), forged]
        assert all(not c.__dict__.get("_sig_ok") for c in copies)
        with verify_cache.scoped():
            assert verify_signatures(copies) == with_memo


class TestObjectFlags:
    def test_delegation_verified_once_per_process(self):
        alice = create_principal("Alice", rng=random.Random(9))
        bob = create_principal("Bob", rng=random.Random(10))
        delegation = issue(bob, alice.entity,
                           Role(entity=bob.entity, name="qa"))
        assert delegation.verify_signature()
        object_hits = verify_cache.cache_info()["object_hits"]
        assert delegation.verify_signature()
        assert verify_cache.cache_info()["object_hits"] == object_hits + 1

    def test_redecoded_copy_rides_the_memo(self):
        alice = create_principal("Alice", rng=random.Random(11))
        bob = create_principal("Bob", rng=random.Random(12))
        delegation = issue(bob, alice.entity,
                           Role(entity=bob.entity, name="net"))
        assert delegation.verify_signature()
        copy = type(delegation).from_dict(delegation.to_dict())
        hits = verify_cache.cache_info()["hits"]
        assert copy.verify_signature()
        assert verify_cache.cache_info()["hits"] == hits + 1
