"""Benchmark the crypto fast path: memo, double-scalar verify, batching.

Three measurements (see docs/PERFORMANCE.md, "The crypto fast path"):

* **warm vs cold validate_proof** on the Table 3 case-study proof
  (Maria => AirNet.access, 3 links + support proofs, 8 distinct
  certificates). A cold pass re-decodes the proof from its wire form
  and clears the verification memo, paying every signature check; warm
  passes revalidate the same objects and ride the per-object flags.
  Required: >= 5x.
* **cold Schnorr verify** against the pre-change two-multiplication
  baseline (``s*G`` via the generator table plus ``e*P`` via plain
  double-and-add, exactly what ``SchnorrPublicKey.verify`` computed
  before the Strauss/GLV joint ladder). Fresh keys every sample so no
  window table exists for P on either side. Required: >= 1.5x.
* **batch verification, kernel by kernel** (report-only): a grid over
  the (signatures, distinct keys) shapes the call sites see -- (2, 2) a
  federation answer, (7, 2) a cyclic-coalition closure, (16, 4), (64, 6)
  a wallet load -- with hot keys and signatures made fresh for every
  sample, so no nonce point is interned and the equation pays its
  square roots. Prints the single-check kernel, the batch equation and
  which of the two ``schnorr.verify_batch`` dispatches to.

Emits ``BENCH_crypto_fastpath.json`` (git-ignored, not a tracked
trajectory) and exits nonzero if a required speedup is missed. Run
standalone
(``python benchmarks/bench_crypto_fastpath.py [--quick]``) or under
pytest (``pytest benchmarks/bench_crypto_fastpath.py``).
"""

import argparse
import os
import random
import statistics
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import _emit                                          # noqa: E402

from repro.core import SimClock                          # noqa: E402
from repro.core.proof import Proof, validate_proof       # noqa: E402
from repro.crypto import ec, schnorr, verify_cache       # noqa: E402
from repro.crypto.schnorr import (                       # noqa: E402
    SchnorrPrivateKey,
    _challenge,
    _parse_signature,
)
from repro.wallet.wallet import Wallet                   # noqa: E402
from repro.workloads import build_case_study             # noqa: E402

OUTPUT = "BENCH_crypto_fastpath.json"
REQUIRED_WARM_SPEEDUP = 5.0
REQUIRED_VERIFY_SPEEDUP = 1.5


def _median(samples):
    return statistics.median(samples)


def _case_study_proof() -> Proof:
    case = build_case_study()
    wallet = Wallet(owner=None, address="bench", clock=SimClock())
    for delegation, supports in case.all_delegations():
        wallet.publish(delegation, supports)
    proof = wallet.query_direct(case.maria.entity, case.airnet_access)
    assert proof is not None, "case study must yield Maria => access"
    return proof


def bench_validate_proof(repeat: int) -> dict:
    """Cold (fresh objects + cleared memo) vs warm revalidation."""
    proof = _case_study_proof()
    wire = proof.to_dict()
    certificates = len(list(proof.all_delegations()))

    cold_samples = []
    for _ in range(repeat):
        fresh = Proof.from_dict(wire)  # new objects: no per-object flags
        verify_cache.cache_clear()     # and no process-memo entries
        started = time.perf_counter()
        validate_proof(fresh, at=0.0)
        cold_samples.append(time.perf_counter() - started)

    warm_proof = Proof.from_dict(wire)
    validate_proof(warm_proof, at=0.0)  # prime the flags
    warm_samples = []
    for _ in range(repeat * 5):
        started = time.perf_counter()
        validate_proof(warm_proof, at=0.0)
        warm_samples.append(time.perf_counter() - started)

    # Honesty baseline: the memo disabled entirely, every pass cold.
    with verify_cache.disabled():
        disabled_samples = []
        for _ in range(max(3, repeat // 2)):
            fresh = Proof.from_dict(wire)
            started = time.perf_counter()
            validate_proof(fresh, at=0.0)
            disabled_samples.append(time.perf_counter() - started)

    cold = _median(cold_samples)
    warm = _median(warm_samples)
    return {
        "proof_links": proof.depth(),
        "distinct_certificates": certificates,
        "cold_ms": cold * 1e3,
        "warm_ms": warm * 1e3,
        "memo_disabled_ms": _median(disabled_samples) * 1e3,
        "warm_speedup_vs_cold": cold / warm if warm > 0 else float("inf"),
        "memo": verify_cache.cache_info(),
    }


def _baseline_verify(public_point, message: bytes, signature: bytes) -> bool:
    """The pre-change two-multiplication verify, reproduced verbatim:
    ``s*G`` through the generator window table, ``e*P`` as an
    independent multiplication (plain double-and-add for a cold P), and
    a general point addition."""
    parsed = _parse_signature(signature)
    if parsed is None:
        return False
    r_bytes, _x, s = parsed
    r_point = ec.Point.decode(r_bytes)
    e = _challenge(r_bytes, public_point, message)
    lhs = ec.scalar_mult(s)
    rhs = ec.point_add(r_point, ec.scalar_mult_plain(e, public_point))
    return lhs == rhs


def bench_schnorr_verify(repeat: int) -> dict:
    """Cold single verify: joint ladder vs two-multiplication baseline."""
    rng = random.Random(4242)
    baseline_samples = []
    fastpath_samples = []
    for index in range(repeat):
        key = SchnorrPrivateKey(rng.randrange(1, ec.N))
        public = key.public_key
        message = b"fastpath sample %d" % index
        signature = key.sign(message)

        started = time.perf_counter()
        ok_base = _baseline_verify(public.point, message, signature)
        baseline_samples.append(time.perf_counter() - started)

        started = time.perf_counter()
        ok_fast = public.verify(message, signature)
        fastpath_samples.append(time.perf_counter() - started)
        assert ok_base and ok_fast

    baseline = _median(baseline_samples)
    fastpath = _median(fastpath_samples)
    return {
        "baseline_two_mult_ms": baseline * 1e3,
        "joint_ladder_ms": fastpath * 1e3,
        "cold_verify_speedup":
            baseline / fastpath if fastpath > 0 else float("inf"),
    }


BATCH_SHAPES = ((2, 2), (7, 2), (16, 4), (64, 6))


def bench_batch_verify(repeat: int) -> dict:
    """Report-only: both verification kernels over the shapes the call
    sites produce, and the one the dispatch picks for each."""
    rng = random.Random(77)
    signers = [SchnorrPrivateKey(rng.randrange(1, ec.N))
               for _ in range(max(keys for _count, keys in BATCH_SHAPES))]
    for signer in signers:      # past the comb threshold: hot keys
        for index in range(ec._COMB_BUILD_THRESHOLD + 1):
            message = b"warm %d" % index
            assert signer.public_key.verify(message, signer.sign(message))

    serial = 0
    shapes = []
    for count, keys in BATCH_SHAPES:
        single_samples = []
        equation_samples = []
        for _ in range(repeat):
            items = []
            for index in range(2 * count):      # fresh per sample
                signer = signers[index % keys]
                serial += 1
                message = b"batch sample %d" % serial
                items.append((signer.public_key, message,
                              signer.sign(message)))
            started = time.perf_counter()
            assert all(public.verify(message, signature)
                       for public, message, signature in items[:count])
            single_samples.append(time.perf_counter() - started)

            dispatch = schnorr.equation_wins
            schnorr.equation_wins = lambda _items, _keys: True
            try:
                started = time.perf_counter()
                assert schnorr.verify_batch(items[count:])
                equation_samples.append(time.perf_counter() - started)
            finally:
                schnorr.equation_wins = dispatch
        single = _median(single_samples) / count
        equation = _median(equation_samples) / count
        shapes.append({
            "items": count,
            "keys": keys,
            "single_ms_per_signature": single * 1e3,
            "equation_ms_per_signature": equation * 1e3,
            "dispatch": "equation" if schnorr.equation_wins(count, keys)
                        else "single",
        })
    return {"shapes": shapes}


def run(quick: bool, output: str, metrics_out=None) -> int:
    started = time.perf_counter()
    repeat = 5 if quick else 15

    validate = bench_validate_proof(repeat)
    print(f"validate_proof   cold={validate['cold_ms']:.2f}ms "
          f"warm={validate['warm_ms']:.4f}ms "
          f"disabled={validate['memo_disabled_ms']:.2f}ms "
          f"speedup={validate['warm_speedup_vs_cold']:.0f}x "
          f"(required {REQUIRED_WARM_SPEEDUP:.0f}x)")

    verify = bench_schnorr_verify(repeat * 2)
    print(f"schnorr verify   baseline={verify['baseline_two_mult_ms']:.2f}ms "
          f"joint={verify['joint_ladder_ms']:.2f}ms "
          f"speedup={verify['cold_verify_speedup']:.2f}x "
          f"(required {REQUIRED_VERIFY_SPEEDUP:.1f}x)")

    batch = bench_batch_verify(max(3, repeat // 2))
    for shape in batch["shapes"]:
        print(f"batch verify     n={shape['items']:<2} k={shape['keys']} "
              f"single={shape['single_ms_per_signature']:.3f} "
              f"equation={shape['equation_ms_per_signature']:.3f} "
              f"ms/signature -> {shape['dispatch']} (report-only)")

    ok = (validate["warm_speedup_vs_cold"] >= REQUIRED_WARM_SPEEDUP
          and verify["cold_verify_speedup"] >= REQUIRED_VERIFY_SPEEDUP)

    _emit.emit(output, "crypto_fastpath", {
        "required_warm_speedup": REQUIRED_WARM_SPEEDUP,
        "required_verify_speedup": REQUIRED_VERIFY_SPEEDUP,
        "pass": ok,
        "validate_proof": validate,
        "schnorr_verify": verify,
        "batch_verify": batch,
    }, quick=quick, started=started, metrics_out=metrics_out)
    print(f"wrote {output} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# -- pytest entry points -----------------------------------------------------

def test_crypto_fastpath_speedups(tmp_path):
    """Shape claim: warm validation 5x+, joint-ladder verify 1.5x+."""
    assert run(quick=True, output=str(tmp_path / OUTPUT)) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    _emit.add_common_args(parser, OUTPUT)
    args = parser.parse_args(argv)
    return run(quick=args.quick, output=args.output,
               metrics_out=args.metrics_out)


if __name__ == "__main__":
    raise SystemExit(main())
