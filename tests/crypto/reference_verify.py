"""Reference Schnorr single check: decompress R, then compare.

This is the check ``SchnorrPublicKey.verify`` ran before it stopped
decompressing R (``_parse_signature`` + ``ec.double_scalar_mult_equals``
in ``src/`` until then): decode the 33 nonce bytes to a curve point --
one modular square root -- hash *that point's* encoding into the
challenge, and compare ``s*G + (n - e)*Q`` with it as points. It stays
here as the oracle the production check's accept set is tested against
(``test_schnorr.py::TestAcceptSetIdentity``) and as the per-item truth
for batch verdicts (``test_batch_verify.py``).
"""

from typing import Optional, Tuple

from repro.crypto import ec
from repro.crypto.hashing import sha256
from repro.crypto.schnorr import SIGNATURE_SIZE


def parse_signature(signature: bytes) -> Optional[Tuple[ec.Point, int]]:
    """Decode a 65-byte signature into (R, s), or None if malformed."""
    if len(signature) != SIGNATURE_SIZE:
        return None
    try:
        r_point = ec.Point.decode(signature[:33])
    except ec.ECError:
        return None
    if r_point.is_infinity:
        return None
    s = int.from_bytes(signature[33:], "big")
    if not ec.is_valid_scalar(s):
        return None
    return r_point, s


def challenge(r_point: ec.Point, public_point: ec.Point,
              message: bytes) -> int:
    digest = sha256(r_point.encode() + public_point.encode() + message)
    e = int.from_bytes(digest, "big") % ec.N
    return e if e != 0 else 1


def double_scalar_mult_equals(a: int, p: ec.Point, b: int, q: ec.Point,
                              expected: ec.Point) -> bool:
    """``a*p + b*q == expected``, by materializing the affine sum."""
    return ec.double_scalar_mult(a, p, b, q) == expected


def reference_verify(public_point: ec.Point, message: bytes,
                     signature: bytes) -> bool:
    parsed = parse_signature(signature)
    if parsed is None:
        return False
    r_point, s = parsed
    e = challenge(r_point, public_point, message)
    return double_scalar_mult_equals(
        s, ec.GENERATOR, ec.N - e, public_point, r_point)


# -- crafted inputs shared by test_schnorr.py and test_batch_verify.py -------

def off_curve_x() -> int:
    """The smallest x with no point on the curve above it."""
    for x in range(1, 50):
        y_squared = (pow(x, 3, ec.P) + ec.B) % ec.P
        if pow(y_squared, (ec.P - 1) // 2, ec.P) != 1:
            return x
    raise AssertionError("no non-residue x below 50")


def mirrored_signature(d: int, message: bytes, k: int = 0x5EC0DE) -> bytes:
    """A cheating signer's signature under private scalar ``d``: the
    bytes (and so the challenge) commit to -R, the scalar answers for
    +R = k*G. ``s*G - e*Q`` lands on the committed x with the other y,
    so only a check that compares the parity byte rejects it."""
    mirrored = ec.point_neg(ec.scalar_mult(k))
    e = challenge(mirrored, ec.scalar_mult(d), message)
    s = (k + e * d) % ec.N
    return mirrored.encode() + s.to_bytes(32, "big")
