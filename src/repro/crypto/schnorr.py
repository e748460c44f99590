"""Schnorr signatures over secp256k1 with deterministic nonces.

This is the default signature scheme for dRBAC entities: key generation is
a single scalar multiplication (fast enough to mint hundreds of simulated
entities per second in pure Python), and signatures are small (64 bytes).

Scheme (classic Schnorr, hash-commitment variant):

* keygen:  d <- [1, n),  Q = d*G
* sign:    k = H(d || m) mod n (deterministic, RFC6979-flavored),
           R = k*G,  e = H(R || Q || m) mod n,  s = k + e*d mod n,
           signature = (R.encode(), s)
* verify:  e = H(R || Q || m) mod n, accept iff s*G == R + e*Q

Deterministic nonces remove the catastrophic failure mode of repeated k
values and make the whole system reproducible under seeded entity creation.
"""

import secrets
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from repro.crypto import ec
from repro.crypto.hashing import hmac_sha256, sha256

SIGNATURE_SIZE = 33 + 32  # compressed R point + 32-byte scalar s


class SchnorrError(ValueError):
    """Raised on malformed Schnorr keys or signatures."""


@dataclass(frozen=True)
class SchnorrPublicKey:
    """A Schnorr verification key: a point on secp256k1."""

    point: ec.Point

    def __post_init__(self) -> None:
        if self.point.is_infinity:
            raise SchnorrError("public key may not be the identity point")

    def encode(self) -> bytes:
        return self.point.encode()

    @staticmethod
    def decode(data: bytes) -> "SchnorrPublicKey":
        return SchnorrPublicKey(ec.Point.decode(data))

    @staticmethod
    def check(data: bytes) -> None:
        """Raise exactly what :meth:`decode` would raise on ``data``,
        without decompressing the point (:func:`ec.check_encoding`)."""
        if ec.check_encoding(data):
            raise SchnorrError("public key may not be the identity point")

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Return True iff ``signature`` is valid for ``message``.

        The check ``s*G == R + e*Q`` is rearranged to
        ``s*G + (n - e)*Q == R`` so both scalar multiplications run as
        one :func:`ec.double_scalar_mult` (two table multiplications for
        a hot key, one joint ladder for a cold one), and the sum's
        affine x and y parity are compared with the 33 bytes of R as
        received. R is never decompressed: an x that is not on the
        curve cannot equal the x of a curve point, so the accept set is
        that of the decode-and-compare form without its square root.
        """
        return _single_check(self, message, signature, {})


@dataclass(frozen=True)
class SchnorrPrivateKey:
    """A Schnorr signing key: a scalar in [1, n)."""

    d: int

    def __post_init__(self) -> None:
        if not ec.is_valid_scalar(self.d):
            raise SchnorrError("private scalar out of range")

    @cached_property
    def public_key(self) -> SchnorrPublicKey:
        """``d*G``, computed once per key (``sign`` reads it on every
        call)."""
        return SchnorrPublicKey(ec.scalar_mult(self.d))

    def sign(self, message: bytes) -> bytes:
        """Produce a deterministic 65-byte Schnorr signature."""
        public_point = self.public_key.point
        attempt = 0
        while True:
            k = _deterministic_nonce(self.d, message, start=attempt)
            r_bytes = ec.scalar_mult(k).encode()
            e = _challenge(r_bytes, public_point, message)
            s = (k + e * self.d) % ec.N
            if s != 0:
                return r_bytes + s.to_bytes(32, "big")
            # Astronomically unlikely: re-derive the nonce for the SAME
            # message from the next counter value. (Tweaking the message
            # itself, as older revisions did, produced a signature that
            # would never verify for the message actually passed in.)
            attempt += 1


def generate_schnorr_keypair(
        rng: Optional[secrets.SystemRandom] = None) -> SchnorrPrivateKey:
    """Generate a fresh Schnorr signing key."""
    rand = rng if rng is not None else secrets.SystemRandom()
    while True:
        d = rand.randrange(1, ec.N)
        if ec.is_valid_scalar(d):
            return SchnorrPrivateKey(d)


def _deterministic_nonce(d: int, message: bytes, start: int = 0) -> int:
    """Derive a per-(key, message) nonce via iterated HMAC (RFC6979 style).

    ``start`` offsets the HMAC counter: ``sign`` passes 1, 2, ... to
    retry over the *same* message when s == 0 comes out. ``start=0``
    reproduces the historical derivation bit-for-bit, so existing
    signatures are unchanged.
    """
    key = d.to_bytes(32, "big")
    counter = start
    while True:
        digest = hmac_sha256(key, sha256(message) + counter.to_bytes(4, "big"))
        k = int.from_bytes(digest, "big") % ec.N
        if k != 0:
            return k
        counter += 1


def _challenge(r_bytes: bytes, public_point: ec.Point,
               message: bytes) -> int:
    """Fiat-Shamir challenge binding nonce commitment (the 33 encoded
    bytes of R), key, and message."""
    digest = sha256(r_bytes + public_point.encode() + message)
    e = int.from_bytes(digest, "big") % ec.N
    return e if e != 0 else 1


def _single_check(key: SchnorrPublicKey, message: bytes, signature: bytes,
                  looked_up: dict) -> bool:
    """:meth:`SchnorrPublicKey.verify`, its table lookups shared through
    ``looked_up`` (see :func:`ec.double_scalar_mult`)."""
    parsed = _parse_signature(signature)
    if parsed is None:
        return False
    r_bytes, x, s = parsed
    e = _challenge(r_bytes, key.point, message)
    total = ec.double_scalar_mult(s, ec.GENERATOR, ec.N - e, key.point,
                                  looked_up)
    return total.x == x and (total.y & 1) == (r_bytes[0] & 1)


def _parse_signature(signature: bytes
                     ) -> Optional[Tuple[bytes, int, int]]:
    """Split a 65-byte signature into (R bytes, R's x, s), or None if
    malformed: R must be a compressed finite point encoding (prefix 2
    or 3, x < P; curve membership is the caller's to establish) and s
    a scalar in [1, N)."""
    if not isinstance(signature, (bytes, bytearray, memoryview)) \
            or len(signature) != SIGNATURE_SIZE:
        return None
    r_bytes = bytes(signature[:33])
    x = int.from_bytes(r_bytes[1:], "big")
    s = int.from_bytes(signature[33:], "big")
    if r_bytes[0] not in (2, 3) or x >= ec.P or not ec.is_valid_scalar(s):
        return None
    return r_bytes, x, s


# -- batch verification ------------------------------------------------------

# An item to batch-verify: (public key, message, signature).
BatchItem = Tuple[SchnorrPublicKey, bytes, bytes]

# What each kernel costs in mixed point additions once the keys are hot
# (comb tables), counted by tests/crypto/test_batch_verify.py. A single
# check is two comb multiplications per signature, at most 26 mixed
# additions each. The batch equation is one bucket sum
# (ec.batch_equation_holds) whose points each cost one batched affine
# addition (~0.7 of a mixed addition): ~26 comb entries per distinct
# key and for the generator, ~16 signed digits per nonce point after
# the first. Once per equation: the bucket sums spread over
# their columns (up to 40 points), the ladder's 32 doublings (~0.65
# each) and one mixed addition per column, ~7 level inversions (~4
# each), less the points that end alone in a column and so skip the
# affine addition.
_SINGLE_COST = 52
_COMB_COST = 18
_NONCE_COST = 12
_LADDER_COST = 68


def equation_wins(items: int, keys: int) -> bool:
    """Is the batch equation cheaper than ``items`` single checks, for
    signatures by ``keys`` distinct keys? (7 by 2 and 3 by 1: yes; 2 by
    1 and 2 by 2: no.)"""
    return _COMB_COST * (keys + 1) + _NONCE_COST * (items - 1) \
        + _LADDER_COST < _SINGLE_COST * items


def verify_batch(items: Sequence[BatchItem],
                 rng: Optional[secrets.SystemRandom] = None) -> bool:
    """All-or-nothing batch verification via a random linear combination.

    Each item i contributes the equation ``s_i*G == R_i + e_i*Q_i``.
    Summing them directly would let errors cancel, so each is weighted
    by a coefficient z_i and the combined check

        (sum z_i*s_i)*G - sum (z_i*e_i)*Q_i == sum z_i*R_i

    runs as ONE :func:`ec.batch_equation_holds`: one bucket sum over
    the nonce points and the table entries of the generator and the
    merged per-key terms. z_0 = 1 (as in BIP340 batch verification);
    every other z_i is ``a + b*lambda mod N`` for the two 32-bit halves
    (a, b) of one fresh nonzero 64-bit draw, so the sum's ladder is 32
    doublings tall.

    Soundness: write item i's error as ``s_i*G - e_i*Q_i - R_i = d_i*G``;
    the batch accepts iff ``sum z_i*d_i == 0 mod N``. If item 0 is the
    only bad one, that sum is d_0 != 0. Otherwise fix a bad item i > 0
    and the other coefficients: one z_i cancels it, and at most one draw
    gives that z_i, because ``(a, b) -> a + b*lambda mod N`` is
    injective on [0, 2**32)**2 (the lattice of its collisions has no
    vector shorter than ~2**128; ``tests/crypto/test_batch_kernel.py``
    pins it). A forged item slips through with probability 2**-64 per
    attempt (2**-63 if the cancelling draw is 1, which a zero draw also
    becomes), and the coefficients are fresh per call, so a failure
    cannot be replayed into an accept. A batch too small for the
    equation to pay for itself (:func:`equation_wins`) runs the single
    check per item.

    Returns True iff every item would verify individually. Use
    :func:`verify_batch_bisect` to identify *which* items failed.
    ``rng`` exists so tests can force coefficient choices.
    """
    if not equation_wins(len(items), len({key for key, _m, _s in items})):
        # One lookup of each key's tables for the whole batch, as the
        # equation does: the kernel a batch takes must not decide which
        # keys earn tables.
        looked_up: dict = {}
        return all(_single_check(key, message, signature, looked_up)
                   for key, message, signature in items)
    parsed = []
    for public_key, message, signature in items:
        decoded = _parse_signature(signature)
        if decoded is None:
            return False
        r_bytes, _x, s = decoded
        try:
            r_point = ec.Point.decode(r_bytes)
        except ec.ECError:
            return False
        e = _challenge(r_bytes, public_key.point, message)
        parsed.append((public_key.point, r_point, s, e))
    # Item 0's coefficient is 1; every other item draws one nonzero
    # 64-bit value whose two 32-bit halves (a, b) give z = a + b*lambda.
    if rng is None:
        # One entropy read for the whole batch instead of one syscall
        # per item; `or 1` keeps a draw nonzero.
        blob = secrets.token_bytes(8 * (len(parsed) - 1))
        draws = [int.from_bytes(blob[index:index + 8], "big") or 1
                 for index in range(0, len(blob), 8)]
    else:
        draws = [rng.randrange(1, 1 << 64) for _ in parsed[1:]]
    q, first_nonce, s_combined, e = parsed[0]
    key_terms: List[Tuple[int, ec.Point]] = [(-e, q)]
    split_nonces: List[Tuple[int, int, ec.Point]] = []
    for (q, r_point, s, e), draw in zip(parsed[1:], draws):
        b, a = divmod(draw, 1 << 32)
        z = (a + b * ec.GLV_LAMBDA) % ec.N
        s_combined += z * s
        key_terms.append((-z * e, q))
        split_nonces.append((a, b, r_point))
    key_terms.append((s_combined, ec.GENERATOR))
    return ec.batch_equation_holds(key_terms, first_nonce, split_nonces)


def verify_batch_bisect(items: Sequence[BatchItem],
                        rng: Optional[secrets.SystemRandom] = None
                        ) -> List[bool]:
    """Per-item verification results, batch-fast when everything is good.

    Runs :func:`verify_batch` on the whole sequence first; on failure,
    bisects recursively so a single bad certificate in a large import is
    pinpointed in O(log n) batch checks instead of n individual ones.
    """
    results = [False] * len(items)

    def _check(lo: int, hi: int) -> None:
        span = items[lo:hi]
        if verify_batch(span, rng=rng):
            for index in range(lo, hi):
                results[index] = True
            return
        if hi - lo == 1:
            return
        mid = (lo + hi) // 2
        _check(lo, mid)
        _check(mid, hi)

    if items:
        _check(0, len(items))
    return results
