"""Elliptic-curve group arithmetic over secp256k1.

Provides the group operations needed by the Schnorr signature scheme in
:mod:`repro.crypto.schnorr`: point addition, doubling, and scalar
multiplication using Jacobian projective coordinates. Pure Python,
stdlib only.

One scalar-multiplication stack, fastest applicable layer wins:

* **fixed-base tables** (:class:`_FixedBaseTable`) for reused base
  points: affine multiples of P read by the signed digits of the two
  GLV halves of the scalar, so one multiplication is one *mixed*
  addition per digit and zero doublings -- width-10 combs (at most 26
  additions) for the hottest points (the generator and entity keys
  after sustained reuse), width-6 window tables (~44 additions, ten
  times cheaper to build) for warm ones;
* **one Strauss/Shamir joint ladder** (:func:`double_scalar_mult`) for
  the verification equation's ``s*G - e*P`` while a key is still cold
  -- all scalars share one run of doublings, the secp256k1 GLV
  endomorphism (``lambda*(x, y) = (beta*x, y)``) halves each scalar to
  ~128 bits so the shared ladder is half as tall, width-5 wNAF recoding
  keeps the addition density at ~1/6 per bit, and all precomputed
  odd-multiple rows for one call share a single Montgomery-batched
  inversion;
* **one bucket sum** (:func:`batch_equation_holds`) for a
  batch-verification equation: its nonce coefficients come as two
  32-bit halves of ``a + b*lambda``, recoded as signed 4-bit digits
  into buckets, and the tabled keys' comb or window entries join at
  weight 1; every bucket is summed with affine additions that share
  one inversion per level, then one 32-doubling ladder adds them up;
  no nonce point reaches a table or a promotion count;
* **plain double-and-add** (:func:`scalar_mult_plain`) for a point seen
  once or twice, and the independent oracle every table and ladder
  above is tested against (``tests/crypto``: edge scalars, Hypothesis
  cross-checks, published secp256k1 vectors).

Curve: y^2 = x^3 + 7 over F_p with the standard secp256k1 parameters.
"""

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto.pools import make_room

# secp256k1 domain parameters.
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
A = 0
B = 7
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141


class ECError(ValueError):
    """Raised on invalid curve points or scalars."""


@dataclass(frozen=True)
class Point:
    """An affine point on secp256k1; ``None`` coordinates mean infinity."""

    x: Optional[int]
    y: Optional[int]

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __post_init__(self) -> None:
        if (self.x is None) != (self.y is None):
            raise ECError("both coordinates must be None for infinity")
        if self.x is not None:
            if not (0 <= self.x < P and 0 <= self.y < P):
                raise ECError("coordinates out of field range")
            if (self.y * self.y - (self.x ** 3 + A * self.x + B)) % P != 0:
                raise ECError("point is not on secp256k1")

    def encode(self) -> bytes:
        """Compressed SEC1 encoding (33 bytes), or b'\\x00' for infinity."""
        if self.is_infinity:
            return b"\x00"
        prefix = b"\x03" if self.y & 1 else b"\x02"
        return prefix + self.x.to_bytes(32, "big")

    @staticmethod
    def decode(data: bytes) -> "Point":
        """Decode a compressed SEC1 point, validating curve membership.

        Strict: exactly one byte for infinity, exactly 33 bytes for a
        finite point -- trailing bytes are rejected explicitly so a
        framing bug upstream cannot smuggle data past a signature.

        Decompression costs a modular square root (~75us), so it runs
        only where arithmetic needs ``y``: a key on its first verify, a
        nonce point in a batch equation. :func:`check_encoding` accepts
        and refuses exactly the same bytes without it. Wire payloads
        repeat the same handful of issuer keys, so decoded points are
        interned in a bounded pool keyed by the exact input bytes.
        """
        data = _checked_encoding(data)
        if len(data) == 1:
            return INFINITY
        cached = _point_intern.get(data)
        if cached is not None:
            return cached
        x = _encoded_x(data)
        y_squared = (pow(x, 3, P) + A * x + B) % P
        y = pow(y_squared, (P + 1) // 4, P)  # p = 3 mod 4 on secp256k1
        if (y * y) % P != y_squared:
            raise ECError("x is not on the curve")
        if (y & 1) != (data[0] & 1):
            y = P - y
        point = Point(x, y)
        make_room(_point_intern, _POINT_INTERN_LIMIT)
        _point_intern[data] = point
        return point


def check_encoding(data: bytes) -> bool:
    """Refuse ``data`` exactly as :meth:`Point.decode` would -- the same
    :class:`ECError`, message and order -- without computing ``y``.

    Returns True iff ``data`` encodes the point at infinity. An ``x`` is
    on the curve iff ``x^3 + 7`` is a square mod P, which the Jacobi
    symbol decides at about a quarter of the square root's cost; bytes
    already decoded (interned) pass at once.
    """
    data = _checked_encoding(data)
    if len(data) == 1:
        return True
    if data not in _point_intern and \
            _jacobi((pow(_encoded_x(data), 3, P) + B) % P) < 0:
        raise ECError("x is not on the curve")
    return False


def intern(point: Point) -> bytes:
    """``point.encode()``, entered in the decoded-point pool: a point this
    process computed (a generated key) then decodes, and passes
    :func:`check_encoding`, at once wherever its bytes arrive."""
    data = point.encode()
    make_room(_point_intern, _POINT_INTERN_LIMIT)
    _point_intern[data] = point
    return data


def _checked_encoding(data: bytes) -> bytes:
    """``data`` as bytes of a well-formed SEC1 shape: one zero byte for
    infinity, or a 02/03 prefix and 32 bytes of ``x``."""
    if not isinstance(data, bytes):
        if not isinstance(data, (bytearray, memoryview)):
            raise ECError(f"expected bytes, got {type(data).__name__}")
        data = bytes(data)
    if data[:1] == b"\x00":
        if len(data) != 1:
            raise ECError("trailing bytes after infinity encoding")
        return data
    if len(data) != 33 or data[0] not in (2, 3):
        if len(data) > 33 and data[0] in (2, 3):
            raise ECError("trailing bytes after compressed point")
        raise ECError("invalid compressed point encoding")
    return data


def _encoded_x(data: bytes) -> int:
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise ECError("x coordinate out of range")
    return x


def _jacobi(a: int) -> int:
    """The Jacobi symbol (a / P): 1 for a nonzero square mod P, -1 for a
    non-square, 0 for a multiple of P (P is prime, so this is Euler's
    criterion ``a^((P-1)/2)`` without the exponentiation)."""
    n = P
    a %= n
    result = 1
    while a:
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        if zeros & 1 and (n & 7) in (3, 5):
            result = -result
        if (a & n & 3) == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


INFINITY = Point(None, None)
GENERATOR = Point(GX, GY)

# Jacobian coordinates: (X, Y, Z) represents affine (X/Z^2, Y/Z^3).
_Jacobian = Tuple[int, int, int]
_J_INFINITY: _Jacobian = (1, 1, 0)

# Affine table entries: (x, y) with an implicit z == 1.
_Affine = Tuple[int, int]


def _to_jacobian(point: Point) -> _Jacobian:
    if point.is_infinity:
        return _J_INFINITY
    return (point.x, point.y, 1)


def _from_jacobian(point: _Jacobian) -> Point:
    x, y, z = point
    if z == 0:
        return INFINITY
    z_inv = pow(z, -1, P)
    z_inv2 = (z_inv * z_inv) % P
    return Point((x * z_inv2) % P, (y * z_inv2 * z_inv) % P)


def _jacobian_double(point: _Jacobian) -> _Jacobian:
    x, y, z = point
    if z == 0 or y == 0:
        return _J_INFINITY
    ysq = (y * y) % P
    s = (4 * x * ysq) % P
    m = (3 * x * x) % P  # a == 0 on secp256k1
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = (2 * y * z) % P
    return (nx, ny, nz)


def _jacobian_add(p1: _Jacobian, p2: _Jacobian) -> _Jacobian:
    if p1[2] == 0:
        return p2
    if p2[2] == 0:
        return p1
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    z1sq = (z1 * z1) % P
    z2sq = (z2 * z2) % P
    u1 = (x1 * z2sq) % P
    u2 = (x2 * z1sq) % P
    s1 = (y1 * z2sq * z2) % P
    s2 = (y2 * z1sq * z1) % P
    if u1 == u2:
        if s1 != s2:
            return _J_INFINITY
        return _jacobian_double(p1)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    h2 = (h * h) % P
    h3 = (h * h2) % P
    u1h2 = (u1 * h2) % P
    nx = (r * r - h3 - 2 * u1h2) % P
    ny = (r * (u1h2 - nx) - s1 * h3) % P
    nz = (h * z1 * z2) % P
    return (nx, ny, nz)


def _jacobian_add_affine(p1: _Jacobian, x2: int, y2: int) -> _Jacobian:
    """Mixed addition: Jacobian ``p1`` plus affine ``(x2, y2)``.

    Saves the z2 normalization work of the general formula -- the inner
    loops of the window tables and joint ladders only ever add affine
    table entries, so this is the hottest function in the module.
    """
    x1, y1, z1 = p1
    if z1 == 0:
        return (x2, y2, 1)
    z1sq = (z1 * z1) % P
    u2 = (x2 * z1sq) % P
    s2 = (y2 * z1sq * z1) % P
    if u2 == x1:
        if s2 != y1:
            return _J_INFINITY
        return _jacobian_double(p1)
    h = (u2 - x1) % P
    r = (s2 - y1) % P
    h2 = (h * h) % P
    h3 = (h * h2) % P
    u1h2 = (x1 * h2) % P
    nx = (r * r - h3 - 2 * u1h2) % P
    ny = (r * (u1h2 - nx) - y1 * h3) % P
    nz = (h * z1) % P
    return (nx, ny, nz)


def _batch_to_affine(points: Sequence[_Jacobian]) -> List[_Affine]:
    """Normalize many Jacobian points with ONE field inversion
    (Montgomery's trick). All inputs must be finite (z != 0)."""
    zs = [point[2] for point in points]
    prefix = [1] * (len(zs) + 1)
    acc = 1
    for index, z in enumerate(zs):
        prefix[index] = acc
        acc = (acc * z) % P
    inv = pow(acc, -1, P)
    out: List[_Affine] = [None] * len(points)  # type: ignore[list-item]
    for index in range(len(points) - 1, -1, -1):
        z_inv = (prefix[index] * inv) % P
        inv = (inv * zs[index]) % P
        x, y, _z = points[index]
        z_inv2 = (z_inv * z_inv) % P
        out[index] = ((x * z_inv2) % P, (y * z_inv2 * z_inv) % P)
    return out


def point_add(p1: Point, p2: Point) -> Point:
    """Return the group sum of two affine points."""
    return _from_jacobian(_jacobian_add(_to_jacobian(p1), _to_jacobian(p2)))


def point_neg(point: Point) -> Point:
    """Return the additive inverse of ``point``."""
    if point.is_infinity:
        return INFINITY
    return Point(point.x, (P - point.y) % P)


class _FixedBaseTable:
    """Precomputed signed-digit multiples of a reused base point P.

    ``windows[j][d] = d * 2**(bits*j) * P`` in affine coordinates, for
    digits d in 1..2**(bits-1) and enough windows j to cover one GLV
    half (|k1|, |k2| < 2**128). A scalar is split into ``k1 + k2*lambda``
    (:func:`_glv_split`) and each half recoded as signed ``bits``-bit
    digits; both halves read the same rows, the lambda-half as
    ``(beta*x, y)``, and a negative digit or half negates y. One
    multiplication is then one mixed addition per nonzero digit, at
    most ``2 * len(windows)``, and no doublings. Two tiers use it: a
    width-6 window table (22 x 32 entries, ~44 additions) for warm
    points and a width-10 comb (13 x 512 entries, at most 26 additions)
    for the hottest. The build walks each window with mixed additions
    off the window's affine base, one inversion per window to carry the
    base across (one doubling of the top entry), and one batch
    inversion for every entry. A half below ``2**_GLV_HALF_BITS`` leaves
    the top window room for any carry.
    """

    __slots__ = ("bits", "windows")

    def __init__(self, point: Point, bits: int) -> None:
        self.bits = bits
        top = 1 << (bits - 1)
        flat: List[_Jacobian] = []
        add_affine = _jacobian_add_affine
        base_x, base_y = point.x, point.y
        count = -(-(_GLV_HALF_BITS + 1) // bits)
        for window in range(count):
            accum: _Jacobian = (base_x, base_y, 1)
            flat.append(accum)
            for _digit in range(2, top + 1):
                accum = add_affine(accum, base_x, base_y)
                flat.append(accum)
            if window + 1 < count:
                # accum == top * base; doubled, the next window's base,
                # normalized on its own so the additions above stay mixed.
                base_x, base_y = _batch_to_affine(
                    [_jacobian_double(accum)])[0]
        affine = _batch_to_affine(flat)
        self.windows = [[None] + affine[j * top:(j + 1) * top]
                        for j in range(count)]

    def entries(self, scalar: int) -> List[_Affine]:
        """The affine points whose sum is ``scalar * P``, scalar in
        [0, N): one per nonzero signed digit of each GLV half."""
        bits = self.bits
        mask = (1 << bits) - 1
        top = 1 << (bits - 1)
        out: List[_Affine] = []
        append = out.append
        for half, lam in zip(_glv_split(scalar), (False, True)):
            negative = half < 0
            if negative:
                half = -half
            for row in self.windows:
                if not half:
                    break
                digit = half & mask
                half >>= bits
                if digit > top:
                    half += 1
                    x, y = row[mask + 1 - digit]
                    flip = not negative
                elif digit:
                    x, y = row[digit]
                    flip = negative
                else:
                    continue
                if lam:
                    x = (x * GLV_BETA) % P
                append((x, P - y if flip else y))
        return out

    def mult_jac(self, scalar: int) -> _Jacobian:
        result: _Jacobian = _J_INFINITY
        add_affine = _jacobian_add_affine
        for x, y in self.entries(scalar):
            result = add_affine(result, x, y)
        return result

    def mult(self, scalar: int) -> Point:
        return _from_jacobian(self.mult_jac(scalar))


# Tables for reused base points (entity public keys). Building a table
# costs about two plain multiplications, so it only pays off for points
# used repeatedly -- we count uses and switch over at a threshold. Both
# maps are bounded so a workload minting thousands of one-shot entities
# cannot grow memory without limit; eviction is FIFO
# (:func:`repro.crypto.pools.make_room`), fine for this access pattern.
_WINDOW_BITS = 6
_COMB_BITS = 10
_TABLE_CACHE_LIMIT = 512
_TABLE_BUILD_THRESHOLD = 3
_table_cache: dict = {}
_use_counts: dict = {}

# Small per-point affine rows ([1..15] * P) used by the joint ladder
# for points that are not (yet) hot enough for a full window table.
# Bounded FIFO for the same reason as the table cache above.
_ROW_CACHE_LIMIT = 1024
_row_cache: dict = {}

# Decoded-point intern pool: wire payloads repeat the same
# issuer keys and nonce points; interning skips the ~75us square root
# of a repeat decode (a key is decoded on its first verify, never on
# construction). Keyed by the exact 33 encoded bytes, so two inputs
# share an entry only when they are literally the same encoding.
_POINT_INTERN_LIMIT = 4096
_point_intern: dict = {}

# Comb tables for the hottest points. Building one costs ~6.7k point
# additions, so promotion needs sustained reuse; the build runs under a
# lock so concurrent verifiers cannot duplicate it. Promotion freezes
# once the cache is full (see _comb_for).
_COMB_CACHE_LIMIT = 16
_COMB_BUILD_THRESHOLD = 24
_comb_cache: dict = {}
_comb_use_counts: dict = {}
_FAST_LOCK = threading.Lock()


def _table_for(point: Point):
    """The point's window table, or None while it is still 'cold'."""
    key = (point.x, point.y)
    table = _table_cache.get(key)
    if table is not None:
        return table
    count = _use_counts.get(key, 0) + 1
    if count < _TABLE_BUILD_THRESHOLD:
        make_room(_use_counts, 4 * _TABLE_CACHE_LIMIT)
        _use_counts[key] = count
        return None
    _use_counts.pop(key, None)
    table = _FixedBaseTable(point, _WINDOW_BITS)
    make_room(_table_cache, _TABLE_CACHE_LIMIT)
    _table_cache[key] = table
    return table


def _comb_for(point: Point):
    """The point's comb table, or None while it is not hot enough.

    Counted promotion like :func:`_table_for`, but promotion FREEZES
    once the cache is full instead of evicting: a comb build is ~10x
    a window-table build, so evicting the generator's comb for a
    merely-recurring point (a signature's R seen a few dozen times)
    would thrash the cache with rebuilds. The truly hot points -- the
    generator and the issuer keys, used once per verification across
    *all* certificates -- cross the threshold first and keep their
    slots; everything else still gets the window-table path. The
    expensive build itself runs under ``_FAST_LOCK`` so two threads
    racing on the same point build it once.
    """
    key = (point.x, point.y)
    comb = _comb_cache.get(key)
    if comb is not None:
        return comb
    if len(_comb_cache) >= _COMB_CACHE_LIMIT:
        return None
    count = _comb_use_counts.get(key, 0) + 1
    if count < _COMB_BUILD_THRESHOLD:
        make_room(_comb_use_counts, 4 * _COMB_CACHE_LIMIT)
        _comb_use_counts[key] = count
        return None
    with _FAST_LOCK:
        comb = _comb_cache.get(key)
        if comb is None and len(_comb_cache) < _COMB_CACHE_LIMIT:
            comb = _FixedBaseTable(point, _COMB_BITS)
            _comb_cache[key] = comb
        _comb_use_counts.pop(key, None)
    return comb


def scalar_mult(scalar: int, point: Point = GENERATOR) -> Point:
    """Return ``scalar * point``; hot points use a precomputed comb or
    window table, cold points plain double-and-add."""
    scalar %= N
    if scalar == 0 or point.is_infinity:
        return INFINITY
    comb = _comb_for(point)
    if comb is not None:
        return comb.mult(scalar)
    table = _table_for(point)
    if table is None:
        return scalar_mult_plain(scalar, point)
    return table.mult(scalar)


def scalar_mult_plain(scalar: int, point: Point = GENERATOR) -> Point:
    """Table-free double-and-add: the cold-point path of
    :func:`scalar_mult` and the oracle for everything faster."""
    scalar %= N
    if scalar == 0 or point.is_infinity:
        return INFINITY
    result: _Jacobian = _J_INFINITY
    addend = _to_jacobian(point)
    while scalar:
        if scalar & 1:
            result = _jacobian_add(result, addend)
        addend = _jacobian_double(addend)
        scalar >>= 1
    return _from_jacobian(result)


# -- GLV endomorphism (secp256k1) --------------------------------------------
#
# secp256k1 has an efficiently computable endomorphism
# ``lambda * (x, y) = (beta * x, y)`` with lambda^3 = 1 mod N and
# beta^3 = 1 mod P. Decomposing a 256-bit scalar k into k1 + k2*lambda
# with |k1|, |k2| ~ 2^128 halves the height of the joint ladder.
# Constants are the standard published secp256k1 GLV parameters.

GLV_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
GLV_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_GLV_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_GLV_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_GLV_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_GLV_B2 = _GLV_A1
# |k1| <= (_GLV_A1 + _GLV_A2) / 2 and |k2| <= (_GLV_A1 - _GLV_B1) / 2,
# both below 2**128 (pinned by tests/crypto/test_batch_kernel.py).
_GLV_HALF_BITS = 128


def _glv_split(scalar: int) -> Tuple[int, int]:
    """Split ``scalar`` (mod N) into (k1, k2) with k1 + k2*lambda == scalar
    and |k1|, |k2| roughly sqrt(N)."""
    c1 = (_GLV_B2 * scalar + N // 2) // N
    c2 = (-_GLV_B1 * scalar + N // 2) // N
    k1 = scalar - c1 * _GLV_A1 - c2 * _GLV_A2
    k2 = -c1 * _GLV_B1 - c2 * _GLV_B2
    return k1, k2


def _beta_row(row: List[_Affine]) -> List[_Affine]:
    """The affine row of ``lambda * P`` derived from P's row -- 15 cheap
    field multiplications instead of 14 point additions."""
    return [None] + [((x * GLV_BETA) % P, y) for x, y in row[1:]]


def _negate_row(row: List[_Affine]) -> List[_Affine]:
    return [None] + [(x, P - y) for x, y in row[1:]]


def _signed_pair(scalar: int, row: List[_Affine]
                 ) -> Optional[Tuple[int, List[_Affine]]]:
    """(abs(scalar), row-or-negated-row), or None for a zero scalar."""
    if scalar == 0:
        return None
    if scalar < 0:
        return -scalar, _negate_row(row)
    return scalar, row


def _glv_pairs(scalar: int, row: List[_Affine]
               ) -> List[Tuple[int, List[_Affine]]]:
    """GLV-decomposed (positive scalar, row) pairs of ``scalar * P`` for
    the joint ladder, given P's affine row; ``scalar`` in [1, N)."""
    k1, k2 = _glv_split(scalar)
    pairs = []
    first = _signed_pair(k1, row)
    if first is not None:
        pairs.append(first)
    second = _signed_pair(k2, _beta_row(row))
    if second is not None:
        pairs.append(second)
    return pairs


# -- wNAF joint ladder -------------------------------------------------------
#
# Width-5 non-adjacent form: every scalar is recoded into signed odd
# digits in {+-1, +-3, ..., +-15} with at least 4 zeros between nonzero
# digits, so a 128-bit GLV half costs ~21 additions off a [1..15]*P
# affine row (negative digits negate the entry inline -- a field
# subtraction, not a new row). All rows a call needs are normalized
# together with ONE Montgomery-batched inversion
# (:func:`_rows_for_batch`): a cold key's term in a batch-verification
# equation is one such ladder (:func:`_cold_sum`), beside the bucket sum.


def _wnaf_digits(scalar: int) -> List[int]:
    """Width-5 signed-digit recoding of ``scalar > 0``, least
    significant first."""
    digits: List[int] = []
    append = digits.append
    mask = 0x1F
    sign_bound = 0x10
    modulus = 0x20
    while scalar:
        if scalar & 1:
            digit = scalar & mask
            if digit > sign_bound:
                digit -= modulus
            scalar -= digit
            append(digit)
        else:
            append(0)
        scalar >>= 1
    return digits


def _rows_for_batch(points: Sequence[Point]) -> List[List[_Affine]]:
    """Affine ``[1..15]*P`` rows for many points, one shared inversion.

    Cached rows (and window-table rows, which subsume them) are reused;
    the remaining points' 14 chain additions each are normalized in a
    single :func:`_batch_to_affine` call, then cached (bounded FIFO).
    """
    rows: List[Optional[List[_Affine]]] = [None] * len(points)
    missing: List[int] = []
    jacobians: List[_Jacobian] = []
    for index, point in enumerate(points):
        key = (point.x, point.y)
        table = _table_cache.get(key)
        if table is not None:
            rows[index] = table.windows[0]
            continue
        row = _row_cache.get(key)
        if row is not None:
            rows[index] = row
            continue
        missing.append(index)
        base = _to_jacobian(point)
        accum = base
        for _digit in range(1, 16):
            jacobians.append(accum)
            accum = _jacobian_add(accum, base)
    if missing:
        affine = _batch_to_affine(jacobians)
        for slot, index in enumerate(missing):
            row = [None] + affine[slot * 15:(slot + 1) * 15]
            rows[index] = row
            point = points[index]
            make_room(_row_cache, _ROW_CACHE_LIMIT)
            _row_cache[(point.x, point.y)] = row
    return rows  # type: ignore[return-value]


def _joint_wnaf(pairs: List[Tuple[int, List[_Affine]]]) -> _Jacobian:
    """Strauss/Shamir interleaving over width-5 wNAF digits: one shared
    run of doublings, mixed additions from the shared affine rows."""
    if not pairs:
        return _J_INFINITY
    recoded = [(_wnaf_digits(scalar), row) for scalar, row in pairs]
    height = max(len(digits) for digits, _row in recoded)
    result: _Jacobian = _J_INFINITY
    double = _jacobian_double
    add_affine = _jacobian_add_affine
    for index in range(height - 1, -1, -1):
        if result[2] != 0:
            result = double(result)
        for digits, row in recoded:
            if index < len(digits):
                digit = digits[index]
                if digit:
                    if digit > 0:
                        entry = row[digit]
                        result = add_affine(result, entry[0], entry[1])
                    else:
                        entry = row[-digit]
                        result = add_affine(result, entry[0],
                                            P - entry[1])
    return result


def _fixed_table(point: Point, looked_up: dict):
    """The point's comb, else its window table, else None: consulted --
    and counted towards promotion -- once per ``looked_up``."""
    key = (point.x, point.y)
    if key not in looked_up:
        table = _comb_for(point)
        looked_up[key] = table if table is not None else _table_for(point)
    return looked_up[key]


def _multi_scalar_mult_jac(scaled: Sequence[Tuple[int, Point]],
                           looked_up: Optional[dict] = None) -> _Jacobian:
    """``sum(scalar_i * point_i)`` before the final affine conversion,
    for scalars in [1, N) on finite points: comb and window tables
    where available, one shared wNAF ladder (and one shared row
    inversion) for everything still cold."""
    looked_up = {} if looked_up is None else looked_up
    result: _Jacobian = _J_INFINITY
    cold: List[Tuple[int, Point]] = []
    for scalar, point in scaled:
        table = _fixed_table(point, looked_up)
        if table is not None:
            result = _jacobian_add(result, table.mult_jac(scalar))
            continue
        cold.append((scalar, point))
    if cold:
        result = _jacobian_add(result, _cold_sum(cold))
    return result


def _cold_sum(cold: Sequence[Tuple[int, Point]]) -> _Jacobian:
    """``sum(scalar_i * point_i)`` for points without a table: their
    GLV halves on one wNAF ladder, all rows normalized with one shared
    inversion."""
    rows = _rows_for_batch([point for _scalar, point in cold])
    pairs: List[Tuple[int, List[_Affine]]] = []
    for (scalar, _point), row in zip(cold, rows):
        pairs.extend(_glv_pairs(scalar, row))
    return _joint_wnaf(pairs)


def double_scalar_mult(a: int, p: Point, b: int, q: Point,
                       looked_up: Optional[dict] = None) -> Point:
    """Return ``a*p + b*q`` via one Strauss/Shamir joint ladder.

    This is the verification-equation workhorse (``s*G + (N-e)*P``):
    both scalar multiplications share a single run of doublings, and the
    GLV decomposition halves the ladder height, for ~1.6-2x over two
    independent multiplications. Points that already have comb or window
    tables (the generator always; any entity key after a few uses) skip
    the ladder entirely -- two table multiplications and one addition,
    with no doublings at all. The single checks of one batch share
    ``looked_up``, so each point counts once towards its tables, as
    in the batch equation.
    """
    a %= N
    b %= N
    if a == 0 or p.is_infinity:
        return scalar_mult(b, q)
    if b == 0 or q.is_infinity:
        return scalar_mult(a, p)
    return _from_jacobian(_multi_scalar_mult_jac([(a, p), (b, q)],
                                                 looked_up))


def _merged_terms(terms: Sequence[Tuple[int, Point]]
                  ) -> List[Tuple[int, Point]]:
    """Reduce scalars mod N and merge coefficients of repeated points
    (one wallet-load batch typically re-uses a handful of issuer keys),
    dropping zero scalars and points at infinity."""
    merged: dict = {}
    order: List[Point] = []
    for scalar, point in terms:
        scalar %= N
        if scalar == 0 or point.is_infinity:
            continue
        key = (point.x, point.y)
        if key in merged:
            merged[key] = (merged[key] + scalar) % N
            continue
        merged[key] = scalar
        order.append(point)
    return [(merged[(point.x, point.y)], point) for point in order
            if merged[(point.x, point.y)] != 0]


# -- batch equation: one bucket sum ------------------------------------------
#
# The batch-verification equation holds iff ONE sum is the point at
# infinity: ``first + sum((a_i + b_i*lambda) * R_i) - sum(terms)``. Its
# points are sorted by weight before any is added:
#
# * every 32-bit half ``a_i`` / ``b_i`` is recoded as signed
#   _BUCKET_BITS-bit digits (magnitudes 1..8, a carry into a ninth
#   window), and a digit ``d`` in window ``w`` puts ``sign(d)*R_i`` (or
#   ``sign(d)*lambda*R_i``, the same point with x times beta) in the
#   bucket of weight ``|d| * 16**w``;
# * weight-1 points go straight into the unit bucket: ``first``, and,
#   for every tabled key and G, the comb or window-table entries of its
#   negated scalar.
#
# A bucket whose magnitude is a power of two ``2**j`` has weight
# ``2**(4w + j)``: it IS column ``4w + j`` of a binary ladder. Every other
# bucket (magnitudes 3, 5, 6, 7) is summed first, and its sum is added to
# the columns of its magnitude's set bits. Buckets and columns are
# summed with affine additions, each level of pairs sharing ONE
# Montgomery inversion (:func:`_affine_sums`); then one run of 32
# Jacobian doublings adds the 33 column sums, 4 doublings per window.
# Equal-x pairs are exact -- an attacker picks the nonce points: equal
# points are a doubling (denominator 2y), opposite points cancel and
# leave the level, so a zero never enters an inversion. A key without a
# table joins as one ``_cold_sum`` ladder, subtracted at the end.

# Of widths 3 to 6, 4 was fastest over the (12, 6) and (42, 6) equations
# of a cold discovery together (5 is a shade faster on (42, 6) alone).
_BUCKET_BITS = 4
_HALF_BITS = 32
_RADIX = 1 << _BUCKET_BITS
_WINDOWS = -(-_HALF_BITS // _BUCKET_BITS)   # 8, and a carry window
_COLUMNS = _BUCKET_BITS * _WINDOWS + 1       # 33: the carry is 0 or 1


def _digit_places() -> Tuple[List[List[int]], List[List[int]]]:
    """(places, spreads): ``places[w][m]`` is the list a digit of
    magnitude ``m`` in window ``w`` lands in -- a column index below
    ``_COLUMNS``, a bucket index above -- and ``spreads[b]`` the
    columns bucket ``b``'s sum is added to."""
    places: List[List[int]] = []
    spreads: List[List[int]] = []
    for window in range(_WINDOWS):
        row = [-1]
        for magnitude in range(1, _RADIX // 2 + 1):
            bits = [_BUCKET_BITS * window + bit for bit in range(_BUCKET_BITS)
                    if magnitude >> bit & 1]
            if len(bits) == 1:
                row.append(bits[0])
            else:
                row.append(_COLUMNS + len(spreads))
                spreads.append(bits)
        places.append(row)
    return places, spreads


_PLACES, _SPREADS = _digit_places()


def _affine_sums(chords: Sequence[Tuple[int, int, int, int, int]]
                 ) -> List[_Affine]:
    """The affine sums of point pairs, all with ONE field inversion
    (Montgomery's trick). Each pair comes as ``(x1, y1, x2, num, den)``:
    the sum's slope is ``num / den``, ``den`` nonzero."""
    prefix = []
    acc = 1
    for chord in chords:
        prefix.append(acc)
        acc = (acc * chord[4]) % P
    inv = pow(acc, -1, P)
    sums: List[_Affine] = [None] * len(chords)  # type: ignore[list-item]
    for index in range(len(chords) - 1, -1, -1):
        x1, y1, x2, num, den = chords[index]
        slope = (num * ((prefix[index] * inv) % P)) % P
        inv = (inv * den) % P
        x3 = (slope * slope - x1 - x2) % P
        sums[index] = (x3, (slope * (x1 - x3) - y1) % P)
    return sums


def _add_pairs(lists: Sequence[List[_Affine]]) -> None:
    """One level of summing: the points of every list with two or more
    are added in pairs, in place, all pairs sharing one inversion.

    Equal x is exact: equal points are a doubling (slope ``3x^2/2y``;
    ``y != 0`` on secp256k1) and opposite points cancel and are dropped,
    so a zero denominator never reaches the inversion."""
    chords = []
    owners = []
    for points in lists:
        if len(points) < 2:
            continue
        odd = points.pop() if len(points) & 1 else None
        for index in range(0, len(points), 2):
            x1, y1 = points[index]
            x2, y2 = points[index + 1]
            if x1 != x2:
                chords.append((x1, y1, x2, y2 - y1, x2 - x1))
            elif y1 == y2:
                chords.append((x1, y1, x1, 3 * x1 * x1, 2 * y1))
            else:
                continue
            owners.append(points)
        points.clear()
        if odd is not None:
            points.append(odd)
    if chords:
        for points, total in zip(owners, _affine_sums(chords)):
            points.append(total)


def _bucket_sum(terms: Sequence[Tuple[int, Point]], first: Point,
                split_terms: Sequence[Tuple[int, int, Point]]) -> _Jacobian:
    """``first + sum((a + b*lambda) * R) - sum(terms)`` as one bucket
    sum (see above). Each merged term's tables are consulted once, in
    order, as a table multiplication would consult them."""
    lists: List[List[_Affine]] = [[] for _ in range(_COLUMNS + len(_SPREADS))]
    unit = lists[0]
    unit.append((first.x, first.y))
    cold: List[Tuple[int, Point]] = []
    looked_up: dict = {}
    for scalar, point in _merged_terms(terms):
        table = _fixed_table(point, looked_up)
        if table is None:
            cold.append((scalar, point))
        else:
            unit.extend(table.entries(N - scalar))    # -scalar * point
    carries = lists[_COLUMNS - 1]
    for a, b, point in split_terms:
        y = point.y
        minus_y = P - y
        for half, x in ((a, point.x), (b, (point.x * GLV_BETA) % P)):
            for places in _PLACES:
                digit = half & (_RADIX - 1)
                half >>= _BUCKET_BITS
                if digit > _RADIX // 2:
                    half += 1
                    lists[places[_RADIX - digit]].append((x, minus_y))
                elif digit:
                    lists[places[digit]].append((x, y))
            if half:
                carries.append((x, y))
    # Columns are summed alongside the buckets, then take the buckets'
    # sums and finish.
    buckets = lists[_COLUMNS:]
    while any(len(bucket) > 1 for bucket in buckets):
        _add_pairs(lists)
    for bucket, spread in zip(buckets, _SPREADS):
        if bucket:
            for column in spread:
                lists[column].append(bucket[0])
    columns = lists[:_COLUMNS]
    while any(len(column) > 1 for column in columns):
        _add_pairs(columns)
    total: _Jacobian = _J_INFINITY
    for column in reversed(columns):
        if total[2] != 0:
            total = _jacobian_double(total)
        if column:
            x, y = column[0]
            total = _jacobian_add_affine(total, x, y)
    if not cold:
        return total
    x, y, z = _cold_sum(cold)
    return _jacobian_add(total, (x, P - y, z))


def batch_equation_holds(terms: Sequence[Tuple[int, Point]], first: Point,
                         split_terms: Sequence[Tuple[int, int, Point]]
                         ) -> bool:
    """Return ``sum(terms) == first + sum((a + b*lambda) * R)``.

    The batch-verification equation: ``terms`` are the reusable points
    (generator, issuer keys) with full-width scalars; ``first`` is the
    nonce point whose coefficient is 1 and ``split_terms`` the other
    signatures' nonce points, finite and each seen once, with their
    coefficients given as two 32-bit halves. It holds iff the
    difference of the two sides, one :func:`_bucket_sum`, is the point
    at infinity.
    """
    return _bucket_sum(terms, first, split_terms)[2] == 0


def is_valid_scalar(scalar: int) -> bool:
    """Return True iff ``scalar`` is a valid non-zero group scalar."""
    return 1 <= scalar < N


# The generator is hot in every signing and verification path; build its
# table eagerly at import (~10 ms, once per process).
_table_cache[(GX, GY)] = _FixedBaseTable(GENERATOR, _WINDOW_BITS)
