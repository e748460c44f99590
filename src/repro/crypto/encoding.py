"""Canonical deterministic encoding for signed payloads.

Digital signatures are computed over a byte serialization of a delegation.
For verification to be stable across processes and machines the
serialization must be *canonical*: a given value has exactly one encoding.
This module implements a small canonical binary format (a deterministic
subset in the spirit of bencode / canonical CBOR) supporting the value types
dRBAC needs:

* ``None``
* ``bool``
* ``int`` (arbitrary precision, signed)
* ``float`` (encoded via IEEE-754 big-endian; used for attribute values)
* ``str`` (UTF-8)
* ``bytes``
* ``list`` / ``tuple`` (encoded identically)
* ``dict`` with string keys, encoded with keys sorted lexicographically by
  their UTF-8 bytes

Wire grammar (one leading type byte each)::

    N                           -> None
    T / F                       -> True / False
    I <len:u32> <big-endian signed magnitude>  -> int
    D <8 bytes IEEE-754>        -> float
    S <len:u32> <utf-8 bytes>   -> str
    B <len:u32> <bytes>         -> bytes
    L <count:u32> <items...>    -> list
    M <count:u32> (<key str item> <value item>)... -> dict

All lengths and counts are unsigned 32-bit big-endian; lists and maps
nest at most :data:`MAX_DEPTH` deep. :class:`Canonical` bytes and a
:class:`CanonicalMap`'s own bytes are spliced verbatim, and
:func:`canonical_split` leaves values encoded.

One codec implements this grammar. It encodes into one growing
``bytearray`` (no chunk list, no final join-of-hundreds), decodes
straight off the caller's buffer (a ``memoryview`` when the input is
not already ``bytes``, so network buffers are never copied wholesale),
and interns short string atoms (role names, namespaces, map keys) in a
bounded pool so the same ``"delegations"`` key is one shared object
across every credential a wallet ever decodes. A map's keys are sorted
once per shape (its keys in insertion order), not once per map. The codec it replaced
(list-of-chunks encode, full-buffer-copy decode) is kept verbatim as
``tests/crypto/reference_codec.py``, the oracle the canonical bytes are
held to by ``tests/crypto/test_encoding.py``.

Call/byte tallies and the intern hit rate live in the process-wide
:mod:`repro.obs` registry (``drbac_codec_*_total``); see
:func:`codec_info`.
"""

import math
import struct
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.crypto.pools import make_room

_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")

# Encoded payloads are bounded to keep a malicious/corrupt buffer from
# driving allocation; dRBAC delegations are small (a few KB).
MAX_ENCODED_SIZE = 16 * 1024 * 1024

# Encode, decode and split refuse lists and maps nested deeper.
MAX_DEPTH = 64
_TOO_DEEP = f"lists and maps nest more than {MAX_DEPTH} deep"

# String-atom intern pool (decode side): role names, namespaces,
# and map keys repeat across every credential on the wire, so short
# strings are pooled keyed by their UTF-8 bytes. Bounded FIFO like the
# EC point caches; atoms longer than the cap are decoded directly.
_ATOM_MAX_LEN = 64
_ATOM_LIMIT = 4096
_atoms: dict = {}

# The encode-side mirror: complete ``S``-tagged encodings of short
# strings, and ``(utf-8 key, encoding)`` pairs for map keys (the raw
# bytes drive canonical sorting). Same bound, same FIFO eviction.
_enc_strs: dict = {}
_enc_keys: dict = {}

# Each map shape's keys in canonical order, by its keys in insertion
# order (a delegation payload, a proof record, a tag map: the same few
# keys, inserted the same way, over and over), for maps of at most
# ``_ORDER_MAX_KEYS`` atom-length keys. Same bound, same eviction.
_ORDER_MAX_KEYS = 16
_key_orders: dict = {}

# Complete encodings of small integers (digit counts, versions, enum
# ordinals saturate this range; timestamps fall through to the general
# arm). Built once at import.


def _int_encoding(value: int) -> bytes:
    zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
    length = max(1, (zigzag.bit_length() + 7) // 8)
    return b"I" + _U32.pack(length) + zigzag.to_bytes(length, "big")


_SMALL_INT_ENC = {value: _int_encoding(value)
                  for value in range(-128, 257)}

_stats = obs.CounterSet(
    "drbac_codec",
    ("encodes", "encoded_bytes", "decodes", "decoded_bytes",
     "intern_hits", "intern_misses"))


class EncodingError(ValueError):
    """Raised when a value cannot be canonically encoded or decoded."""


class Canonical(bytes):
    """Bytes this codec made for one value, spliced in unchecked."""


def _read_only(self, *_args, **_kwargs):
    raise TypeError("a CanonicalMap is read-only")


class CanonicalMap(dict):
    """A read-only map that carries its own encoding in ``encoded``.

    Built once from a plain map; the encoder splices ``encoded`` as it
    splices :class:`Canonical`. Copies (``pickle``, ``copy``) are plain
    dicts, and every mutator raises ``TypeError``.
    """

    __slots__ = ("encoded", "_splits")

    def __init__(self, value: dict) -> None:
        dict.__init__(self, value)
        self.encoded = canonical_encode(value)
        self._splits: Optional[dict] = None

    def __reduce__(self):
        return dict, (dict(self),)

    def replacing(self, key: str, value: Any) -> "CanonicalMap":
        """A copy with ``key``'s value replaced by ``value``, its
        encoding spliced: the bytes of ``encoded`` before and after the
        old value (cut once per key and kept) around ``value``'s,
        nothing else encoded again. ``key`` must be one of the map's
        keys."""
        if self._splits is None:
            self._splits = {}
        split = self._splits.get(key)
        if split is None:
            raw, key_enc = _key_encoding(key)
            # The value follows the map's tag and count, and every
            # entry whose key sorts before ``key``.
            start = 5 + len(key_enc) + sum(
                len(_key_encoding(other)[1]) + len(_encoded(item))
                for other, item in self.items()
                if _key_encoding(other)[0] < raw)
            end = start + len(_encoded(self[key]))
            split = self._splits[key] = (self.encoded[:start],
                                         self.encoded[end:])
        copy = CanonicalMap.__new__(CanonicalMap)
        dict.__init__(copy, self)
        dict.__setitem__(copy, key, value)
        copy.encoded = split[0] + _encoded(value) + split[1]
        copy._splits = None
        return copy

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


def canonical_encode(value: Any) -> bytes:
    """Encode ``value`` into its unique canonical byte representation."""
    buf = bytearray()
    _fast_encode(value, buf, 0)
    if len(buf) > MAX_ENCODED_SIZE:
        raise EncodingError(
            f"encoded payload too large: {len(buf)} bytes")
    encoded = bytes(buf)
    _stats.c_encodes.inc()
    _stats.c_encoded_bytes.inc(len(encoded))
    return encoded


def _encoded(value: Any) -> bytes:
    """``value``'s encoding, untallied: a splice, not an encode."""
    if value.__class__ is CanonicalMap:
        return value.encoded
    if value.__class__ is int and value in _SMALL_INT_ENC:
        return _SMALL_INT_ENC[value]
    buf = bytearray()
    _fast_encode(value, buf, 0)
    return bytes(buf)


def canonical_decode(data: bytes) -> Any:
    """Decode a canonical byte string produced by :func:`canonical_encode`.

    Rejects trailing bytes and non-canonical encodings (e.g. unsorted map
    keys), so ``canonical_encode(canonical_decode(b)) == b`` for every
    accepted input ``b``.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise EncodingError(f"expected bytes, got {type(data).__name__}")
    if type(data) is bytes:
        buf = data
    else:
        try:
            buf = memoryview(data).cast("B")
        except (ValueError, TypeError):
            buf = bytes(data)
    size = len(buf)
    if size > MAX_ENCODED_SIZE:
        raise EncodingError(f"payload too large: {size} bytes")
    _stats.c_decodes.inc()
    _stats.c_decoded_bytes.inc(size)
    value, offset = _fast_decode_at(buf, 0, size, 0)
    if offset != size:
        raise EncodingError(
            f"trailing bytes after value at offset {offset}")
    return value


def canonical_split(data: bytes) -> Dict[str, bytes]:
    """Each value of the map ``data`` encodes, still encoded: decoding
    every span accepts exactly what decoding ``data`` whole does."""
    buf = bytes(data)
    size = len(buf)
    if not 5 <= size <= MAX_ENCODED_SIZE or buf[0] != 77:
        raise EncodingError("payload is not one map")
    spans: Dict[str, bytes] = {}
    offset, previous = 5, b""
    for _ in range(_U32.unpack_from(buf, 1)[0]):
        if offset >= size or buf[offset] != 83:
            raise EncodingError("map key must be a string")
        key, start = _fast_decode_at(buf, offset, size, 1)
        if spans and buf[offset + 5:start] <= previous:
            raise EncodingError("map keys not in canonical order")
        previous = buf[offset + 5:start]
        offset = _skip_at(buf, start, 1)
        spans[key] = buf[start:offset]
    if offset != size:
        raise EncodingError(f"trailing bytes after value at offset {offset}")
    return spans


def codec_info() -> dict:
    """``cache_info()``-style snapshot of the codec counters."""
    info = _stats.to_dict()
    lookups = info["intern_hits"] + info["intern_misses"]
    info["intern_hit_rate"] = \
        (info["intern_hits"] / lookups) if lookups else 0.0
    info["atoms"] = len(_atoms)
    return info


# -- single-buffer encode, zero-copy decode ----------------------------------


def _fast_encode(value: Any, out: bytearray, depth: int) -> None:
    """Append ``value`` (inside ``depth`` lists/maps) encoded to ``out``.

    Exact-type dispatch ordered by measured frequency in delegation
    payloads (str > dict > int > bytes > ...), then subclasses and
    buffer look-alikes by ``isinstance`` in the grammar's own order
    (int before float before str ...), which is what decides the bytes
    of a value that is several things at once (an ``IntEnum``, a
    ``str``-mixin enum).
    """
    kind = value.__class__
    if kind is str:
        enc = _enc_strs.get(value)
        if enc is None:
            raw = value.encode("utf-8")
            enc = b"S" + _U32.pack(len(raw)) + raw
            if len(raw) <= _ATOM_MAX_LEN:
                make_room(_enc_strs, _ATOM_LIMIT)
                _enc_strs[value] = enc
        out += enc
    elif kind is CanonicalMap:
        out += value.encoded
    elif kind is dict:
        keys = tuple(value)
        order = _key_orders.get(keys)
        if order is None:
            order = _key_order(keys)
        if depth >= MAX_DEPTH:
            raise EncodingError(_TOO_DEEP)
        out += b"M"
        out += _U32.pack(len(order))
        for key, key_enc in order:
            out += key_enc
            _fast_encode(value[key], out, depth + 1)
    elif kind is int:
        enc = _SMALL_INT_ENC.get(value)
        if enc is not None:
            out += enc
        else:
            zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
            length = max(1, (zigzag.bit_length() + 7) // 8)
            out += b"I"
            out += _U32.pack(length)
            out += zigzag.to_bytes(length, "big")
    elif kind is bytes:
        out += b"B"
        out += _U32.pack(len(value))
        out += value
    elif kind is Canonical:
        out += value
    elif kind is bool:
        out += b"T" if value else b"F"
    elif value is None:
        out += b"N"
    elif kind is list or kind is tuple:
        if depth >= MAX_DEPTH:
            raise EncodingError(_TOO_DEEP)
        out += b"L"
        out += _U32.pack(len(value))
        for item in value:
            _fast_encode(item, out, depth + 1)
    elif kind is float:
        if math.isnan(value):
            raise EncodingError("NaN has no canonical encoding")
        if value == 0.0:
            value = 0.0
        out += b"D"
        out += _F64.pack(value)
    elif isinstance(value, int):
        out += _int_encoding(value)
    elif isinstance(value, float):
        _fast_encode(float(value), out, depth)
    elif isinstance(value, str):
        # Not str(value): a str-mixin enum's __str__ is its member name.
        raw = value.encode("utf-8")
        out += b"S"
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out += b"B"
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, (list, tuple)):
        _fast_encode(list(value), out, depth)
    elif isinstance(value, dict):
        _fast_encode(dict(value), out, depth)
    else:
        raise EncodingError(
            f"type {type(value).__name__} has no canonical encoding"
        )


def _key_encoding(key: str) -> Tuple[bytes, bytes]:
    """A map key's UTF-8 bytes (which order the map) and encoding."""
    cached = _enc_keys.get(key)
    if cached is None:
        if key.__class__ is not str and not isinstance(key, str):
            raise EncodingError("canonical maps require string keys")
        raw = key.encode("utf-8")
        cached = (raw, b"S" + _U32.pack(len(raw)) + raw)
        if len(raw) <= _ATOM_MAX_LEN:
            make_room(_enc_keys, _ATOM_LIMIT)
            _enc_keys[key] = cached
    return cached


def _key_order(keys: Tuple[str, ...]) -> Tuple[Tuple[str, bytes], ...]:
    """``(key, encoding)`` of a map's ``keys``, in canonical order: by
    their UTF-8 bytes. Kept for a map of few short keys, so that the
    next map with those keys, inserted in that order, is not sorted
    again; two keys with one encoding raise :class:`EncodingError`."""
    pairs = sorted((_key_encoding(key) + (key,) for key in keys),
                   key=_pair_key)
    for index in range(1, len(pairs)):
        if pairs[index][0] == pairs[index - 1][0]:
            raise EncodingError("duplicate map key after UTF-8 encoding")
    order = tuple((key, key_enc) for _raw, key_enc, key in pairs)
    if len(keys) <= _ORDER_MAX_KEYS \
            and all(len(raw) <= _ATOM_MAX_LEN for raw, _e, _k in pairs):
        make_room(_key_orders, _ATOM_LIMIT)
        _key_orders[keys] = order
    return order


def _pair_key(pair: Tuple[bytes, ...]) -> bytes:
    return pair[0]


# Bound-method aliases keep the per-atom accounting to one call each in
# the decoder's innermost loop.
_intern_hit = _stats.c_intern_hits.inc
_intern_miss = _stats.c_intern_misses.inc
_atoms_get = _atoms.get


def _fast_decode_at(buf, offset: int, end: int,
                    depth: int) -> Tuple[Any, int]:
    """Decode one value (bytes or a flat memoryview; ``depth`` deep).

    Indexing yields ints for both input types, slices are zero-copy for
    memoryviews, and every ``bytes`` object materialized is one the
    caller keeps (blob values, intern-pool keys): no up-front copy of
    the whole buffer.
    """
    if offset >= end:
        raise EncodingError("truncated payload")
    tag = buf[offset]
    offset += 1
    if tag == 83:  # S
        if offset + 4 > end:
            raise EncodingError("truncated length field")
        (length,) = _U32.unpack_from(buf, offset)
        offset += 4
        stop = offset + length
        if stop > end:
            raise EncodingError("truncated blob")
        if length <= _ATOM_MAX_LEN:
            raw = buf[offset:stop]
            if raw.__class__ is not bytes:
                raw = bytes(raw)
            cached = _atoms_get(raw)
            if cached is not None:
                _intern_hit()
                return cached, stop
            try:
                text = str(raw, "utf-8")
            except UnicodeDecodeError as exc:
                raise EncodingError(
                    f"invalid UTF-8 in string: {exc}") from exc
            _intern_miss()
            make_room(_atoms, _ATOM_LIMIT)
            _atoms[raw] = text
            return text, stop
        try:
            return str(buf[offset:stop], "utf-8"), stop
        except UnicodeDecodeError as exc:
            raise EncodingError(f"invalid UTF-8 in string: {exc}") from exc
    if tag == 77:  # M
        if offset + 4 > end:
            raise EncodingError("truncated length field")
        if depth >= MAX_DEPTH:
            raise EncodingError(_TOO_DEEP)
        (count,) = _U32.unpack_from(buf, offset)
        offset += 4
        result = {}
        previous_key = None
        for _ in range(count):
            if offset >= end or buf[offset] != 83:
                raise EncodingError("map key must be a string")
            if offset + 5 > end:
                raise EncodingError("truncated length field")
            (length,) = _U32.unpack_from(buf, offset + 1)
            offset += 5
            stop = offset + length
            if stop > end:
                raise EncodingError("truncated blob")
            raw_key = buf[offset:stop]
            if raw_key.__class__ is not bytes:
                raw_key = bytes(raw_key)
            if previous_key is not None and raw_key <= previous_key:
                raise EncodingError("map keys not in canonical order")
            previous_key = raw_key
            key = _atoms_get(raw_key) if length <= _ATOM_MAX_LEN else None
            if key is not None:
                _intern_hit()
            else:
                try:
                    key = str(raw_key, "utf-8")
                except UnicodeDecodeError as exc:
                    raise EncodingError(
                        f"invalid UTF-8 in map key: {exc}") from exc
                if length <= _ATOM_MAX_LEN:
                    _intern_miss()
                    make_room(_atoms, _ATOM_LIMIT)
                    _atoms[raw_key] = key
            value, offset = _fast_decode_at(buf, stop, end, depth + 1)
            result[key] = value
        return result, offset
    if tag == 73:  # I
        if offset + 4 > end:
            raise EncodingError("truncated length field")
        (length,) = _U32.unpack_from(buf, offset)
        offset += 4
        if length == 0:
            raise EncodingError("zero-length integer")
        stop = offset + length
        if stop > end:
            raise EncodingError("truncated integer")
        if length > 1 and buf[offset] == 0:
            raise EncodingError("non-minimal integer encoding")
        zigzag = int.from_bytes(buf[offset:stop], "big")
        value = (zigzag >> 1) if (zigzag & 1) == 0 else -((zigzag + 1) >> 1)
        return value, stop
    if tag == 66:  # B
        if offset + 4 > end:
            raise EncodingError("truncated length field")
        (length,) = _U32.unpack_from(buf, offset)
        offset += 4
        stop = offset + length
        if stop > end:
            raise EncodingError("truncated blob")
        raw = buf[offset:stop]
        return (raw if raw.__class__ is bytes else bytes(raw)), stop
    if tag == 76:  # L
        if offset + 4 > end:
            raise EncodingError("truncated length field")
        if depth >= MAX_DEPTH:
            raise EncodingError(_TOO_DEEP)
        (count,) = _U32.unpack_from(buf, offset)
        offset += 4
        items = []
        append = items.append
        for _ in range(count):
            item, offset = _fast_decode_at(buf, offset, end, depth + 1)
            append(item)
        return items, offset
    if tag == 78:  # N
        return None, offset
    if tag == 84:  # T
        return True, offset
    if tag == 70:  # F
        return False, offset
    if tag == 68:  # D
        if offset + 8 > end:
            raise EncodingError("truncated float")
        (value,) = _F64.unpack_from(buf, offset)
        if math.isnan(value):
            raise EncodingError("NaN has no canonical encoding")
        if value == 0.0 and bytes(buf[offset:offset + 8]) != _F64.pack(0.0):
            raise EncodingError("non-canonical zero")
        return value, offset + 8
    raise EncodingError(
        f"unknown type tag {bytes((tag,))!r} at offset {offset - 1}")


def _skip_at(buf: bytes, offset: int, depth: int) -> int:
    """The offset just past the value at ``offset`` (``depth`` lists and
    maps enclose it), walking its framing without building it."""
    left, open_lists = 1, []    # values left here / in each enclosing one
    try:
        while left or open_lists:
            if not left:
                left = open_lists.pop()
                continue
            left -= 1
            tag = buf[offset]
            if tag == 83 or tag == 66 or tag == 73:     # S, B, I
                offset += 5 + _U32.unpack_from(buf, offset + 1)[0]
            elif tag == 77 or tag == 76:                # M, L
                if depth + len(open_lists) >= MAX_DEPTH:
                    raise EncodingError(_TOO_DEEP)
                open_lists.append(left)
                left = _U32.unpack_from(buf, offset + 1)[0] * (
                    2 if tag == 77 else 1)
                offset += 5
            elif tag == 78 or tag == 84 or tag == 70:   # N, T, F
                offset += 1
            elif tag == 68:                             # D
                offset += 9
            else:
                raise EncodingError(f"unknown type tag {bytes((tag,))!r}")
    except (IndexError, struct.error):
        raise EncodingError("truncated payload") from None
    if offset > len(buf):
        raise EncodingError("truncated payload")
    return offset
