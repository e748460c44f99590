import collections
import enum
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.encoding import (
    MAX_DEPTH,
    Canonical,
    CanonicalMap,
    EncodingError,
    canonical_decode,
    canonical_encode,
    canonical_split,
)

from .reference_codec import reference_decode, reference_encode


class TestScalars:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 255, 256, -256, 10**30, -(10**30),
        0.0, 1.5, -2.25, 1e300, "", "hello", "üñïçødé", b"", b"\x00\xff",
    ])
    def test_round_trip(self, value):
        assert canonical_decode(canonical_encode(value)) == value

    def test_int_float_distinct(self):
        # 1 and 1.0 are different canonical values.
        assert canonical_encode(1) != canonical_encode(1.0)

    def test_bool_int_distinct(self):
        assert canonical_encode(True) != canonical_encode(1)

    def test_negative_zero_normalized(self):
        assert canonical_encode(-0.0) == canonical_encode(0.0)

    def test_nan_rejected(self):
        with pytest.raises(EncodingError):
            canonical_encode(float("nan"))

    def test_infinity_round_trips(self):
        assert canonical_decode(canonical_encode(math.inf)) == math.inf


class TestContainers:
    def test_nested_round_trip(self):
        value = {"z": [1, {"a": b"bytes"}], "a": None,
                 "m": {"k": [True, 2.5]}}
        assert canonical_decode(canonical_encode(value)) == value

    def test_tuple_encodes_as_list(self):
        assert canonical_encode((1, 2)) == canonical_encode([1, 2])

    def test_key_order_irrelevant(self):
        assert canonical_encode({"a": 1, "b": 2}) == \
            canonical_encode({"b": 2, "a": 1})

    def test_non_string_keys_rejected(self):
        with pytest.raises(EncodingError):
            canonical_encode({1: "x"})

    def test_a_map_shape_seen_before_encodes_as_the_reference(self):
        """The key order of a map shape is kept once worked out: maps
        of those keys, inserted in that order or another, with other
        values, nested or not, still write the reference bytes -- and a
        shape that cannot be encoded is never kept."""
        shapes = [{"z": 1, "a": [2], "\u00e9": None, "b": {"z": 1, "a": 2}},
                  {"b": 0, "\u00e9": "x", "a": [], "z": {"a": 3, "z": 4}}]
        for value in shapes * 2 + [{"x": shapes}, {"x": shapes[::-1]}]:
            assert canonical_encode(value) == reference_encode(value)
        for _ in range(2):
            with pytest.raises(EncodingError):
                canonical_encode({"a": 1, 2: "b"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(EncodingError):
            canonical_encode(object())

    def test_set_rejected(self):
        with pytest.raises(EncodingError):
            canonical_encode({1, 2})


class TestStrictDecoding:
    def test_trailing_bytes_rejected(self):
        with pytest.raises(EncodingError):
            canonical_decode(canonical_encode(1) + b"x")

    def test_truncated_rejected(self):
        encoded = canonical_encode("hello")
        with pytest.raises(EncodingError):
            canonical_decode(encoded[:-1])

    def test_empty_rejected(self):
        with pytest.raises(EncodingError):
            canonical_decode(b"")

    def test_unknown_tag_rejected(self):
        with pytest.raises(EncodingError):
            canonical_decode(b"Z")

    def test_unsorted_map_keys_rejected(self):
        # Hand-build a map with keys out of order: M, count=2, "b", "a".
        good = canonical_encode({"a": 1, "b": 2})
        # Swap the two key-value segments by re-encoding manually.
        import struct
        parts = [b"M", struct.pack(">I", 2)]
        for key, val in (("b", 2), ("a", 1)):
            raw = key.encode()
            parts += [b"S", struct.pack(">I", len(raw)), raw,
                      canonical_encode(val)]
        bad = b"".join(parts)
        assert bad != good
        with pytest.raises(EncodingError):
            canonical_decode(bad)

    def test_non_minimal_int_rejected(self):
        import struct
        # Integer 1 (zigzag 2) padded to two bytes.
        bad = b"I" + struct.pack(">I", 2) + b"\x00\x02"
        with pytest.raises(EncodingError):
            canonical_decode(bad)

    def test_non_bytes_input_rejected(self):
        with pytest.raises(EncodingError):
            canonical_decode("text")


def _nested(depth, leaf=None):
    value = leaf
    for level in range(depth):
        value = [value] if level % 2 else {"k": value}
    return value


# 3 000 nested list headers: what used to escape as RecursionError.
_TOO_DEEP = b"L\x00\x00\x00\x01" * 3000 + b"N"


class TestNestingBound:
    def test_the_bound_itself_round_trips(self):
        value = _nested(MAX_DEPTH)
        encoded = canonical_encode(value)
        assert encoded == reference_encode(value)
        assert canonical_decode(encoded) == reference_decode(encoded) \
            == value
        inner = _nested(MAX_DEPTH - 1)      # inside a map: MAX_DEPTH deep
        spans = canonical_split(canonical_encode({"v": inner}))
        assert spans == {"v": canonical_encode(inner)}

    @pytest.mark.parametrize("encode", [canonical_encode, reference_encode])
    def test_encode_refuses_one_more(self, encode):
        with pytest.raises(EncodingError, match="nest"):
            encode(_nested(MAX_DEPTH + 1))

    @pytest.mark.parametrize("encode", [canonical_encode, reference_encode])
    def test_encode_refuses_a_cycle(self, encode):
        loop = []
        loop.append(loop)
        with pytest.raises(EncodingError, match="nest"):
            encode(loop)

    @pytest.mark.parametrize("decode", [canonical_decode, reference_decode])
    def test_decode_refuses_one_more(self, decode):
        encoded = reference_encode(_nested(MAX_DEPTH))
        with pytest.raises(EncodingError, match="nest"):
            decode(b"L\x00\x00\x00\x01" + encoded)

    @pytest.mark.parametrize("decode", [canonical_decode, reference_decode])
    def test_three_thousand_headers_are_an_encoding_error(self, decode):
        with pytest.raises(EncodingError, match="nest"):
            decode(_TOO_DEEP)

    def test_split_counts_the_enclosing_map(self):
        # {"v": [value nested MAX_DEPTH - 1 deep]} nests MAX_DEPTH + 1.
        key = b"M\x00\x00\x00\x01" + canonical_encode("v")
        frame = key + b"L\x00\x00\x00\x01" + canonical_encode(
            _nested(MAX_DEPTH - 1))
        with pytest.raises(EncodingError, match="nest"):
            canonical_decode(frame)
        with pytest.raises(EncodingError, match="nest"):
            canonical_split(frame)
        with pytest.raises(EncodingError, match="nest"):
            canonical_split(key + _TOO_DEEP)


class TestSplitAndSplice:
    def test_split_hands_back_each_values_bytes(self):
        value = {"credential": {"a": [1, 2.5, b"x"]}, "ns": "w", "op": None}
        spans = canonical_split(canonical_encode(value))
        assert list(spans) == ["credential", "ns", "op"]
        assert spans == {key: canonical_encode(item)
                         for key, item in value.items()}

    @pytest.mark.parametrize("payload", [
        b"", b"N", canonical_encode([1]), b"M\x00\x00",
        canonical_encode({"a": 1}) + b"x",
        canonical_encode({"a": "long"})[:-1],
        b"M\x00\x00\x00\x01I\x00\x00\x00\x01\x00N",     # non-string key
    ])
    def test_split_refuses_what_is_not_one_map(self, payload):
        with pytest.raises(EncodingError):
            canonical_split(payload)

    def test_split_checks_key_order(self):
        swapped = b"M\x00\x00\x00\x02" + canonical_encode("b") + b"N" \
            + canonical_encode("a") + b"N"
        with pytest.raises(EncodingError, match="order"):
            canonical_split(swapped)

    def test_canonical_bytes_are_spliced_verbatim(self):
        inner = {"z": [1, "two"], "a": 3.0}
        spliced = canonical_encode({"p": Canonical(canonical_encode(inner)),
                                    "l": [Canonical(canonical_encode(7))]})
        assert spliced == reference_encode({"p": inner, "l": [7]})


# Strategy for arbitrary canonically encodable values.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)


class TestProperties:
    @given(st.dictionaries(st.text(max_size=10), _values, min_size=1,
                           max_size=5), st.data())
    @settings(max_examples=100, deadline=None)
    def test_replacing_splices_what_an_encode_writes(self, value, data):
        """``CanonicalMap.replacing`` cuts one value's bytes out of the
        map's encoding and splices another's in: the reference codec's
        bytes of the changed map, the first time and once the cut is
        kept, and for a nested ``CanonicalMap`` too."""
        mapping = CanonicalMap(value)
        key = data.draw(st.sampled_from(sorted(value)))
        for new in (data.draw(_values), data.draw(_values),
                    CanonicalMap({"nested": data.draw(_values)})):
            replaced = mapping.replacing(key, new)
            assert dict(replaced) == {**value, key: new}
            assert replaced.encoded == reference_encode({**value, key: new})
            assert replaced.replacing(key, value[key]).encoded \
                == mapping.encoded

    @given(_values)
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, value):
        decoded = canonical_decode(canonical_encode(value))
        assert decoded == value

    @given(_values)
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_canonical(self, value):
        # decode(encode(v)) re-encodes to the identical bytes.
        encoded = canonical_encode(value)
        assert canonical_encode(canonical_decode(encoded)) == encoded

    @given(_values, _values)
    @settings(max_examples=100, deadline=None)
    def test_injective_on_distinct_values(self, left, right):
        if canonical_encode(left) == canonical_encode(right):
            # Encodings are equal only for equal values (up to the
            # list/tuple identification, which the strategy never emits).
            assert left == right

    @given(_values)
    @settings(max_examples=150, deadline=None)
    def test_fast_arm_matches_seed_arm(self, value):
        """The codec is byte-identical to the seed codec kept in
        ``reference_codec.py`` (the canonical bytes feed signatures),
        and decoding a memoryview does not change the result."""
        encoded = reference_encode(value)
        assert canonical_encode(value) == encoded
        assert reference_decode(encoded) == canonical_decode(encoded) \
            == canonical_decode(memoryview(encoded)) == value


class _Text(str):
    pass


class _Count(int):
    pass


class _Ratio(float):
    pass


class _Blob(bytes):
    pass


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 300


class _Colour(str, enum.Enum):
    RED = "red"     # str(RED) is "_Colour.RED"; the encoding is of "red"


_Pair = collections.namedtuple("_Pair", "left right")

# Values no exact-type arm of the encoder takes: subclasses, buffer
# look-alikes and container look-alikes, plus the plain scalars at the
# edges of the arms next to them.
FALL_THROUGH = {
    "str-subclass": _Text("role"),
    "int-subclass": _Count(7),
    "int-subclass-big-negative": _Count(-2**70),
    "float-subclass": _Ratio(2.5),
    "float-subclass-negative-zero": _Ratio(-0.0),
    "bytes-subclass": _Blob(b"\x00\x01"),
    "int-enum-small": _Level.LOW,
    "int-enum": _Level.HIGH,
    "str-enum": _Colour.RED,
    "bytearray": bytearray(b"abc"),
    "memoryview": memoryview(b"abcdef")[1:4],
    "memoryview-strided": memoryview(b"abcdef")[::2],
    "namedtuple": _Pair(1, "two"),
    "ordered-dict": collections.OrderedDict(b=1, a=[_Count(2)]),
    "str-subclass-key": {_Text("key"): _Pair(_Ratio(0.0), None)},
    "zero": 0.0,
    "negative-zero": -0.0,
    "big": 2**70,
    "big-negative": -2**70,
}

REJECTED = {
    "nan": float("nan"),
    "nan-subclass": _Ratio("nan"),
    "int-key": {1: "x"},
    "int-subclass-key": {_Count(1): "x"},
    "int-key-in-dict-subclass": collections.OrderedDict([(1, "x")]),
    "object": [object()],
    "set": {"k": {1, 2}},
    "frozenset-in-namedtuple": _Pair(1, frozenset()),
    "range": range(3),
}


class TestFallThroughInputs:
    @pytest.mark.parametrize("name", FALL_THROUGH)
    def test_same_bytes_as_the_seed_codec(self, name):
        value = FALL_THROUGH[name]
        encoded = canonical_encode(value)
        assert encoded == reference_encode(value)
        assert canonical_decode(encoded) == reference_decode(encoded)

    @pytest.mark.parametrize("name", REJECTED)
    def test_same_rejections_as_the_seed_codec(self, name):
        with pytest.raises(EncodingError) as seed:
            reference_encode(REJECTED[name])
        with pytest.raises(EncodingError) as ours:
            canonical_encode(REJECTED[name])
        assert str(ours.value) == str(seed.value)
