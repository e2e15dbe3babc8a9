"""Value encoding, decoding and the disk-backed apply."""

import base64
import functools
import hashlib
import json
import math
import os
import random
import re
import struct
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldstream import (
    CacheCorrupt,
    Tensor,
    apply_cached,
    as_list,
    decode_value,
    encode_value,
    get_datastream,
)
from fieldstream import cache
from fieldstream.cache import (
    _COMPACT_ENCODER,
    _ENCODER,
    _read_file,
    _tensor_obj,
    parse_json,
    sanitize_key,
    to_jsonable,
)

from helpers import CountingSource, ds, random_value, recs, scalar_values, strict_equal, values


# encode / decode -----------------------------------------------------------------

# a tensor whose one element is an integer literal too large for a float
HUGE_TENSOR_BLOB = b'{"v":1,"value":{"t":"tensor","shape":[1],"data":[1' + b"0" * 400 + b"]}}"
# a NaN whose payload is not the default one
NAN_PAYLOAD = struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\x7f")[0]


# cache._F64 as a little-endian host sets it (native) and as a big-endian host does ("<")
F64_LAYOUTS = ("", "<")


@contextmanager
def f64_layout(prefix: str):
    """Run with ``cache._F64`` set to ``prefix``; the plan memo, whose plans keep their format text,
    is cleared on entry and on exit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cache, "_F64", prefix)
        cache._memo_plan.cache_clear()
        try:
            yield
        finally:
            cache._memo_plan.cache_clear()


def f64_text(data) -> str:
    return base64.b64encode(struct.pack(f"<{len(data)}d", *data)).decode("ascii")


def with_tensors(value, tensor):
    """``value`` as the JSON data it stands for, each tensor laid out by ``tensor``, built without
    the library's walk; tensors are met in the order json.dumps writes them."""
    if isinstance(value, Tensor):
        return tensor(value)
    if isinstance(value, (list, tuple)):
        return [with_tensors(v, tensor) for v in value]
    if isinstance(value, dict):
        return {k: with_tensors(v, tensor) for k, v in value.items()}
    return value


def compact_json(payload) -> bytes:
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":")).encode("utf-8")


def v2_oracle(value) -> bytes:
    """Format 2 bytes, as encode_value wrote them before format 3."""
    obj = with_tensors(value, lambda t: {"t": "tensor", "shape": list(t.shape), "f64": f64_text(t.data)})
    return compact_json({"v": 2, "value": obj})


def v3_oracle(value) -> bytes:
    """Format 3 bytes: the header line, then each tensor's data in header order."""
    data = []

    def tensor(t):
        data.append(struct.pack(f"<{t.size}d", *t.data))
        return {"t": "tensor", "shape": list(t.shape), "f64": sum(map(len, data)) - 8 * t.size}

    head = compact_json({"v": 3, "value": with_tensors(value, tensor)})
    return head + b"\n" + b"".join(data)


def test_encode_int_exact_bytes():
    assert encode_value(3) == b'{"v":3,"value":3}\n'


def test_encode_tensor_exact_bytes():
    # 1.0 and 2.0 as little-endian float64: 00..00 f0 3f and 00..00 00 40
    data = bytes.fromhex("000000000000f03f" "0000000000000040")
    for prefix in F64_LAYOUTS:
        with f64_layout(prefix):
            blob = encode_value(Tensor((2,), [1.0, 2.0]))
            assert blob == b'{"v":3,"value":{"t":"tensor","shape":[2],"f64":0}}\n' + data, prefix
            assert strict_equal(decode_value(blob), Tensor((2,), [1.0, 2.0])), prefix


def test_encode_null_exact_bytes():
    assert encode_value(None) == b'{"v":3,"value":null}\n'


def test_decode_v2_exact_bytes():
    """The bytes format 2 wrote for 3, a tensor and None still decode."""
    assert strict_equal(decode_value(b'{"v":2,"value":3}'), 3)
    blob = b'{"v":2,"value":{"t":"tensor","shape":[2],"f64":"AAAAAAAA8D8AAAAAAAAAQA=="}}'
    for prefix in F64_LAYOUTS:
        with f64_layout(prefix):
            assert strict_equal(decode_value(blob), Tensor((2,), [1.0, 2.0])), prefix
    assert decode_value(b'{"v":2,"value":null}') is None


def test_decode_rejects_other_versions():
    for version in [b"4", b"0", b"-1", b'"2"', b"null", b"[2]", b"true", b"1.0", b"2.0"]:
        with pytest.raises(CacheCorrupt, match="unsupported version"):
            decode_value(b'{"v":' + version + b',"value":3}')
    # format 3 is read only from bytes whose first line is its header
    for blob in [b'{"v":3,"value":3}', encode_value(3).decode("utf-8"), b'{"v": 3,"value":3}\n']:
        with pytest.raises(CacheCorrupt, match="unsupported version 3 in a JSON document"):
            decode_value(blob)


def test_decode_v1_scalars():
    assert strict_equal(decode_value(b'{"v":1,"value":3}'), 3)
    assert decode_value(b'{"v":1,"value":null}') is None
    assert strict_equal(decode_value(b'{"v":1,"value":{"nested":[0]}}'), {"nested": [0]})


def test_decode_v1_tensor():
    blob = b'{"v":1,"value":{"t":"tensor","shape":[2],"data":[1.0,2.0]}}'
    assert strict_equal(decode_value(blob), Tensor((2,), [1.0, 2.0]))


def test_decode_rejects_tensor_length_mismatch():
    with pytest.raises(CacheCorrupt):
        decode_value(b'{"v":1,"value":{"t":"tensor","shape":[3],"data":[1.0]}}')


def test_decode_rejects_garbage():
    with pytest.raises(CacheCorrupt):
        decode_value(b"{truncated")
    with pytest.raises(CacheCorrupt):
        decode_value(b"[1,2]")
    with pytest.raises(CacheCorrupt):
        decode_value(b'{"value":3}')
    with pytest.raises(CacheCorrupt):
        decode_value(b"\xff\xfe")
    with pytest.raises(CacheCorrupt):
        decode_value(HUGE_TENSOR_BLOB)


def test_round_trip_preserves_scalar_types():
    for v in [None, True, False, 0, 1, -7, 0.0, -0.0, 2.5, "x", ""]:
        back = decode_value(encode_value(v))
        assert strict_equal(back, v), (v, back)


def test_round_trip_nested():
    v = {"a": [1, {"b": Tensor((2, 1), [3.5, -0.0])}], "k1": "text"}
    assert strict_equal(decode_value(encode_value(v)), v)


def test_round_trip_seeded_random_values():
    rng = random.Random(99)
    for _ in range(300):
        v = random_value(rng)
        assert strict_equal(decode_value(encode_value(v)), v)


@settings(max_examples=200)
@given(values)
def test_round_trip_hypothesis(v):
    assert strict_equal(decode_value(encode_value(v)), v)


@example([-0.0, float("inf"), float("-inf"), 5e-324, NAN_PAYLOAD, -NAN_PAYLOAD, float("nan")])
@settings(max_examples=200)
@given(st.lists(st.floats(width=64), max_size=8))
def test_round_trip_keeps_tensor_float_bits(data):
    bits = [struct.pack("<d", x) for x in data]
    for prefix in F64_LAYOUTS:
        with f64_layout(prefix):
            blob = encode_value([Tensor((len(data),), data)])
            assert blob.endswith(b"".join(bits)), prefix
            back = decode_value(blob)[0]
            assert [struct.pack("<d", x) for x in back.data] == bits, prefix


@settings(max_examples=200)
@given(values)
def test_encode_matches_per_call_dumps(v):
    assert encode_value(v) == v3_oracle(v)


@settings(max_examples=200)
@given(values)
def test_decode_v2_as_written_before_v3(v):
    """Format 2 bytes, as encode_value wrote them before format 3, still decode."""
    assert strict_equal(decode_value(v2_oracle(v)), v)


@settings(max_examples=200)
@given(values)
def test_decode_v1_as_written_before_v2(v):
    """Format 1 bytes, as encode_value wrote them before format 2, still decode."""
    payload = {"v": 1, "value": to_jsonable(v)}
    blob = json.dumps(payload, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    assert strict_equal(decode_value(blob), v)


def test_each_version_recognizes_only_its_tensor_layout():
    data_map = {"t": "tensor", "shape": [2], "data": [1.0, 2.0]}
    f64_map = {"t": "tensor", "shape": [1], "f64": f64_text([1.0])}
    assert strict_equal(decode_value(json.dumps({"v": 2, "value": data_map})), data_map)
    assert strict_equal(decode_value(json.dumps({"v": 1, "value": f64_map})), f64_map)
    # a user map in the format 1 tensor layout now round-trips as a map
    assert strict_equal(decode_value(encode_value(data_map)), data_map)


def tensor_blob(shape, f64) -> bytes:
    return json.dumps({"v": 2, "value": {"t": "tensor", "shape": shape, "f64": f64}}).encode("utf-8")


MALFORMED_V2_TENSORS = {
    "bad-base64-character": tensor_blob([1], "AAAAAAAA!8D8="),
    "base64-with-newline": tensor_blob([1], "AAAAAAAA8D8=\n"),
    "bad-base64-padding": tensor_blob([1], "AAAAAAAA8D8"),
    "non-ASCII-base64": tensor_blob([1], "AAAAAAAA8Dé="),
    "too-few-bytes": tensor_blob([2], f64_text([1.0])),
    "too-many-bytes": tensor_blob([1], f64_text([1.0, 2.0])),
    "bytes-not-a-whole-float": tensor_blob([1], base64.b64encode(b"\x00" * 9).decode()),
    "negative-dimension": tensor_blob([-1], ""),
    "bool-dimension": tensor_blob([True], f64_text([1.0])),
    "float-dimension": tensor_blob([1.0], f64_text([1.0])),
    "shape-not-a-list": tensor_blob(1, f64_text([1.0])),
    "shape-as-text": tensor_blob("", f64_text([1.0])),
    "f64-a-number": tensor_blob([1], 1.0),
    "f64-a-list": tensor_blob([1], [1.0]),
    "f64-null": tensor_blob([0], None),
}


def check_corrupt_names_path(blob, tmp_path):
    """``blob`` raises CacheCorrupt from decode_value, and from apply_cached with the file's path."""
    with pytest.raises(CacheCorrupt):
        decode_value(blob)
    (tmp_path / "sq").mkdir()
    (tmp_path / "sq" / "f0.json").write_bytes(blob)
    with pytest.raises(CacheCorrupt) as exc:
        as_list(apply_cached(squares_stream(1), "x", "sq", lambda v: 1 / 0, tmp_path))
    assert str(tmp_path / "sq" / "f0.json") in str(exc.value)


@pytest.mark.parametrize("blob", MALFORMED_V2_TENSORS.values(), ids=MALFORMED_V2_TENSORS.keys())
def test_decode_rejects_malformed_v2_tensor(blob, tmp_path):
    check_corrupt_names_path(blob, tmp_path)


def v3_blob(value: bytes, data: bytes = b"") -> bytes:
    return b'{"v":3,"value":' + value + b"}\n" + data


def one_tensor(f64: bytes, shape: bytes = b"[1]") -> bytes:
    return b'{"t":"tensor","shape":' + shape + b',"f64":' + f64 + b"}"


ONE, TWO = struct.pack("<d", 1.0), struct.pack("<d", 2.0)
MALFORMED_V3 = {
    "cut-data-section": v3_blob(one_tensor(b"0", b"[2]"), ONE),
    "cut-mid-float": v3_blob(one_tensor(b"0"), ONE[:5]),
    "trailing-bytes": v3_blob(one_tensor(b"0"), ONE + b"\n"),
    "data-but-no-tensor": v3_blob(b"3", ONE),
    "no-header-line-end": b'{"v":3,"value":' + one_tensor(b"0") + b"}",
    "f64-text": v3_blob(one_tensor(b'"0"'), ONE),
    "f64-bool": v3_blob(one_tensor(b"false"), ONE),
    "f64-float": v3_blob(one_tensor(b"0.0"), ONE),
    "f64-null": v3_blob(one_tensor(b"null"), ONE),
    "f64-negative": v3_blob(one_tensor(b"-8"), ONE),
    "f64-not-from-0": v3_blob(one_tensor(b"8"), TWO + ONE),
    "f64-out-of-order": v3_blob(b"[" + one_tensor(b"8") + b"," + one_tensor(b"0") + b"]", ONE + TWO),
    "f64-repeated": v3_blob(b"[" + one_tensor(b"0") + b"," + one_tensor(b"0") + b"]", ONE + TWO),
    "f64-gap": v3_blob(b"[" + one_tensor(b"0") + b"," + one_tensor(b"16") + b"]", ONE + TWO + TWO),
    "negative-dimension": v3_blob(one_tensor(b"0", b"[-1]")),
    "bool-dimension": v3_blob(one_tensor(b"0", b"[true]"), ONE),
    "float-dimension": v3_blob(one_tensor(b"0", b"[1.0]"), ONE),
    "shape-as-text": v3_blob(one_tensor(b"0", b'"1"'), ONE),
    "non-UTF-8-header": v3_blob(b'"\xff"'),
    "version-2-in-the-header": b'{"v":3,"value":3,"v":2}\n',
}


@pytest.mark.parametrize("blob", MALFORMED_V3.values(), ids=MALFORMED_V3.keys())
def test_decode_rejects_malformed_v3(blob, tmp_path):
    check_corrupt_names_path(blob, tmp_path)


def test_v3_header_line_ends_at_its_first_newline():
    """Newlines in text are escaped in the header; the data section may hold newline bytes."""
    v = {"a\nb": ["\n", Tensor((2,), [struct.unpack("<d", b"\n" * 8)[0], 1.0])]}
    blob = encode_value(v)
    assert blob.count(b"\n") == 1 + 8 and blob.index(b"\n") == len(blob) - 17
    assert strict_equal(decode_value(blob), v)


# decode plans: a format 3 header is parsed once, then its plan is kept in a bounded memo

@pytest.mark.parametrize(
    "shape, data, message",
    [
        (b"[2305843009213693952]", b"", "tensor f64 holds 0 bytes, shape (2305843009213693952,) needs 18446744073709551616"),
        (b"[1000000000000]", ONE, "tensor f64 holds 8 bytes, shape (1000000000000,) needs 8000000000000"),
    ],
    ids=["product-past-a-struct-size", "product-past-the-data"],
)
def test_shape_larger_than_any_file_is_corrupt(shape, data, message, tmp_path):
    """Raised as CacheCorrupt, not struct.error, OverflowError or MemoryError, on every decode."""
    blob = v3_blob(one_tensor(b"0", shape), data)
    for _ in range(2):
        with pytest.raises(CacheCorrupt) as exc:
            decode_value(blob)
        assert str(exc.value) == message
    check_corrupt_names_path(blob, tmp_path)


def test_every_decode_builds_new_containers():
    v = {"a": [1, Tensor((1,), [2.0]), {"b": []}], "c": {"d": "e"}}
    blob = encode_value(v)
    first = decode_value(blob)
    first["a"].append(3)
    first["a"][2]["b"].append(4)
    first["c"]["d"] = "x"
    first["f"] = 5
    assert strict_equal(decode_value(blob), v)


def test_a_header_that_raised_is_never_kept_as_good(tmp_path):
    cache._memo_plan.cache_clear()
    t = Tensor((2,), [1.0, 2.0])
    good = encode_value(t)
    victim = tmp_path / "sq" / "f0.json"
    victim.parent.mkdir()
    cut = (good[:-8], "tensor f64 holds 8 bytes, shape (2,) needs 16")
    misplaced = (good.replace(b'"f64":0', b'"f64":8'), "tensor f64 is 8, not the next data offset 0")
    for bad, message in (misplaced, cut):
        victim.write_bytes(bad)
        for _ in range(2):
            with pytest.raises(CacheCorrupt) as exc:
                as_list(apply_cached(squares_stream(1), "x", "sq", lambda v: 1 / 0, tmp_path))
            assert str(exc.value) == f"{victim}: {message}"
        victim.write_bytes(good)
        out = as_list(apply_cached(squares_stream(1), "x", "sq", lambda v: 1 / 0, tmp_path))
        assert strict_equal(out[0].get_field("sq"), t)


def test_a_kept_plan_over_other_data_raises_as_a_first_decode():
    cache._memo_plan.cache_clear()
    blob = encode_value([Tensor((2,), [1.0, 2.0]), Tensor((1,), [3.0])])
    decode_value(blob)
    head = blob.index(b"\n") + 1
    cases = [
        (blob[:-1], "tensor f64 holds 7 bytes, shape (1,) needs 8"),
        (blob[: head + 8], "tensor f64 holds 8 bytes, shape (2,) needs 16"),
        (blob[:head], "tensor f64 holds 0 bytes, shape (2,) needs 16"),
        (blob + b"\x00", "data section holds 25 bytes, its tensors 24"),
    ]
    for bad, message in cases:
        with pytest.raises(CacheCorrupt) as exc:
            decode_value(bad)
        assert str(exc.value) == message
    assert cache._memo_plan.cache_info().hits == len(cases)


def test_a_malformed_header_raises_its_own_error_whatever_the_data_holds():
    """A header is checked before its data, and one that raised is never kept."""
    cache._memo_plan.cache_clear()
    two = b"[" + one_tensor(b"0", b"[2]") + b"," + one_tensor(b"16", b"[-1]") + b"]"
    for data in (b"", ONE, ONE + TWO, ONE + TWO + ONE):
        for _ in range(2):
            with pytest.raises(CacheCorrupt) as exc:
                decode_value(v3_blob(two, data))
            assert str(exc.value) == "bad tensor: bad tensor dimension -1"
    assert cache._memo_plan.cache_info().currsize == 0


def test_float_bits_survive_a_kept_plan():
    cache._memo_plan.cache_clear()
    t = Tensor((2, 2), [NAN_PAYLOAD, -NAN_PAYLOAD, -0.0, 5e-324])
    other = Tensor((2, 2), [-0.0, math.nan, math.inf, NAN_PAYLOAD])  # the same header
    for v in [t, t, other]:
        assert strict_equal(decode_value(encode_value(v)), v)
    assert cache._memo_plan.cache_info()[:2] == (2, 1)  # hits, misses


def test_memo_stays_at_its_bound():
    cache._memo_plan.cache_clear()
    values = [{"i": i, "x": Tensor((i % 3,), [float(i)] * (i % 3))} for i in range(cache._PLAN_MEMO + 20)]
    blobs = [encode_value(v) for v in values]
    for _ in range(2):
        for blob, v in zip(blobs, values):
            assert strict_equal(decode_value(blob), v)
        assert cache._memo_plan.cache_info().currsize == cache._PLAN_MEMO
    long = [float(i) for i in range(cache._MEMO_HEADER // 4)] + [Tensor((1,), [1.0])]
    blob = encode_value(long)
    assert blob.index(b"\n") > cache._MEMO_HEADER
    info = cache._memo_plan.cache_info()
    assert strict_equal(decode_value(blob), long) and strict_equal(decode_value(blob), long)
    assert cache._memo_plan.cache_info() == info  # planned on each decode, never looked up or kept


# damaged files: format 2 bytes decode as their text does; format 3 framing damage is CacheCorrupt

_F64_FLOATS = st.one_of(st.floats(width=64), st.sampled_from([-0.0, math.nan, NAN_PAYLOAD, -NAN_PAYLOAD]))
_F64_TENSORS = st.lists(st.integers(min_value=0, max_value=3), max_size=3).flatmap(
    lambda shape: st.lists(_F64_FLOATS, min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda data: Tensor(shape, data)
    )
)
_CACHE_VALUES = st.one_of(
    _F64_TENSORS,
    st.recursive(
        st.one_of(scalar_values, _F64_TENSORS),
        lambda children: st.one_of(
            st.lists(children, max_size=3), st.dictionaries(st.sampled_from(["a", "f64"]), children, max_size=2)
        ),
        max_leaves=4,
    ),
)


def _mutate(blob: bytes, kind: str, i: int, extra: bytes) -> bytes:
    """``blob`` changed as ``kind`` says; ``i`` picks a position, ``extra`` the bytes to add."""
    if kind == "none":
        return blob
    if kind == "whitespace":
        i %= len(blob) + 1
        return blob[:i] + (extra if extra.isspace() else b" ") + blob[i:]
    if kind == "escape":  # one base64 "A" written as a JSON escape
        start = blob.find(b'"f64":"')
        a = blob.find(b"A", start) if start >= 0 else -1
        return blob if a < 0 else blob[:a] + b"\\u0041" + blob[a + 1 :]
    if kind == "remove":
        i %= len(blob)
        return blob[:i] + blob[i + 1 :]
    if kind == "trailing":
        return blob + extra
    if kind == "v1":
        return blob.replace(b'"v":2', b'"v":1', 1)
    dims = {"leading-zero": b"0", "negative": b"-", "19-digits": b"1" * 19 + b","}
    return blob.replace(b'"shape":[', b'"shape":[' + dims[kind], 1)


_MUTATIONS = st.tuples(
    st.sampled_from(["none", "whitespace", "escape", "leading-zero", "negative", "19-digits", "remove", "v1", "trailing"]),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([b" ", b"\r\n\t", b"x", b"}"]),
)


def _decoded(blob):
    """What decode_value returns for ``blob``, or the type and message of what it raises."""
    try:
        return decode_value(blob)
    except Exception as e:
        return type(e), str(e)


@example(Tensor((0,), []), ("remove", -3, b" "))  # '"f64":"}}': the base64 text's closing quote removed
@example(Tensor((0, 2), []), ("none", 0, b" "))
@example(Tensor((), [-0.0]), ("19-digits", 0, b" "))
@example(Tensor((2,), [NAN_PAYLOAD, -0.0]), ("escape", 0, b" "))
@example(Tensor((1,), [1.0]), ("remove", -5, b" "))  # a byte count the shape does not match
@example(Tensor((1,), [1.0]), ("whitespace", -8, b" "))  # a space inside the base64 text
@example(Tensor((2, 0), []), ("negative", 0, b" "))  # [-2,0] holds no element
@settings(max_examples=400)
@given(_CACHE_VALUES, _MUTATIONS)
def test_decode_of_bytes_matches_decode_of_text(v, mutation):
    blob = _mutate(v2_oracle(v), *mutation)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:  # a removed byte split a character: only bytes can hold that
        with pytest.raises(CacheCorrupt, match="^not UTF-8: "):
            decode_value(blob)
        return
    got, want = _decoded(blob), _decoded(text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert strict_equal(got, want)


def _damage_v3(blob: bytes, kind: str, i: int, extra: bytes) -> bytes:
    """``blob``, a format 3 file, with its framing damaged as ``kind`` says; ``i`` picks a position."""
    head = blob.index(b"\n")
    if kind == "truncate":
        return blob[: i % len(blob)]
    if kind == "split-header":  # a newline in the header line, or just before its own
        i %= head + 1
        return blob[:i] + b"\n" + blob[i:]
    if kind == "insert-data":  # at the header's line end or in the data section
        i = head + i % (len(blob) - head + 1)
        return blob[:i] + extra + blob[i:]
    if kind == "remove-data":  # the header's line end or a data byte
        i = head + i % (len(blob) - head)
        return blob[:i] + blob[i + 1 :]
    if kind == "version":
        return blob.replace(b'"v":3', b'"v":' + extra, 1)
    if kind == "offset":  # the first tensor's offset
        return re.sub(rb'("shape":\[[0-9,]*\],"f64":)[0-9]+', lambda m: m[1] + extra, blob, count=1)
    return blob


_V3_DAMAGE = st.tuples(
    st.sampled_from(["none", "truncate", "split-header", "insert-data", "remove-data", "version", "offset"]),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([b" ", b"\n", b"x", b"\x00" * 8, b"0", b"2", b"8", b"-8", b"true", b"3.0", b'"0"']),
)


@example(Tensor((0,), []), ("version", 0, b"2"))  # the whole file is a format 2 document whose f64 is no text
@example([Tensor((0, 2), []), Tensor((1,), [1.0])], ("offset", 0, b"8"))
@example(Tensor((2,), [NAN_PAYLOAD, -0.0]), ("remove-data", 0, b" "))  # the line end
@settings(max_examples=400)
@given(_CACHE_VALUES, _V3_DAMAGE)
def test_damaged_v3_file_is_itself_or_corrupt(v, damage):
    """A format 3 file with damaged framing decodes to the value it held, or raises CacheCorrupt."""
    try:
        got = decode_value(_damage_v3(encode_value(v), *damage))
    except CacheCorrupt:
        return
    assert strict_equal(got, v)


def test_encode_rejects_non_values():
    with pytest.raises(TypeError):
        encode_value({1: "non-string key"})
    with pytest.raises(TypeError):
        encode_value(object())


def test_encode_refuses_a_map_that_reads_back_as_a_tensor(tmp_path):
    tensor_like = {"t": "tensor", "shape": [1], "f64": f64_text([1.0])}
    for v in [tensor_like, [{"a": tensor_like}], {**tensor_like, "f64": 0}]:
        with pytest.raises(TypeError, match="would read back as a tensor"):
            encode_value(v)
    for v in [{**tensor_like, "x": 0}, {**tensor_like, "t": "other"}]:  # one key more, or another t
        assert strict_equal(decode_value(encode_value(v)), v)
    with pytest.raises(TypeError, match="would read back as a tensor"):
        as_list(apply_cached(squares_stream(1), "x", "sq", lambda v: tensor_like, tmp_path))
    assert os.listdir(tmp_path / "sq") == []


# the prebuilt encoders against the stdlib ----------------------------------------

# text with lone surrogates, line separators JSON Lines must keep inside a line, and escapes
_ODD_CHARS = ["\ud800", "\udcff", "\u2028", "\u0085", '"', "\\", "\n", "\x00"]
_ODD_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(_ODD_CHARS)), max_size=6)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, math.nan, math.inf, -math.inf]),
    _ODD_TEXT,
    st.lists(st.floats(), max_size=4).map(lambda data: Tensor((len(data),), data)),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_ODD_TEXT, children, max_size=3),
    ),
    max_leaves=10,
)


def _outcome(encode, value):
    """What ``encode`` returns for ``value``, or the type and message of the TypeError it raises."""
    try:
        return encode(value)
    except TypeError as e:
        return TypeError, str(e)


def _tensor_default(value):
    assert isinstance(value, Tensor)
    return _tensor_obj(value.shape, value.data)


# _Encoder calls json.encoder.c_make_encoder with the positional arguments JSONEncoder.iterencode
# passes; that order is private CPython API, and this test is its guard on each version CI runs.
@example([None, True, 10**40, -0.0, 5e-324, math.nan, math.inf, -math.inf, "\ud800\u2028\u0085", (1, ())])
@example({"\udcff": Tensor((2,), [math.nan, -0.0])})
@settings(max_examples=300)
@given(_JSON_VALUES)
def test_prebuilt_encoders_write_what_json_dumps_writes(v):
    assert _ENCODER.encode(v) == json.dumps(v, ensure_ascii=False, default=_tensor_default)
    # a tensor has no compact form: both raise the stdlib's TypeError
    compact = functools.partial(json.dumps, ensure_ascii=False, separators=(",", ":"))
    assert _outcome(_COMPACT_ENCODER.encode, v) == _outcome(compact, v)


@pytest.mark.parametrize("encoder", [_ENCODER, _COMPACT_ENCODER], ids=["default", "compact"])
def test_prebuilt_encoders_keep_nothing_from_a_failed_encode(encoder):
    # an encoder that kept one circular-reference markers dict across calls would still hold
    # these containers' ids after the raise, and call the second encode circular
    row = [1, {"k": [2, object()]}]
    with pytest.raises(TypeError):
        encoder.encode(row)
    row[1]["k"].pop()
    assert json.loads(encoder.encode(row)) == [1, {"k": [2]}]


# key sanitization -----------------------------------------------------------------

def test_sanitize_percent_encodes_outside_safe_set():
    assert sanitize_key("a/b.mp4") == "a%2Fb.mp4"
    assert sanitize_key("x\udcff.jpg") == "x%ED%B3%BF.jpg"  # os.listdir's form of the byte 0xff
    assert sanitize_key("Ab9._-") == "Ab9._-"
    assert sanitize_key("~") == "%7E"
    assert sanitize_key("é") == "%C3%A9"
    assert sanitize_key("a b") == "a%20b"


_SAFE = frozenset(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-")


def _sanitize_by_byte_loop(key: str) -> str:
    """The byte-at-a-time encoding that sanitize_key's table replaced: the oracle."""
    out = []
    for b in key.encode("utf-8", "surrogatepass"):
        out.append(chr(b) if b in _SAFE else f"%{b:02X}")
    return "".join(out)


@example("".join(map(chr, range(256))))
@example("\ud800")
@example("\u07ff\u0800\uffff\U00010000\U0001f600\U0010ffff")
@given(st.text(st.one_of(st.characters(), st.characters(min_codepoint=0x10000))))
def test_sanitize_matches_byte_loop(key):
    assert sanitize_key(key) == _sanitize_by_byte_loop(key)


# apply_cached ------------------------------------------------------------------------

def squares_stream(n):
    return ds(recs([{"filename": f"f{i}", "x": i} for i in range(n)]))


def test_cold_then_warm_run(tmp_path):
    calls = []

    def f(v):
        calls.append(v)
        return v * v

    cold = as_list(apply_cached(squares_stream(5), "x", "sq", f, tmp_path))
    assert len(calls) == 5
    files = os.listdir(tmp_path / "sq")
    assert len(files) == 5
    cold_values = [r.get_field("sq") for r in cold]

    warm = as_list(apply_cached(squares_stream(5), "x", "sq", f, tmp_path))
    assert len(calls) == 5  # not invoked again
    assert [r.get_field("sq") for r in warm] == cold_values == [0, 1, 4, 9, 16]


def test_cache_file_naming(tmp_path):
    rows = ds(recs([{"filename": "a/b.mp4", "x": 1}]))
    as_list(apply_cached(rows, "x", "out", lambda v: v, tmp_path))
    assert (tmp_path / "out" / "a%2Fb.mp4.json").exists()


def test_corrupt_cache_file_names_path(tmp_path):
    as_list(apply_cached(squares_stream(1), "x", "sq", lambda v: v, tmp_path))
    victim = tmp_path / "sq" / "f0.json"
    long_integer = b"1" * 5_000  # json.loads raises CPython's int-string digit limit as a plain ValueError
    long_dim = b'{"v":2,"value":{"t":"tensor","shape":[' + long_integer + b'],"f64":""}}'
    with pytest.raises(ValueError) as limit:
        int(long_integer)
    cases = [  # a cache file, and its message after the path; every malformed-JSON message is line:col: msg
        (b'{"v":1,"va', "malformed JSON: 1:8: Unterminated string starting at"),
        (HUGE_TENSOR_BLOB, "integer of 1329 bits does not fit a float"),
        (b'{"v":2,"value":' + long_integer + b"}", f"malformed JSON: 1:16: {limit.value}"),
        (long_dim, f"malformed JSON: 1:39: {limit.value}"),
        (b'{"v":2,\n"value":[1,' + long_integer + b"]}", f"malformed JSON: 2:12: {limit.value}"),
    ]
    for blob, message in cases:
        victim.write_bytes(blob)
        with pytest.raises(CacheCorrupt) as exc:
            as_list(apply_cached(squares_stream(1), "x", "sq", lambda v: v, tmp_path))
        assert str(exc.value) == f"{victim}: {message}"


def test_cache_multi_source(tmp_path):
    rows = ds(recs([{"filename": "k", "a": 2, "b": 3}]))
    out = as_list(apply_cached(rows, ["a", "b"], "sum", lambda vs: vs[0] + vs[1], tmp_path))
    assert out[0].get_field("sum") == 5
    rows2 = ds(recs([{"filename": "k", "a": 2, "b": 3}]))
    out2 = as_list(apply_cached(rows2, ["a", "b"], "sum", lambda vs: 0 / 0, tmp_path))
    assert out2[0].get_field("sum") == 5  # served from disk, f never ran


def test_cache_tensor_payload(tmp_path):
    t = Tensor((2, 2), [1.0, 2.0, 3.0, 4.0])
    rows = ds(recs([{"filename": "t1", "x": 0}]))
    as_list(apply_cached(rows, "x", "feat", lambda v: t, tmp_path))
    rows2 = ds(recs([{"filename": "t1", "x": 0}]))
    out = as_list(apply_cached(rows2, "x", "feat", lambda v: None, tmp_path))
    assert out[0].get_field("feat") == t


def test_cache_path_that_is_a_directory_names_it(tmp_path):
    (tmp_path / "sq" / "f0.json").mkdir(parents=True)
    with pytest.raises(OSError) as exc:
        as_list(apply_cached(squares_stream(1), "x", "sq", lambda v: v, tmp_path))
    assert str(tmp_path / "sq" / "f0.json") in str(exc.value)


def test_tensor_file_of_many_read_chunks_comes_back_warm(tmp_path):
    rng = random.Random(14)
    data = [rng.uniform(-1e6, 1e6) for _ in range(30_000)] + [-0.0, NAN_PAYLOAD, 5e-324]
    calls = []

    def f(v):
        calls.append(v)
        return Tensor((len(data),), data)

    def run():
        return as_list(apply_cached(squares_stream(1), "x", "feat", f, tmp_path))[0].get_field("feat")

    cold, warm = run(), run()
    assert calls == [0]
    assert os.path.getsize(tmp_path / "feat" / "f0.json") > 3 * 65536
    assert strict_equal(cold, warm) and strict_equal(warm, Tensor((len(data),), data))


@pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 65_537, 3 * 65_536 + 5])
@pytest.mark.parametrize("most", [None, 1_000], ids=["full-reads", "short-reads"])
def test_read_file_reads_until_end_of_file(tmp_path, monkeypatch, size, most):
    """A file of any size comes back whole; a short read is not taken as the end of the file."""
    blob = random.Random(size).randbytes(size)
    (tmp_path / "f").write_bytes(blob)
    if most is not None:
        read = os.read
        monkeypatch.setattr(os, "read", lambda fd, n: read(fd, min(n, most)))
    assert _read_file(str(tmp_path / "f")) == blob
    assert _read_file(str(tmp_path / "missing")) is None


@pytest.mark.parametrize("form", ["trailing-separator", "no-separator", "pathlike"])
def test_hit_path_is_the_joined_path(tmp_path, form):
    """A hit reads os.path.join(cache_dir, dst, sanitize_key(key) + ".json"), whatever form cache_dir takes."""
    cache_dir = {"trailing-separator": f"{tmp_path}{os.sep}", "no-separator": str(tmp_path), "pathlike": tmp_path}[form]
    key = "a/b c.mp4"
    path = os.path.join(os.path.join(os.fspath(cache_dir), "feat"), sanitize_key(key) + ".json")
    rows = lambda: ds(recs([{"filename": key, "x": 0}]))
    as_list(apply_cached(rows(), "x", "feat", lambda v: 41, cache_dir))
    assert os.listdir(tmp_path / "feat") == [os.path.basename(path)]
    with open(path, "wb") as fh:
        fh.write(encode_value(42))
    assert as_list(apply_cached(rows(), "x", "feat", lambda v: 1 / 0, cache_dir))[0].get_field("feat") == 42
    with open(path, "wb") as fh:
        fh.write(b"{")
    with pytest.raises(CacheCorrupt) as exc:
        as_list(apply_cached(rows(), "x", "feat", lambda v: 1 / 0, cache_dir))
    assert str(exc.value).startswith(f"{path}: malformed JSON")


def test_cache_requires_text_key(tmp_path):
    rows = ds(recs([{"filename": 7, "x": 0}]))
    with pytest.raises(TypeError) as info:
        as_list(apply_cached(rows, "x", "y", lambda v: v, tmp_path))
    assert str(info.value) == "cache key field 'filename' must be text, got int"


def test_no_temp_files_left_behind(tmp_path):
    as_list(apply_cached(squares_stream(3), "x", "sq", lambda v: v, tmp_path))
    leftovers = [f for f in os.listdir(tmp_path / "sq") if not f.endswith(".json")]
    assert leftovers == []


def test_cache_file_is_valid_json(tmp_path):
    """A cache file's first line is JSON; the rest is its tensors' data, 8 bytes per element."""
    t, u = Tensor((1,), [-0.0]), Tensor((2, 1), [NAN_PAYLOAD, 1.0])
    as_list(apply_cached(squares_stream(1), "x", "sq", lambda v: {"nested": [v, t, u]}, tmp_path))
    head, data = (tmp_path / "sq" / "f0.json").read_bytes().split(b"\n", 1)
    tensors = [{"t": "tensor", "shape": [1], "f64": 0}, {"t": "tensor", "shape": [2, 1], "f64": 8}]
    assert json.loads(head) == {"v": 3, "value": {"nested": [0, *tensors]}}
    assert data == struct.pack("<3d", -0.0, NAN_PAYLOAD, 1.0)


def test_v1_cache_directory_is_read_warm(tmp_path):
    """A cache directory in format 1, as written before format 2, is served without calling f."""
    (tmp_path / "feat").mkdir()
    (tmp_path / "feat" / "f0.json").write_bytes(b'{"v":1,"value":{"nested":[0]}}')
    (tmp_path / "feat" / "f1.json").write_bytes(
        b'{"v":1,"value":{"t":"tensor","shape":[2,1],"data":[1.0,-0.0]}}'
    )
    out = as_list(apply_cached(squares_stream(2), "x", "feat", lambda v: 1 / 0, tmp_path))
    assert strict_equal(out[0].get_field("feat"), {"nested": [0]})
    assert strict_equal(out[1].get_field("feat"), Tensor((2, 1), [1.0, -0.0]))


def test_v1_cache_file_with_a_text_shape_is_corrupt(tmp_path):
    (tmp_path / "feat").mkdir()
    path = tmp_path / "feat" / "f0.json"
    path.write_bytes(b'{"v":1,"value":{"t":"tensor","shape":"2","data":[1.0,2.0]}}')
    with pytest.raises(CacheCorrupt) as exc:
        as_list(apply_cached(squares_stream(1), "x", "feat", lambda v: 1 / 0, tmp_path))
    assert str(exc.value) == f"{path}: tensor shape and data must be arrays"


def test_cache_key_from_undecodable_file_name(tmp_path):
    """A file name whose bytes are not UTF-8 is a cache key: cold run, then warm."""
    cls = tmp_path / "tree" / "cls"
    cls.mkdir(parents=True)
    try:
        with open(os.fsencode(cls) + b"/x\xff.jpg", "wb"):
            pass
    except (OSError, ValueError):
        pytest.skip("the filesystem refuses a file name that is not UTF-8")
    calls = []

    def f(name):
        calls.append(name)
        return Tensor((1,), [float(len(name))])

    for _ in range(2):
        out = as_list(get_datastream(tmp_path / "tree") | apply_cached("filename", "n", f, tmp_path / "cache"))
        assert len(out) == 1 and out[0].get_field("n") == Tensor((1,), [float(len(calls[0]))])
    assert len(calls) == 1
    assert calls[0].endswith("x\udcff.jpg")
    assert os.listdir(tmp_path / "cache" / "n") == [sanitize_key(calls[0]) + ".json"]


# cache paths ------------------------------------------------------------------------

@pytest.mark.parametrize("dst", [".", "..", "a/b", "absolute"])
def test_dst_that_is_not_one_directory_fails_when_composed(tmp_path, dst):
    if dst == "absolute":
        dst = str(tmp_path / "elsewhere")
    source = CountingSource(recs([{"filename": "k", "x": 1}]))
    with pytest.raises(ValueError, match="must name one directory"):
        source.stream() | apply_cached("x", dst, lambda v: v, tmp_path / "cache")
    assert source.pulls == 0
    assert os.listdir(tmp_path) == []  # neither the cache directory nor anything beside it


def test_long_keys_get_distinct_file_names_that_fit(tmp_path):
    ascii_path = "/".join(f"d{i:02d}" for i in range(40)) + "/" + "v" * 81  # 245 characters, 40 directories
    keys = [
        "données/" + "图" * 30 + ".jpg",
        ascii_path,
        ascii_path[:-1] + "w",  # its encoded name shares the long one's prefix
        "k" * 250,  # the longest name kept whole: 255 bytes with ".json"
        "k" * 251,
        "short.jpg",
    ]
    calls = []

    def f(key):
        calls.append(key)
        return Tensor((1,), [float(len(key))])

    for _ in range(2):  # cold, then warm
        out = as_list(ds(recs([{"filename": k} for k in keys])) | apply_cached("filename", "n", f, tmp_path))
        assert [r.get_field("n") for r in out] == [Tensor((1,), [float(len(k))]) for k in keys]
    assert calls == keys

    def expected_name(key):
        name = sanitize_key(key)
        if len(name) > 250:
            name = name[:185] + "~" + hashlib.sha256(key.encode("utf-8", "surrogatepass")).hexdigest()
        return name + ".json"

    names = [expected_name(k) for k in keys]
    assert sorted(os.listdir(tmp_path / "n")) == sorted(names)
    assert [len(os.fsencode(n)) for n in names] == [255, 255, 255, 255, 255, len("short.jpg.json")]
    assert names[1][:185] == names[2][:185] and names[1] != names[2]
    assert [n.count("~") for n in names] == [1, 1, 1, 0, 1, 0]


_WRAPPINGS = st.sampled_from(["", " ", "\t\r\n ", "\n\n", "\ufeff", "\x0b", "\u00a0", "x", ",1", "]"])


@example([1], "", "\x0b")  # whitespace to str.isspace, not to JSON
@example("a", "", "\u00a0")
@example(0, "", " \n")
@example({}, "\ufeff", "")
@given(_JSON_VALUES, _WRAPPINGS, _WRAPPINGS)
def test_parse_json_is_json_loads(value, before, after):
    """The same value, or the same message, as json.loads for a document between two wrappings."""
    text = before + json.dumps(value, default=_tensor_default) + after
    try:
        want = json.loads(text)
    except json.JSONDecodeError as e:
        with pytest.raises(CacheCorrupt) as exc:
            parse_json(text, CacheCorrupt, "at ", 3)
        assert str(exc.value) == f"at {e.lineno + 2}:{e.colno}: {e.msg}"
    else:
        assert strict_equal(parse_json(text, CacheCorrupt, "at ", 3), want)
