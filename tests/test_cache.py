"""Value encoding, decoding and the disk-backed apply."""

import json
import os
import random

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
    to_jsonable,
)
from fieldstream.cache import sanitize_key

from helpers import ds, random_value, recs, strict_equal, values


# encode / decode -----------------------------------------------------------------

# a tensor whose one element is an integer literal too large for a float
HUGE_TENSOR_BLOB = b'{"v":1,"value":{"t":"tensor","shape":[1],"data":[1' + b"0" * 400 + b"]}}"


def test_encode_int_exact_bytes():
    assert encode_value(3) == b'{"v":1,"value":3}'


def test_encode_tensor_exact_bytes():
    blob = encode_value(Tensor((2,), [1.0, 2.0]))
    assert blob == b'{"v":1,"value":{"t":"tensor","shape":[2],"data":[1.0,2.0]}}'


def test_encode_null_exact_bytes():
    assert encode_value(None) == b'{"v":1,"value":null}'


def test_decode_rejects_other_versions():
    with pytest.raises(CacheCorrupt):
        decode_value(b'{"v":2,"value":3}')


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


@settings(max_examples=200)
@given(values)
def test_encode_matches_per_call_dumps(v):
    payload = {"v": 1, "value": to_jsonable(v)}
    oracle = json.dumps(payload, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    assert encode_value(v) == oracle


def test_encode_rejects_non_values():
    with pytest.raises(TypeError):
        encode_value({1: "non-string key"})
    with pytest.raises(TypeError):
        encode_value(object())


# key sanitization -----------------------------------------------------------------

def test_sanitize_percent_encodes_outside_safe_set():
    assert sanitize_key("a/b.mp4") == "a%2Fb.mp4"
    assert sanitize_key("Ab9._-") == "Ab9._-"
    assert sanitize_key("~") == "%7E"
    assert sanitize_key("é") == "%C3%A9"
    assert sanitize_key("a b") == "a%20b"


_SAFE = frozenset(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-")


def _sanitize_by_byte_loop(key: str) -> str:
    """The byte-at-a-time encoding that sanitize_key's table replaced: the oracle."""
    out = []
    for b in key.encode("utf-8"):
        out.append(chr(b) if b in _SAFE else f"%{b:02X}")
    return "".join(out)


@example("".join(map(chr, range(256))))
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
    for blob in [b'{"v":1,"va', HUGE_TENSOR_BLOB]:
        victim.write_bytes(blob)
        with pytest.raises(CacheCorrupt) as exc:
            as_list(apply_cached(squares_stream(1), "x", "sq", lambda v: v, tmp_path))
        assert "f0.json" in str(exc.value)


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


def test_cache_requires_text_key(tmp_path):
    rows = ds(recs([{"filename": 7, "x": 0}]))
    with pytest.raises(TypeError):
        as_list(apply_cached(rows, "x", "y", lambda v: v, tmp_path))


def test_no_temp_files_left_behind(tmp_path):
    as_list(apply_cached(squares_stream(3), "x", "sq", lambda v: v, tmp_path))
    leftovers = [f for f in os.listdir(tmp_path / "sq") if not f.endswith(".json")]
    assert leftovers == []


def test_cache_file_is_valid_json(tmp_path):
    as_list(apply_cached(squares_stream(1), "x", "sq", lambda v: {"nested": [v]}, tmp_path))
    payload = json.loads((tmp_path / "sq" / "f0.json").read_text())
    assert payload == {"v": 1, "value": {"nested": [0]}}
