"""Disk-backed apply: compute a field once, persist it, reload next run.

A cache file (format 3) is a UTF-8 JSON header line, then a data section::

    {"v":3,"value":<encoded value>}
    <tensor data>

Scalars encode natively; lists and maps recurse. A tensor encodes as
``{"t":"tensor","shape":[...],"f64":<offset>}`` with its data in the data
section as little-endian float64, so it round-trips bit for bit (scalar
floats are shortest decimals, and a scalar NaN comes back as the default
NaN). Offsets run on from 0 in header order and use up the data section
exactly. Compact JSON escapes every newline in a string, so the first
newline byte ends the header. A process parses and checks each distinct
well-formed header once, into a decode plan kept in a bounded memo; a
later file with that header only has its length checked and its tensors
read. A malformed header is never kept: it raises its own error on every
decode, whatever the data section holds. Encoding a map whose keys are
exactly ``t``, ``shape`` and ``f64`` with ``t == "tensor"`` raises
TypeError, as it would read back as a tensor.
Format 2 (one JSON document whose tensors hold base64 text in ``"f64"``)
and format 1 (tensors in the CLI's decimal ``"data"`` layout) are still
read; each version recognizes only its own tensor layout. A fieldstream
older than format 3 raises CacheCorrupt on a format 3 file.

Layout on disk is ``cache_dir/<dst>/<encoded key>.json`` where the key
is the record's key field with every byte outside ``[A-Za-z0-9._-]``
percent-encoded; an encoded key too long for a 255-byte file name is
cut to its first 185 bytes, then ``~`` and the sha256 hex of the key.
``dst`` names one directory: ``.``, ``..`` and names holding a path
separator are refused when the stage is built. Writes go through a
temp file and an atomic rename, so concurrent processes sharing a cache
directory never observe a partial file. A file that exists but fails to decode raises
CacheCorrupt naming the path; it is never silently recomputed.
"""

from __future__ import annotations

import base64
import functools
import json
import math
import os
import re
import struct
import sys
from contextlib import contextmanager

from .errors import CacheCorrupt
from .record import Value, check_name
from .stream import Datastream, check_callable, claim_iter, pipeable, reader
from .tensor import Tensor, check_shape

__all__ = ["apply_cached", "encode_value", "decode_value"]

_SAFE_BYTES = frozenset(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-")
# byte value -> itself if safe, else its %XX escape; indexed by the latin-1 code point of each UTF-8 byte
_KEY_TABLE = [chr(b) if b in _SAFE_BYTES else f"%{b:02X}" for b in range(256)]


def sanitize_key(key: str) -> str:
    """Percent-encode every byte outside [A-Za-z0-9._-]; a lone surrogate is its three UTF-8 bytes."""
    return key.encode("utf-8", "surrogatepass").decode("latin-1").translate(_KEY_TABLE)


def key_not_text(what: str, key_field: str, key) -> TypeError:
    """The error for a ``key_field`` value that is not text; ``what`` names the key: cache or split."""
    return TypeError(f"{what} key field {key_field!r} must be text, got {type(key).__name__}")


# A file name is at most 255 bytes (NAME_MAX on Linux and macOS); a sanitized key is ASCII.
_LONGEST_KEY = 255 - len(".json")


def _long_key_name(name: str, key: str) -> str:
    """The file name, less ``.json``, of a key whose sanitized ``name`` is longer than ``_LONGEST_KEY``:
    a prefix of ``name``, ``~`` and the sha256 hex of the key. ``sanitize_key`` escapes every ``~``,
    so no shorter key's name has this form."""
    import hashlib  # here, so that a cache of short keys never loads it

    digest = hashlib.sha256(key.encode("utf-8", "surrogatepass")).hexdigest()
    return name[: _LONGEST_KEY - 1 - len(digest)] + "~" + digest


def check_dst(dst: str) -> None:
    """A ``dst`` that is not one directory name inside the cache directory raises ValueError."""
    if dst in (".", "..") or os.sep in dst or (os.altsep and os.altsep in dst):
        raise ValueError(f"cache dst {dst!r} must name one directory: not '.' or '..', and no path separator")


def _tensor_obj(shape, data) -> dict:
    """The one JSON Lines layout of a tensor, also cache format 1's: its keys and their order."""
    return {"t": "tensor", "shape": shape, "data": data}


def _not_encodable(value) -> TypeError:
    return TypeError(f"{type(value).__name__} is not an encodable value")


def _encode_default(value):
    if isinstance(value, Tensor):
        return _tensor_obj(value.shape, value.data)
    raise _not_encodable(value)


class _Encoder:
    """The stdlib's C JSON encoder, built once: ``JSONEncoder.encode`` builds a new one per call.

    The arguments are those ``JSONEncoder.iterencode`` passes on CPython 3.10-3.13. ``markers``
    is None, so there is no circular reference check: markers kept across calls hold stale ids
    after an encode raises, and a later call would report a false circular reference. Nothing
    cyclic reaches these encoders: they get parsed CSV and JSON rows, and what ``to_jsonable``
    built, which fails on a cycle before any encoding starts.
    """

    def __init__(self, item_sep: str, key_sep: str, default):
        self._c = json.encoder.c_make_encoder(
            None, default, json.encoder.encode_basestring, None, key_sep, item_sep, False, False, True
        )

    def encode(self, o) -> str:
        return "".join(self._c(o, 0))


# Writes exactly what json.dumps(to_jsonable(v), ensure_ascii=False) writes, without the walk.
# It turns non-text map keys into text where to_jsonable raises, so it serves only values
# whose map keys are text by construction (parsed CSV or JSON rows).
_ENCODER = _Encoder(", ", ": ", _encode_default)
# Writes exactly what json.dumps(payload, ensure_ascii=False, separators=(",", ":")) writes.
_COMPACT_ENCODER = _Encoder(",", ":", json.JSONEncoder().default)
# The keys of a tensor map in the "data" layout of JSON Lines and cache format 1,
# and in the "f64" layout of cache formats 2 and 3.
_DATA_KEYS = frozenset(("t", "shape", "data"))
_F64_KEYS = frozenset(("t", "shape", "f64"))
# The struct prefix of tensor data, little-endian float64 on disk: native on a little-endian host,
# whose "d" is that same unpadded 8-byte run and packs and unpacks faster than "<".
_F64 = "" if sys.byteorder == "little" else "<"


def to_jsonable(value: Value, tensor=_encode_default):
    """Map a field value onto plain JSON-serializable data; ``tensor`` lays out each tensor."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Tensor):
        return tensor(value)
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v, tensor) for v in value]
    if isinstance(value, dict):
        if value.keys() == _F64_KEYS and value["t"] == "tensor":
            raise TypeError(f"map {value!r} would read back as a tensor: keys t, shape and f64 with t 'tensor'")
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"map keys must be strings, got {k!r}")
            out[k] = to_jsonable(v, tensor)
        return out
    raise _not_encodable(value)


def _tensor_from_data(obj: dict) -> Tensor | None:
    """The tensor a ``"data"`` layout map encodes; None for any other map."""
    if obj.keys() != _DATA_KEYS or obj["t"] != "tensor":
        return None
    shape, data = obj["shape"], obj["data"]
    if not isinstance(shape, list) or not isinstance(data, list):
        raise CacheCorrupt("tensor shape and data must be arrays")
    try:
        return Tensor(shape, data)
    except ValueError as e:
        raise CacheCorrupt(str(e)) from None


def _f64_shape(obj: dict) -> tuple[int, ...] | None:
    """The checked shape of a map in the ``"f64"`` tensor layout of formats 2 and 3; None for any other map."""
    if obj.keys() != _F64_KEYS or obj["t"] != "tensor":
        return None
    shape = obj["shape"]
    if not isinstance(shape, list):
        raise CacheCorrupt("tensor shape must be an array")
    try:
        return check_shape(shape)
    except ValueError as e:
        raise CacheCorrupt(f"bad tensor: {e}") from None


def _wrong_size(shape: tuple[int, ...], held: int, needs: int) -> CacheCorrupt:
    return CacheCorrupt(f"tensor f64 holds {held} bytes, shape {shape} needs {needs}")


def _v2_tensor(obj: dict) -> Tensor | None:
    """The ``from_jsonable`` hook of format 2, whose ``"f64"`` is the base64 text of a tensor's data."""
    if (shape := _f64_shape(obj)) is None:
        return None
    f64 = obj["f64"]
    if not isinstance(f64, str):
        raise CacheCorrupt("tensor f64 must be base64 text")
    try:
        raw = base64.b64decode(f64, validate=True)
    except ValueError as e:  # binascii.Error is a ValueError
        raise CacheCorrupt(f"bad tensor: {e}") from None
    n = math.prod(shape)
    if len(raw) != 8 * n:
        raise _wrong_size(shape, len(raw), 8 * n)
    return Tensor._trusted(shape, struct.unpack(f"{_F64}{n}d", raw))


def from_jsonable(obj, tensor=_tensor_from_data) -> Value:
    """Inverse of :func:`to_jsonable`; ``tensor`` recognizes and builds the tensors of one layout."""
    if isinstance(obj, list):
        return [from_jsonable(v, tensor) for v in obj]
    if isinstance(obj, dict):
        if (t := tensor(obj)) is not None:
            return t
        return {k: from_jsonable(v, tensor) for k, v in obj.items()}
    return obj


def encode_value(value: Value) -> bytes:
    """Serialize one value to cache format 3: its JSON header line, then its tensors' data."""
    data = bytearray()

    def f64(t: Tensor) -> dict:
        data.extend(struct.Struct(f"{_F64}{t.size}d").pack(*t.data))  # struct.pack(fmt, *data) copies the tuple twice
        return {"t": "tensor", "shape": list(t.shape), "f64": len(data) - 8 * t.size}

    head = _COMPACT_ENCODER.encode({"v": 3, "value": to_jsonable(value, f64)})
    return b"".join((head.encode("utf-8"), b"\n", data))


# A JSON string, or a number with its integer digits, fraction and exponent as groups 1-3.
_STRING_OR_NUMBER = r'"(?:[^"\\]|\\.)*"|-?(\d+)(\.\d+)?([eE][-+]?\d+)?'


def _long_int_at(text: str) -> int:
    """Offset of the first integer literal outside a string with more digits than ``int`` accepts.

    ``json`` reads a number with a fraction or an exponent as a float, which has no limit.
    """
    limit = sys.get_int_max_str_digits()
    return next(m.start() for m in re.finditer(_STRING_OR_NUMBER, text)
                if m[1] and len(m[1]) > limit and not (m[2] or m[3]))


def parse_json(text: str, error: type[Exception], where: str, line: int = 1):
    """``json.loads(text)``; malformed JSON raises ``error("{where}{line}:{col}: {msg}")``.

    ``line`` is the file line ``text`` starts on. ``json`` raises an integer past the int-string
    digit limit with no position, so only this error path scans ``text`` for it.
    """
    try:
        return json.loads(text)
    except ValueError as e:
        if not isinstance(e, json.JSONDecodeError):
            e = json.JSONDecodeError(str(e), text, _long_int_at(text))
        raise error(f"{where}{line + e.lineno - 1}:{e.colno}: {e.msg}") from None


_V3_HEAD = b'{"v":3,"value":'  # how encode_value starts a file: format 3 is read only from bytes that start so


def _envelope(blob: bytes | str, versions: tuple[int, ...], where: str):
    """The JSON value in the envelope ``{"v":<version>,"value":<value>}``, and its version, one of ``versions``."""
    if isinstance(blob, bytes):
        try:
            blob = blob.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CacheCorrupt(f"not UTF-8: {e}") from None
    payload = parse_json(blob, CacheCorrupt, "malformed JSON: ")
    if not isinstance(payload, dict) or "v" not in payload or "value" not in payload:
        raise CacheCorrupt("missing version envelope")
    version = payload["v"]
    if type(version) is not int or version not in versions:
        raise CacheCorrupt(f"unsupported version {version!r} in {where}")
    return payload["value"], version


class _Slot:
    """A tensor in a decode plan: its shape, and where its data starts and ends in the file."""

    __slots__ = ("shape", "start", "end", "fmt")

    def __init__(self, shape: tuple[int, ...], start: int):
        n = math.prod(shape)
        self.shape, self.start, self.end = shape, start, start + 8 * n
        self.fmt = f"{_F64}{n}d"  # text: struct compiles it only once the file is known to hold the data


def _plan(header: bytes):
    """The decode plan of a format 3 header line: the value with a :class:`_Slot` for each tensor,
    its slots in header order, and the length of the file that holds their data.

    A malformed header raises CacheCorrupt, so a decode reports it whatever the data section holds.
    """
    value, _ = _envelope(header, (3,), "a header")
    base = len(header) + 1  # the data section's first byte
    slots = []

    def slot(obj: dict) -> _Slot | None:
        if (shape := _f64_shape(obj)) is None:
            return None
        start, offset = slots[-1].end if slots else base, obj["f64"]
        if type(offset) is not int or offset != start - base:
            raise CacheCorrupt(f"tensor f64 is {offset!r}, not the next data offset {start - base}")
        slots.append(_Slot(shape, start))
        return slots[-1]

    return from_jsonable(value, slot), slots, slots[-1].end if slots else base


# A process keeps the plans of at most _PLAN_MEMO distinct well-formed format 3 headers (an
# lru_cache keeps nothing from a call that raised), the least recently used dropped first, and
# only of headers up to _MEMO_HEADER bytes: a longer one (a value of many scalars) is planned
# afresh on every decode, so the memo's size stays bounded in bytes too.
_PLAN_MEMO = 128
_MEMO_HEADER = 4096
_memo_plan = functools.lru_cache(maxsize=_PLAN_MEMO)(_plan)


def _fill(node, blob: bytes):
    """A new value from a plan's skeleton: every list and dict rebuilt, every slot a tensor read from ``blob``."""
    if type(node) is _Slot:
        return Tensor._trusted(node.shape, struct.unpack_from(node.fmt, blob, node.start))
    if type(node) is list:
        return [_fill(v, blob) for v in node]
    if type(node) is dict:
        return {k: _fill(v, blob) for k, v in node.items()}
    return node


def decode_value(blob: bytes | str) -> Value:
    """Parse cache format 1, 2 or 3; any malformation raises CacheCorrupt."""
    if isinstance(blob, bytes) and blob.startswith(_V3_HEAD) and (end := blob.find(b"\n")) >= 0:
        skeleton, slots, size = (_memo_plan if end <= _MEMO_HEADER else _plan)(blob[:end])
        if len(blob) != size:
            if cut := next((s for s in slots if s.end > len(blob)), None):
                raise _wrong_size(cut.shape, max(0, len(blob) - cut.start), cut.end - cut.start)
            raise CacheCorrupt(f"data section holds {len(blob) - end - 1} bytes, its tensors {size - end - 1}")
        return _fill(skeleton, blob)
    value, version = _envelope(blob, (1, 2), "a JSON document")
    return from_jsonable(value, _v2_tensor if version == 2 else _tensor_from_data)


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temp file beside ``path`` for writing; a clean exit renames it onto ``path``.

    On an exception the temp file is removed and ``path`` is left as it
    was, so readers never see a partial file. The file is created with
    the permissions a plain ``open`` would give it.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as e:
        raise type(e)(e.errno, e.strerror, path) from None
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file and rename, so readers never see a partial file."""
    with atomic_open(path, "wb") as fh:
        fh.write(data)


_READ_SIZE = 1 << 16


def _read_file(path: str) -> bytes | None:
    """The bytes of the file at ``path``, read without a buffered file object; None if it does not exist."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return None
    try:
        blob = os.read(fd, _READ_SIZE)
        if blob and (chunk := os.read(fd, _READ_SIZE)):  # a short read is not the end: read on until b""
            chunks = [blob, chunk]
            while chunk := os.read(fd, _READ_SIZE):
                chunks.append(chunk)
            blob = b"".join(chunks)
        return blob
    except OSError as e:  # os.read gives no file name: a directory is IsADirectoryError here
        raise type(e)(e.errno, e.strerror, path) from None
    finally:
        os.close(fd)


@pipeable
def apply_cached(s, src, dst: str, f, cache_dir, key_field: str = "filename") -> Datastream:
    """Like an eager ``apply`` whose results persist on disk per record.

    The cache path is derived from ``dst`` and the record's
    ``key_field`` value. On a hit the stored value is loaded and ``f``
    is not invoked; on a miss ``f`` runs and the result is written
    atomically before the record is yielded.
    """
    check_name(dst)
    check_dst(dst)
    check_name(key_field)
    check_callable(f, "cache function")
    read = reader(src)
    subdir = os.path.join(os.fspath(cache_dir), dst)
    os.makedirs(subdir, exist_ok=True)
    prefix = os.path.join(subdir, "")  # a sanitized key holds no separator, so prefix + key joins as os.path.join
    it = claim_iter(s)

    def gen():
        for r in it:
            key = r.get_field(key_field)
            if not isinstance(key, str):
                raise key_not_text("cache", key_field, key)
            name = sanitize_key(key)
            if len(name) > _LONGEST_KEY:
                name = _long_key_name(name, key)
            path = prefix + name + ".json"
            blob = _read_file(path)
            if blob is None:
                value = f(read(r))
                atomic_write_bytes(path, encode_value(value))
            else:
                try:
                    value = decode_value(blob)
                except CacheCorrupt as e:
                    raise CacheCorrupt(f"{path}: {e}") from None
            r.set_field(dst, value)
            yield r

    return Datastream(gen())
