"""Disk-backed apply: compute a field once, persist it, reload next run.

Cache files are UTF-8 JSON with a one-field version envelope::

    {"v": 1, "value": <encoded value>}

Scalars encode natively. Tensors encode as
``{"t": "tensor", "shape": [...], "data": [...]}``; lists and maps
recurse. Floats round-trip exactly through the shortest-decimal
representation the JSON serializer emits. A map whose keys are exactly
``t``, ``shape`` and ``data`` with ``t == "tensor"`` is indistinguishable
from a tensor and will decode as one; avoid that key combination in
cached maps.

Layout on disk is ``cache_dir/<dst>/<encoded key>.json`` where the key
is the record's key field with every byte outside ``[A-Za-z0-9._-]``
percent-encoded. Writes go through a temp file and an atomic rename,
so concurrent processes sharing a cache directory never observe a
partial file. A file that exists but fails to decode raises
CacheCorrupt naming the path; it is never silently recomputed.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

from .errors import CacheCorrupt
from .record import Value, check_name
from .stream import Datastream, claim_iter, pipeable, reader
from .tensor import Tensor

__all__ = ["apply_cached", "encode_value", "decode_value", "to_jsonable", "from_jsonable"]

_SAFE_BYTES = frozenset(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-")
# byte value -> itself if safe, else its %XX escape; indexed by the latin-1 code point of each UTF-8 byte
_KEY_TABLE = [chr(b) if b in _SAFE_BYTES else f"%{b:02X}" for b in range(256)]


def sanitize_key(key: str) -> str:
    """Percent-encode every byte outside [A-Za-z0-9._-]."""
    return key.encode("utf-8").decode("latin-1").translate(_KEY_TABLE)


def _tensor_obj(shape, data) -> dict:
    """The one layout of an encoded tensor: its keys and their order."""
    return {"t": "tensor", "shape": shape, "data": data}


def _not_encodable(value) -> TypeError:
    return TypeError(f"{type(value).__name__} is not an encodable value")


def _encode_default(value):
    if isinstance(value, Tensor):
        return _tensor_obj(value.shape, value.data)
    raise _not_encodable(value)


# Writes exactly what json.dumps(to_jsonable(v), ensure_ascii=False) writes, without the walk
# or a new encoder per call. It turns non-text map keys into text where to_jsonable raises, so
# it serves only values whose map keys are text by construction (parsed CSV or JSON rows).
_ENCODER = json.JSONEncoder(ensure_ascii=False, default=_encode_default)
# Writes exactly what json.dumps(payload, ensure_ascii=False, separators=(",", ":")) writes.
_COMPACT_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def to_jsonable(value: Value):
    """Map a field value onto plain JSON-serializable data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Tensor):
        return _tensor_obj(list(value.shape), list(value.data))
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"map keys must be strings, got {k!r}")
            out[k] = to_jsonable(v)
        return out
    raise _not_encodable(value)


def _is_tensor_obj(obj: dict) -> bool:
    return set(obj) == {"t", "shape", "data"} and obj.get("t") == "tensor"


def _tensor_from_obj(obj: dict) -> Tensor:
    shape = obj["shape"]
    data = obj["data"]
    if not isinstance(shape, list) or not isinstance(data, list):
        raise CacheCorrupt("tensor shape and data must be arrays")
    try:
        return Tensor(shape, data)
    except ValueError as e:
        raise CacheCorrupt(str(e)) from None


def from_jsonable(obj) -> Value:
    """Inverse of :func:`to_jsonable`; tensors are recognized structurally."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [from_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        if _is_tensor_obj(obj):
            return _tensor_from_obj(obj)
        return {k: from_jsonable(v) for k, v in obj.items()}
    raise CacheCorrupt(f"cannot decode {type(obj).__name__}")


def encode_value(value: Value) -> bytes:
    """Serialize one value to the versioned UTF-8 JSON cache format."""
    payload = {"v": 1, "value": to_jsonable(value)}
    return _COMPACT_ENCODER.encode(payload).encode("utf-8")


def decode_value(blob: bytes | str) -> Value:
    """Parse the cache format; any malformation raises CacheCorrupt."""
    if isinstance(blob, bytes):
        try:
            blob = blob.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CacheCorrupt(f"not UTF-8: {e}") from None
    try:
        payload = json.loads(blob)
    except json.JSONDecodeError as e:
        raise CacheCorrupt(f"malformed JSON: {e.msg} at {e.lineno}:{e.colno}") from None
    if not isinstance(payload, dict) or "v" not in payload or "value" not in payload:
        raise CacheCorrupt("missing version envelope")
    if payload["v"] != 1:
        raise CacheCorrupt(f"unsupported version {payload['v']!r}")
    return from_jsonable(payload["value"])


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


@pipeable
def apply_cached(s, src, dst: str, f, cache_dir, key_field: str = "filename") -> Datastream:
    """Like an eager ``apply`` whose results persist on disk per record.

    The cache path is derived from ``dst`` and the record's
    ``key_field`` value. On a hit the stored value is loaded and ``f``
    is not invoked; on a miss ``f`` runs and the result is written
    atomically before the record is yielded.
    """
    check_name(dst)
    check_name(key_field)
    read = reader(src)
    cache_dir = os.fspath(cache_dir)
    subdir = os.path.join(cache_dir, dst)
    os.makedirs(subdir, exist_ok=True)
    it = claim_iter(s)

    def gen():
        for r in it:
            key = r.get_field(key_field)
            if not isinstance(key, str):
                raise TypeError(f"cache key field {key_field!r} must be text, got {type(key).__name__}")
            path = os.path.join(subdir, sanitize_key(key) + ".json")
            try:
                with open(path, "rb") as fh:
                    blob = fh.read()
            except FileNotFoundError:
                blob = None
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
