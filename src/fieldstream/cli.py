"""Command-line front end for running data-prep pipelines over files.

Every subcommand is a thin composition of library operations; the only
logic here is argument parsing and file I/O. JSON Lines is the
interchange format, with tensors as ``{"t", "shape", "data"}`` objects.

Exit codes: 0 success, 1 usage error, 2 data error (bad input files,
unreadable paths, malformed rows). Data errors name the offending file
and, where known, the line.

``argparse`` is imported by the first :func:`run_cli` call, not with
this module, so a library user who never runs the CLI does not load it.
"""

from __future__ import annotations

import csv
import functools
import os
import struct
import sys
from types import SimpleNamespace

from .cache import _ENCODER, _tensor_obj, atomic_open, from_jsonable
from .combinators import apply, shard, sliding_window
from .errors import CacheCorrupt, FieldstreamError, MissingField, RaggedRow, ShapeMismatch
from .mlprep import _save_split_file, datasplit, stratify_sample, summary
from .sources import csvsource, get_datastream, jsonstream
from .stream import count
from .tensor import Tensor, as_tensor

__all__ = ["run_cli"]


def _write_lines(records, path, source, encode=_ENCODER.encode) -> None:
    """Write ``encode`` of each record's field dict and a ``\n``; the default writes JSON Lines.
    A value UTF-8 cannot hold (a lone surrogate), or a CSV record whose fields differ from the
    header's, is a ValueError naming ``source``, the input, and the record. A MissingField or
    ShapeMismatch raised while pulling a record is a ValueError naming ``source``.

    Every command builds eager pipelines only, so ``encode`` gets the record's own dict, neither
    forced nor copied; no encoder changes or keeps it. A thunk field reaching here is a bug in
    the command, and the encoder's TypeError for it passes through unchanged."""
    with atomic_open(path, newline="", encoding="utf-8") as fh:
        try:
            for n, r in enumerate(records, 1):
                try:
                    fh.write(encode(r._cells) + "\n")
                except (UnicodeEncodeError, RaggedRow) as e:  # not around the source, whose errors name it
                    raise ValueError(f"{source}: output record {n}: {e}") from None
        except (MissingField, ShapeMismatch) as e:  # a stage's error, which names no file
            raise ValueError(f"{source}: {e}") from None


def _row_text(row: tuple[float, ...]) -> str:
    """The floats of one tensor row as ``_ENCODER`` writes them inside ``"data"``, without brackets."""
    return _ENCODER.encode(row)[1:-1]


def _window_encoder():
    """A line encoder for sliding-window records that encodes each tensor row once.

    Consecutive windows share all but one row of each stacked field. So,
    per field name, the previous line's shape, exact bits and row texts are
    kept; when the shape is the same and the bits of all but the last row
    equal the previous line's bits after its first row, that line's row
    texts less the first are reused and only the new last row is encoded.
    Bits, not float equality, decide, so ``0.0`` and ``-0.0`` stay apart.
    Tensors of rank 2 or more with data are joined from row texts; every
    other value goes through ``_ENCODER`` as it is. A line with no tensor of
    rank 2 or more (windows of scalars) is one ``_ENCODER`` call, as for the
    other commands: it has no rows to share.
    """
    heads: dict[tuple[str, tuple[int, ...]], str] = {}  # (name, shape) -> text up to the first row
    prev: dict[str, tuple] = {}  # name -> (shape, bits, row texts) of the previous line

    def encode(fields: dict) -> str:
        nonlocal prev
        for v in fields.values():
            if type(v) is Tensor and len(v.shape) >= 2:
                break
        else:
            prev = {}
            return _ENCODER.encode(fields)
        cur = {}
        parts = []
        for name, v in fields.items():
            if type(v) is Tensor and len(v.shape) >= 2 and (data := v.data):
                shape = v.shape
                width = len(data) // shape[0]
                bits = struct.pack(f"{len(data)}d", *data)  # native: only compared, never written
                kept_shape, kept_bits, kept_rows = prev.get(name, ((), b"", ()))
                if kept_shape == shape and bits[: -8 * width] == kept_bits[8 * width :]:
                    rows = kept_rows[1:]
                    rows.append(_row_text(data[-width:]))
                else:
                    rows = [_row_text(data[i : i + width]) for i in range(0, len(data), width)]
                cur[name] = shape, bits, rows
                if (head := heads.get((name, shape))) is None:
                    # the layout ends with "data", so the field's text with no data, less "{" and "]}}", is the head
                    head = heads[name, shape] = _ENCODER.encode({name: _tensor_obj(shape, ())})[1:-3]
                parts.append(head + ", ".join(rows) + "]}")
            else:
                parts.append(_ENCODER.encode(name) + ": " + _ENCODER.encode(v))
        prev = cur
        return "{" + ", ".join(parts) + "}"

    return encode


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    return _ENCODER.encode(value)


def _csv_encoder():
    """A line encoder for CSV output: one row per record, under a header taken from the first.

    A later record whose field names differ from the header's raises RaggedRow.
    """
    lines: list[str] = []
    # A "\r\n" terminator makes QUOTE_MINIMAL quote a cell holding a lone "\r" as well as "\n",
    # so csvsource reads the file back; its "\r\n" is cut to "\n" here. That each writerow is one
    # write ending in the terminator is how CPython's _csv works, not what the csv docs promise;
    # tests/test_cli.py pins it.
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    header: dict | None = None  # the first record's field names, as a dict for its keys view

    def encode(fields: dict) -> str:
        nonlocal header
        if header is None:
            header = dict.fromkeys(fields)
            writer.writerow(header)
        elif fields.keys() != header.keys():
            raise RaggedRow(f"record fields {list(fields)} do not match header {list(header)}")
        writer.writerow([_csv_cell(fields[n]) for n in header])
        text = "\n".join(line[:-2] for line in lines)
        lines.clear()
        return text

    return encode


def _cmd_convert(ns) -> int:
    src_ext = os.path.splitext(ns.in_path)[1].lower()
    dst_ext = os.path.splitext(ns.out_path)[1].lower()
    if src_ext == ".csv" and dst_ext == ".jsonl":
        _write_lines(csvsource(ns.in_path), ns.out_path, ns.in_path)
    elif src_ext == ".jsonl" and dst_ext == ".csv":
        _write_lines(jsonstream(ns.in_path), ns.out_path, ns.in_path, _csv_encoder())
    else:
        print(f"convert: unsupported conversion {src_ext or '?'} -> {dst_ext or '?'}", file=sys.stderr)
        return 1
    return 0


def _cmd_summary(ns) -> int:
    count(get_datastream(ns.dir, ext=ns.ext) | summary(sink=sys.stdout))
    return 0


def _cmd_split(ns) -> int:
    split = get_datastream(ns.dir, ext=ns.ext) | datasplit(ns.test, seed=ns.seed)
    _save_split_file(ns.out_path, split, "filename")
    return 0


def _cmd_stratify(ns) -> int:
    _write_lines(jsonstream(ns.in_path) | stratify_sample(class_field=ns.class_field), ns.out_path, ns.in_path)
    return 0


def _cmd_shard(ns) -> int:
    _write_lines(jsonstream(ns.in_path) | shard(ns.k, ns.n), ns.out_path, ns.in_path)
    return 0


def _windowed_value(path, name: str):
    """JSONL value -> tensor for field ``name``; anything else is a data error naming file and field."""

    def decode(obj):
        try:
            return as_tensor(from_jsonable(obj))
        except (TypeError, CacheCorrupt) as e:
            raise ValueError(f"{path}: field {name!r}: {e}") from None

    return decode


def _cmd_window(ns) -> int:
    fields = list(dict.fromkeys(f.strip() for f in ns.fields.split(",") if f.strip()))
    stream = jsonstream(ns.in_path)
    for name in fields:
        stream = stream | apply(name, name, _windowed_value(ns.in_path, name))
    _write_lines(stream | sliding_window(fields, ns.size), ns.out_path, ns.in_path, _window_encoder())
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser tree of this process, built on the first call, never at import."""
    import argparse  # here, so that importing fieldstream does not load it

    parser = argparse.ArgumentParser(
        prog="fieldstream",
        description="Run record-stream data-prep pipelines over CSV/JSONL/file-tree inputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert csv <-> jsonl, chosen by file extension")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("summary", help="per-class counts for a class-directory tree")
    p.add_argument("--dir", required=True)
    p.add_argument("--ext", default=None)
    p.set_defaults(handler=_cmd_summary)

    p = sub.add_parser("split", help="draw a seeded train/test split and save it as JSON")
    p.add_argument("--dir", required=True)
    p.add_argument("--test", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--ext", default=None)
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("stratify", help="downsample a jsonl stream to equal class counts")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--class-field", dest="class_field", default=None)
    p.add_argument("--out", dest="out_path", required=True)
    p.set_defaults(handler=_cmd_stratify)

    p = sub.add_parser("shard", help="keep every n-th record with remainder k")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.set_defaults(handler=_cmd_shard)

    p = sub.add_parser("window", help="stack fields over a sliding window (tensors as {t, shape, data} objects)")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--fields", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.set_defaults(handler=_cmd_window)

    return parser


def run_cli(argv) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return ns.handler(ns)
    except (FieldstreamError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
