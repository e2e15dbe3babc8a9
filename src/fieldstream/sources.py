"""Stream producers: file trees, class directories, CSV and JSON files.

All file enumeration is sorted lexicographically so two runs over the
same tree produce byte-identical streams. CSV follows the minimal RFC
4180 dialect (comma, double quotes, doubled-quote escaping, UTF-8); a
UTF-8 byte order mark before the header is dropped, while JSON input
refuses one, as RFC 8259 allows.
JSON input is either one top-level array of objects or JSON Lines,
detected by the first non-whitespace character. JSON Lines is read one
line at a time and breaks lines only at ``\n``, so U+2028, U+2029,
U+0085 and a lone ``\r`` stay inside a line. Invalid UTF-8 in either
source is a ParseError naming the file and the line of the first bad byte.
"""

from __future__ import annotations

import csv
import os
from collections.abc import Mapping

from .cache import parse_json
from .errors import NotAnObject, ParseError, RaggedRow, UnknownClass
from .record import Record, check_name
from .stream import Datastream

__all__ = ["get_files", "get_datastream", "csvsource", "jsonstream"]


def _walk_files(root: str) -> list[str]:
    """Sorted files and symlinks to files under ``root``; skips FIFOs, broken links and linked directories."""
    paths = []
    pending = [root]
    while pending:
        try:
            entries = os.scandir(pending.pop())
        except OSError:
            continue
        with entries:
            for entry in entries:
                if entry.is_dir(follow_symlinks=False):
                    pending.append(entry.path)
                elif entry.is_file():
                    paths.append(entry.path)
    paths.sort()
    return paths


def get_files(directory, ext: str | None = None) -> Datastream:
    """Stream of file paths under a directory, recursive and sorted.

    Paths keep the directory prefix as given. ``ext`` filters by a
    case-insensitive suffix, e.g. ``".jpg"``.
    """
    directory = os.fspath(directory)
    if not os.path.isdir(directory):
        raise NotADirectoryError(f"not a directory: {directory}")
    suffix = None if ext is None else ext.lower()

    def gen():
        for path in _walk_files(directory):
            if suffix is None or path.lower().endswith(suffix):
                yield path

    return Datastream(gen())


def get_datastream(data_dir, ext: str | None = None, classes: Mapping[str, int] | None = None) -> Datastream:
    """Classification source: one record per file in per-class subdirectories.

    Immediate subdirectories of ``data_dir`` are the class names. Each
    matching file yields a record with fields ``filename``,
    ``class_no`` and ``class_name``. Without ``classes`` the names are
    sorted and numbered from 0; with ``classes`` the given name ->
    number mapping is used and a file in an unlisted subdirectory
    raises UnknownClass.
    """
    data_dir = os.fspath(data_dir)
    if not os.path.isdir(data_dir):
        raise NotADirectoryError(f"not a directory: {data_dir}")
    subdirs = sorted(
        entry.name for entry in os.scandir(data_dir) if entry.is_dir()
    )
    if classes is None:
        mapping: Mapping[str, int] = {name: i for i, name in enumerate(subdirs)}
    else:
        mapping = dict(classes)

    def gen():
        for name in subdirs:
            listed = name in mapping
            for path in get_files(os.path.join(data_dir, name), ext):
                if not listed:
                    raise UnknownClass(f"directory {name!r} is not in the class mapping")
                yield Record._adopt({"filename": path, "class_no": mapping[name], "class_name": name})

    return Datastream(gen())


def _not_utf8(path: str, e: UnicodeDecodeError) -> ParseError:
    """The ParseError for the first invalid UTF-8 in ``path``, naming the 1-based line that holds it.

    No UTF-8 sequence holds a ``\n`` byte, so the first line that does not decode on its
    own holds the first bad byte. Only this error path reads the file a second time.
    """
    lineno = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                break
    return ParseError(f"{path}:{lineno}: not valid UTF-8: {e.reason}")


def csvsource(path) -> Datastream:
    """Stream of records from a CSV file; the header names the fields.

    Every cell stays text, no type inference. A UTF-8 byte order mark
    before the header, as Excel's "CSV UTF-8" writes, is dropped. A
    blank or repeated header name raises ParseError before the first
    row; a row whose cell count differs from the header's raises
    RaggedRow at that row.
    """
    path = os.fspath(path)

    def gen():
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                reader = csv.reader(fh)
                try:
                    header = next(reader)
                except StopIteration:
                    raise ParseError(f"{path}: empty file, expected a header row") from None
                if not header:
                    raise ParseError(f"{path}: blank header row")
                for i, name in enumerate(header):
                    if not name or name in header[:i]:
                        raise ParseError(f"{path}:{reader.line_num}: header cell {i + 1} {name!r} is blank or repeated")
                width, adopt = len(header), Record._adopt
                for row in reader:
                    if len(row) != width:
                        raise RaggedRow(f"{path}:{reader.line_num}: row has {len(row)} cells, header has {width}")
                    yield adopt(dict(zip(header, row)))
        except UnicodeDecodeError as e:
            raise _not_utf8(path, e) from None

    return Datastream(gen())


def jsonstream(path) -> Datastream:
    """Stream of records from a JSON array of objects or a JSON Lines file.

    Scalars, arrays and nested objects map to the corresponding field
    values; everything is eager. An element that is not an object
    raises NotAnObject, and an empty key ValueError; both name the file
    and the line (JSON Lines) or the array index.
    """
    path = os.fspath(path)

    def refuse(obj, where: str) -> Exception:
        """The error for ``obj``, an element that is not an object or has an empty key, at ``where``."""
        if not isinstance(obj, dict):
            return NotAnObject(f"{where}: element is {type(obj).__name__}, not an object")
        try:
            check_name("")
        except ValueError as e:
            return ValueError(f"{where}: {e}")

    def gen():
        try:
            with open(path, encoding="utf-8", newline="\n") as fh:
                first = next((line for line in fh if line.strip()), "")
                fh.seek(0)
                if first.lstrip().startswith("["):
                    data = parse_json(fh.read(), ParseError, f"{path}:")
                    for i, obj in enumerate(data):
                        if not isinstance(obj, dict) or "" in obj:
                            raise refuse(obj, f"{path}[{i}]")
                        yield Record._adopt(obj)
                else:
                    where = f"{path}:"
                    for lineno, line in enumerate(fh, start=1):
                        if not line.strip():
                            continue
                        obj = parse_json(line.rstrip("\r\n"), ParseError, where, lineno)
                        if not isinstance(obj, dict) or "" in obj:
                            raise refuse(obj, f"{path}:{lineno}")
                        yield Record._adopt(obj)
        except UnicodeDecodeError as e:
            raise _not_utf8(path, e) from None

    return Datastream(gen())
