"""File-tree, CSV and JSON stream producers."""

import json
import os
import tracemalloc

import pytest

from fieldstream import (
    NotAnObject,
    ParseError,
    RaggedRow,
    UnknownClass,
    as_list,
    csvsource,
    get_datastream,
    get_files,
    jsonstream,
)


def touch(path, content=""):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


# get_files ---------------------------------------------------------------------

def test_get_files_extension_filter(tmp_path):
    touch(tmp_path / "a.jpg")
    touch(tmp_path / "b.txt")
    assert as_list(get_files(tmp_path, ".jpg")) == [str(tmp_path / "a.jpg")]


def test_get_files_empty_dir(tmp_path):
    assert as_list(get_files(tmp_path)) == []


def test_get_files_recursive_sorted(tmp_path):
    for rel in ["z.txt", "sub/b.txt", "sub/a.txt", "sub/deep/c.txt", "a.txt"]:
        touch(tmp_path / rel)
    got = as_list(get_files(tmp_path, ".txt"))
    expected = sorted(
        str(tmp_path / rel)
        for rel in ["z.txt", "sub/b.txt", "sub/a.txt", "sub/deep/c.txt", "a.txt"]
    )
    assert got == expected


def test_get_files_case_insensitive_ext(tmp_path):
    touch(tmp_path / "x.JPG")
    touch(tmp_path / "y.jpg")
    assert len(as_list(get_files(tmp_path, ".jpg"))) == 2


def test_get_files_deterministic(tmp_path):
    for rel in ["q/1.bin", "p/2.bin", "r.bin"]:
        touch(tmp_path / rel)
    assert as_list(get_files(tmp_path)) == as_list(get_files(tmp_path))


def test_get_files_missing_dir(tmp_path):
    with pytest.raises(OSError):
        get_files(tmp_path / "nope")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs and symlinks")
def test_walk_lists_file_links_and_skips_special_entries(tmp_path):
    root = tmp_path / "tree"
    for rel in ["b/z.txt", "a.txt", "b/y.txt"]:
        touch(root / rel)
    touch(tmp_path / "outside/hidden.txt")
    os.symlink(root / "a.txt", root / "b/link.txt")  # symlink to a file: listed
    os.symlink(root / "gone.txt", root / "broken.txt")  # broken symlink: skipped
    os.mkfifo(root / "pipe.txt")  # FIFO: skipped
    os.symlink(tmp_path / "outside", root / "linkdir")  # symlinked directory: neither listed nor walked
    expected = sorted(str(root / rel) for rel in ["a.txt", "b/link.txt", "b/y.txt", "b/z.txt"])
    assert as_list(get_files(root)) == expected
    assert as_list(get_files(root, ".TXT")) == expected
    os.makedirs(tmp_path / "classes")
    os.symlink(root, tmp_path / "classes/pets")
    got = [(r.get_field("filename"), r.get_field("class_name")) for r in as_list(get_datastream(tmp_path / "classes"))]
    assert got == [(p.replace(str(root), str(tmp_path / "classes/pets")), "pets") for p in expected]


# get_datastream -----------------------------------------------------------------

@pytest.fixture
def pet_tree(tmp_path):
    touch(tmp_path / "cats" / "c1.jpg")
    touch(tmp_path / "cats" / "c2.jpg")
    touch(tmp_path / "dogs" / "d1.jpg")
    return tmp_path


def test_get_datastream_numbers_sorted_classes(pet_tree):
    out = as_list(get_datastream(pet_tree, ext=".jpg"))
    assert len(out) == 3
    rows = [(r.get_field("class_name"), r.get_field("class_no")) for r in out]
    assert rows == [("cats", 0), ("cats", 0), ("dogs", 1)]
    assert out[0].field_names() == ["filename", "class_no", "class_name"]
    assert out[0].get_field("filename").endswith("c1.jpg")


def test_get_datastream_explicit_classes(pet_tree):
    out = as_list(get_datastream(pet_tree, ext=".jpg", classes={"dogs": 0, "cats": 1}))
    rows = {(r.get_field("class_name"), r.get_field("class_no")) for r in out}
    assert rows == {("cats", 1), ("dogs", 0)}


def test_get_datastream_unlisted_class_errors(pet_tree):
    with pytest.raises(UnknownClass):
        as_list(get_datastream(pet_tree, ext=".jpg", classes={"cats": 0}))


def test_get_datastream_empty_class_dir(tmp_path):
    (tmp_path / "birds").mkdir()
    touch(tmp_path / "cats" / "c.jpg")
    out = as_list(get_datastream(tmp_path))
    assert [(r.get_field("class_name"), r.get_field("class_no")) for r in out] == [("cats", 1)]


def test_get_datastream_unlisted_without_matching_files_is_fine(pet_tree):
    touch(pet_tree / "junk" / "notes.txt")
    out = as_list(get_datastream(pet_tree, ext=".jpg", classes={"cats": 0, "dogs": 1}))
    assert len(out) == 3


def test_get_datastream_over_a_file_raises_not_a_directory(tmp_path):
    p = tmp_path / "plain.txt"
    touch(p)
    with pytest.raises(NotADirectoryError) as exc:
        get_datastream(p)
    assert str(exc.value) == f"not a directory: {p}"


def test_get_datastream_records_own_their_fields(pet_tree):
    first, second, _ = as_list(get_datastream(pet_tree, ext=".jpg"))
    first.set_field("class_no", 7)
    first.set_field("extra", 1)
    assert second.field_names() == ["filename", "class_no", "class_name"]
    assert second.get_field("class_no") == 0


# csvsource -----------------------------------------------------------------------

def test_csvsource_blank_first_line_is_a_blank_header_row(tmp_path):
    p = tmp_path / "t.csv"
    touch(p, "\na,b\n1,2\n")
    with pytest.raises(ParseError) as exc:
        next(iter(csvsource(p)))
    assert str(exc.value) == f"{p}: blank header row"


def test_csvsource_basic(tmp_path):
    p = tmp_path / "t.csv"
    touch(p, "a,b\n1,x\n")
    out = as_list(csvsource(p))
    assert [r.to_dict() for r in out] == [{"a": "1", "b": "x"}]


def test_csvsource_quoted_comma(tmp_path):
    p = tmp_path / "t.csv"
    touch(p, 'a\n"x,y"\n')
    assert as_list(csvsource(p))[0].to_dict() == {"a": "x,y"}


def test_csvsource_values_stay_text(tmp_path):
    p = tmp_path / "t.csv"
    touch(p, "n\n42\n")
    v = as_list(csvsource(p))[0].get_field("n")
    assert v == "42" and isinstance(v, str)


def test_csvsource_ragged_row(tmp_path):
    p = tmp_path / "t.csv"
    touch(p, "a,b\n1,2,3\n")
    with pytest.raises(RaggedRow) as exc:
        as_list(csvsource(p))
    assert "t.csv" in str(exc.value)


def test_csvsource_empty_file(tmp_path):
    p = tmp_path / "t.csv"
    touch(p, "")
    with pytest.raises(ParseError):
        as_list(csvsource(p))


@pytest.mark.parametrize("header, cell", [
    ("a,a,b", "header cell 2 'a'"),
    ("a,b,a", "header cell 3 'a'"),
    (",b", "header cell 1 ''"),
    ("a,,b", "header cell 2 ''"),
])
def test_csvsource_blank_or_repeated_header_name_fails_before_first_row(tmp_path, header, cell):
    p = tmp_path / "t.csv"
    touch(p, header + "\n" + ",".join(["1"] * (header.count(",") + 1)) + "\n")
    with pytest.raises(ParseError) as exc:
        next(iter(csvsource(p)))
    assert "t.csv:1:" in str(exc.value) and cell in str(exc.value)


def test_csvsource_rows_do_not_share_storage(tmp_path):
    p = tmp_path / "t.csv"
    touch(p, "a,b\n1,x\n2,y\n")
    first, second = as_list(csvsource(p))
    first.set_field("a", "changed")
    first.set_field("c", "new")
    assert second.to_dict() == {"a": "2", "b": "y"}
    assert first.to_dict() == {"a": "changed", "b": "x", "c": "new"}


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte order mark Excel's "CSV UTF-8" export puts first


def test_csvsource_drops_a_bom_before_the_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(BOM + b"id,name\r\n1,a\r\n")
    assert [r.to_dict() for r in as_list(csvsource(p))] == [{"id": "1", "name": "a"}]


def test_csvsource_keeps_a_bom_character_past_the_start(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(BOM + BOM + "a,\ufeffb\n\ufeffx,y\ufeff\n".encode())  # only the first is a mark
    assert [r.to_dict() for r in as_list(csvsource(p))] == [{"\ufeffa": "\ufeffx", "\ufeffb": "y\ufeff"}]


def test_csvsource_file_of_only_a_bom_is_empty(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(BOM)
    with pytest.raises(ParseError) as exc:
        as_list(csvsource(p))
    assert str(exc.value) == f"{p}: empty file, expected a header row"


@pytest.mark.parametrize("name, text", [("t.jsonl", '{"a": 1}\n'), ("t.json", '[{"a": 1}]\n')])
def test_jsonstream_refuses_a_bom(tmp_path, name, text):
    p = tmp_path / name
    p.write_bytes(BOM + text.encode())
    with pytest.raises(ParseError) as exc:
        as_list(jsonstream(p))
    assert str(exc.value).startswith(f"{p}:1:1: Unexpected UTF-8 BOM")


# jsonstream ------------------------------------------------------------------------

def test_jsonstream_array(tmp_path):
    p = tmp_path / "t.json"
    touch(p, '[{"a":1}]')
    assert [r.to_dict() for r in as_list(jsonstream(p))] == [{"a": 1}]


def test_jsonstream_jsonl(tmp_path):
    p = tmp_path / "t.jsonl"
    touch(p, '{"a":1}\n{"a":2}\n')
    assert [r.to_dict() for r in as_list(jsonstream(p))] == [{"a": 1}, {"a": 2}]


def test_jsonstream_value_kinds(tmp_path):
    p = tmp_path / "t.jsonl"
    row = {"n": None, "b": True, "i": 3, "f": 2.5, "s": "hi", "l": [1, "x"], "m": {"k": 1}}
    touch(p, json.dumps(row) + "\n")
    got = as_list(jsonstream(p))[0].to_dict()
    assert got == row
    assert isinstance(got["b"], bool) and isinstance(got["i"], int) and isinstance(got["f"], float)


def test_jsonstream_non_object_element(tmp_path):
    p = tmp_path / "t.json"
    touch(p, "[1,2]")
    with pytest.raises(NotAnObject):
        as_list(jsonstream(p))


def test_jsonstream_parse_error_names_line(tmp_path):
    p = tmp_path / "t.jsonl"
    touch(p, '{"a":1}\n{"a":\n')
    with pytest.raises(ParseError) as exc:
        as_list(jsonstream(p))
    assert ":2:" in str(exc.value)


def test_jsonstream_blank_lines_skipped(tmp_path):
    p = tmp_path / "t.jsonl"
    touch(p, '{"a":1}\n\n{"a":2}\n')
    assert len(as_list(jsonstream(p))) == 2


@pytest.mark.parametrize("text", ['{"a":1}\n{"a":2,"":3}\n', '[{"a":1},{"":3}]'])
def test_jsonstream_empty_key_raises_value_error(tmp_path, text):
    p = tmp_path / "t.json"
    touch(p, text)
    it = iter(jsonstream(p))
    assert next(it).to_dict() == {"a": 1}
    with pytest.raises(ValueError, match="field name must be a non-empty string, got ''"):
        next(it)


@pytest.mark.parametrize("text, where", [
    ('{"a":1}\n{"a":2,"":3}\n', ":2"),
    ('{"a":1}\n\n{"":3}\n', ":3"),
    ('[{"a":1},{"":3}]', "[1]"),
])
def test_jsonstream_empty_key_names_file_and_position(tmp_path, text, where):
    p = tmp_path / "t.json"
    touch(p, text)
    with pytest.raises(ValueError) as exc:
        as_list(jsonstream(p))
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"{p}{where}: field name must be a non-empty string, got ''"


@pytest.mark.parametrize("text, where, kind", [
    ('{"a":1}\n[1]\n', ":2", "list"),
    ('[{"a":1},"x"]', "[1]", "str"),
])
def test_jsonstream_non_object_names_file_and_position(tmp_path, text, where, kind):
    p = tmp_path / "t.json"
    touch(p, text)
    with pytest.raises(NotAnObject) as exc:
        as_list(jsonstream(p))
    assert str(exc.value) == f"{p}{where}: element is {kind}, not an object"


def test_jsonstream_array_parse_error_counts_from_file_start(tmp_path):
    p = tmp_path / "t.json"
    touch(p, '\n  \n[{"a":1},\n{"b":}]')
    with pytest.raises(ParseError) as exc:
        as_list(jsonstream(p))
    assert str(exc.value) == f"{p}:4:6: Expecting value"


LONG_INTEGER = "1" * 5_000  # past CPython's default int-string digit limit, which json.loads raises as ValueError


@pytest.mark.parametrize("name, text, where", [
    ("t.jsonl", '{"a": 1}\n\n{"a": ' + LONG_INTEGER + "}\n", ":3:7: "),
    ("t.json", '[{"a": 1},\n{"a": ' + LONG_INTEGER + "}]", ":2:7: "),
    # digits in a string, an escaped quote, and a float are not the literal json rejects
    ("s.json", '[{"s": "\\"' + LONG_INTEGER + '", "f": ' + LONG_INTEGER + 'e1},\n'
               ' {"a": -' + LONG_INTEGER + "}]", ":2:8: "),
], ids=["jsonl", "array", "array-skips-strings-and-floats"])
def test_jsonstream_integer_past_digit_limit_is_a_parse_error(tmp_path, name, text, where):
    p = tmp_path / name
    touch(p, text)
    with pytest.raises(ParseError) as exc:
        as_list(jsonstream(p))
    assert str(exc.value).startswith(f"{p}{where}Exceeds the limit (4300")


def test_jsonstream_breaks_lines_only_at_newline(tmp_path):
    p = tmp_path / "t.jsonl"
    p.write_bytes('{"a": "x\u2028y\x85z"}\r\n{"a":\r1}\n'.encode("utf-8"))
    assert [r.to_dict() for r in as_list(jsonstream(p))] == [{"a": "x\u2028y\x85z"}, {"a": 1}]
    p.write_bytes(b'{"a":1}\r{"a":2}\n')  # a lone "\r" is whitespace inside the line
    with pytest.raises(ParseError) as exc:
        as_list(jsonstream(p))
    assert str(exc.value) == f"{p}:1:9: Extra data"
    p.write_bytes(b'{"a":1}\n{"a":\r\n')
    with pytest.raises(ParseError) as exc:
        as_list(jsonstream(p))
    assert str(exc.value) == f"{p}:2:6: Expecting value"


def test_jsonstream_jsonl_is_read_a_line_at_a_time(tmp_path):
    p = tmp_path / "big.jsonl"
    line = json.dumps({"i": 0, "text": "x" * 200}) + "\n"
    p.write_text(line * 5_000, encoding="utf-8")
    size = p.stat().st_size
    tracemalloc.start()
    try:
        it = iter(jsonstream(p))
        first = next(it)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first.get_field("i") == 0
    assert peak < size // 10, (peak, size)


# invalid UTF-8 ------------------------------------------------------------------

INVALID_UTF8 = {
    "csv-header": ("t.csv", b"a,\xff\n1,2\n", 1, "invalid start byte"),
    "csv-quoted-newline": ("t.csv", b'a,b\r\n1,2\r\n"x\ny",\xc3\r\n', 4, "invalid continuation byte"),
    "csv-after-bom": ("t.csv", BOM + b"a,b\n1,2\n3,\xff\n", 3, "invalid start byte"),
    "csv-header-after-bom": ("t.csv", BOM + b"a,\xe2\x82\n1,2\n", 1, "invalid continuation byte"),
    "jsonl": ("t.jsonl", b'{"a": 1}\n\xff\n', 2, "invalid start byte"),
    "jsonl-past-first-chunk": ("t.jsonl", b'{"a": 1}\n' * 5_000 + b'{"a": "\xe2\x82"}\n', 5_001, "invalid continuation byte"),
    "jsonl-cut-at-end": ("t.jsonl", b'{"a": 1}\n\n{"a": "\xe2\x82', 3, "unexpected end of data"),
    "array": ("t.json", b'[{"a": 1},\n\n {"a": "\xed\xa0\x80"}]\n', 3, "invalid continuation byte"),
    "array-past-first-chunk": ("t.json", b"[" + b'{"a": 1},\n' * 5_000 + b'{"a": "\xe2\x82"}]\n', 5_001, "invalid continuation byte"),
}


@pytest.mark.parametrize("name, data, line, reason", INVALID_UTF8.values(), ids=INVALID_UTF8.keys())
def test_invalid_utf8_is_a_parse_error_naming_file_and_line(tmp_path, name, data, line, reason):
    p = tmp_path / name
    p.write_bytes(data)
    source = csvsource if name.endswith(".csv") else jsonstream
    with pytest.raises(ParseError) as exc:
        as_list(source(p))
    assert str(exc.value) == f"{p}:{line}: not valid UTF-8: {reason}"
