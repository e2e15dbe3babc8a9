"""File-tree, CSV and JSON stream producers."""

import json
import os

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


# csvsource -----------------------------------------------------------------------

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
