"""CLI subcommands: thin wrappers over the library, with stable exit codes."""

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fieldstream.cli as cli
from fieldstream import (
    Datastream,
    EvalStrategy,
    FieldCell,
    Record,
    Tensor,
    apply,
    as_list,
    datasplit,
    get_datastream,
    jsonstream,
    run_cli,
    shard,
    sliding_window,
    stratify_sample,
    summary,
)
from fieldstream.cache import _ENCODER, _tensor_obj, from_jsonable, to_jsonable
from fieldstream.tensor import as_tensor

from helpers import tensors


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


@pytest.fixture
def pet_tree(tmp_path):
    root = tmp_path / "pets"
    for rel in ["cats/c1.jpg", "cats/c2.jpg", "cats/c3.jpg", "dogs/d1.jpg", "dogs/d2.jpg"]:
        write(root / rel, "")
    return root


# exit codes ----------------------------------------------------------------------

def test_usage_error_exits_1(capsys):
    assert run_cli(["no-such-command"]) == 1
    assert run_cli(["shard", "--in", "x.jsonl"]) == 1  # missing required flags
    assert run_cli([]) == 1


def test_help_exits_0(capsys):
    assert run_cli(["--help"]) == 0


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["no-such-command"], 1), (["shard", "--in", "{missing}", "--k", "0", "--n", "1", "--out", "{out}"], 2)],
    ids=["help", "unknown-command", "missing-input"],
)
def test_main_exits_with_the_code_run_cli_returns(tmp_path, monkeypatch, capsys, argv, code):
    """The console script's entry point: one real process checks the same exit in CI."""
    paths = {"missing": tmp_path / "missing.jsonl", "out": tmp_path / "o.jsonl"}
    monkeypatch.setattr(sys, "argv", ["fieldstream", *(arg.format(**paths) for arg in argv)])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == code
    assert list(tmp_path.iterdir()) == []


def test_data_error_exits_2(tmp_path, capsys):
    out = tmp_path / "o.jsonl"
    assert run_cli(["shard", "--in", str(tmp_path / "missing.jsonl"), "--k", "0", "--n", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "missing.jsonl" in err
    bad_rows = [
        '{"x":{"t":"tensor","shape":[1],"data":[1' + "0" * 400 + "]}}",
        '{"x":"abc"}',
        '{"x":1' + "0" * 400 + "}",
    ]
    for i, row in enumerate(bad_rows):
        bad = tmp_path / f"bad{i}.jsonl"
        write(bad, row + "\n")
        assert run_cli(["window", "--in", str(bad), "--fields", "x", "--size", "1", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err


def test_data_error_leaves_output_untouched(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    write(src, '{"x":1}\n{"x":2}\n{"x":"abc"}\n')
    out = tmp_path / "o.jsonl"
    write(out, "earlier\n")
    assert run_cli(["window", "--in", str(src), "--fields", "x", "--size", "1", "--out", str(out)]) == 2
    assert out.read_text(encoding="utf-8") == "earlier\n"
    fresh = tmp_path / "fresh.jsonl"
    assert run_cli(["window", "--in", str(src), "--fields", "x", "--size", "1", "--out", str(fresh)]) == 2
    assert not fresh.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "o.jsonl"]
    missing = tmp_path / "no-such-dir" / "o.jsonl"
    assert run_cli(["shard", "--in", str(src), "--k", "0", "--n", "1", "--out", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_split_data_error_keeps_earlier_output(pet_tree, tmp_path, capsys):
    out = tmp_path / "split.json"
    args = ["split", "--dir", str(pet_tree), "--seed", "1", "--ext", ".jpg", "--out", str(out)]
    assert run_cli(args + ["--test", "0.4"]) == 0
    before = out.read_bytes()
    lib_file = tmp_path / "lib.json"
    for _ in get_datastream(pet_tree, ext=".jpg") | datasplit(0.4, seed=1, split_file=lib_file):
        pass
    assert before == lib_file.read_bytes()
    assert run_cli(args + ["--test", "1.5"]) == 2
    assert "1.5" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lib.json", "pets", "split.json"]


def test_split_repeated_key_exits_2_and_keeps_earlier_output(pet_tree, tmp_path, monkeypatch, capsys):
    out = tmp_path / "split.json"
    args = ["split", "--dir", str(pet_tree), "--test", "0.5", "--seed", "3", "--ext", ".jpg", "--out", str(out)]
    assert run_cli(args) == 0
    before = out.read_bytes()
    monkeypatch.setattr(cli, "get_datastream", lambda d, ext=None: Datastream(Record(filename="a") for _ in range(8)))
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "'a'" in err and "'filename'" in err
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pets", "split.json"]


def test_unencodable_output_names_input_and_record(tmp_path, capsys):
    src = tmp_path / "in.jsonl"
    write(src, '{"a": 1}\n{"a": "\\udcff"}\n')  # json.loads accepts the escaped lone surrogate
    out = tmp_path / "o.jsonl"
    assert run_cli(["shard", "--in", str(src), "--k", "0", "--n", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {src}: output record 2: 'utf-8' codec can't encode" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]
    one = tmp_path / "one.jsonl"
    write(one, '{"a": "\\udcff"}\n')
    assert run_cli(["shard", "--in", str(one), "--k", "0", "--n", "1", "--out", str(out)]) == 2
    assert f"error: {one}: output record 1: " in capsys.readouterr().err
    assert not out.exists()


def test_unencodable_csv_output_names_input_and_record(tmp_path, capsys):
    src, out = tmp_path / "in.jsonl", tmp_path / "o.csv"
    write(src, '{"a": "x"}\n{"a": "\\udcff"}\n')
    assert run_cli(["convert", "--in", str(src), "--out", str(out)]) == 2
    assert f"error: {src}: output record 2: 'utf-8' codec can't encode" in capsys.readouterr().err
    write(src, '{"\\udcff": "x"}\n')  # a header name UTF-8 cannot hold fails with the first record
    assert run_cli(["convert", "--in", str(src), "--out", str(out)]) == 2
    assert f"error: {src}: output record 1: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


@pytest.mark.parametrize(
    "name, data, line",
    [
        ("in.jsonl", b'{"a": 1}\n\xff\n', 2),
        ("in.csv", b"a,b\r\n1,2\r\n\"x\ny\",\xc3\r\n", 4),
        ("in.csv", b"\xef\xbb\xbfa,b\r\n1,\xff\r\n", 2),  # after a byte order mark
    ],
)
def test_invalid_utf8_input_names_file_and_line(tmp_path, capsys, name, data, line):
    src = tmp_path / name
    src.write_bytes(data)
    out = tmp_path / "o.jsonl"
    command = ["convert"] if name.endswith(".csv") else ["shard", "--k", "0", "--n", "1"]
    assert run_cli([*command, "--in", str(src), "--out", str(out)]) == 2
    assert f"error: {src}:{line}: not valid UTF-8: " in capsys.readouterr().err
    assert not out.exists()


def test_integer_past_digit_limit_names_file_and_line(tmp_path, capsys):
    src = tmp_path / "big.jsonl"
    write(src, '{"a": 1}\n{"a": ' + "1" * 5_000 + "}\n")
    out = tmp_path / "o.csv"
    assert run_cli(["convert", "--in", str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {src}:2:7: Exceeds the limit (4300")
    assert not out.exists()


def test_truncated_json_line_names_file_line_and_column(tmp_path, capsys):
    src = tmp_path / "cut.jsonl"
    write(src, '{"a": 1}\n{"a": \n')
    out = tmp_path / "o.jsonl"
    assert run_cli(["shard", "--in", str(src), "--k", "0", "--n", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {src}:2:7: Expecting value\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "rows, argv, message",
    [
        (
            '{"x": {"t": "tensor", "shape": [2], "data": [1, 2]}}\n'
            '{"x": {"t": "tensor", "shape": [3], "data": [1, 2, 3]}}\n',
            ["window", "--fields", "x", "--size", "2"],
            "field 'x' has shape (3,), expected (2,)",
        ),
        ('{"i": 1}\n{"i": 2}\n', ["window", "--fields", "x", "--size", "2"], "missing field 'x'"),
        ('{"i": 1}\n', ["stratify", "--class-field", "nope"], "missing field 'nope'"),
        (
            '{"x": {"t": "tensor", "shape": [2], "data": [1.0]}}\n',
            ["window", "--fields", "x", "--size", "1"],
            "field 'x': tensor data has 1 elements, shape (2,) needs 2",
        ),
        (
            '{"x": {"t": "tensor", "shape": "2", "data": [1.0, 2.0]}}\n',
            ["window", "--fields", "x", "--size", "1"],
            "field 'x': tensor shape and data must be arrays",
        ),
    ],
    ids=["window-shape", "window-missing", "stratify-missing", "window-short-data", "window-shape-not-array"],
)
def test_stage_data_error_names_input_file(tmp_path, capsys, rows, argv, message):
    src = tmp_path / "in.jsonl"
    write(src, rows)
    out = tmp_path / "o.jsonl"
    assert run_cli([*argv, "--in", str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {src}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["shard", "--k", "0", "--n", "1"], ["stratify"]], ids=["shard", "stratify"])
def test_empty_json_key_names_input_file_and_line(tmp_path, capsys, argv):
    src = tmp_path / "in.jsonl"
    write(src, '{"a": 1}\n{"": 2}\n')
    out = tmp_path / "o.jsonl"
    assert run_cli([*argv, "--in", str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {src}:2: field name must be a non-empty string, got ''\n"
    assert not out.exists()


def test_bad_shard_parameters_exit_2(tmp_path):
    src = tmp_path / "in.jsonl"
    write(src, '{"a":1}\n')
    assert run_cli(["shard", "--in", str(src), "--k", "3", "--n", "3", "--out", str(tmp_path / "o.jsonl")]) == 2


# convert --------------------------------------------------------------------------

CSV_FIXTURE = 'name,note\nalpha,"x,y"\nbeta,plain\ngamma,"he said ""hi"""\ndelta,café\n'


def test_convert_round_trip_is_byte_stable(tmp_path):
    src = tmp_path / "in.csv"
    mid = tmp_path / "mid.jsonl"
    back = tmp_path / "back.csv"
    write(src, CSV_FIXTURE)
    assert run_cli(["convert", "--in", str(src), "--out", str(mid)]) == 0
    assert mid.read_bytes().endswith('{"name": "delta", "note": "café"}\n'.encode("utf-8"))  # text is written raw
    assert run_cli(["convert", "--in", str(mid), "--out", str(back)]) == 0
    assert back.read_bytes() == src.read_bytes()




def test_line_separator_characters_round_trip(tmp_path):
    src = tmp_path / "in.csv"
    mid = tmp_path / "mid.jsonl"
    back = tmp_path / "back.csv"
    sharded = tmp_path / "shard.jsonl"
    write(src, "a,b\nx\u2028y,p\u2029q\nr\x85s,t\n")
    assert run_cli(["convert", "--in", str(src), "--out", str(mid)]) == 0
    assert run_cli(["convert", "--in", str(mid), "--out", str(back)]) == 0
    assert back.read_bytes() == src.read_bytes()
    assert run_cli(["shard", "--in", str(mid), "--k", "0", "--n", "1", "--out", str(sharded)]) == 0
    assert sharded.read_bytes() == mid.read_bytes()


def test_convert_repeated_csv_header_exits_2_and_keeps_earlier_output(tmp_path, capsys):
    src = tmp_path / "in.csv"
    out = tmp_path / "o.jsonl"
    write(src, "a,a,b\n1,2,3\n")
    write(out, "earlier\n")
    assert run_cli(["convert", "--in", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "in.csv" in err and "header cell 2 'a'" in err
    assert out.read_text(encoding="utf-8") == "earlier\n"


def test_convert_csv_to_jsonl_content(tmp_path):
    src = tmp_path / "in.csv"
    mid = tmp_path / "mid.jsonl"
    write(src, "a,b\n1,x\n")
    run_cli(["convert", "--in", str(src), "--out", str(mid)])
    assert json.loads(mid.read_text().splitlines()[0]) == {"a": "1", "b": "x"}


def test_convert_drops_a_csv_bom(tmp_path, capsys):
    src, mid, back = tmp_path / "in.csv", tmp_path / "mid.jsonl", tmp_path / "back.csv"
    src.write_bytes("\ufeffid,name\n1,a\n2,\ufeffb\n".encode())  # a U+FEFF in a cell is data
    assert run_cli(["convert", "--in", str(src), "--out", str(mid)]) == 0
    assert mid.read_text(encoding="utf-8") == '{"id": "1", "name": "a"}\n{"id": "2", "name": "\ufeffb"}\n'
    assert run_cli(["convert", "--in", str(mid), "--out", str(back)]) == 0
    assert back.read_text(encoding="utf-8") == "id,name\n1,a\n2,\ufeffb\n"
    only = tmp_path / "only.csv"
    only.write_bytes(b"\xef\xbb\xbf")
    out = tmp_path / "o.jsonl"
    assert run_cli(["convert", "--in", str(only), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {only}: empty file, expected a header row\n"
    assert not out.exists()


def test_convert_unsupported_extensions(tmp_path, capsys):
    src = tmp_path / "in.csv"
    write(src, "a\n1\n")
    assert run_cli(["convert", "--in", str(src), "--out", str(tmp_path / "out.xml")]) == 1
    assert "unsupported" in capsys.readouterr().err


# summary ---------------------------------------------------------------------------

def test_summary_matches_library(pet_tree, capsys):
    assert run_cli(["summary", "--dir", str(pet_tree), "--ext", ".jpg"]) == 0
    cli_out = capsys.readouterr().out

    sink = io.StringIO()
    as_list(get_datastream(pet_tree, ext=".jpg") | summary(sink=sink))
    assert cli_out == sink.getvalue()
    assert "cats\t-\t3" in cli_out


# split -----------------------------------------------------------------------------

def test_split_writes_deterministic_file(pet_tree, tmp_path):
    out1 = tmp_path / "split1.json"
    out2 = tmp_path / "split2.json"
    args = ["split", "--dir", str(pet_tree), "--test", "0.4", "--seed", "42", "--ext", ".jpg"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    # rerunning over an existing file recomputes rather than silently reloading
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_split_matches_library(pet_tree, tmp_path):
    cli_file = tmp_path / "cli.json"
    run_cli(["split", "--dir", str(pet_tree), "--test", "0.4", "--seed", "7",
             "--ext", ".jpg", "--out", str(cli_file)])

    lib_file = tmp_path / "lib.json"
    for _ in get_datastream(pet_tree, ext=".jpg") | datasplit(0.4, seed=7, split_file=lib_file):
        pass
    assert json.loads(cli_file.read_text()) == json.loads(lib_file.read_text())


# stratify ----------------------------------------------------------------------------

def test_stratify_matches_library(tmp_path):
    rows = [{"class_no": c, "i": i} for i, c in enumerate("AABABBBA")]
    src = tmp_path / "in.jsonl"
    write(src, "".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "out.jsonl"
    assert run_cli(["stratify", "--in", str(src), "--out", str(out)]) == 0

    got = [json.loads(line) for line in out.read_text().splitlines()]
    want = [r.to_dict() for r in as_list(stratify_sample(jsonstream(src)))]
    assert got == want
    counts = {}
    for r in got:
        counts[r["class_no"]] = counts.get(r["class_no"], 0) + 1
    assert counts == {"A": 4, "B": 4}


def test_stratify_explicit_class_field(tmp_path):
    rows = [{"k": "A"}, {"k": "B"}, {"k": "B"}]
    src = tmp_path / "in.jsonl"
    write(src, "".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "out.jsonl"
    assert run_cli(["stratify", "--in", str(src), "--class-field", "k", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


# shard --------------------------------------------------------------------------------

def test_shard_keeps_residue_class_lines(tmp_path):
    lines = [json.dumps({"i": i}) for i in range(10)]
    src = tmp_path / "in.jsonl"
    write(src, "\n".join(lines) + "\n")
    out = tmp_path / "out.jsonl"
    assert run_cli(["shard", "--in", str(src), "--k", "1", "--n", "3", "--out", str(out)]) == 0
    # 1-based lines 2, 5, 8 of the input
    assert out.read_text().splitlines() == [lines[1], lines[4], lines[7]]


def test_shard_matches_library(tmp_path):
    rows = [{"i": i, "tag": f"t{i}"} for i in range(7)]
    src = tmp_path / "in.jsonl"
    write(src, "".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "out.jsonl"
    run_cli(["shard", "--in", str(src), "--k", "2", "--n", "3", "--out", str(out)])
    got = [json.loads(line) for line in out.read_text().splitlines()]
    want = [r.to_dict() for r in as_list(shard(jsonstream(src), 2, 3))]
    assert got == want


# window --------------------------------------------------------------------------------

def test_window_stacks_scalars(tmp_path):
    src = tmp_path / "in.jsonl"
    write(src, "".join(json.dumps({"x": i, "tag": i}) + "\n" for i in range(4)))
    out = tmp_path / "out.jsonl"
    assert run_cli(["window", "--in", str(src), "--fields", "x", "--size", "2", "--out", str(out)]) == 0
    got = [json.loads(line) for line in out.read_text().splitlines()]
    assert got == [
        {"x": {"t": "tensor", "shape": [2], "data": [0.0, 1.0]}, "tag": 1},
        {"x": {"t": "tensor", "shape": [2], "data": [1.0, 2.0]}, "tag": 2},
        {"x": {"t": "tensor", "shape": [2], "data": [2.0, 3.0]}, "tag": 3},
    ]


def test_window_round_trips_tensor_fields(tmp_path):
    t = Tensor((2,), [1.5, -2.0])
    obj = {"f": {"t": "tensor", "shape": [2], "data": [1.5, -2.0]}, "i": 0}
    obj2 = {"f": {"t": "tensor", "shape": [2], "data": [3.0, 4.0]}, "i": 1}
    src = tmp_path / "in.jsonl"
    write(src, json.dumps(obj) + "\n" + json.dumps(obj2) + "\n")
    out = tmp_path / "out.jsonl"
    assert run_cli(["window", "--in", str(src), "--fields", "f", "--size", "2", "--out", str(out)]) == 0
    got = json.loads(out.read_text().splitlines()[0])
    assert got["f"] == {"t": "tensor", "shape": [2, 2], "data": [1.5, -2.0, 3.0, 4.0]}
    assert got["i"] == 1


ROWS_APART_BY_A_ZERO_SIGN = (
    '{"x": {"t": "tensor", "shape": [2], "data": [1.0, 2.0]}, "i": 0}\n'
    '{"x": {"t": "tensor", "shape": [2], "data": [3.0, -0.0]}, "i": 1}\n'
    '{"x": {"t": "tensor", "shape": [2], "data": [3.0, 0.0]}, "i": 2}\n'
)


@pytest.mark.parametrize(
    "fields, want",
    [
        (
            "x",
            '{"x": {"t": "tensor", "shape": [2, 2], "data": [1.0, 2.0, 3.0, -0.0]}, "i": 1}\n'
            '{"x": {"t": "tensor", "shape": [2, 2], "data": [3.0, -0.0, 3.0, 0.0]}, "i": 2}\n',
        ),
        (
            "i",
            '{"x": {"t": "tensor", "shape": [2], "data": [3.0, -0.0]}, "i": {"t": "tensor", "shape": [2], "data": [0.0, 1.0]}}\n'
            '{"x": {"t": "tensor", "shape": [2], "data": [3.0, 0.0]}, "i": {"t": "tensor", "shape": [2], "data": [1.0, 2.0]}}\n',
        ),
    ],
    ids=["tensor-rows", "scalar-beside-a-tensor"],
)
def test_window_writes_these_bytes(tmp_path, fields, want):
    src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    write(src, ROWS_APART_BY_A_ZERO_SIGN)
    assert run_cli(["window", "--in", str(src), "--fields", fields, "--size", "2", "--out", str(out)]) == 0
    assert out.read_bytes() == want.encode("utf-8")


def test_window_repeated_field_writes_the_field_once(tmp_path):
    """``--fields x,x`` decodes ``x`` once per row and writes what ``--fields x`` writes."""
    src = tmp_path / "in.jsonl"
    write(src, "".join(json.dumps({"x": _tensor_obj([2], [i, -i / 3]), "i": i}) + "\n" for i in range(4)))
    outs = {}
    for fields in ["x", "x,x", " x , x,"]:
        out = outs[fields] = tmp_path / f"out{len(outs)}.jsonl"
        assert run_cli(["window", "--in", str(src), "--fields", fields, "--size", "2", "--out", str(out)]) == 0
    assert outs["x,x"].read_bytes() == outs[" x , x,"].read_bytes() == outs["x"].read_bytes()
    assert len(outs["x"].read_bytes().splitlines()) == 3


# one encoder, one parser -------------------------------------------------------------

_texts = st.one_of(st.text(max_size=8), st.sampled_from(['é "q", \\', "世界\U0001f600", "'\"", "\x00\x1f\u2028\r\n"]))
_ints = st.one_of(st.integers(), st.integers(2**64, 2**200), st.integers(-(2**200), -(2**64)))
_floats = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]),
)
_cell_values = st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, _floats, _texts, tensors()),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(_texts, children, max_size=3),
    ),
    max_leaves=8,
)
_rows = st.lists(
    st.dictionaries(st.text(min_size=1, max_size=6), _cell_values, min_size=1, max_size=5),
    min_size=1,
    max_size=3,
)


def _walk_and_dumps(value) -> str:
    """The encoding the CLI writers used before the shared encoder: the oracle."""
    return json.dumps(to_jsonable(value), ensure_ascii=False)


@settings(max_examples=200, deadline=None)
@given(_rows)
def test_writers_match_walk_and_dumps(rows):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "out.jsonl")
        cli._write_lines([Record.from_values(row) for row in rows], path, "in.jsonl")
        with open(path, encoding="utf-8", newline="") as fh:
            got = fh.read()
    assert got == "".join(_walk_and_dumps(row) + "\n" for row in rows)
    for row in rows:
        for v in row.values():
            assert cli._csv_cell(v) == (v if isinstance(v, str) else _walk_and_dumps(v))


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    built, parsed = [], []
    init, parse_args = argparse.ArgumentParser.__init__, argparse.ArgumentParser.parse_args

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def recording_parse_args(self, *args, **kwargs):
        ns = parse_args(self, *args, **kwargs)
        parsed.append(vars(ns).copy())
        return ns

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse_args)
    cli._build_parser.cache_clear()
    src = tmp_path / "in.csv"
    mid = tmp_path / "mid.jsonl"
    back = tmp_path / "back.csv"
    write(src, CSV_FIXTURE)
    assert run_cli(["no-such-command"]) == 1
    assert run_cli(["--help"]) == 0
    assert "convert" in capsys.readouterr().out
    assert run_cli(["convert", "--in", str(src), "--out", str(mid)]) == 0
    assert run_cli(["convert", "--in", str(mid), "--out", str(back)]) == 0
    assert built.count("fieldstream") == 1
    assert len(built) == 1 + 6  # the top-level parser and one per subcommand
    assert [(ns["in_path"], ns["out_path"]) for ns in parsed] == [(str(src), str(mid)), (str(mid), str(back))]
    assert set(parsed[1]) == {"command", "in_path", "out_path", "handler"}
    assert back.read_text(encoding="utf-8") == CSV_FIXTURE


# window writer: each input row encoded once ------------------------------------------

_edge_floats = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308, 1.5])
_window_floats = st.one_of(_edge_floats, _edge_floats, st.floats())
_window_texts = st.one_of(st.text(max_size=6), st.sampled_from(['say "hi"', "a\u2028b", "\\", " \u2029\x85"]))
# windowed field name -> shape of its input values: rank 0, 1 and 2, some with a zero-size dim
_window_shapes = st.dictionaries(
    st.sampled_from(["s", "v", "m", "e"]),
    st.one_of(st.just(()), st.sampled_from([(0,), (2, 0), (0, 3)]), st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple)),
    min_size=1,
    max_size=3,
)


@st.composite
def _window_inputs(draw):
    shapes = draw(_window_shapes)
    n = draw(st.integers(1, 6))
    rows = []
    for i in range(n):
        row = {"tag": draw(_window_texts), "i": i}
        for name, shape in shapes.items():
            if rows and draw(st.booleans()):  # often the previous value again, each zero's sign flipped
                prev = list(rows[-1][name].data)
                data = [(-x if x == 0 else x) for x in prev] if prev else []
            else:
                data = draw(st.lists(_window_floats, min_size=math.prod(shape), max_size=math.prod(shape)))
            row[name] = Tensor(shape, data)
        rows.append(row)
    return list(shapes), rows, draw(st.integers(1, n + 1))


def _window_oracle(path, fields, size) -> str:
    """The window output as the single-shot writer encodes it, record by record."""
    stream = jsonstream(path)
    for name in fields:
        stream = stream | apply(name, name, lambda obj: as_tensor(from_jsonable(obj)))
    return "".join(_ENCODER.encode(r.to_dict()) + "\n" for r in stream | sliding_window(fields, size))


def _run_window(rows, fields, size):
    with tempfile.TemporaryDirectory() as d:
        src, out = os.path.join(d, "in.jsonl"), os.path.join(d, "out.jsonl")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write("".join(_ENCODER.encode(row) + "\n" for row in rows))
        assert run_cli(["window", "--in", src, "--fields", ",".join(fields), "--size", str(size), "--out", out]) == 0
        with open(out, encoding="utf-8", newline="") as fh:
            return fh.read(), _window_oracle(src, fields, size)


def _edge_case(values, size):
    """A rank-1 field ``x`` holding ``values`` row by row, beside a scalar field ``k`` and quoted text."""
    rows = [{"x": Tensor((len(v),), v), "k": Tensor((), [float(i)]), "tag": 'q"\u2028'} for i, v in enumerate(values)]
    return ["x", "k"], rows, size


@example(_edge_case([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, -0.0]], 2))  # rows apart only by a zero's sign
@example(_edge_case([[math.nan, math.inf], [-math.inf, 5e-324], [1.7976931348623157e308, math.nan]], 2))
@example(_edge_case([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]], 1))
@example(_edge_case([[], [], []], 2))
@settings(max_examples=300, deadline=None)
@given(_window_inputs())
def test_window_writer_matches_single_shot_encoding(case):
    fields, rows, size = case
    got, want = _run_window(rows, fields, size)
    assert got == want and got.count("\n") == max(len(rows) - size + 1, 0)


def test_tensor_layout_ends_with_data():
    assert list(_tensor_obj((2, 3), ())) == ["t", "shape", "data"]
    assert _ENCODER.encode(_tensor_obj((2, 3), ())).endswith('"data": []}')


def test_window_encodes_each_input_row_once(tmp_path, monkeypatch):
    n, size, fields = 10, 3, ["x", "y"]
    rows = [{name: Tensor((4,), [float(100 * i + 10 * f + j) for j in range(4)]) for f, name in enumerate(fields)} for i in range(n)]
    src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    write(src, "".join(_ENCODER.encode(row) + "\n" for row in rows))
    calls = []
    row_text = cli._row_text
    monkeypatch.setattr(cli, "_row_text", lambda row: calls.append(row) or row_text(row))
    assert run_cli(["window", "--in", str(src), "--fields", "x,y", "--size", str(size), "--out", str(out)]) == 0
    assert len(calls) == n * len(fields)  # not (n - size + 1) * size * len(fields) == 48
    assert out.read_text(encoding="utf-8") == _window_oracle(src, fields, size)


def test_window_of_scalars_is_one_encode_per_line(tmp_path, monkeypatch):
    n, size = 6, 2
    src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    write(src, "".join(json.dumps({"x": i / 4, "y": -i, "tag": f"r{i}"}) + "\n" for i in range(n)))
    calls = []
    monkeypatch.setattr(cli, "_ENCODER", SimpleNamespace(encode=lambda v: calls.append(v) or _ENCODER.encode(v)))
    assert run_cli(["window", "--in", str(src), "--fields", "x,y", "--size", str(size), "--out", str(out)]) == 0
    assert len(calls) == n - size + 1 and all(type(c) is dict for c in calls)
    assert out.read_text(encoding="utf-8") == _window_oracle(src, ["x", "y"], size)


def test_window_encoder_matches_single_shot_encoding_on_lines_that_do_not_slide(monkeypatch):
    r0, r1, r2, r3 = [1.0, 2.0], [0.0, 3.0], [4.0, 5.0], [6.0, 0.0]
    ones = [1.0] * 4
    empty = {"z": Tensor((0, 3), []), "w": Tensor((2, 0), [])}  # no row text to append or reuse
    lines = [  # (fields, row texts encoded for them)
        ({"m": Tensor((3, 2), r0 + r1 + r2), **empty, "i": 0}, 3),
        ({"m": Tensor((3, 2), r1 + r2 + r3), **empty, "i": 1}, 1),  # slid by one row
        ({"m": Tensor((3, 2), r2 + [6.0, -0.0] + [8.0, 9.0]), "i": 2}, 3),  # the overlap apart only by a zero's sign
        ({"m": Tensor((3, 2), [7.0, math.nan, 1e300, -5e-324, math.inf, 0.1]), "i": 3}, 3),  # unrelated rows
        ({"m": Tensor((2, 2), ones), "i": 4}, 2),
        ({"m": Tensor((4, 1), ones), "i": 5}, 4),  # a new shape under the same name, bits that would slide
        ({"n": Tensor((2, 2, 2), [float(j) for j in range(8)]), "i": 6}, 2),  # "m" gone
        ({"m": Tensor((4, 1), ones), "n": Tensor((2, 2, 2), [float(j) for j in range(4, 12)]), "i": 7}, 4 + 1),
        ({"m": Tensor((4,), ones), "s": 1.5, "i": 8}, 0),  # no tensor of rank 2 or more
        ({"m": Tensor((4, 1), ones), "n": Tensor((2, 2, 2), [float(j) for j in range(8, 16)]), "i": 9}, 4 + 2),
    ]
    calls = []
    row_text = cli._row_text
    monkeypatch.setattr(cli, "_row_text", lambda row: calls.append(row) or row_text(row))
    encode = cli._window_encoder()
    for fields, rows in lines:
        calls.clear()
        assert encode(fields) == _ENCODER.encode(fields)
        assert len(calls) == rows, fields["i"]


# csv cells holding a carriage return ----------------------------------------------

@pytest.mark.parametrize("cells", [{"a": "x\ry", "b": "p\r\nq"}, {"a": "\r", "b": "\r,\n"}, {"a": "x\r", "b": ""}])
def test_convert_reads_its_own_csv_back(tmp_path, cells):
    src, mid, back = tmp_path / "in.jsonl", tmp_path / "mid.csv", tmp_path / "back.jsonl"
    rows = [cells, {"a": "plain", "b": "c,d"}]
    write(src, "".join(json.dumps(row) + "\n" for row in rows))
    assert run_cli(["convert", "--in", str(src), "--out", str(mid)]) == 0
    assert run_cli(["convert", "--in", str(mid), "--out", str(back)]) == 0
    assert [json.loads(line) for line in back.read_text(encoding="utf-8").splitlines()] == rows
    assert mid.read_bytes().endswith(b"\nplain,\"c,d\"\n")


def test_convert_ragged_jsonl_to_csv_exits_2(tmp_path, capsys):
    src, out = tmp_path / "in.jsonl", tmp_path / "o.csv"
    write(src, '{"a":1,"b":2}\n{"b":3,"a":4}\n{"a":5}\n')
    assert run_cli(["convert", "--in", str(src), "--out", str(out)]) == 2
    assert f"error: {src}: output record 3: record fields ['a'] do not match header ['a', 'b']" in capsys.readouterr().err
    assert not out.exists()
    write(src, '{"a": 1}\n{"b": 2}\n')
    assert run_cli(["convert", "--in", str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {src}: output record 2: record fields ['b'] do not match header ['a']\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


def test_csv_writerow_is_one_write_ending_in_its_terminator():
    # _csv_encoder cuts each write's "\r\n" to "\n"; that holds only while CPython's _csv writes a row in one call
    writes = []
    writer = csv.writer(SimpleNamespace(write=writes.append), lineterminator="\r\n")
    writer.writerow(["a", "x\ry", "p\r\nq", 'say "hi"', ""])
    writer.writerow([])
    writer.writerow([""])
    assert writes == ['a,"x\ry","p\r\nq","say ""hi""",\r\n', "\r\n", '""\r\n']


# the writer gets eager records only ------------------------------------------------

_WRITING_COMMANDS = {
    "convert-csv": ["convert", "--in", "{csv}", "--out", "{out}.jsonl"],
    "convert-jsonl": ["convert", "--in", "{jsonl}", "--out", "{out}.csv"],
    "stratify": ["stratify", "--in", "{jsonl}", "--class-field", "k", "--out", "{out}.jsonl"],
    "shard": ["shard", "--in", "{jsonl}", "--k", "1", "--n", "2", "--out", "{out}.jsonl"],
    "window": ["window", "--in", "{jsonl}", "--fields", "x,v", "--size", "2", "--out", "{out}.jsonl"],
}


@pytest.mark.parametrize("argv", _WRITING_COMMANDS.values(), ids=_WRITING_COMMANDS.keys())
def test_every_writing_command_hands_the_writer_eager_records(tmp_path, monkeypatch, argv):
    paths = {"csv": tmp_path / "in.csv", "jsonl": tmp_path / "in.jsonl", "out": tmp_path / "out"}
    write(paths["csv"], 'a,b\n1,"x,y"\n2,z\n')
    rows = [{"k": "AB"[i % 2], "x": i / 2, "v": _tensor_obj([2], [float(i), -float(i)])} for i in range(6)]
    write(paths["jsonl"], "".join(json.dumps(row) + "\n" for row in rows))
    lazy = []  # per record the writer received: does it hold a thunk cell?
    write_lines = cli._write_lines

    def spy(records, *args):
        def checked():
            for r in records:
                lazy.append(any(type(v) is FieldCell for v in r._cells.values()))
                yield r

        write_lines(checked(), *args)

    monkeypatch.setattr(cli, "_write_lines", spy)
    assert run_cli([arg.format(**paths) for arg in argv]) == 0
    assert lazy and not any(lazy)


@pytest.mark.parametrize("strategy", [EvalStrategy.LAZY_MEMOIZED, EvalStrategy.ON_DEMAND])
@pytest.mark.parametrize("encoder", [lambda: _ENCODER.encode, cli._csv_encoder, cli._window_encoder], ids=["jsonl", "csv", "window"])
def test_writer_refuses_a_thunk_field_and_leaves_no_file(tmp_path, strategy, encoder):
    cell = FieldCell(strategy, thunk=lambda r: 2)
    m = Tensor((2, 2), [1.0, 2.0, 3.0, 4.0])
    records = [Record(a=1, m=m, b=2), Record(a=1, m=m).set_field("b", cell)]
    with pytest.raises(TypeError, match="^FieldCell is not an encodable value$"):
        cli._write_lines(records, str(tmp_path / "o.jsonl"), "in.jsonl", encoder())
    assert cell.eval_count == 0  # not forced: the writer has no second path
    assert list(tmp_path.iterdir()) == []
