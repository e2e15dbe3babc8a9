"""Splitting, stratification, summaries, shuffling and batching."""

import copy
import io
import json
import os
import pickle
import random
import re
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldstream import (
    BadPattern,
    Batch,
    BadSplitFile,
    EmptyStream,
    EvalStrategy,
    FieldCell,
    MissingField,
    NonNumericLabel,
    Record,
    ShapeMismatch,
    SplitLabel,
    Tensor,
    UnknownSplitLabel,
    UnlistedKey,
    apply,
    as_batch,
    as_tensor,
    as_list,
    datasplit,
    datasplit_by_pattern,
    delay,
    delfield,
    infshuffle,
    make_train_test_split,
    scan,
    sliding_window,
    stratify_sample,
    stratify_sample_tt,
    summary,
    take,
)

from helpers import CountingSource, ds, recs


def named(n):
    return recs([{"filename": f"f{i:04d}"} for i in range(n)])


def splits_of(records):
    return [r.get_field("split") for r in records]


# datasplit ---------------------------------------------------------------------

def test_datasplit_zero_probability_all_train():
    out = as_list(datasplit(ds(named(50)), 0.0, seed=1))
    assert all(s == SplitLabel.TRAIN for s in splits_of(out))


def test_datasplit_one_probability_all_test():
    out = as_list(datasplit(ds(named(50)), 1.0, seed=1))
    assert all(s == SplitLabel.TEST for s in splits_of(out))


def test_datasplit_fraction_lands_in_band():
    out = as_list(datasplit(ds(named(2000)), 0.2, seed=42))
    frac = sum(1 for s in splits_of(out) if s == SplitLabel.TEST) / len(out)
    assert 0.15 <= frac <= 0.25


def test_datasplit_three_way():
    out = as_list(datasplit(ds(named(3000)), (0.3, 0.2), seed=9))
    c = Counter(splits_of(out))
    assert set(c) == {SplitLabel.TRAIN, SplitLabel.VALID, SplitLabel.TEST}
    assert 0.25 <= c[SplitLabel.VALID] / 3000 <= 0.35
    assert 0.15 <= c[SplitLabel.TEST] / 3000 <= 0.25


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2024])
@pytest.mark.parametrize("split_value", [0.0, 0.25, 1.0, (0.0, 0.3), (0.2, 0.3), (0.5, 0.5)])
def test_datasplit_draws_follow_the_seeded_rule(seed, split_value):
    valid, test = split_value if isinstance(split_value, tuple) else (0.0, split_value)
    rng = random.Random(seed)
    expected = []
    for _ in range(500):
        u = rng.random()
        expected.append(SplitLabel.VALID if u < valid else SplitLabel.TEST if u < valid + test else SplitLabel.TRAIN)
    assert splits_of(as_list(datasplit(ds(named(500)), split_value, seed=seed))) == expected


def test_datasplit_deterministic_per_seed():
    a = splits_of(as_list(datasplit(ds(named(300)), 0.4, seed=7)))
    b = splits_of(as_list(datasplit(ds(named(300)), 0.4, seed=7)))
    c = splits_of(as_list(datasplit(ds(named(300)), 0.4, seed=8)))
    assert a == b
    assert a != c


def test_datasplit_depends_on_position_not_values():
    plain = splits_of(as_list(datasplit(ds(named(100)), 0.5, seed=3)))
    renamed = recs([{"filename": f"other{i}"} for i in range(100)])
    assert splits_of(as_list(datasplit(ds(renamed), 0.5, seed=3))) == plain


def test_datasplit_save_then_load_reproduces(tmp_path):
    split_file = tmp_path / "split.json"
    first = splits_of(as_list(datasplit(ds(named(80)), 0.3, seed=5, split_file=split_file)))
    assert split_file.exists()
    table = json.loads(split_file.read_text())
    assert set(table.values()) <= {"train", "valid", "test"}
    second = splits_of(as_list(datasplit(ds(named(80)), 0.3, seed=999, split_file=split_file)))
    assert [s.value for s in first] == [s.value for s in second]  # file wins over seed


def test_datasplit_load_unlisted_key(tmp_path):
    split_file = tmp_path / "split.json"
    split_file.write_text(json.dumps({"f0000": "train"}))
    with pytest.raises(UnlistedKey):
        as_list(datasplit(ds(named(2)), 0.5, seed=1, split_file=split_file))


def test_datasplit_bad_split_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(BadSplitFile):
        as_list(datasplit(ds(named(1)), 0.5, seed=1, split_file=bad))
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps({"f0000": "validation"}))
    with pytest.raises(BadSplitFile):
        as_list(datasplit(ds(named(1)), 0.5, seed=1, split_file=worse))


def test_datasplit_repeated_key_writes_no_file(tmp_path):
    split_file = tmp_path / "split.json"
    with pytest.raises(BadSplitFile, match=r"'a' of field 'filename'"):
        as_list(datasplit(ds(recs([{"filename": "a"}] * 8)), 0.5, seed=3, split_file=split_file))
    assert list(tmp_path.iterdir()) == []


def test_datasplit_missing_key_field(tmp_path):
    split_file = tmp_path / "s.json"
    with pytest.raises(MissingField):
        as_list(datasplit(ds(recs([{"x": 1}])), 0.5, seed=1, split_file=split_file))


def test_datasplit_rejects_bad_fraction():
    with pytest.raises(ValueError):
        datasplit(ds(named(1)), 1.5, seed=0)
    with pytest.raises(ValueError):
        datasplit(ds(named(1)), (0.8, 0.7), seed=0)


# datasplit_by_pattern -------------------------------------------------------------

def test_pattern_split_basic():
    rows = recs([{"filename": "a_test.jpg"}, {"filename": "b.jpg"}])
    out = splits_of(as_list(datasplit_by_pattern(ds(rows), "_test")))
    assert out == [SplitLabel.TEST, SplitLabel.TRAIN]


def test_pattern_split_nothing_matches():
    out = splits_of(as_list(datasplit_by_pattern(ds(named(4)), "zzz")))
    assert out == [SplitLabel.TRAIN] * 4


def test_pattern_split_test_wins_over_valid():
    rows = recs([{"filename": "both_markers"}])
    out = splits_of(as_list(datasplit_by_pattern(ds(rows), "markers", valid_pattern="both")))
    assert out == [SplitLabel.TEST]


def test_pattern_split_valid_pattern():
    rows = recs([{"filename": "a_val"}, {"filename": "b"}])
    out = splits_of(as_list(datasplit_by_pattern(ds(rows), "_test", valid_pattern="_val")))
    assert out == [SplitLabel.VALID, SplitLabel.TRAIN]


def test_pattern_split_bad_regex():
    with pytest.raises(BadPattern):
        datasplit_by_pattern(ds(named(1)), "(unclosed")


# derived per-record stages against plain-Python oracles ---------------------------

@given(st.lists(st.text(alphabet="tv_a", max_size=5), max_size=50), st.integers(0, 2**32 - 1))
def test_derived_stages_match_oracles(names, seed):
    vals = [n + "!" for n in names]
    out = as_list(
        ds(recs([{"name": n} for n in names]))
        | apply("name", "v", lambda n: n + "!", strategy=EvalStrategy.LAZY_MEMOIZED)
        | delay("v", "prev")
        | scan("v", "acc", 0, lambda a, v: a + len(v))
        | datasplit((0.2, 0.3), seed=seed)
        | apply("split", "drawn", lambda label: label)
        | datasplit_by_pattern("t+", valid_pattern="^v", key_field="v")
    )
    rng = random.Random(seed)
    drawn = []
    for _ in vals:
        u = rng.random()
        drawn.append("valid" if u < 0.2 else "test" if u < 0.5 else "train")
    by_pattern = ["test" if re.search("t+", v) else "valid" if re.search("^v", v) else "train" for v in vals]
    assert [r.get_field("prev") for r in out] == vals[:1] + vals[:-1]
    assert [r.get_field("acc") for r in out] == list(accumulate(vals, lambda a, v: a + len(v), initial=0))[1:]
    assert [r.get_field("drawn").value for r in out] == drawn
    assert [r.get_field("split").value for r in out] == by_pattern
    assert [r.cell("v").strategy for r in out] == [EvalStrategy.LAZY_MEMOIZED] * len(vals)
    assert [r.cell("v").eval_count for r in out] == [1] * len(vals)


def _int_error(text: str) -> str:
    """The message of the ValueError ``int(text)`` raises."""
    with pytest.raises(ValueError) as exc:
        int(text)
    return str(exc.value)


@pytest.mark.parametrize("content, tail", [
    pytest.param(text, tail, id=text) for text, tail in [
        ("{not json", ": 1:2: Expecting property name enclosed in double quotes"),
        (json.dumps(["f0000"]), "expected a JSON object of key -> label"),
        (json.dumps({"f0000": "validation"}), "unknown label 'validation' for key 'f0000'"),
    ]
] + [
    pytest.param('{"f0000": "train",\n "f0001": ' + "1" * 5_000 + "}", f": 2:11: {_int_error('1' * 5_000)}",
                 id="integer-past-digit-limit"),
    pytest.param(b'{"f\xff": "train"}', "invalid start byte", id="not-utf-8"),
])
def test_bad_split_file_fails_when_composed(tmp_path, content, tail):
    bad = tmp_path / "split.json"
    bad.write_bytes(content.encode() if isinstance(content, str) else content)
    source = CountingSource(named(3))
    with pytest.raises(BadSplitFile) as exc:
        source.stream() | datasplit(0.5, seed=1, split_file=bad)
    assert str(exc.value).startswith(f"{bad}: ") and str(exc.value).endswith(tail)
    assert source.pulls == 0


def test_split_file_as_a_file_descriptor_fails_when_composed(tmp_path):
    path = tmp_path / "split.json"
    path.write_text(json.dumps({"f0000": "train"}))
    fd = os.open(path, os.O_RDONLY)
    source = CountingSource(named(1))
    with pytest.raises(TypeError):
        source.stream() | datasplit(0.5, split_file=fd)
    assert source.pulls == 0
    os.close(fd)  # raises EBADF had datasplit read the table through open(fd) and closed it


# stratify ----------------------------------------------------------------------------

def class_rows(layout):
    """layout: list of (class, tag) pairs in arrival order."""
    return recs([{"class_no": c, "tag": t} for c, t in layout])


def test_stratify_downsamples_to_min():
    rows = class_rows([("A", 0), ("A", 1), ("B", 2), ("A", 3), ("A", 4), ("B", 5), ("A", 6)])
    out = as_list(stratify_sample(ds(rows)))
    counts = Counter(r.get_field("class_no") for r in out)
    assert counts == {"A": 2, "B": 2}
    # first-m per class, original relative order
    assert [r.get_field("tag") for r in out] == [0, 1, 2, 5]


def test_stratify_balanced_is_identity():
    rows = class_rows([("A", 0), ("B", 1), ("A", 2), ("B", 3)])
    out = as_list(stratify_sample(ds(rows)))
    assert [r.get_field("tag") for r in out] == [0, 1, 2, 3]


def test_stratify_single_class_and_empty():
    rows = class_rows([("A", 0), ("A", 1)])
    assert len(as_list(stratify_sample(ds(rows)))) == 2
    assert as_list(stratify_sample(ds([]))) == []


def test_stratify_class_id_alias():
    rows = recs([{"class_id": "A"}, {"class_id": "B"}, {"class_id": "B"}])
    out = as_list(stratify_sample(ds(rows)))
    assert Counter(r.get_field("class_id") for r in out) == {"A": 1, "B": 1}


def test_stratify_explicit_field_missing():
    with pytest.raises(MissingField):
        as_list(stratify_sample(ds(recs([{"klass": 1}]))))


def test_stratify_tt_balances_within_each_split():
    spec = (
        [("A", "train")] * 4 + [("B", "train")] * 2
        + [("A", "test")] * 1 + [("B", "test")] * 3
    )
    rows = recs([{"class_no": c, "split": s} for c, s in spec])
    out = as_list(stratify_sample_tt(ds(rows)))
    by_split = Counter((r.get_field("split"), r.get_field("class_no")) for r in out)
    assert by_split == {
        ("train", "A"): 2, ("train", "B"): 2,
        ("test", "A"): 1, ("test", "B"): 1,
    }


def test_stratify_tt_single_split_equals_plain():
    rows = recs([{"class_no": c, "split": "train"} for c in ["A", "A", "B", "A"]])
    got = [r.get_field("class_no") for r in as_list(stratify_sample_tt(ds(rows)))]
    rows2 = recs([{"class_no": c, "split": "train"} for c in ["A", "A", "B", "A"]])
    want = [r.get_field("class_no") for r in as_list(stratify_sample(ds(rows2)))]
    assert got == want


def test_stratify_tt_empty():
    assert as_list(stratify_sample_tt(ds([]))) == []


def test_stratify_tt_preserves_original_order():
    spec = [("A", "train"), ("B", "test"), ("B", "train"), ("A", "test")]
    rows = recs([{"class_no": c, "split": s, "i": i} for i, (c, s) in enumerate(spec)])
    out = as_list(stratify_sample_tt(ds(rows)))
    indices = [r.get_field("i") for r in out]
    assert indices == sorted(indices)


# summary -------------------------------------------------------------------------------

def test_summary_counts_and_passthrough():
    rows = class_rows([("A", 0), ("B", 1), ("A", 2)])
    sink = io.StringIO()
    out = as_list(summary(ds(rows), sink=sink))
    assert sink.getvalue() == "class\tsplit\tcount\nA\t-\t2\nB\t-\t1\n"
    assert [r.get_field("tag") for r in out] == [0, 1, 2]


def test_summary_cross_tabulates_split():
    rows = recs([
        {"class_no": "A", "split": SplitLabel.TRAIN},
        {"class_no": "A", "split": SplitLabel.TEST},
        {"class_no": "B", "split": SplitLabel.TRAIN},
    ])
    sink = io.StringIO()
    as_list(summary(ds(rows), sink=sink))
    assert sink.getvalue() == (
        "class\tsplit\tcount\nA\ttest\t1\nA\ttrain\t1\nB\ttrain\t1\n"
    )


def test_summary_empty_stream_header_only():
    sink = io.StringIO()
    assert as_list(summary(ds([]), sink=sink)) == []
    assert sink.getvalue() == "class\tsplit\tcount\n"


def test_summary_writes_nothing_until_pulled():
    sink = io.StringIO()
    stream = summary(ds(class_rows([("A", 0)])), sink=sink)
    assert sink.getvalue() == ""
    as_list(stream)
    assert sink.getvalue() != ""


# make_train_test_split -------------------------------------------------------------------

def test_make_train_test_split_partitions_in_order():
    rows = recs([
        {"x": 1, "split": "train"},
        {"x": 2, "split": "test"},
        {"x": 3, "split": "train"},
    ])
    train, test = make_train_test_split(ds(rows))
    assert [r.get_field("x") for r in train] == [1, 3]
    assert [r.get_field("x") for r in test] == [2]


def test_make_train_test_split_all_train():
    rows = recs([{"x": i, "split": SplitLabel.TRAIN} for i in range(3)])
    train, test = make_train_test_split(ds(rows))
    assert len(train) == 3 and test == []


def test_make_train_test_split_rejects_valid():
    rows = recs([{"x": 1, "split": "valid"}])
    with pytest.raises(UnknownSplitLabel):
        make_train_test_split(ds(rows))


def test_make_train_test_split_conservation():
    rows = recs([{"i": i, "split": "train" if i % 3 else "test"} for i in range(30)])
    train, test = make_train_test_split(ds(rows))
    assert len(train) + len(test) == 30
    merged = sorted(train + test, key=lambda r: r.get_field("i"))
    assert [r.get_field("i") for r in merged] == list(range(30))


# infshuffle ---------------------------------------------------------------------------------

def test_infshuffle_epochs_are_permutations():
    rows = recs([{"x": i} for i in range(3)])
    out = as_list(take(infshuffle(ds(rows), seed=11), 6))
    first, second = out[:3], out[3:]
    assert Counter(r.get_field("x") for r in first) == {0: 1, 1: 1, 2: 1}
    assert Counter(r.get_field("x") for r in second) == {0: 1, 1: 1, 2: 1}


def test_infshuffle_single_record():
    rows = recs([{"x": 9}])
    out = as_list(take(infshuffle(ds(rows), seed=1), 4))
    assert [r.get_field("x") for r in out] == [9, 9, 9, 9]


def test_infshuffle_deterministic():
    def run(seed):
        rows = recs([{"x": i} for i in range(10)])
        return [r.get_field("x") for r in as_list(take(infshuffle(ds(rows), seed=seed), 30))]

    assert run(4) == run(4)
    assert run(4) != run(5)


def test_infshuffle_empty_stream():
    stream = infshuffle(ds([]), seed=0)
    with pytest.raises(EmptyStream):
        as_list(take(stream, 1))


def test_infshuffle_reemits_by_reference():
    r = Record(x=1)
    cell = FieldCell(EvalStrategy.ON_DEMAND, thunk=lambda rr: rr.get_field("x"))
    r.set_field("aug", cell)
    out = as_list(take(infshuffle(ds([r]), seed=0), 3))
    for got in out:
        got.get_field("aug")
    assert cell.eval_count == 3


_AFTER_INFSHUFFLE = {
    "delfield": lambda: delfield("y"),
    "sliding_window": lambda: sliding_window("x", 2),
    "apply": lambda: apply("x", "x", lambda v: v + 100),
}


@pytest.mark.parametrize("stage", _AFTER_INFSHUFFLE.values(), ids=list(_AFTER_INFSHUFFLE))
@given(xs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5), seed=st.integers(0, 2**16))
def test_stage_after_infshuffle_sees_unchanged_input_every_epoch(stage, xs, seed):
    """Over two epochs a stage behaves as on fresh records: its writes never reach the next epoch."""

    def shuffled():
        rows = recs([{"k": i, "x": x, "y": -x} for i, x in enumerate(xs)])
        return take(infshuffle(ds(rows), seed=seed), 2 * len(xs))

    fresh = recs([r.to_dict() for r in as_list(shuffled())])
    expected = [r.to_dict() for r in as_list(ds(fresh) | stage())]
    got = [r.to_dict() for r in as_list(shuffled() | stage())]
    assert got == expected


# as_batch ------------------------------------------------------------------------------------

def feature_rows(n, shape=(4, 2)):
    size = 1
    for d in shape:
        size *= d
    return recs([
        {"image": Tensor(shape, [float(i)] * size), "class_id": i % 2}
        for i in range(n)
    ])


def test_as_batch_shapes_with_partial_tail():
    batches = as_list(as_batch(ds(feature_rows(100)), "image", "class_id", batch_size=32))
    assert [b.features["image"].shape for b in batches] == [
        (32, 4, 2), (32, 4, 2), (32, 4, 2), (4, 4, 2),
    ]
    assert [b.labels.shape for b in batches] == [(32,), (32,), (32,), (4,)]
    assert [b.size for b in batches] == [32, 32, 32, 4]


def test_as_batch_label_order_conservation():
    rows = feature_rows(10, shape=(2,))
    batches = as_list(as_batch(ds(rows), "image", "class_id", batch_size=3))
    flat = [x for b in batches for x in b.labels.data]
    assert flat == [float(i % 2) for i in range(10)]


def test_as_batch_multiple_feature_fields():
    rows = recs([
        {"a": Tensor((2,), [i, i]), "b": float(i), "class_id": 0} for i in range(4)
    ])
    batches = as_list(as_batch(ds(rows), ["a", "b"], "class_id", batch_size=2))
    assert set(batches[0].features) == {"a", "b"}
    assert batches[0].features["a"].shape == (2, 2)
    assert batches[0].features["b"].shape == (2,)


def test_as_batch_batch_size_one():
    batches = as_list(as_batch(ds(feature_rows(2, shape=(3,))), "image", "class_id", 1))
    assert all(b.features["image"].shape == (1, 3) for b in batches)


def test_as_batch_non_numeric_label():
    for label in ["cat", 10**400]:
        rows = recs([{"image": 1.0, "class_id": label}])
        with pytest.raises(NonNumericLabel):
            as_list(as_batch(ds(rows), "image", "class_id", 1))


def test_as_batch_shape_mismatch():
    rows = recs([
        {"image": Tensor((2,), [0, 0]), "class_id": 0},
        {"image": Tensor((3,), [0, 0, 0]), "class_id": 0},
    ])
    with pytest.raises(ShapeMismatch):
        as_list(as_batch(ds(rows), "image", "class_id", 2))


def test_as_batch_scalar_features():
    rows = recs([{"v": i, "class_id": 0} for i in range(5)])
    batches = as_list(as_batch(ds(rows), "v", "class_id", 2))
    assert batches[0].features["v"] == Tensor((2,), [0.0, 1.0])


def test_batch_is_an_immutable_value():
    features, labels = {"image": Tensor((2, 1), [1.0, 2.0])}, Tensor((2,), [0.0, 1.0])
    b = Batch(features=features, labels=labels, size=2)
    assert b == Batch(features, labels, 2) and (b.features, b.labels, b.size) == (features, labels, 2)
    assert b != Batch(features, Tensor((2,), [1.0, 0.0]), 2) and b != (features, labels, 2)
    assert repr(b) == f"Batch(features={features!r}, labels={labels!r}, size=2)"
    for name in ("features", "labels", "size", "other"):
        with pytest.raises(AttributeError):
            setattr(b, name, None)
        with pytest.raises(AttributeError):
            delattr(b, name)
    assert pickle.loads(pickle.dumps(b)) == b == copy.copy(b) == copy.deepcopy(b)
    with pytest.raises(ShapeMismatch, match=r"labels shape \(2,\) != \(3,\)"):
        Batch(features, labels, 3)
    with pytest.raises(ShapeMismatch, match="feature 'image' shape \\(2, 1\\) has leading dim != 1"):
        Batch(features, Tensor((1,), [0.0]), size=1)
    with pytest.raises(ShapeMismatch, match="feature 's' shape \\(\\) has leading dim != 1"):
        Batch({"s": Tensor((), [1.0])}, Tensor((1,), [0.0]), 1)


def test_as_batch_over_infinite_shuffle():
    rows = recs([{"v": i, "class_id": i} for i in range(4)])
    stream = as_batch(infshuffle(ds(rows), seed=2), "v", "class_id", batch_size=4)
    first_two = as_list(take(stream, 2))
    for b in first_two:
        assert sorted(b.labels.data) == [0.0, 1.0, 2.0, 3.0]


# as_batch error paths and the reference batcher ---------------------------------------------

class SubTensor(Tensor):
    __slots__ = ()


def on_demand(value):
    return FieldCell(EvalStrategy.ON_DEMAND, thunk=lambda r: value)


def test_as_batch_later_batch_of_another_shape_names_the_field():
    rows = recs([{"image": Tensor((2,), [i, i]), "class_id": 0} for i in range(2)]
                + [{"image": Tensor((3,), [0, 0, 0]), "class_id": 0}])
    batches = iter(as_batch(ds(rows), "image", "class_id", 2))
    assert next(batches).features["image"] == Tensor((2, 2), [0.0, 0.0, 1.0, 1.0])
    with pytest.raises(ShapeMismatch) as info:
        next(batches)
    assert str(info.value) == "field 'image' has shape (3,), expected (2,)"


def test_as_batch_non_numeric_feature_raises_as_tensor_error():
    with pytest.raises(TypeError) as expected:
        as_tensor("cat")
    rows = recs([{"image": 1.0, "class_id": 0}, {"image": "cat", "class_id": 0}])
    with pytest.raises(TypeError) as info:
        as_list(as_batch(ds(rows), "image", "class_id", 2))
    assert str(info.value) == str(expected.value) == "neither a tensor nor a numeric scalar: 'cat' is not a number"


@pytest.mark.parametrize("bad, error", [(Tensor((3,), [0, 0, 0]), ShapeMismatch), ("cat", TypeError)])
def test_as_batch_forces_nothing_after_a_bad_value(bad, error):
    values = [Tensor((2,), [i, i]) for i in range(5)]
    values[2] = bad
    rows = recs([{"image": on_demand(v), "class_id": 0} for v in values])
    with pytest.raises(error):
        as_list(as_batch(ds(rows), "image", "class_id", 5))
    assert [r.cell("image").eval_count for r in rows] == [1, 1, 1, 0, 0]


def test_as_batch_stacks_subclass_and_rank_0_tensors_as_before():
    rows = recs([{"image": cls((2,), [i, -i]), "class_id": 0}
                 for i, cls in enumerate([SubTensor, Tensor, SubTensor])])
    (batch,) = as_list(as_batch(ds(rows), "image", "class_id", 3))
    assert type(batch.features["image"]) is Tensor
    assert batch.features["image"] == Tensor((3, 2), [0.0, 0.0, 1.0, -1.0, 2.0, -2.0])
    mixed = [1, Tensor((), [2.0]), 3.5, SubTensor((), [4]), 5]
    rows = recs([{"v": v, "class_id": 0} for v in mixed])
    (batch,) = as_list(as_batch(ds(rows), "v", "class_id", 5))
    assert batch.features["v"] == Tensor.stack([as_tensor(v) for v in mixed]) == Tensor((5,), [1, 2, 3.5, 4, 5])


def reference_batches(rows, names, label_field, batch_size):
    """as_batch's contract from as_tensor, Tensor.stack and the pinned-shape rule."""
    shapes = {}
    for start in range(0, len(rows), batch_size):
        chunk = rows[start:start + batch_size]
        features = {}
        for name in names:
            tensors = []
            for r in chunk:
                t = as_tensor(r.get_field(name))
                expected = shapes.setdefault(name, t.shape)
                if t.shape != expected:
                    raise ShapeMismatch(f"field {name!r} has shape {t.shape}, expected {expected}")
                tensors.append(t)
            features[name] = Tensor.stack(tensors)
        try:
            labels = Tensor((len(chunk),), [r.get_field(label_field) for r in chunk])
        except ValueError as e:
            raise NonNumericLabel(f"label field {label_field!r}: {e}") from None
        yield Batch(features, labels, len(chunk))


def batches_then_error(batches):
    got = []
    try:
        for b in batches:
            got.append(b)
    except Exception as e:
        return got, (type(e), str(e))
    return got, None


finite_floats = st.floats(allow_nan=False)
FEATURE_VALUES = {
    "tensor (2,)": st.lists(finite_floats, min_size=2, max_size=2).map(lambda d: Tensor((2,), d)),
    "tensor (1, 2)": st.lists(finite_floats, min_size=2, max_size=2).map(lambda d: Tensor((1, 2), d)),
    "subclass (2,)": st.lists(finite_floats, min_size=2, max_size=2).map(lambda d: SubTensor((2,), d)),
    "rank-0 tensor": finite_floats.map(lambda x: Tensor((), [x])),
    "int": st.one_of(st.integers(-(2**70), 2**70), st.just(2**1024)),
    "float": finite_floats,
    "bool": st.booleans(),
    "text": st.text(max_size=2),
}


@st.composite
def batch_cases(draw):
    kinds = draw(st.sets(st.sampled_from(sorted(FEATURE_VALUES)), min_size=1, max_size=3))
    value = st.one_of([FEATURE_VALUES[k] for k in sorted(kinds)])
    label = st.one_of(st.integers(-5, 5), finite_floats, st.booleans() if draw(st.booleans()) else st.nothing())
    rows = draw(st.lists(st.fixed_dictionaries({"a": value, "b": value, "y": label}), max_size=12))
    return rows, draw(st.integers(1, 5))


@settings(deadline=None)
@given(batch_cases())
def test_as_batch_matches_the_reference_batcher(case):
    """Equal batches, or the same error at the same batch, and the same on-demand forces."""
    rows, batch_size = case

    def fresh():
        return recs([{"a": on_demand(row["a"]), "b": row["b"], "y": row["y"]} for row in rows])

    ours, theirs = fresh(), fresh()
    got = batches_then_error(as_batch(ds(ours), ["a", "b"], "y", batch_size))
    expected = batches_then_error(reference_batches(theirs, ["a", "b"], "y", batch_size))
    assert got == expected
    assert [r.cell("a").eval_count for r in ours] == [r.cell("a").eval_count for r in theirs]
