"""apply, filter, delfield, delay, apply_batch, sliding_window, shard."""

import random
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fieldstream import (
    BadShard,
    BatchArity,
    EvalStrategy,
    FieldCell,
    MissingField,
    Record,
    ShapeMismatch,
    Tensor,
    apply,
    apply_batch,
    apply_cached,
    as_batch,
    as_field,
    as_list,
    bind_field,
    datasplit,
    delay,
    delfield,
    filter_field,
    fold,
    make_train_test_split,
    scan,
    select_field,
    shard,
    sliding_window,
    stratify_sample,
    stratify_sample_tt,
    summary,
    take,
)

from helpers import CountingSource, ds, recs


def xs(values):
    return as_field(list(values), "x")


def field_list(stream, name):
    return [r.get_field(name) for r in as_list(stream)]


def on_demand_rows(n):
    """``n`` records with ``idx`` i and an ON_DEMAND ``x`` computing float(i), and their ``x`` cells."""
    rows, cells = [], []
    for i in range(n):
        r = Record(idx=i)
        cell = FieldCell(EvalStrategy.ON_DEMAND, thunk=lambda rr: rr.get_field("idx") * 1.0)
        r.set_field("x", cell)
        rows.append(r)
        cells.append(cell)  # a stage may replace the field, so keep direct refs
    return rows, cells


# apply -------------------------------------------------------------------------

def test_apply_single_source():
    out = as_list(apply(xs([3]), "x", "y", lambda v: v * v))
    assert [r.to_dict() for r in out] == [{"x": 3, "y": 9}]


def test_apply_multi_source_order():
    r = Record(text="07:15", image="IMG")
    seen = []
    out = as_list(apply(ds([r]), ["text", "image"], "out", lambda vs: seen.append(list(vs)) or "done"))
    assert seen == [["07:15", "IMG"]]
    assert out[0].get_field("out") == "done"


def test_apply_on_demand_defers_and_recomputes():
    calls = []

    def f(v):
        calls.append(v)
        return v + 1

    out = as_list(apply(xs([5]), "x", "y", f, strategy=EvalStrategy.ON_DEMAND))
    assert calls == []  # pulling installed the thunk without running it
    r = out[0]
    for _ in range(3):
        assert r.get_field("y") == 6
    assert len(calls) == 3
    assert r.cell("y").eval_count == 3


def test_apply_lazy_memoized_forces_once():
    calls = []
    out = as_list(apply(xs([5]), "x", "y", lambda v: calls.append(v) or v + 1,
                        strategy=EvalStrategy.LAZY_MEMOIZED))
    assert calls == []
    r = out[0]
    assert r.get_field("y") == 6 and r.get_field("y") == 6
    assert len(calls) == 1


@pytest.mark.parametrize("strategy", [EvalStrategy.LAZY_MEMOIZED, EvalStrategy.ON_DEMAND])
def test_lazy_apply_passes_listed_sources_in_order(strategy):
    (r,) = as_list(apply(ds([Record(a=1, b=2, c=3)]), ["c", "a", "b"], "out", list, strategy=strategy))
    assert r.get_field("out") == [3, 1, 2]


def test_apply_replaces_existing_dst():
    out = as_list(apply(ds(recs([{"x": 1, "y": 0}])), "x", "y", lambda v: v + 10))
    assert out[0].to_dict() == {"x": 1, "y": 11}
    assert out[0].field_names() == ["x", "y"]


def test_apply_preserves_other_fields():
    out = as_list(apply(ds(recs([{"a": 1, "b": 2}])), "a", "c", lambda v: v))
    assert out[0].to_dict() == {"a": 1, "b": 2, "c": 1}


def test_apply_missing_source_eager_vs_lazy():
    with pytest.raises(MissingField):
        as_list(apply(ds(recs([{"a": 1}])), "x", "y", lambda v: v))
    out = as_list(apply(ds(recs([{"a": 1}])), "x", "y", lambda v: v,
                        strategy=EvalStrategy.LAZY_MEMOIZED))
    with pytest.raises(MissingField) as exc:
        out[0].get_field("y")
    assert exc.value.name == "x"


def test_apply_rejects_unknown_strategy_when_composed():
    source = CountingSource([1, 2])
    with pytest.raises(TypeError):
        as_field(source.stream(), "x") | apply("x", "y", lambda v: v, strategy="eager")
    assert source.pulls == 0


@pytest.mark.parametrize("strategy", [EvalStrategy.LAZY_MEMOIZED, EvalStrategy.ON_DEMAND])
@pytest.mark.parametrize("src", ["x", ["x"], ["y", "x"]])
def test_a_lazy_apply_that_reads_its_own_dst_is_refused_when_built(strategy, src):
    source = CountingSource([1, 2])
    stream = as_field(source.stream(), "x")
    message = "lazy apply dst 'x' is one of its sources: its thunk would force itself"
    with pytest.raises(ValueError) as exc:
        stream | apply(src=src, dst="x", f=lambda v: v, strategy=strategy)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        apply(stream, src, "x", lambda v: v, strategy)
    assert str(exc.value) == message
    assert source.pulls == 0 and repr(stream) == "<Datastream fresh>"


def test_an_eager_apply_may_overwrite_its_own_source():
    assert field_list(xs([1, 2]) | apply("x", "x", lambda v: v + 1), "x") == [2, 3]
    assert field_list(xs([1, 2]) | apply(src=["x"], dst="x", f=sum), "x") == [1, 2]


_BAD_NAME_STAGES = {
    "apply": lambda tmp: apply("x", "", lambda v: v),
    "scan": lambda tmp: scan("x", 5, 0, max),
    "delay": lambda tmp: delay("x", ""),
    "apply_batch": lambda tmp: apply_batch("x", None, lambda vs: vs, 2),
    "apply_cached": lambda tmp: apply_cached("x", "", str, tmp),
    "delfield": lambda tmp: delfield(["x", ""]),
    "delfield-repeat": lambda tmp: delfield(["x", "x"]),
    "sliding_window": lambda tmp: sliding_window(fields=["x", 7], size=2),
    "as_batch": lambda tmp: as_batch(feature_fields=["x", ""], label_field="x", batch_size=2),
    "select_field": lambda tmp: select_field(["x", None]),
}


@pytest.mark.parametrize("stage", _BAD_NAME_STAGES.values(), ids=list(_BAD_NAME_STAGES))
def test_bad_field_name_fails_when_composed(stage, tmp_path):
    source = CountingSource([1, 2])
    with pytest.raises(ValueError):
        as_field(source.stream(), "x") | stage(tmp_path)
    assert source.pulls == 0


_BAD_READ_STAGES = {
    "filter_field": lambda tmp: filter_field("", bool),
    "apply_batch": lambda tmp: apply_batch(None, "y", lambda vs: vs, 2),
    "fold": lambda tmp: fold(field="", init=0, f=max),
    "bind_field": lambda tmp: bind_field(3, lambda v: Record(y=v)),
    "apply_cached": lambda tmp: apply_cached("x", "y", str, tmp, key_field=""),
    "datasplit-key_field": lambda tmp: datasplit(0.5, key_field=None),
    "datasplit-bool": lambda tmp: datasplit(True),
    "datasplit-text": lambda tmp: datasplit("0.5"),
    "datasplit-pair": lambda tmp: datasplit((0.2, "0.1")),
    "stratify_sample": lambda tmp: stratify_sample(class_field=""),
    "stratify_sample_tt-class": lambda tmp: stratify_sample_tt(class_field=""),
    "stratify_sample_tt-split": lambda tmp: stratify_sample_tt(split_field=""),
    "summary": lambda tmp: summary(class_field=""),
    "make_train_test_split": lambda tmp: make_train_test_split(split_field=""),
    "as_batch": lambda tmp: as_batch(feature_fields=["x"], label_field="", batch_size=2),
}


@pytest.mark.parametrize("stage", _BAD_READ_STAGES.values(), ids=list(_BAD_READ_STAGES))
def test_bad_read_name_or_fraction_fails_before_claiming(stage, tmp_path):
    source = CountingSource([1, 2])
    stream = as_field(source.stream(), "x")
    with pytest.raises(ValueError):
        stream | stage(tmp_path)
    assert source.pulls == 0
    assert len(as_list(stream)) == 2  # still unclaimed


@given(st.lists(st.integers(-50, 50), max_size=30))
def test_apply_strategy_invisible_for_pure_f(values):
    f = lambda v: v * 3 - 1
    eager = [r.to_dict() for r in as_list(apply(xs(values), "x", "y", f))]
    lazy = [r.to_dict() for r in as_list(apply(xs(values), "x", "y", f,
                                               strategy=EvalStrategy.LAZY_MEMOIZED))]
    assert eager == lazy


# filter_field ---------------------------------------------------------------------

def test_filter_keeps_matching():
    out = filter_field(xs([1, 2, 3, 4]), "x", lambda v: v % 2 == 0)
    assert field_list(out, "x") == [2, 4]


def test_filter_field_forces_on_demand_src_once_per_record():
    rows, cells = on_demand_rows(5)
    out = as_list(filter_field(ds(rows), "x", lambda v: v % 2 == 0))
    assert [r.get_field("idx") for r in out] == [0, 2, 4]
    assert [c.eval_count for c in cells] == [1] * 5


def test_filter_none_pass():
    assert as_list(filter_field(xs([1, 2]), "x", lambda v: False)) == []


@given(st.lists(st.integers(-100, 100), max_size=100))
def test_filter_matches_list_oracle(values):
    pred = lambda v: v % 3 == 1
    assert field_list(filter_field(xs(values), "x", pred), "x") == [v for v in values if pred(v)]


@given(st.lists(st.integers(-100, 100), max_size=60))
def test_filter_filter_fusion(values):
    p = lambda v: v % 2 == 0
    q = lambda v: v > 0
    twice = field_list(filter_field(filter_field(xs(values), "x", p), "x", q), "x")
    fused = field_list(filter_field(xs(values), "x", lambda v: p(v) and q(v)), "x")
    assert twice == fused


# delfield --------------------------------------------------------------------------

def test_delfield_single_and_many():
    out = as_list(delfield(ds(recs([{"a": 1, "b": 2}])), "a"))
    assert out[0].to_dict() == {"b": 2}
    out = as_list(delfield(ds(recs([{"a": 1, "b": 2, "c": 3}])), ["a", "b"]))
    assert out[0].to_dict() == {"c": 3}


def test_delfield_missing_name_errors():
    with pytest.raises(MissingField):
        as_list(delfield(ds(recs([{"a": 1}])), "zz"))


def test_lazy_apply_then_delfield_hazard():
    stream = apply(xs([4]), "x", "y", lambda v: v + 1, strategy=EvalStrategy.LAZY_MEMOIZED)
    out = as_list(delfield(stream, "x"))
    with pytest.raises(MissingField) as exc:
        out[0].get_field("y")
    assert exc.value.name == "x"


def test_eager_apply_then_delfield_is_fine():
    stream = apply(xs([4]), "x", "y", lambda v: v + 1)
    out = as_list(delfield(stream, "x"))
    assert out[0].to_dict() == {"y": 5}


# delay ------------------------------------------------------------------------------

def test_delay_shifts_by_one_with_duplicated_head():
    out = delay(xs([1, 2, 3]), "x", "prev")
    assert field_list(out, "prev") == [1, 1, 2]


def test_delay_empty_and_single():
    assert as_list(delay(xs([]), "x", "prev")) == []
    out = delay(xs([9]), "x", "prev")
    assert field_list(out, "prev") == [9]


def test_scan_calls_f_once_per_record():
    calls = []
    out = as_list(scan(xs([1, 2, 3, 4]), "x", "total", 0, lambda acc, v: calls.append(v) or acc + v))
    assert [r.get_field("total") for r in out] == [1, 3, 6, 10]
    assert calls == [1, 2, 3, 4]


# apply_batch -------------------------------------------------------------------------

def test_apply_batch_groups_and_ungroups():
    calls = []

    def f(batch):
        calls.append(len(batch))
        return [v * v for v in batch]

    out = apply_batch(xs([1, 2, 3, 4, 5]), "x", "sq", f, batch_size=2)
    assert field_list(out, "sq") == [1, 4, 9, 16, 25]
    assert calls == [2, 2, 1]


def test_apply_batch_one_partial_batch():
    calls = []

    def f(batch):
        calls.append(len(batch))
        return list(batch)

    assert field_list(apply_batch(xs([1, 2, 3]), "x", "y", f, batch_size=10), "y") == [1, 2, 3]
    assert calls == [3]


def test_apply_batch_wrong_arity():
    with pytest.raises(BatchArity):
        as_list(apply_batch(xs([1, 2]), "x", "y", lambda b: [0], batch_size=2))


def test_apply_batch_preserves_order_and_size_validation():
    out = apply_batch(xs(list(range(10))), "x", "y", lambda b: b, batch_size=3)
    assert field_list(out, "x") == list(range(10))
    with pytest.raises(ValueError):
        apply_batch(xs([1]), "x", "y", lambda b: b, batch_size=0)


# sliding_window -----------------------------------------------------------------------

def test_sliding_window_scalars():
    out = as_list(sliding_window(xs([1, 2, 3, 4]), ["x"], 2))
    got = [r.get_field("x") for r in out]
    assert got == [Tensor((2,), [1, 2]), Tensor((2,), [2, 3]), Tensor((2,), [3, 4])]


def test_sliding_window_too_short():
    assert as_list(sliding_window(xs([1, 2, 3]), ["x"], 5)) == []


def test_sliding_window_carries_other_fields_from_last():
    rows = [{"x": i, "tag": f"t{i}"} for i in range(4)]
    out = as_list(sliding_window(ds(recs(rows)), ["x"], 3))
    assert [r.get_field("tag") for r in out] == ["t2", "t3"]


def test_sliding_window_shape_mismatch():
    stream = ds([Record(x=Tensor((2,), [1, 2])), Record(x=Tensor((3,), [1, 2, 3]))])
    with pytest.raises(ShapeMismatch):
        as_list(sliding_window(stream, ["x"], 2))


def test_sliding_window_matches_brute_force_oracle():
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randrange(0, 51)
        size = rng.randrange(1, 11)
        rows = []
        for i in range(n):
            rows.append({
                "f": Tensor((2, 3), [rng.uniform(-5, 5) for _ in range(6)]),
                "idx": i,
            })
        out = as_list(sliding_window(ds(recs(rows)), ["f"], size))

        # oracle: enumerate all windows over the raw value table
        expected = []
        for j in range(max(0, n - size + 1)):
            flat = []
            for k in range(j, j + size):
                flat.extend(rows[k]["f"].data)
            expected.append((Tensor((size, 2, 3), flat), j + size - 1))

        assert len(out) == len(expected)
        for r, (tens, last_idx) in zip(out, expected):
            assert r.get_field("f") == tens
            assert r.get_field("idx") == last_idx


def test_sliding_window_forces_each_value_once():
    n, size = 12, 4
    rows = []
    cells = []
    for i in range(n):
        r = Record(idx=i)
        cell = FieldCell(EvalStrategy.ON_DEMAND, thunk=lambda rr: rr.get_field("idx") * 1.0)
        r.set_field("x", cell)
        rows.append(r)
        cells.append(cell)  # the stream replaces the field, so keep direct refs
    out = as_list(sliding_window(ds(rows), ["x"], size))
    assert len(out) == n - size + 1
    # every input was forced exactly once despite appearing in several windows
    assert [c.eval_count for c in cells] == [1] * n


class _Frame:
    """A weakref-able stand-in for a large unlisted field value; Record has no __weakref__."""


def test_sliding_window_releases_records_it_has_moved_past():
    refs = []

    def rows():
        for i in range(6):
            frame = _Frame()
            refs.append(weakref.ref(frame))
            yield Record(x=float(i), frame=frame)

    emitted = 0
    for k, r in enumerate(sliding_window(ds(rows()), ["x"], 3), start=2):
        assert r.get_field("frame") is refs[k]()
        assert [ref() is None for ref in refs[:k]] == [True] * k
        emitted += 1
    assert emitted == 4


def test_sliding_window_repeated_name_forces_once_per_record():
    once_rows, once_cells = on_demand_rows(4)
    twice_rows, twice_cells = on_demand_rows(4)
    once = as_list(sliding_window(ds(once_rows), ["x"], 2))
    twice = as_list(sliding_window(ds(twice_rows), ["x", "x"], 2))
    assert [r.to_dict() for r in twice] == [r.to_dict() for r in once]
    assert [c.eval_count for c in once_cells + twice_cells] == [1] * 8


# shard ----------------------------------------------------------------------------------

def test_shard_residue_rule():
    out = shard(xs(list(range(10))), 1, 3)
    assert field_list(out, "x") == [1, 4, 7]


def test_shard_identity():
    assert field_list(shard(xs([5, 6, 7]), 0, 1), "x") == [5, 6, 7]


def test_shard_rejects_bad_parameters():
    for k, n in [(3, 3), (5, 2), (-1, 2), (0, 0)]:
        with pytest.raises(BadShard):
            shard(xs([1]), k, n)


# Every count site, with its own error type and message; {} is the bad value's repr.
COUNT_SITES = {
    "take n": (take, lambda v: {"n": v}, ValueError, "take count must be an integer >= 0, got {}"),
    "apply_batch batch_size": (
        apply_batch, lambda v: {"src": "x", "dst": "y", "f": list, "batch_size": v},
        ValueError, "batch_size must be an integer >= 1, got {}",
    ),
    "as_batch batch_size": (
        as_batch, lambda v: {"feature_fields": "x", "label_field": "x", "batch_size": v},
        ValueError, "batch_size must be an integer >= 1, got {}",
    ),
    "sliding_window size": (
        sliding_window, lambda v: {"fields": "x", "size": v}, ValueError, "window size must be an integer >= 1, got {}",
    ),
    "shard k": (shard, lambda v: {"k": v, "n": 2}, BadShard, "need 0 <= k < n, got k={}, n=2"),
    "shard n": (shard, lambda v: {"k": 0, "n": v}, BadShard, "need 0 <= k < n, got k=0, n={}"),
}


@pytest.mark.parametrize("value", [True, False, 2.0, -1, "2"], ids=repr)
@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_every_count_site_refuses_a_bool_float_negative_or_text(site, value):
    stage, kwargs, error, message = COUNT_SITES[site]
    source = CountingSource([Record(x=1.0)] * 3)
    with pytest.raises(error) as called:
        stage(source.stream(), **kwargs(value))
    with pytest.raises(error) as piped:
        source.stream() | stage(**kwargs(value))
    assert str(called.value) == str(piped.value) == message.format(repr(value))
    assert source.pulls == 0


@pytest.mark.parametrize("value", [True, False, 2.0, -1, "2"], ids=repr)
def test_a_tensor_dimension_follows_the_count_rule(value):
    with pytest.raises(ValueError) as info:
        Tensor((1, value), [])
    assert str(info.value) == f"bad tensor dimension {value!r}"


@given(st.integers(1, 6), st.lists(st.integers(), max_size=60))
def test_shards_partition_the_stream(n, values):
    pieces = []
    for k in range(n):
        got = field_list(shard(xs(list(enumerate(values))), k, n), "x")
        for idx, v in got:
            assert idx % n == k
        pieces.extend(got)
    pieces.sort(key=lambda p: p[0])
    assert [v for _, v in pieces] == values
