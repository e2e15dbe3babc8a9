"""Stream core: laziness, single use, lifting, projecting, sinks."""

import functools
import importlib
import inspect
import itertools
import os
import pkgutil
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fieldstream
from fieldstream import (
    Datastream,
    EvalStrategy,
    FieldCell,
    MissingField,
    Record,
    SingleUseViolation,
    SplitLabel,
    apply,
    apply_batch,
    apply_cached,
    as_batch,
    as_field,
    as_list,
    bind_field,
    count,
    datasplit,
    filter_field,
    fold,
    infshuffle,
    make_train_test_split,
    pipe,
    pipeable,
    scan,
    select_field,
    sliding_window,
    summary,
    take,
)
from fieldstream.stream import _BoundStage, _Pipeable

from helpers import CountingSource, ds, recs


def xs(values):
    return as_field(list(values), "x")


def xvals(stream) -> list:
    return [r.get_field("x") for r in as_list(stream)]


# pipe ------------------------------------------------------------------------

def test_pipe_identity_stage():
    out = pipe(xs([1, 2, 3]), lambda s: s)
    assert xvals(out) == [1, 2, 3]


def test_pipe_empty_stream():
    doubler = lambda s: (r for r in s)
    assert as_list(pipe(xs([]), doubler)) == []


def test_pipe_stage_chain_matches_composition():
    # oracle: eager list computation of g(f(x)) element-wise
    def f(r):
        r.set_value("x", r.get_field("x") + 1)
        return r

    def g(r):
        r.set_value("x", r.get_field("x") * 2)
        return r

    stage_f = lambda s: (f(r) for r in s)
    stage_g = lambda s: (g(r) for r in s)
    stage_gf = lambda s: (g(f(r)) for r in s)

    data = list(range(1, 11))
    chained = xvals(pipe(pipe(xs(data), stage_f), stage_g))
    composed = xvals(pipe(xs(data), stage_gf))
    oracle = [(x + 1) * 2 for x in data]
    assert chained == composed == oracle


def test_pipe_operator_reads_linearly():
    # a custom generator stage composes and the chain keeps accepting stages
    out = xs([1, 2, 3]) | (lambda s: (r for r in s)) | take(2)
    assert xvals(out) == [1, 2]
    wrapped = pipe(xs([1, 2]), lambda s: (r for r in s))
    assert isinstance(wrapped, Datastream)


def test_pipe_and_operator_are_one_path():
    labelled = lambda: ds(recs([{"x": 1, "split": "train"}, {"x": 2, "split": "test"}]))
    stages = [as_list, count, make_train_test_split, take(1), lambda s: (r for r in s), lambda s: s]
    for stage in stages:
        piped, ored = pipe(labelled(), stage), labelled() | stage
        assert type(piped) is type(ored)
        assert type(piped) in (list, int, tuple, Datastream)
    assert isinstance(pipe(labelled(), as_list), list)
    assert isinstance(labelled() | make_train_test_split, tuple)
    assert isinstance(labelled() | (lambda s: (r for r in s)), Datastream)


# as_field ---------------------------------------------------------------------

def test_as_field_basic():
    out = as_list(as_field([1, 2], "x"))
    assert [r.to_dict() for r in out] == [{"x": 1}, {"x": 2}]


def test_as_field_empty():
    assert as_list(as_field([], "x")) == []


def test_as_field_filename_example():
    out = as_list(as_field(["a.jpg"], "filename"))
    assert [r.to_dict() for r in out] == [{"filename": "a.jpg"}]


def test_as_field_rejects_bad_name():
    with pytest.raises(ValueError):
        as_field([1], "")


@pytest.mark.parametrize("value", [FieldCell(EvalStrategy.EAGER, stored=[1]), None, [1, 2],
                                   FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda r: 1)],
                         ids=["eager-cell", "none", "list", "lazy-cell"])
def test_as_field_stores_what_set_field_stores(value):
    (got,) = as_list(as_field([value], "x"))
    want = Record().set_field("x", value)
    assert list(got._cells) == ["x"] and got._cells["x"] is want._cells["x"]


# select_field -----------------------------------------------------------------

def test_select_single_field():
    out = ds(recs([{"x": 1, "y": 2}])) | select_field("y")
    assert as_list(out) == [2]


def test_select_multiple_fields_in_order():
    out = ds(recs([{"x": 1, "y": 2}])) | select_field(["y", "x"])
    assert as_list(out) == [[2, 1]]


def test_select_fails_lazily_at_offending_element():
    stream = ds(recs([{"x": 1}, {"y": 2}])) | select_field("x")
    it = iter(stream)
    assert next(it) == 1
    with pytest.raises(MissingField) as exc:
        next(it)
    assert exc.value.name == "x"


@given(st.lists(st.integers(), max_size=50))
def test_select_after_as_field_is_identity(vs):
    assert as_list(select_field(as_field(vs, "u"), "u")) == vs


# as_list / count / take --------------------------------------------------------

def test_as_list_empty_and_order():
    assert as_list(ds([])) == []
    out = as_list(xs([1, 2]))
    assert [r.get_field("x") for r in out] == [1, 2]


def test_as_list_thousand():
    source = CountingSource(recs([{"x": i} for i in range(1000)]))
    out = as_list(source.stream())
    assert len(out) == 1000
    assert source.pulls == 1000


def test_count_empty_and_take_of_infinite():
    assert count(ds([])) == 0

    def forever():
        while True:
            yield Record(x=1)

    assert count(take(Datastream(forever()), 7)) == 7


def test_count_forces_nothing():
    calls = []
    rs = []
    for i in range(3):
        r = Record()
        r.set_field("x", FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda _r: calls.append(1) or 0))
        r.set_field("y", FieldCell(EvalStrategy.ON_DEMAND, thunk=lambda _r: calls.append(1) or 0))
        rs.append(r)
    assert count(ds(rs)) == 3
    assert calls == []
    assert all(r.cell("x").eval_count == 0 and r.cell("y").eval_count == 0 for r in rs)


def test_take_infinite_repeat():
    def forever():
        while True:
            yield Record(x=1)

    assert len(as_list(take(Datastream(forever()), 3))) == 3


def test_take_more_than_available():
    assert as_list(take(ds([]), 5)) == []
    source = CountingSource(recs([{"x": 1}, {"x": 2}]))
    assert len(as_list(take(source.stream(), 5))) == 2
    assert source.pulls == 2


def test_take_zero_pulls_nothing():
    source = CountingSource(recs([{"x": 1}, {"x": 2}, {"x": 3}]))
    assert as_list(take(source.stream(), 0)) == []
    assert source.pulls == 0


def test_take_pulls_exactly_k():
    source = CountingSource(recs([{"x": i} for i in range(10)]))
    assert len(as_list(take(source.stream(), 4))) == 4
    assert source.pulls == 4


def test_take_rejects_negative():
    with pytest.raises(ValueError):
        take(xs([1]), -1)


# fold / scan -------------------------------------------------------------------

def test_fold_examples():
    add = lambda a, b: a + b
    assert fold(xs([1, 2, 3]), "x", 0, add) == 6
    assert fold(xs([]), "x", 42, add) == 42
    assert fold(xs([1] * 100), "x", 0, add) == 100


def test_scan_examples():
    add = lambda a, b: a + b
    out = as_list(scan(xs([1, 2, 3]), "x", "acc", 0, add))
    assert [r.get_field("acc") for r in out] == [1, 3, 6]
    assert as_list(scan(xs([]), "x", "acc", 0, add)) == []
    out = as_list(scan(xs([5]), "x", "acc", 10, max))
    assert [r.get_field("acc") for r in out] == [10]


@given(st.lists(st.integers(), min_size=1, max_size=40))
def test_scan_last_equals_fold(vs):
    add = lambda a, b: a + b
    scanned = as_list(scan(xs(vs), "x", "acc", 0, add))
    assert scanned[-1].get_field("acc") == fold(xs(vs), "x", 0, add)


# laziness & single use ----------------------------------------------------------

def test_composition_pulls_nothing():
    source = CountingSource(recs([{"x": i} for i in range(5)]))
    stream = source.stream() | select_field("x") | as_field("y") | take(3)
    assert source.pulls == 0
    assert len(as_list(stream)) == 3
    assert source.pulls == 3


# Each stage built with one bad argument: (stage, arguments after the stream, keyword arguments).
BAD_ARGUMENTS = [
    (apply, ("x", "y", 3), {}),
    (apply, ("x", "y", 3, EvalStrategy.LAZY_MEMOIZED), {}),
    (apply, ("x", "y", 3, EvalStrategy.ON_DEMAND), {}),
    (filter_field, ("x", 3), {}),
    (scan, ("x", "acc", 0, 3), {}),
    (apply_batch, ("x", "y", 3, 2), {}),
    (bind_field, ("x", 3), {}),
    (apply_cached, ("x", "y", 3, os.devnull), {}),  # built past the check, it would fail to make its directory
    (fold, ("x", 0, 3), {}),
    (infshuffle, (), {"seed": [1]}),
    (summary, (), {"sink": 3}),
]


@pytest.mark.parametrize("form", ["direct", "pipe"])
@pytest.mark.parametrize("stage, args, kwargs", BAD_ARGUMENTS,
                         ids=[f"{stage.__name__}-{i}" for i, (stage, _, _) in enumerate(BAD_ARGUMENTS)])
def test_bad_argument_fails_when_the_stage_is_built(stage, args, kwargs, form):
    source = CountingSource(recs([{"x": i} for i in range(3)]))
    with pytest.raises(TypeError):
        if form == "direct":
            stage(source.stream(), *args, **kwargs)
        else:
            source.stream() | stage(*args, **kwargs)
    assert source.pulls == 0


@pytest.mark.parametrize("stage, message", [
    (datasplit((0.1, 0.2, 0.3)), "expected (valid_fraction, test_fraction), got (0.1, 0.2, 0.3)"),
    (sliding_window([], 2), "sliding_window needs at least one field"),
], ids=["datasplit-three-fractions", "sliding_window-no-fields"])
def test_bad_argument_of_a_stage_call_fails_at_the_bar(stage, message):
    assert type(stage) is _BoundStage
    source = CountingSource(recs([{"x": i} for i in range(3)]))
    with pytest.raises(ValueError) as exc:
        source.stream() | stage
    assert type(exc.value) is ValueError and str(exc.value) == message
    assert source.pulls == 0


def test_composing_with_a_non_callable_leaves_the_stream_unclaimed():
    s = Datastream([1])
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \|: 'Datastream' and 'int'"):
        s | 5
    assert as_list(s) == [1]


@pytest.mark.parametrize("left, stage", [
    (5, as_list),
    (5, take(2)),
    (None, take(1)),
    ("abc", count),
    (b"xy", as_list),
    ({"a": 1}, as_list),
])
def test_a_non_stream_left_of_the_bar_raises(left, stage):
    with pytest.raises(TypeError) as exc:
        left | stage
    assert str(exc.value) == f"expected a stream or iterable, got {type(left).__name__}"


def test_reprs_name_the_stream_state_and_the_stage():
    s = xs([1])
    assert repr(s) == "<Datastream fresh>"
    s.claim()
    assert repr(s) == "<Datastream claimed>"
    assert repr(take(2)) == "<stage take>"
    assert repr(take) == "<pipeable take>"


def test_single_use_on_reiteration():
    s = xs([1, 2])
    as_list(s)
    with pytest.raises(SingleUseViolation):
        as_list(s)


def test_single_use_on_partial_consumption():
    s = xs([1, 2, 3])
    it = iter(s)
    next(it)
    with pytest.raises(SingleUseViolation):
        iter(s)


def test_single_use_on_double_composition():
    s = xs([1, 2, 3])
    s | take(1)
    with pytest.raises(SingleUseViolation):
        s | take(2)


# pipeable dispatch ---------------------------------------------------------------

def test_direct_call_and_pipe_call_agree():
    assert xvals(take(xs([1, 2, 3]), 2)) == [1, 2]
    assert xvals(xs([1, 2, 3]) | take(2)) == [1, 2]


def test_bare_stage_without_parens():
    bare = xs([1, 2]) | as_list
    called = as_list(xs([1, 2]))
    assert [r.to_dict() for r in bare] == [r.to_dict() for r in called]
    assert (xs([1, 2]) | count) == 2


def test_plain_list_pipes_into_stage():
    out = [Record(x=1), Record(x=2)] | take(1)
    assert xvals(out) == [1]


_ROWS = [{"x": 1}, {"x": 2}]


@pytest.mark.parametrize("run, stage", [
    pytest.param(lambda: take(ds(recs(_ROWS)), 1), "take", id="take(s, 1)"),
    pytest.param(lambda: ds(recs(_ROWS)) | take(1), "take", id="s | take(1)"),
    pytest.param(lambda: iter(recs(_ROWS)) | take(1), "take", id="iter(rs) | take(1)"),
    pytest.param(lambda: ds(recs(_ROWS)) | as_list, "as_list", id="s | as_list"),
    pytest.param(lambda: iter(recs(_ROWS)) | as_list, "as_list", id="iter(rs) | as_list"),
])
def test_every_call_form_builds_its_stage_in_one_place(run, stage, monkeypatch):
    built = []
    build = _Pipeable._build

    def counting_build(self, upstream, args, kwargs):
        built.append(self.__name__)
        return build(self, upstream, args, kwargs)

    monkeypatch.setattr(_Pipeable, "_build", counting_build)
    run()
    assert built == [stage]


@pipeable
def _double(s):
    for x in s:
        yield x * 2


@pytest.mark.parametrize("run", [
    pytest.param(lambda: _double(Datastream([1, 2])), id="double(s)"),
    pytest.param(lambda: [1, 2] | _double(), id="[1, 2] | double()"),
    pytest.param(lambda: [1, 2] | _double, id="[1, 2] | double"),
    pytest.param(lambda: Datastream([1, 2]) | _double(), id="s | double()"),
    pytest.param(lambda: Datastream([1, 2]) | _double, id="s | double"),
    pytest.param(lambda: pipe(Datastream([1, 2]), _double()), id="pipe(s, double())"),
])
def test_user_generator_stage_is_single_use_in_every_call_form(run):
    out = run()
    assert isinstance(out, Datastream)
    assert list(out) == [2, 4]
    with pytest.raises(SingleUseViolation):
        list(out)


_RECS = [Record(x=1.0, filename="a.jpg", split=SplitLabel.TRAIN)]
_F = lambda v: v  # noqa: E731

NOW, STAGE, AMBIGUOUS, NEITHER = "now", "stage", "ambiguous", "neither"

# Each exported @pipeable called with a list or tuple first, and the calls that
# bind no way at all: run now (only the stream reading binds), build a stage
# (only the stage reading binds), or raise (both bind, or neither does).
LIST_FIRST_CALLS = [
    ("pipe", (_RECS, _F), {}, NOW),
    ("pipe", ([_F],), {}, STAGE),
    ("as_field", ([1, 2], "x"), {}, NOW),
    ("select_field", (_RECS, "x"), {}, NOW),
    ("select_field", (["x", "filename"],), {}, STAGE),
    ("as_list", (_RECS,), {}, NOW),
    ("take", (_RECS, 1), {}, NOW),
    ("fold", (_RECS, "x", 0.0, lambda a, v: a + v), {}, NOW),
    ("scan", (_RECS, "x", "acc", 0.0, lambda a, v: a + v), {}, NOW),
    ("count", (_RECS,), {}, NOW),
    ("apply", (["x", "filename"], "y", _F), {}, STAGE),
    ("apply", (_RECS, "x", "y", _F), {}, AMBIGUOUS),
    ("apply", (_RECS, "x", "y", _F), {"strategy": EvalStrategy.EAGER}, NOW),
    ("filter_field", (_RECS, "x", _F), {}, NOW),
    ("delfield", (_RECS, "x"), {}, NOW),
    ("delfield", (["x", "filename"],), {}, STAGE),
    ("delay", (_RECS, "x", "y"), {}, NOW),
    ("apply_batch", (_RECS, "x", "y", _F, 2), {}, NOW),
    ("apply_batch", (_RECS, "x", "y", _F), {}, STAGE),
    ("sliding_window", (_RECS, "x", 2), {}, NOW),
    ("sliding_window", (["x", "filename"], 2), {}, STAGE),
    ("shard", (_RECS, 0, 2), {}, NOW),
    ("datasplit", ((0.1, 0.2), 42), {}, AMBIGUOUS),
    ("datasplit", ((0.1, 0.2),), {"seed": 42}, STAGE),
    ("datasplit", (_RECS, 0.5), {"seed": 1}, NOW),
    ("datasplit_by_pattern", (_RECS, "test"), {}, AMBIGUOUS),
    ("datasplit_by_pattern", (_RECS,), {"test_pattern": "test"}, NOW),
    ("stratify_sample", (_RECS,), {}, AMBIGUOUS),
    ("stratify_sample", (_RECS, "x"), {}, NOW),
    ("stratify_sample_tt", (_RECS,), {}, AMBIGUOUS),
    ("stratify_sample_tt", (_RECS, "x", "split"), {}, NOW),
    ("summary", (_RECS,), {}, AMBIGUOUS),
    ("summary", (_RECS, "x"), {"sink": None}, NOW),
    ("make_train_test_split", (_RECS,), {}, AMBIGUOUS),
    ("make_train_test_split", (_RECS, "split"), {}, NOW),
    ("infshuffle", (_RECS,), {}, AMBIGUOUS),
    ("infshuffle", (_RECS, 3), {}, NOW),
    ("as_batch", (["x", "z"], "y", 2), {}, AMBIGUOUS),
    ("as_batch", (["x", "z"], "y"), {"batch_size": 2}, STAGE),
    ("as_batch", (_RECS, ["x"], "x", 2), {}, NOW),
    ("apply_cached", (["x", "filename"], "y", _F, "cache"), {}, STAGE),
    ("apply_cached", (_RECS, "x", "y", _F, "cache"), {}, AMBIGUOUS),
    ("apply_cached", (_RECS, "x", "y", _F), {"cache_dir": "cache"}, NOW),
    ("bind_field", (_RECS, "x", lambda v: Record(y=v)), {}, NOW),
    ("count", (5,), {}, NEITHER),
    ("as_list", (None,), {}, NEITHER),
    ("as_list", ({"a": 1},), {}, NEITHER),
    ("take", (), {"s": _RECS, "n": 2}, NEITHER),
    ("take", (1, 2, 3), {}, NEITHER),
    ("take", (iter(_RECS),), {}, NEITHER),
    ("take", (), {"m": 3}, NEITHER),
    ("apply", ("a",), {}, NEITHER),
]


def test_package_exports_exactly_its_modules_public_names():
    modules = [importlib.import_module(f"fieldstream.{m.name}") for m in pkgutil.iter_modules(fieldstream.__path__)]
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert len(fieldstream.__all__) == len(declared) and set(fieldstream.__all__) == set(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(fieldstream, name) is getattr(module, name), name


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_surface(text: str) -> set[str]:
    """The backticked names of the README's Operations table and its Types and Errors paragraphs."""
    paragraphs = text.split("\n\n")
    table = paragraphs[paragraphs.index("## Operations") + 1]
    pinned = [p for p in paragraphs if p.startswith(("**Types.**", "**Errors.**"))]
    assert table.startswith("| Area |") and len(pinned) == 2
    return set(re.findall(r"`(\w+)`", "\n".join([table, *pinned])))


def test_package_exports_exactly_the_names_the_readme_lists():
    with open(README, encoding="utf-8") as fh:
        listed = readme_surface(fh.read())
    exported = set(fieldstream.__all__)
    assert sorted(exported - listed) == [], "exported but not in the README"
    assert sorted(listed - exported) == [], "in the README but not exported"


def test_list_first_table_covers_every_exported_pipeable():
    exported = {n for n in fieldstream.__all__ if isinstance(getattr(fieldstream, n), _Pipeable)}
    assert {name for name, *_ in LIST_FIRST_CALLS} == exported


def _dispatch(stage, args, kwargs) -> str:
    """NOW or STAGE by the result, AMBIGUOUS or NEITHER by a TypeError that names the function."""
    try:
        result = stage(*args, **kwargs)
    except TypeError as e:
        if str(e).startswith(f"ambiguous call to {stage.__name__}()"):
            return AMBIGUOUS
        if str(e).startswith(f"{stage.__name__}() arguments bind neither"):
            return NEITHER
        raise
    return STAGE if isinstance(result, _BoundStage) else NOW


@pytest.mark.parametrize(
    "name, args, kwargs, outcome", LIST_FIRST_CALLS,
    ids=[f"{c[0]}-{c[3]}-{i}" for i, c in enumerate(LIST_FIRST_CALLS)],
)
def test_list_first_call_dispatch(name, args, kwargs, outcome, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # apply_cached makes its relative "cache" directory when built
    assert _dispatch(getattr(fieldstream, name), args, kwargs) == outcome


def test_ambiguous_call_names_both_readings():
    with pytest.raises(TypeError) as exc:
        datasplit((0.1, 0.2), 42)
    assert "datasplit" in str(exc.value)
    assert "'s'" in str(exc.value) and "'split_value'" in str(exc.value)
    with pytest.raises(TypeError, match="'feature_fields'"):
        as_batch(["x", "z"], "y", 2)
    assert isinstance(datasplit(iter(_RECS), 0.5), Datastream)
    assert isinstance(datasplit(Datastream(_RECS), 0.5), Datastream)


@pytest.mark.parametrize(
    "name, args, kwargs, outcome", LIST_FIRST_CALLS,
    ids=[f"{c[0]}-{c[3]}-{i}" for i, c in enumerate(LIST_FIRST_CALLS)],
)
def test_wraps_wrapper_dispatches_as_the_function_it_wraps(name, args, kwargs, outcome, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    func = getattr(fieldstream, name).__wrapped__

    @functools.wraps(func)
    def wrapper(*a, **kw):
        return func(*a, **kw)

    assert _dispatch(pipeable(wrapper), args, kwargs) == outcome


_EXPORTED_PIPEABLES = sorted(n for n in fieldstream.__all__ if isinstance(getattr(fieldstream, n), _Pipeable))


@pytest.mark.parametrize("name", _EXPORTED_PIPEABLES)
def test_binds_fully_agrees_with_signature_bind(name):
    stage = getattr(fieldstream, name)
    sig = inspect.signature(stage.__wrapped__)
    names = [*sig.parameters, "unknown"]
    for n in range(len(names) + 1):
        for k in range(len(names) + 1):
            for keywords in itertools.combinations(names, k):
                args, kwargs = (None,) * n, dict.fromkeys(keywords)
                try:
                    sig.bind(*args, **kwargs)
                    expected = True
                except TypeError:
                    expected = False
                assert stage._binds_fully(args, kwargs) == expected, (n, keywords)


# Calls that bind neither way, given the stream s and the iterator it wraps.
_NEITHER_CALLS = [
    pytest.param("count", lambda s, it: count(5), id="count(5)"),
    pytest.param("as_list", lambda s, it: as_list(None), id="as_list(None)"),
    pytest.param("as_list", lambda s, it: as_list({"a": 1}), id="as_list(mapping)"),
    pytest.param("take", lambda s, it: take(s=s, n=2), id="take(s=s, n=2)"),
    pytest.param("take", lambda s, it: take(1, 2, 3), id="take(1, 2, 3)"),
    pytest.param("take", lambda s, it: take(it), id="take(iter)"),
    pytest.param("take", lambda s, it: take(m=3), id="take(m=3)"),
    pytest.param("apply", lambda s, it: apply("a"), id="apply(a)"),
] + [
    param
    for name in _EXPORTED_PIPEABLES if getattr(fieldstream, name)._required > 1
    for param in [pytest.param(name, lambda s, it, name=name: s | getattr(fieldstream, name), id=f"s | {name}"),
                  pytest.param(name, lambda s, it, name=name: pipe(s, getattr(fieldstream, name)), id=f"pipe(s, {name})")]
]


@pytest.mark.parametrize("name, call", _NEITHER_CALLS)
def test_call_that_binds_neither_way_raises_at_the_call(name, call):
    source = CountingSource(recs(_ROWS))
    it = iter(source)
    s = Datastream(it)
    with pytest.raises(TypeError, match=f"^{name}\\(\\) arguments bind neither after a stream passed first "
                                        "nor as a stage for \\|$"):
        call(s, it)
    assert source.pulls == 0
    assert [r.to_dict() for r in s | as_list] == _ROWS


def _varargs(s, *rest): ...
def _varkw(s, **options): ...
def _kwonly(s, *, n=1): ...
def _posonly(s, /, n=1): ...


@pytest.mark.parametrize("func", [_varargs, _varkw, _kwonly, _posonly])
def test_pipeable_rejects_parameters_it_cannot_bind_by_name(func):
    with pytest.raises(TypeError, match=f"pipeable {func.__name__}\\(\\) must take positional-or-keyword parameters"):
        pipeable(func)

    @functools.wraps(func)
    def wrapper(*a, **kw):
        return func(*a, **kw)

    with pytest.raises(TypeError, match=func.__name__):
        pipeable(wrapper)
