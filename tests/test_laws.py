"""bind_field and the three algebraic law checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldstream import (
    EvalStrategy,
    FieldCell,
    MissingField,
    Record,
    apply,
    as_list,
    bind_field,
    check_associativity,
    check_left_identity,
    check_right_identity,
    delfield,
    records_equal,
)
from fieldstream.stream import Datastream

from helpers import (
    ds,
    random_kind,
    random_law_record,
    random_record_fn,
    random_scalar_of,
    random_unary_chain,
    recs,
)


# bind_field -----------------------------------------------------------------------

def test_bind_merges_produced_fields():
    out = as_list(bind_field(ds(recs([{"u": 2}])), "u", lambda x: Record(v=x + 1)))
    assert out[0].to_dict() == {"u": 2, "v": 3}


def test_bind_empty_record_is_identity():
    out = as_list(bind_field(ds(recs([{"u": 2, "w": 5}])), "u", lambda x: Record()))
    assert out[0].to_dict() == {"u": 2, "w": 5}


def test_bind_produced_fields_win_on_collision():
    out = as_list(bind_field(ds(recs([{"u": 2, "v": 0}])), "u", lambda x: Record(v=99)))
    assert out[0].to_dict() == {"u": 2, "v": 99}


def test_bind_keeps_produced_lazy_cells():
    """The merge stores each produced lazy cell itself: its identity and eval_count carry through."""
    cells = []

    def f(x):
        produced = Record()
        produced.set_field("v", FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda r: x + 1))
        produced.set_field("w", FieldCell(EvalStrategy.ON_DEMAND, thunk=lambda r: x * 2))
        assert produced.get_field("v") == x + 1  # forced once before the merge
        cells.append((produced.cell("v"), produced.cell("w")))
        return produced

    out = as_list(bind_field(ds(recs([{"u": 2}, {"u": 5}])), "u", f))
    for r, (v, w) in zip(out, cells, strict=True):
        assert r.cell("v") is v and r.cell("w") is w
        assert (v.eval_count, w.eval_count) == (1, 0)
        u = r.get_field("u")
        assert r.to_dict() == {"u": u, "v": u + 1, "w": u * 2}
        assert (v.eval_count, w.eval_count) == (1, 1)


def test_bind_missing_field():
    with pytest.raises(MissingField):
        as_list(bind_field(ds(recs([{"a": 1}])), "u", lambda x: Record()))


def test_bind_requires_record_result():
    with pytest.raises(TypeError):
        as_list(bind_field(ds(recs([{"u": 1}])), "u", lambda x: {"v": x}))


def test_apply_equals_bind_encoding_randomized(rng):
    for _ in range(60):
        kind = random_kind(rng)
        g, _ = random_unary_chain(rng, kind, rng.randrange(1, 3))
        rows = [random_law_record(rng, "u", kind, forbidden=("v",)) for _ in range(rng.randrange(0, 8))]
        via_apply = as_list(apply(Datastream(r.clone() for r in rows), "u", "v", g))
        via_bind = as_list(
            bind_field(
                Datastream(r.clone() for r in rows),
                "u",
                lambda x: Record(u=x, v=g(x)),
            )
        )
        assert len(via_apply) == len(via_bind)
        assert all(records_equal(a, b) for a, b in zip(via_apply, via_bind))


# left identity ----------------------------------------------------------------------

def test_left_identity_constant_f():
    assert check_left_identity([1, 2, 3], "u", lambda x: Record(c=42))


def test_left_identity_randomized(rng):
    for _ in range(200):
        kind = random_kind(rng)
        f = random_record_fn(rng, kind)
        vs = [random_scalar_of(rng, kind) for _ in range(rng.randrange(0, 10))]
        assert check_left_identity(vs, "u", f)


def test_left_identity_detects_broken_bind():
    def dropping_bind(s, u, f):
        # deliberately wrong: discards the source field u
        from fieldstream.stream import claim_iter

        def gen():
            for r in claim_iter(s):
                produced = f(r.get_field(u))
                r.delete_field(u)
                for name in produced.field_names():
                    r.set_field(name, produced.cell(name))
                yield r

        return Datastream(gen())

    assert not check_left_identity([1], "u", lambda x: Record(v=x), bind=dropping_bind)


# right identity ----------------------------------------------------------------------

def test_right_identity_simple():
    rows = recs([{"u": 1, "other": "x"}, {"u": 2}])
    assert check_right_identity(rows, "u")


def test_right_identity_randomized(rng):
    for _ in range(200):
        kind = random_kind(rng)
        rows = [random_law_record(rng, "u", kind) for _ in range(rng.randrange(1, 8))]
        assert check_right_identity(rows, "u")


def test_right_identity_detects_broken_bind():
    def mangling_bind(s, u, f):
        from fieldstream.stream import claim_iter

        def gen():
            for r in claim_iter(s):
                f(r.get_field(u))  # ignores the produced record
                r.set_value(u, "corrupted")
                yield r

        return Datastream(gen())

    assert not check_right_identity(recs([{"u": 5}]), "u", bind=mangling_bind)


# associativity -------------------------------------------------------------------------

def test_associativity_worked_example():
    f = lambda x: x + 1
    g = lambda x: x * 2
    rows = recs([{"u": 3}])
    # left side carries the intermediate: {u:3, v:4, w:8}; right side {u:3, w:8}
    left = as_list(apply(apply(ds([rows[0].clone()]), "u", "v", f), "v", "w", g))
    assert left[0].to_dict() == {"u": 3, "v": 4, "w": 8}
    assert check_associativity(rows, "u", "v", "w", f, g)


def test_associativity_identity_functions():
    ident = lambda x: x
    assert check_associativity(recs([{"u": 1}, {"u": 2}]), "u", "v", "w", ident, ident)


def test_associativity_randomized(rng):
    for _ in range(200):
        kind = random_kind(rng)
        f, mid_kind = random_unary_chain(rng, kind, 1)
        g, _ = random_unary_chain(rng, mid_kind, rng.randrange(1, 3))
        rows = [
            random_law_record(rng, "u", kind, forbidden=("v", "w"))
            for _ in range(rng.randrange(0, 8))
        ]
        assert check_associativity(rows, "u", "v", "w", f, g)


def test_associativity_detects_wrong_composition_order():
    f = lambda x: x + 1
    g = lambda x: x * 2
    rows = recs([{"u": 3}])
    # f then g is (3+1)*2 = 8; the backwards composition gives 3*2+1 = 7
    assert not check_associativity(rows, "u", "v", "w", f, g, composed=lambda x: f(g(x)))


def test_law_inputs_are_not_consumed_destructively(rng):
    rows = recs([{"u": 1, "keep": "yes"}])
    check_associativity(rows, "u", "v", "w", lambda x: x, lambda x: x)
    # clones protected the originals from the applies
    assert rows[0].to_dict() == {"u": 1, "keep": "yes"}


# associativity under the lazy strategies ------------------------------------------------

@pytest.mark.parametrize("strategy", [EvalStrategy.LAZY_MEMOIZED, EvalStrategy.ON_DEMAND])
def test_associativity_delete_form_fails_under_lazy_strategies(strategy):
    # w's thunk reads v when forced, and delfield removed v before that
    out = as_list(
        ds(recs([{"u": 1}, {"u": 2}]))
        | apply("u", "v", lambda x: x + 1, strategy=strategy)
        | apply("v", "w", lambda x: x * 2, strategy=strategy)
        | delfield("v")
    )
    with pytest.raises(MissingField) as err:
        out[0].get_field("w")
    assert err.value.name == "v"


@settings(max_examples=60, deadline=None)
@given(
    strategy=st.sampled_from(list(EvalStrategy)),
    piped=st.booleans(),
    rnd=st.randoms(use_true_random=False),
)
def test_associativity_with_v_projected_away_holds_under_every_strategy(strategy, piped, rnd):
    kind = random_kind(rnd)
    f, mid_kind = random_unary_chain(rnd, kind, 1)
    g, _ = random_unary_chain(rnd, mid_kind, rnd.randrange(1, 3))
    rows = [random_law_record(rnd, "u", kind, forbidden=("v", "w")) for _ in range(rnd.randrange(0, 6))]

    def chain(steps, how):
        s = ds([r.clone() for r in rows])
        for src, dst, fn in steps:
            s = s | apply(src, dst, fn, strategy=how) if piped else apply(s, src, dst, fn, how)
        return as_list(s)

    left = chain([("u", "v", f), ("v", "w", g)], strategy)
    # the composed side is the EAGER reference, so a lazy stage that shares or misreads a cell fails too
    right = chain([("u", "w", lambda x: g(f(x)))], EvalStrategy.EAGER)
    assert [{k: x for k, x in r.to_dict().items() if k != "v"} for r in left] == [r.to_dict() for r in right]
