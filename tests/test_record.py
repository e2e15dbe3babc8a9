"""Record, field cells and the three evaluation strategies."""

import copy
import itertools
import random

import pytest

from fieldstream import EvalStrategy, FieldCell, MissingField, Record, apply, as_field, as_list


def test_eager_get():
    r = Record(x=3)
    assert r.get_field("x") == 3
    assert r.cell("x").eval_count == 0


def test_lazy_memoized_forces_once():
    calls = []
    r = Record().set_field("x", FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda _r: calls.append(1) or 7))
    assert [r.get_field("x") for _ in range(3)] == [7, 7, 7]
    assert len(calls) == 1
    assert r.cell("x").eval_count == 1


def test_on_demand_reevaluates_every_get():
    counter = itertools.count(1)
    r = Record().set_field("x", FieldCell(EvalStrategy.ON_DEMAND, thunk=lambda _r: next(counter)))
    assert [r.get_field("x") for _ in range(3)] == [1, 2, 3]
    assert r.cell("x").eval_count == 3


def test_get_missing_field_names_it():
    r = Record(x=1)
    with pytest.raises(MissingField) as exc:
        r.get_field("y")
    assert exc.value.name == "y"
    assert "y" in str(exc.value)


def test_thunk_reads_through_record():
    r = Record(x=10)
    r.set_field("y", FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda rr: rr.get_field("x") + 1))
    assert r.get_field("y") == 11


def test_set_field_append_and_replace_order():
    r = Record()
    r.set_value("x", 1)
    assert r.to_dict() == {"x": 1}
    r.set_value("x", 2)
    assert r.to_dict() == {"x": 2}
    assert r.field_names() == ["x"]
    r.set_field("y", FieldCell(EvalStrategy.ON_DEMAND, thunk=lambda _r: 0))
    assert r.field_names() == ["x", "y"]


def test_field_names_insertion_order():
    assert Record().field_names() == []
    r = Record(a=1, b=2)
    assert r.field_names() == ["a", "b"]
    r2 = Record()
    r2.set_value("b", 1)
    r2.set_value("a", 2)
    assert r2.field_names() == ["b", "a"]


def test_delete_field():
    r = Record(x=1, y=2)
    r.delete_field("x")
    assert r.field_names() == ["y"]
    with pytest.raises(MissingField) as exc:
        Record(x=1).delete_field("z")
    assert exc.value.name == "z"


def test_deleted_dependency_fails_at_force_time():
    r = Record(x=1)
    r.set_field("y", FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda rr: rr.get_field("x") + 1))
    r.delete_field("x")
    with pytest.raises(MissingField) as exc:
        r.get_field("y")
    assert exc.value.name == "x"


def test_delete_after_set_is_identity_on_fresh_name():
    r = Record(a=1)
    before = r.field_names()
    r.set_value("tmp", 9)
    r.delete_field("tmp")
    assert r.field_names() == before


def test_forcing_one_field_leaves_others_untouched():
    r = Record(x=1)
    r.set_field("y", FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda rr: rr.get_field("x")))
    r.set_field("z", FieldCell(EvalStrategy.ON_DEMAND, thunk=lambda rr: rr.get_field("x")))
    r.get_field("y")
    assert r.cell("z").strategy is EvalStrategy.ON_DEMAND
    assert r.cell("z").eval_count == 0
    assert r.cell("x").strategy is EvalStrategy.EAGER


def test_force_order_independence():
    def build():
        r = Record(a=2)
        r.set_field("b", FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda rr: rr.get_field("a") * 3))
        r.set_field("c", FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda rr: rr.get_field("b") + 1))
        r.set_field("d", FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda rr: rr.get_field("a") - 1))
        return r

    expected = {"a": 2, "b": 6, "c": 7, "d": 1}
    for order in itertools.permutations("abcd"):
        r = build()
        got = {name: r.get_field(name) for name in order}
        assert got == expected


def test_lazy_eval_count_at_most_one_under_random_access():
    rng = random.Random(7)
    r = Record(x=5)
    r.set_field("y", FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda rr: rr.get_field("x") ** 2))
    for _ in range(50):
        r.get_field(rng.choice(["x", "y"]))
    assert r.cell("y").eval_count <= 1
    assert r.cell("x").eval_count == 0


def test_cell_constructor_validation():
    with pytest.raises(ValueError):
        FieldCell(EvalStrategy.EAGER, thunk=lambda r: 1)
    with pytest.raises(ValueError):
        FieldCell(EvalStrategy.LAZY_MEMOIZED, stored=3)
    with pytest.raises(ValueError):
        FieldCell(EvalStrategy.ON_DEMAND)


def test_field_name_validation():
    with pytest.raises(ValueError):
        Record().set_value("", 1)
    with pytest.raises(ValueError):
        Record().set_field(3, FieldCell(EvalStrategy.EAGER, stored=1))  # type: ignore[arg-type]


def test_clone_is_independent():
    calls = []
    r = Record(x=1)
    r.set_field("y", FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda rr: calls.append(1) or rr.get_field("x")))
    c = r.clone()
    c.set_value("x", 99)
    assert c.get_field("y") == 99
    assert r.get_field("y") == 1
    assert len(calls) == 2  # each clone forces its own cell
    assert r.cell("y").eval_count == 1
    assert c.cell("y").eval_count == 1


def test_copy_shares_cells_but_not_the_field_map():
    calls = []
    r = Record(x=1, gone=0)
    r.set_field("y", FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda rr: calls.append(1) or rr.get_field("x")))
    c = copy.copy(r)
    c.set_value("x", 99)
    c.delete_field("gone")
    assert r.field_names() == ["x", "gone", "y"]
    assert r.get_field("x") == 1
    assert c.get_field("y") == 99  # forced first through the copy
    assert r.get_field("y") == 99  # the shared cell keeps that value
    assert len(calls) == 1
    assert r.cell("y") is c.cell("y")


def test_dict_sugar():
    r = Record(x=1)
    r["y"] = 5
    assert "y" in r and r["y"] == 5
    assert len(r) == 2


# eager fields are stored bare; FieldCell only for thunks -----------------------

@pytest.fixture
def cell_inits(monkeypatch):
    """Counts FieldCell constructions (every constructor goes through __init__)."""
    calls = []
    init = FieldCell.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FieldCell, "__init__", counting)
    return calls


def test_eager_stores_build_no_cell(cell_inits):
    r = Record.from_values({"a": 1, "b": "t", "c": None, "d": 2.5, "e": [1]})
    assert r.to_dict() == {"a": 1, "b": "t", "c": None, "d": 2.5, "e": [1]}
    assert cell_inits == []
    out = as_list(as_field([1, 2, 3], "x") | apply("x", "y", lambda v: v * 2))
    assert [o.get_field("y") for o in out] == [2, 4, 6]
    assert cell_inits == []
    lazy = as_list(as_field([1, 2], "x") | apply("x", "y", lambda v: v, strategy=EvalStrategy.ON_DEMAND))
    assert len(cell_inits) == 1  # one validated template per stage; records get clones
    first, second = (r.cell("y") for r in lazy)
    assert first is not second
    assert [r.get_field("y") for r in lazy] == [1, 2]
    assert lazy[0].get_field("y") == 1
    assert (first.eval_count, second.eval_count) == (2, 1)


def test_field_cell_rejects_unknown_strategy():
    with pytest.raises(TypeError, match="unknown strategy 'bogus'"):
        FieldCell("bogus", thunk=lambda _r: 1)
    with pytest.raises(TypeError):
        FieldCell(None, stored=1)


def test_set_field_unwraps_eager_cells_and_keeps_thunk_cells():
    eager = FieldCell(EvalStrategy.EAGER, stored=5)
    lazy = FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda rr: rr.get_field("x") + 1)
    r = Record().set_field("x", eager).set_field("v", [1, 2]).set_field("y", lazy)
    assert r.cell("x") is not eager
    assert r.to_dict() == {"x": 5, "v": [1, 2], "y": 6}
    assert r.cell("v").strategy is EvalStrategy.EAGER
    assert r.cell("y") is lazy
    c = copy.copy(r)
    assert c.cell("y") is lazy
    assert lazy.eval_count == 1


def test_eager_cell_is_a_fresh_view():
    r = Record(x=[1])
    view = r.cell("x")
    assert view.strategy is EvalStrategy.EAGER and view.eval_count == 0
    assert view.get(r) is r.get_field("x")
    view.eval_count = 9
    assert r.cell("x") is not view
    assert r.cell("x").eval_count == 0
    with pytest.raises(MissingField) as exc:
        r.cell("nope")
    assert exc.value.name == "nope"


def test_mixed_record_repr_clone_and_to_dict():
    counter = itertools.count(1)
    r = Record(a=1, b="t", c=None)
    r.set_field("y", FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda rr: rr.get_field("a") + 1))
    r.set_field("z", FieldCell(EvalStrategy.ON_DEMAND, thunk=lambda _r: next(counter)))
    shown = "Record(a=1, b='t', c=None, y=<lazy_memoized>, z=<on_demand>)"
    assert repr(r) == shown
    c = r.clone()
    assert repr(c) == shown
    assert r.to_dict() == {"a": 1, "b": "t", "c": None, "y": 2, "z": 1}
    assert repr(r) == shown
    assert c.to_dict() == {"a": 1, "b": "t", "c": None, "y": 2, "z": 2}
    assert repr(r.clone()) == shown
    assert [(n, r.cell(n).eval_count, c.cell(n).eval_count) for n in r.field_names()] == [
        ("a", 0, 0), ("b", 0, 0), ("c", 0, 0), ("y", 1, 1), ("z", 1, 1),
    ]
    assert repr(r.cell("a")) == "FieldCell(eager, 1)"
    assert repr(r.cell("y")) == "FieldCell(lazy_memoized forced)"


def test_each_record_operation_has_one_implementation():
    assert Record.set_value is Record.set_field
    assert Record.__setitem__ is Record.set_field
    assert Record.__getitem__ is Record.get_field
    assert Record.__contains__ is Record.has_field


# to_dict and from_values -----------------------------------------------------------

def test_to_dict_is_a_new_dict_for_eager_and_mixed_records():
    eager = Record(x=1, y=[2])
    mixed = Record(x=1).set_field("y", FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda rr: rr.get_field("x") + 1))
    for r, want in [(eager, {"x": 1, "y": [2]}), (mixed, {"x": 1, "y": 2})]:
        d = r.to_dict()
        assert d == want
        d["x"] = 99
        d["z"] = 0
        del d["y"]
        assert r.to_dict() == want
        assert r.field_names() == ["x", "y"]


@pytest.mark.parametrize("name", ["", 3, None, b"a", ("a",)])
def test_from_values_rejects_a_non_text_or_empty_name(name):
    with pytest.raises(ValueError, match="field name must be a non-empty string"):
        Record.from_values({"ok": 1, name: 2})


def test_from_values_unwraps_an_eager_cell_as_set_field_does():
    lazy = FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda rr: rr.get_field("a") + 1)
    r = Record.from_values({"a": FieldCell(EvalStrategy.EAGER, stored=1), "y": lazy})
    assert repr(r) == repr(Record(a=1).set_field("y", lazy)) == "Record(a=1, y=<lazy_memoized>)"
    assert r.cell("y") is lazy  # a thunk cell is kept as it is
    assert r.to_dict() == {"a": 1, "y": 2}
    eager = Record.from_values({"a": FieldCell(EvalStrategy.EAGER, stored=[1]), "b": "t"})
    assert repr(eager) == "Record(a=[1], b='t')"
    d = eager.to_dict()
    assert d == {"a": [1], "b": "t"} and [type(v) for v in d.values()] == [list, str]


def test_from_values_copies_the_mapping():
    values = {"a": 1, "b": "t"}
    r = Record.from_values(values)
    values["a"] = 2
    del values["b"]
    assert r.to_dict() == {"a": 1, "b": "t"}
    r.set_field("c", 3)
    assert values == {"a": 2}
