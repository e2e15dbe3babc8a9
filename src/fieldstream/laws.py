"""Field-indexed bind and executable checks of its algebraic laws.

``bind_field`` is the primitive underneath ``apply``: it maps one
field's value to a whole record and merges that record in. ``apply``
is its ergonomic restriction, and the three checks below make the
correspondence testable:

* left identity: lifting values into single-field records and binding
  ``f`` equals mapping ``f`` over the values (keeping the lifted field).
* right identity: binding the lifting function itself changes nothing.
* associativity, up to the intermediate field: applying ``f`` into v
  then ``g`` into w equals applying ``g after f`` straight into w, once
  v is deleted from the left side.

The checks compare fully forced records with structural value
equality, and they build EAGER stages. The associativity form that
deletes v holds only under EAGER: under LAZY_MEMOIZED and ON_DEMAND,
w's thunk reads v when it is forced, after ``delfield`` removed it, and
raises MissingField. Under every strategy the law holds with v left out
of the comparison instead of deleted. Each check takes the operation
under test as an optional parameter, which lets a test demonstrate that
a deliberately broken variant fails the law.
"""

from __future__ import annotations

from collections.abc import Sequence

from .combinators import apply, delfield
from .record import Record, Value, check_name
from .stream import Datastream, as_field, as_list, check_callable, claim_iter, pipeable

__all__ = [
    "bind_field",
    "check_left_identity",
    "check_right_identity",
    "check_associativity",
    "records_equal",
]


@pipeable
def bind_field(s, u: str, f) -> Datastream:
    """Merge ``f(record[u])`` into each record; ``f``'s fields win on collision."""
    check_name(u)
    check_callable(f, "bind function")
    it = claim_iter(s)

    def gen():
        for r in it:
            yield _merge(r, f(r.get_field(u)))

    return Datastream(gen())


def _merge(r: Record, produced) -> Record:
    """Store every field of ``produced`` into ``r``, lazy cells as the same objects."""
    if not isinstance(produced, Record):
        raise TypeError(f"bind function must return a Record, got {type(produced).__name__}")
    for name, value in produced._cells.items():
        r.set_field(name, value)
    return r


def records_equal(a: Record, b: Record) -> bool:
    """Same field set and equal forced values; order is not compared."""
    if set(a.field_names()) != set(b.field_names()):
        return False
    return a.to_dict() == b.to_dict()


def _streams_equal(xs: Sequence[Record], ys: Sequence[Record]) -> bool:
    return len(xs) == len(ys) and all(records_equal(x, y) for x, y in zip(xs, ys))


def check_left_identity(vs: Sequence[Value], u: str, f, bind=bind_field) -> bool:
    """Lift-then-bind equals map: bind(as_field(vs, u), u, f) vs f(v) plus {u: v}."""
    vs = list(vs)
    got = as_list(bind(as_field(vs, u), u, f))
    expected = [_merge(Record().set_field(u, v), f(v)) for v in vs]
    return _streams_equal(got, expected)


def check_right_identity(rs: Sequence[Record], u: str, bind=bind_field) -> bool:
    """Binding the lifting function leaves every record unchanged."""
    rs = list(rs)
    snapshots = [Record.from_values(r.to_dict()) for r in rs]
    got = as_list(bind(Datastream(iter(rs)), u, lambda x: Record().set_field(u, x)))
    return _streams_equal(got, snapshots)


def check_associativity(rs: Sequence[Record], u: str, v: str, w: str, f, g, composed=None) -> bool:
    """Two chained applies equal one composed apply, once v is deleted.

    ``composed`` defaults to ``g`` after ``f``; passing anything else
    is useful only to demonstrate the law failing.
    """
    if composed is None:
        composed = lambda x: g(f(x))
    rs = list(rs)
    left_in = Datastream(r.clone() for r in rs)
    right_in = Datastream(r.clone() for r in rs)
    left = as_list(delfield(apply(apply(left_in, u, v, f), v, w, g), v))
    right = as_list(apply(right_in, u, w, composed))
    return _streams_equal(left, right)
