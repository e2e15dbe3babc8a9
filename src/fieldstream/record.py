"""Multi-field records with per-field evaluation strategies.

A :class:`Record` is an ordered collection of named fields. A source
adopts each parsed row whole (``Record._adopt``), as ``as_field`` does
each plain value; every other store is :meth:`Record.set_field`. Each
field carries one of three strategies:

* ``EAGER``: the value was computed up front and is stored bare.
* ``LAZY_MEMOIZED``: a :class:`FieldCell` thunk runs on the first
  access, the result is stored, and the thunk is never invoked again.
* ``ON_DEMAND``: a :class:`FieldCell` thunk runs on every access and
  nothing is stored, so an impure thunk (augmentation, sampling)
  yields a fresh value per read.

Thunks take the whole record and read their inputs through
:meth:`Record.get_field` at force time. Lazy chains therefore force
transitively, and a thunk whose input was deleted in the meantime
raises :class:`~fieldstream.errors.MissingField` naming the deleted
field. Thunks behind LAZY_MEMOIZED cells are expected to be pure; this
is a documented requirement, not an enforced one.

Each cell counts its thunk invocations in ``eval_count``, which is
part of the public contract so strategy semantics stay observable; for
an eager field :meth:`Record.cell` gives a fresh view with count 0.

A record is confined to one consumer at a time. Records whose fields
are all eager may move freely between threads; records with pending
thunks may move only if the thunks are pure and transferable. No
locking is performed.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from enum import Enum

from .errors import MissingField

__all__ = ["EvalStrategy", "FieldCell", "Record"]

# A field value: None, bool, int, float, str, Tensor, list or dict. A plain alias, not
# typing.Any: importing typing costs every CLI call, and annotations here are strings.
Value = object
Thunk = Callable[["Record"], Value]

_UNSET = object()


def check_name(name) -> None:
    """Raise ValueError unless ``name`` is a non-empty string, the one rule for field names."""
    if not isinstance(name, str) or not name:
        raise ValueError(f"field name must be a non-empty string, got {name!r}")


class EvalStrategy(Enum):
    """How a field obtains its value when read."""

    EAGER = "eager"
    LAZY_MEMOIZED = "lazy_memoized"
    ON_DEMAND = "on_demand"


# Module-level aliases for the per-read comparisons: a member read through the class
# costs several times a global lookup on CPython 3.11.
_EAGER, _LAZY_MEMOIZED = EvalStrategy.EAGER, EvalStrategy.LAZY_MEMOIZED


class FieldCell:
    """One field slot: strategy, stored value and/or thunk, eval counter."""

    __slots__ = ("strategy", "eval_count", "_stored", "_thunk")

    def __init__(self, strategy: EvalStrategy, *, stored: Value = _UNSET, thunk: Thunk | None = None):
        if not isinstance(strategy, EvalStrategy):
            raise TypeError(f"unknown strategy {strategy!r}")
        if strategy is EvalStrategy.EAGER:
            if stored is _UNSET or thunk is not None:
                raise ValueError("eager cell takes a stored value and no thunk")
        else:
            if stored is not _UNSET or not callable(thunk):
                raise ValueError(f"{strategy.value} cell takes a thunk and no stored value")
        self.strategy = strategy
        self.eval_count = 0
        self._stored = stored
        self._thunk = thunk

    def get(self, record: "Record") -> Value:
        """Produce the value, forcing the thunk as the strategy dictates."""
        if self._stored is not _UNSET:
            return self._stored
        self.eval_count += 1
        value = self._thunk(record)
        if self.strategy is _LAZY_MEMOIZED:
            self._stored = value
            self._thunk = None  # release the closure; never invoked again
        return value

    def clone(self) -> "FieldCell":
        """Fresh cell with the same strategy and payload; eval_count resets."""
        cell = FieldCell.__new__(FieldCell)
        cell.strategy = self.strategy
        cell.eval_count = 0
        cell._stored = self._stored
        cell._thunk = self._thunk
        return cell

    def __repr__(self) -> str:
        if self.strategy is EvalStrategy.EAGER:
            return f"FieldCell(eager, {self._stored!r})"
        forced = "" if self._stored is _UNSET else " forced"
        return f"FieldCell({self.strategy.value}{forced})"


class Record:
    """Ordered map of field names to values or thunk cells; the element type of a stream.

    ``Record(x=1, y=2)`` builds eager fields in keyword order. New
    fields append; replacing a field keeps its position. Field names
    are unique non-empty strings. A source adopts a row whole once its
    names are checked, and ``as_field`` a plain value; every other store
    is :meth:`set_field`.
    """

    __slots__ = ("_cells",)

    def __init__(self, /, **values: Value):
        self._cells: dict[str, Value] = {}
        for name, value in values.items():
            self.set_field(name, value)

    @classmethod
    def from_values(cls, values: Mapping[str, Value]) -> "Record":
        """Record of a mapping's values, each stored as :meth:`set_field` stores it; for names that aren't identifiers."""
        r = cls()
        for name, value in values.items():
            r.set_field(name, value)
        return r

    @classmethod
    def _adopt(cls, cells: dict[str, Value]) -> "Record":
        """Record that owns ``cells``, a fresh dict whose names are already checked; nothing is copied."""
        r = cls.__new__(cls)
        r._cells = cells
        return r

    def get_field(self, name: str) -> Value:
        try:
            value = self._cells[name]
        except KeyError:
            raise MissingField(name) from None
        return value.get(self) if type(value) is FieldCell else value

    def set_field(self, name: str, value: Value) -> "Record":
        """Store one field: keeps a thunk cell, unwraps an EAGER cell, stores any other value bare (no TypeError)."""
        check_name(name)
        if type(value) is FieldCell and value.strategy is _EAGER:
            value = value._stored
        self._cells[name] = value
        return self

    def set_value(self, name: str, value: Value) -> "Record":
        """Store an eager value; the same store as :meth:`set_field`."""
        return self.set_field(name, value)

    def delete_field(self, name: str) -> "Record":
        if name not in self._cells:
            raise MissingField(name, "cannot delete")
        del self._cells[name]
        return self

    def field_names(self) -> list[str]:
        return list(self._cells)

    def cell(self, name: str) -> FieldCell:
        """A thunk field's stored cell, or a fresh EAGER view of an eager value (``eval_count`` 0)."""
        value = self._cells.get(name, _UNSET)
        if value is _UNSET:
            raise MissingField(name)
        return value if type(value) is FieldCell else FieldCell(EvalStrategy.EAGER, stored=value)

    def has_field(self, name: str) -> bool:
        return name in self._cells

    def to_dict(self) -> dict[str, Value]:
        """Force every field and return a new dict of name -> value in field order."""
        if FieldCell not in map(type, self._cells.values()):
            return self._cells.copy()
        return {name: self.get_field(name) for name in self._cells}

    def clone(self) -> "Record":
        """New record with cloned cells (same strategies, fresh counters)."""
        return Record._adopt({name: value.clone() if type(value) is FieldCell else value
                              for name, value in self._cells.items()})

    def __copy__(self) -> "Record":
        """New record sharing this one's cells; a later set or delete on either leaves the other alone.

        A store replaces a cell and never changes it, so sharing is
        safe: a memoized cell still computes once, and an on-demand
        cell still recomputes on every read of either record.
        """
        r = Record.__new__(Record)
        r._cells = self._cells.copy()
        return r

    def __getitem__(self, name: str) -> Value:
        return self.get_field(name)

    def __setitem__(self, name: str, value: Value) -> None:
        self.set_field(name, value)

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def __repr__(self) -> str:
        parts = []
        for name, value in self._cells.items():
            if type(value) is FieldCell:
                parts.append(f"{name}=<{value.strategy.value}>")
            else:
                parts.append(f"{name}={value!r}")
        return f"Record({', '.join(parts)})"
