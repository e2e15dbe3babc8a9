"""Per-record and windowed stream transformations.

``apply`` is the workhorse: read source field(s), compute, store into a
destination field under a chosen evaluation strategy. The rest are the
supporting cast: filtering, field deletion, one-step delay and running
fold (``apply`` with a stateful step), batched application, sliding
windows over tensor fields, and residue-class sharding across workers.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

from .errors import BadShard, BatchArity
from .record import EvalStrategy, FieldCell, Value, check_name, is_count
from .stream import (
    Datastream, check_callable, check_count, chunks, claim_iter, ensure_stream, field_list, pipeable, reader
)
from .tensor import _pinned_tensor, _stacked, as_tensor

__all__ = [
    "apply",
    "filter_field",
    "delfield",
    "delay",
    "scan",
    "apply_batch",
    "sliding_window",
    "shard",
]


@pipeable
def apply(s, src, dst: str, f, strategy: EvalStrategy = EvalStrategy.EAGER) -> Datastream:
    """Compute ``dst`` from ``src`` field(s) for every record.

    With a sequence of source names, ``f`` receives the values as one
    list in the given order; an empty sequence reads no field and ``f``
    receives ``[]``. EAGER computes as the record is pulled;
    LAZY_MEMOIZED and ON_DEMAND install a thunk that reads the sources
    from the record at force time, so lazy chains force transitively
    and a deleted source fails loudly. An existing ``dst`` is replaced.
    A lazy ``dst`` that names one of its sources raises ValueError when
    built: the thunk would force itself.
    """
    check_name(dst)
    check_callable(f, "apply function")
    sources = field_list(src)
    read = reader(src if isinstance(src, str) else sources)
    if strategy is not EvalStrategy.EAGER:
        if isinstance(src, str):  # the thunk reads its one source itself: a call less per force
            template = FieldCell(strategy, thunk=lambda record: f(record.get_field(src)))
        else:
            template = FieldCell(strategy, thunk=lambda record: f(read(record)))
        if dst in sources:  # after FieldCell has refused an unknown strategy
            raise ValueError(f"lazy apply dst {dst!r} is one of its sources: its thunk would force itself")
    it = claim_iter(s)

    def eager():
        for r in it:
            r.set_field(dst, f(read(r)))
            yield r

    def lazy():
        for r in it:
            r.set_field(dst, template.clone())
            yield r

    return Datastream(eager() if strategy is EvalStrategy.EAGER else lazy())


@pipeable
def filter_field(s, src: str, pred) -> Datastream:
    """Keep records whose forced ``src`` value satisfies the predicate."""
    check_name(src)
    check_callable(pred, "filter predicate")
    it = claim_iter(s)

    def gen():
        for r in it:
            if pred(r.get_field(src)):
                yield r

    return Datastream(gen())


@pipeable
def delfield(s, names) -> Datastream:
    """Remove the named field(s) from every record as it passes.

    Frees values that later stages no longer need. Do not delete a
    field that a pending lazy thunk still reads: forcing that thunk
    afterwards raises MissingField for the deleted name.
    """
    wanted = field_list(names)
    if len(set(wanted)) < len(wanted):
        raise ValueError(f"delfield names must not repeat, got {names!r}")
    it = claim_iter(s)

    def gen():
        for r in it:
            for n in wanted:
                r.delete_field(n)
            yield r

    return Datastream(gen())


@pipeable
def delay(s, src: str, dst: str) -> Datastream:
    """Give each record the previous record's ``src`` value as ``dst``.

    The first record receives its own value, so pairwise consumers see
    a zero-motion first pair. Forces ``src`` of every element.
    """
    prev = _NO_PREV

    def step(cur: Value) -> Value:
        nonlocal prev
        out = cur if prev is _NO_PREV else prev
        prev = cur
        return out

    return apply(ensure_stream(s), src, dst, step)


_NO_PREV = object()


@pipeable
def scan(s, src: str, dst: str, init: Value, f) -> Datastream:
    """Running left-fold: element i gains ``dst`` = fold of values 0..i."""
    check_callable(f, "scan function")
    acc = init

    def step(v: Value) -> Value:
        nonlocal acc
        acc = f(acc, v)
        return acc

    return apply(ensure_stream(s), src, dst, step)


@pipeable
def apply_batch(s, src: str, dst: str, f, batch_size: int) -> Datastream:
    """Feed ``src`` values to ``f`` in groups, then un-group the results.

    Buffers up to ``batch_size`` records, calls ``f`` once per buffer
    (including the final partial one) and assigns results positionally
    to ``dst``. ``f`` must return exactly as many results as inputs.
    Output order equals input order; lookahead is bounded by
    ``batch_size``.
    """
    check_count(batch_size, "batch_size")
    check_name(src)
    check_name(dst)
    check_callable(f, "batch function")
    it = claim_iter(s)

    def gen():
        for buf in chunks(it, batch_size):
            results = list(f([r.get_field(src) for r in buf]))
            if len(results) != len(buf):
                raise BatchArity(f"batch function returned {len(results)} results for {len(buf)} inputs")
            for r, v in zip(buf, results):
                r.set_field(dst, v)
            yield from buf

    return Datastream(gen())


@pipeable
def sliding_window(s, fields, size: int) -> Datastream:
    """Stack each listed field over a window of ``size`` consecutive records.

    Output element j is input element j+size-1 with each listed field
    replaced by its values in elements j .. j+size-1, stacked along a
    new leading axis. Listed values (tensors, or numeric scalars as rank
    0) must keep one shape per field across the stream. Each is forced
    and checked once, as its record arrives; a ring per field holds the
    last ``size`` tensors, and no input record is kept but the one
    emitted. An input shorter than ``size`` yields nothing.
    """
    check_count(size, "window size")
    wanted = field_list(fields)
    if not wanted:
        raise ValueError("sliding_window needs at least one field")
    it = claim_iter(s)

    def gen():
        rings = {name: deque(maxlen=size) for name in wanted}  # a repeated name is read once
        shapes: dict[str, tuple[int, ...]] = {}
        for r in it:
            for name, ring in rings.items():
                ring.append(_pinned_tensor(shapes, name, r.get_field(name)))
            if len(ring) == size:  # every ring holds one value per record so far
                for name, ring in rings.items():
                    r.set_field(name, _stacked(ring, size, shapes[name], as_tensor))  # checked already
                yield r

    return Datastream(gen())


@pipeable
def shard(s, k: int, n: int) -> Datastream:
    """Keep elements whose 0-based index i satisfies i mod n == k.

    The unit of embarrassingly parallel fan-out: worker k of n runs the
    same pipeline with its own residue and the shards partition the
    stream.
    """
    if not (is_count(n, 1) and is_count(k) and k < n):
        raise BadShard(f"need 0 <= k < n, got k={k!r}, n={n!r}")
    return Datastream(islice(claim_iter(s), k, None, n))
