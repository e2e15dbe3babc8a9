"""Per-record and windowed stream transformations.

``apply`` is the workhorse: read source field(s), compute, store into a
destination field under a chosen evaluation strategy. The rest are the
supporting cast: filtering, field deletion, one-step delay, batched
application, sliding windows over tensor fields, and residue-class
sharding for fan-out across workers.
"""

from __future__ import annotations

from collections import deque
from .errors import BadShard, BatchArity
from .record import EvalStrategy, FieldCell, Record, Value
from .stream import Datastream, check_count, claim_iter, pipeable
from .tensor import Tensor, _pinned_tensor

__all__ = [
    "apply",
    "filter_field",
    "delfield",
    "delay",
    "apply_batch",
    "sliding_window",
    "shard",
]


def _reader(src):
    """Build record -> value(s) for a single name or a sequence of names."""
    if isinstance(src, str):
        return lambda r: r.get_field(src)
    names = list(src)
    return lambda r: [r.get_field(n) for n in names]


@pipeable
def apply(s, src, dst: str, f, strategy: EvalStrategy = EvalStrategy.EAGER) -> Datastream:
    """Compute ``dst`` from ``src`` field(s) for every record.

    With a sequence of source names, ``f`` receives the values as one
    list in the given order. EAGER computes as the record is pulled;
    LAZY_MEMOIZED and ON_DEMAND install a thunk that reads the sources
    from the record at force time, so lazy chains force transitively
    and a deleted source fails loudly. An existing ``dst`` is replaced.
    A lazy ``dst`` must not name its own source: the thunk would force
    itself.
    """
    if not isinstance(strategy, EvalStrategy):
        raise TypeError(f"unknown strategy {strategy!r}")
    read = _reader(src)
    it = claim_iter(s)

    def thunk(record: Record) -> Value:
        return f(read(record))

    def gen():
        for r in it:
            if strategy is EvalStrategy.EAGER:
                r.set_field(dst, FieldCell.eager(f(read(r))))
            else:
                r.set_field(dst, FieldCell(strategy, thunk=thunk))
            yield r

    return Datastream(gen())


@pipeable
def filter_field(s, src: str, pred) -> Datastream:
    """Keep records whose forced ``src`` value satisfies the predicate."""
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
    wanted = [names] if isinstance(names, str) else list(names)
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
    it = claim_iter(s)

    def gen():
        prev = _NO_PREV
        for r in it:
            cur = r.get_field(src)
            r.set_field(dst, FieldCell.eager(cur if prev is _NO_PREV else prev))
            prev = cur
            yield r

    return Datastream(gen())


_NO_PREV = object()


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
    it = claim_iter(s)

    def flush(buf):
        results = list(f([r.get_field(src) for r in buf]))
        if len(results) != len(buf):
            raise BatchArity(f"batch function returned {len(results)} results for {len(buf)} inputs")
        for r, v in zip(buf, results):
            r.set_field(dst, FieldCell.eager(v))
        yield from buf

    def gen():
        buf = []
        for r in it:
            buf.append(r)
            if len(buf) == batch_size:
                yield from flush(buf)
                buf = []
        if buf:
            yield from flush(buf)

    return Datastream(gen())


@pipeable
def sliding_window(s, fields, size: int) -> Datastream:
    """Stack each listed field over a window of ``size`` consecutive records.

    Output element j is built from input elements j .. j+size-1: every
    listed field becomes a tensor with a new leading axis of length
    ``size``; all other fields come from the window's last input
    record. Listed values (tensors, or numeric scalars treated as rank
    0) must keep one shape per field across the stream. Values are held
    in a ring and forced exactly once each, never recomputed per
    window. An input shorter than ``size`` yields nothing.
    """
    check_count(size, "window size")
    wanted = [fields] if isinstance(fields, str) else list(fields)
    if not wanted:
        raise ValueError("sliding_window needs at least one field")
    it = claim_iter(s)

    def gen():
        ring: deque = deque(maxlen=size)
        shapes: dict[str, tuple[int, ...]] = {}
        for r in it:
            vals = {name: _pinned_tensor(shapes, name, r.get_field(name)) for name in wanted}
            ring.append((r, vals))
            if len(ring) == size:
                last = ring[-1][0]
                for name in wanted:
                    last.set_field(
                        name,
                        FieldCell.eager(Tensor.stack([v[name] for _, v in ring])),
                    )
                yield last

    return Datastream(gen())


@pipeable
def shard(s, k: int, n: int) -> Datastream:
    """Keep elements whose 0-based index i satisfies i mod n == k.

    The unit of embarrassingly parallel fan-out: worker k of n runs the
    same pipeline with its own residue and the shards partition the
    stream.
    """
    ok = (
        isinstance(k, int) and not isinstance(k, bool)
        and isinstance(n, int) and not isinstance(n, bool)
        and n > 0 and 0 <= k < n
    )
    if not ok:
        raise BadShard(f"need 0 <= k < n, got k={k!r}, n={n!r}")
    it = claim_iter(s)

    def gen():
        for i, r in enumerate(it):
            if i % n == k:
                yield r

    return Datastream(gen())
