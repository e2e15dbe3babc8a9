"""Lazy single-use streams and the pipeline composition syntax.

A :class:`Datastream` wraps a pull-based iterator of records (or of
plain values, before ``as_field`` / after ``select_field``). Elements
are produced only when a sink pulls, streams may be infinite, and each
stream is consumed at most once: iterating or composing an already
claimed stream raises ``SingleUseViolation``.

Combinators decorated with :func:`pipeable` support both call shapes::

    take(stream, 3)        # plain function call
    stream | take(3)       # pipeline syntax, reads left to right
    stream | as_list       # zero-argument stages may drop the parens

Either way the stage is lazy: composing performs zero upstream pulls.
A list or tuple first is the stream only if the call cannot also read
as a stage; a call that binds both ways, or neither, raises TypeError.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from functools import update_wrapper
from itertools import islice

from .errors import SingleUseViolation
from .record import FieldCell, Record, Value, check_name

__all__ = [
    "Datastream",
    "pipeable",
    "pipe",
    "as_field",
    "select_field",
    "as_list",
    "take",
    "fold",
    "count",
]


class Datastream:
    """Single-consumption lazy stream of records or plain values."""

    __slots__ = ("_it", "_claimed")

    def __init__(self, items: Iterable):
        self._it = iter(items)
        self._claimed = False

    def claim(self) -> Iterator:
        """Hand over the underlying iterator; valid exactly once."""
        if self._claimed:
            raise SingleUseViolation("stream was already consumed or composed")
        self._claimed = True
        return self._it

    def __iter__(self) -> Iterator:
        return self.claim()

    def __or__(self, stage):
        if not callable(stage):
            return NotImplemented
        return _run_stage(self, stage)

    def __repr__(self) -> str:
        state = "claimed" if self._claimed else "fresh"
        return f"<Datastream {state}>"


def _run_stage(stream: Datastream, stage):
    """The one body of ``stream | stage`` and ``pipe``: an iterator result is wrapped, any other is returned."""
    result = stage(stream)
    return Datastream(result) if isinstance(result, Iterator) else result


def _is_stream_like(x) -> bool:
    return isinstance(x, Iterable) and not isinstance(x, (str, bytes, Mapping))


def ensure_stream(s) -> Datastream:
    """Wrap a plain iterable; pass a Datastream through untouched."""
    if isinstance(s, Datastream):
        return s
    if _is_stream_like(s):
        return Datastream(s)
    raise TypeError(f"expected a stream or iterable, got {type(s).__name__}")


def claim_iter(s) -> Iterator:
    """Claim a stream (or adopt an iterable) without pulling anything."""
    return ensure_stream(s).claim()


class _BoundStage:
    """A combinator with its non-stream arguments already bound."""

    __slots__ = ("_pipeable", "_args", "_kwargs")

    def __init__(self, pipeable, args, kwargs):
        self._pipeable, self._args, self._kwargs = pipeable, args, kwargs

    def __call__(self, upstream):
        return self._pipeable._build(upstream, self._args, self._kwargs)

    __ror__ = __call__

    def __repr__(self) -> str:
        return f"<stage {self._pipeable.__name__}>"


class _Pipeable:
    """Dual-mode wrapper produced by :func:`pipeable`.

    Called with a stream first it runs immediately; called with only
    the remaining arguments it returns a stage for use after ``|``.
    """

    def __init__(self, func):
        inner = func
        while hasattr(inner, "__wrapped__"):  # a functools.wraps wrapper binds as the function it wraps
            inner = inner.__wrapped__
        code = inner.__code__
        # 0x0C is CO_VARARGS | CO_VARKEYWORDS: *args or **kwargs
        if code.co_flags & 0x0C or code.co_kwonlyargcount or code.co_posonlyargcount:
            raise TypeError(f"pipeable {func.__name__}() must take positional-or-keyword parameters only, "
                            "without *args, **kwargs, keyword-only or positional-only ones")
        self._params = code.co_varnames[: code.co_argcount]
        self._required = len(self._params) - len(inner.__defaults__ or ())
        update_wrapper(self, func)

    def _binds_fully(self, args, kwargs) -> bool:
        """Whether ``func(*args, **kwargs)`` binds every parameter once and each required one."""
        n = len(args)
        if n > len(self._params) or not kwargs.keys() <= set(self._params[n:]):
            return False
        return all(name in kwargs for name in self._params[n : self._required])

    def _build(self, upstream, args, kwargs):
        """The one place a stage is built, whichever call form asked for it."""
        return self.__wrapped__(upstream, *args, **kwargs)

    def __call__(self, *args, **kwargs):
        head = args[0] if args else None
        runs = _is_stream_like(head) and self._binds_fully(args, kwargs)
        stage = not isinstance(head, (Datastream, Iterator)) and self._binds_fully((None,) + args, kwargs)
        if runs and stage:
            stream, first = self._params[:2]
            raise TypeError(f"ambiguous call to {self.__name__}(): the first argument binds as both "
                            f"{stream!r} (run now) and {first!r} (a stage for |); pass iter(...) or use keywords")
        if runs:
            return self._build(head, args[1:], kwargs)
        if stage:
            return _BoundStage(self, args, kwargs)
        raise TypeError(f"{self.__name__}() arguments bind neither after a stream passed first nor as a stage for |")

    def __ror__(self, upstream):
        return self._build(upstream, (), {})

    def __repr__(self) -> str:
        return f"<pipeable {self.__name__}>"


def pipeable(func):
    """Make a stream-first function usable after ``|`` with bound args.

    ``func`` (or the function a ``functools.wraps`` wrapper wraps) may
    have positional-or-keyword parameters only; one with ``*args``,
    ``**kwargs``, keyword-only or positional-only parameters raises
    TypeError here, since the call-shape dispatch reads the parameter
    names and defaults alone.
    """
    return _Pipeable(func)


def check_callable(value, what: str) -> None:
    """Raise TypeError naming ``what`` unless ``value`` is callable; stages call it before claiming upstream."""
    if not callable(value):
        raise TypeError(f"{what} must be callable, got {type(value).__name__}")


def check_count(value, what: str, minimum: int = 1) -> None:
    """Raise ValueError naming ``what`` unless ``value`` is an int of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{what} must be an integer >= {minimum}, got {value!r}")


def field_list(names) -> list[str]:
    """One field name or a sequence of them, as a list of checked names."""
    wanted = [names] if isinstance(names, str) else list(names)
    for name in wanted:
        check_name(name)
    return wanted


def reader(names):
    """Record -> value for one name, or record -> list of values for a sequence of names."""
    wanted = field_list(names)
    if isinstance(names, str):
        return lambda r: r.get_field(names)
    return lambda r: [r.get_field(n) for n in wanted]


def chunks(it: Iterator, n: int) -> Iterator[list]:
    """Lists of ``n`` consecutive items; the last may be shorter, and nothing is pulled after it."""
    while True:
        chunk = list(islice(it, n))
        if chunk:
            yield chunk
        if len(chunk) < n:
            return


@pipeable
def pipe(s, stage) -> Datastream:
    """Apply one stream transformer; the explicit spelling of ``s | stage``."""
    check_callable(stage, "stage")
    return _run_stage(ensure_stream(s), stage)


@pipeable
def as_field(s, name: str) -> Datastream:
    """Lift a stream of plain values into single-field eager records."""
    check_name(name)
    it = claim_iter(s)
    # a cell goes through set_field, which unwraps an EAGER one; any other value is stored bare, as set_field would
    return Datastream(Record().set_field(name, v) if type(v) is FieldCell else Record._adopt({name: v}) for v in it)


@pipeable
def select_field(s, names) -> Datastream:
    """Project records back to plain values.

    A single name yields that field's forced values; a sequence of
    names yields one list per record, in the given order. A record
    lacking a requested field fails at its own position in the stream.
    """
    read = reader(names)
    it = claim_iter(s)
    return Datastream(map(read, it))


@pipeable
def as_list(s) -> list:
    """Materialize a finite stream, preserving order."""
    return list(claim_iter(s))


@pipeable
def take(s, n: int) -> Datastream:
    """At most ``n`` elements, pulling upstream exactly min(n, len) times."""
    check_count(n, "take count", minimum=0)
    return Datastream(islice(claim_iter(s), n))


@pipeable
def fold(s, field: str, init: Value, f) -> Value:
    """Left-fold the forced values of one field; ``init`` on an empty stream."""
    check_name(field)
    check_callable(f, "fold function")
    acc = init
    for r in claim_iter(s):
        acc = f(acc, r.get_field(field))
    return acc


@pipeable
def count(s) -> int:
    """Number of elements in a finite stream; forces no fields."""
    return sum(1 for _ in claim_iter(s))
