"""Spans and counters taken around calls into fieldstream, from outside it.

A :class:`Tracer` replaces the library's public functions and methods
with timing wrappers, in every fieldstream module that binds them by
name, and puts a pass-through probe stage after every stage those
functions build, so each pull through a stage is a span. Leaving the
``with`` block restores the originals; the library's code is never
edited.

Every span has a name, start, end, parent span and run id. A name's
self time is its spans' durations minus the time their child spans
cover. Spans are kept in memory, up to a cap, for the caller to write
out once at the end; self times and counters are aggregated over all
spans, including those past the cap.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN_CAP = 50_000


class Tracer:
    def __init__(self, fs, span_cap: int = SPAN_CAP):
        self.fs = fs
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.span_cap = span_cap
        self.run_id = 0
        self._stack: list[list] = []  # [name, start, child seconds, span id]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, perf_counter(), 0.0, self._next_id])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, name, start, end, parent_id, self.run_id))

    def parent_name(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def timed(self, name: str, fn, after=None):
        """``fn`` with each call recorded as a span; ``after(result, args)`` runs outside it."""
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def probe(self, name: str, stream):
        """Pass-through stage whose every pull from ``stream`` is a span."""
        it = iter(stream)
        enter, leave = self.enter, self.exit

        def pulls():
            while True:
                enter(name)
                try:
                    x = next(it)
                except StopIteration:
                    return
                finally:
                    leave()
                yield x

        return self.fs.Datastream(pulls())

    def stage(self, name: str, fn, after=None):
        """Like :meth:`timed`, and a returned stream is followed by a probe."""
        Datastream = self.fs.Datastream
        call = self.timed(name, fn, after)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = call(*args, **kwargs)
            return self.probe(name, result) if isinstance(result, Datastream) else result

        return wrapper

    # -- installing the wrappers -------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Rebind every fieldstream module attribute that is ``original``."""
        modules = [m for n, m in sys.modules.items() if n == "fieldstream" or n.startswith("fieldstream.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, replacement)

    def _wrap_stage(self, name: str, obj, after=None) -> None:
        if inspect.isfunction(obj):
            self._replace(obj, self.stage(name, obj, after))
        else:  # a pipeable: wrap the plain function and make it pipeable again
            self._replace(obj, self.fs.pipeable(self.stage(name, obj.__wrapped__, after)))

    def __enter__(self) -> "Tracer":
        fs = self.fs
        counts = self.counts

        def source_bytes(_result, args):
            counts["sources.bytes"] += os.path.getsize(args[0])

        def tree_bytes(_result, args):
            for dirpath, _dirs, files in os.walk(args[0]):
                counts["sources.bytes"] += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)

        def encoded(blob, _args):
            counts["cache.bytes_written"] += len(blob)
            if self.parent_name() == "cache.apply_cached":
                counts["cache.misses"] += 1

        def decoded(_value, args):
            counts["cache.bytes_read"] += len(args[0])
            if self.parent_name() == "cache.apply_cached":
                counts["cache.hits"] += 1

        for name in ("apply", "sliding_window"):
            self._wrap_stage(f"combinators.{name}", getattr(fs.combinators, name))
        for name in ("datasplit", "stratify_sample_tt", "summary", "make_train_test_split", "infshuffle", "as_batch"):
            self._wrap_stage(f"mlprep.{name}", getattr(fs.mlprep, name))
        self._wrap_stage("cache.apply_cached", fs.cache.apply_cached)
        self._wrap_stage("sources.get_datastream", fs.sources.get_datastream, tree_bytes)
        self._wrap_stage("sources.csvsource", fs.sources.csvsource, source_bytes)
        self._wrap_stage("sources.jsonstream", fs.sources.jsonstream, source_bytes)
        self._replace(fs.cache.encode_value, self.timed("cache.encode_value", fs.cache.encode_value, encoded))
        self._replace(fs.cache.decode_value, self.timed("cache.decode_value", fs.cache.decode_value, decoded))
        for name in ("to_jsonable", "from_jsonable"):
            fn = getattr(fs.cache, name)
            self._replace(fn, self.timed(f"cache.{name}", fn))
        self._replace(fs.cli.run_cli, self._run_cli(fs.cli.run_cli))

        Record, Tensor = fs.Record, fs.Tensor
        self._patch(Record, "get_field", self.timed("record.get", Record.get_field))
        self._patch(Record, "set_field", self.timed("record.set", Record.set_field))
        self._patch(Tensor, "stack", staticmethod(self.timed("tensor.stack", Tensor.stack)))

        def elements(_result, args):
            counts["tensor.elements"] += args[0].size

        self._patch(Tensor, "__init__", self.timed("tensor.init", Tensor.__init__, elements))
        return self

    def _run_cli(self, run_cli):
        enter, leave, counts = self.enter, self.exit, self.counts

        @functools.wraps(run_cli)
        def wrapper(argv):
            argv = list(argv)
            enter(f"cli.{argv[0]}")
            try:
                code = run_cli(argv)
            finally:
                leave()
            if "--out" in argv:
                counts["cli.bytes_written"] += os.path.getsize(argv[argv.index("--out") + 1])
            return code

        return wrapper

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
