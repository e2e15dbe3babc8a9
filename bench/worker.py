"""Runs one workload in a process of its own and reports what it measured.

``run.py`` generates the inputs and starts this file with their
manifest, so the peak resident memory reported is this process's: the
library, the workload's pipeline and its outputs, not the generator.
The load model is a closed loop: one consumer, one thread, the next
element is pulled only after the previous one has arrived.

Every workload has the same steps. ``setup()`` does the one-time work
before steady state and ``pull()`` produces one output element; each
returns the seconds spent in its calls into fieldstream. ``accept()``
and the other checks run outside those timed regions and compare the
outputs with the references in the manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import shutil
import struct
import subprocess
import sys
from array import array
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from statistics import median
from time import perf_counter, thread_time as clock

from inputs import (
    AUG_SCALE,
    AUG_SHIFT,
    BATCH_SIZE,
    IMAGE_DIM,
    IMAGE_EXT,
    TEST_FRACTION,
    jsonl_digest,
    rows_hash,
)
from metrics import percentile
from tracer import SPAN_CAP, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Times the import of fieldstream in a fresh interpreter: a CLI user pays it on every call.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.thread_time()\n"
    "import fieldstream\n"
    "print(time.thread_time() - t)\n"
)


def import_library(root: str = ROOT):
    """Import fieldstream from ``root/src``, refusing any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import fieldstream

    if os.path.dirname(os.path.abspath(fieldstream.__file__)) != os.path.join(src, "fieldstream"):
        raise SystemExit(f"fieldstream was imported from {fieldstream.__file__}, not from {src}")
    return fieldstream


def _unwrapped(fn):
    return fn


class Workload:
    setup_reps = 0  # set-ups per end-to-end run; setup_s is their median
    segment_items = 1  # items per segment; records_per_s is the median segment rate
    unit_items = 1  # items in a unit of work: peak_rss_mb is read after one, a traced run times them
    trace_setup = True  # whether a traced unit includes a set-up
    setup_records = 0  # records a set-up delivers
    forces_per_pull = 0.0

    def reset(self) -> None:
        pass

    def check_setup(self) -> bool:
        return True

    def at_boundary(self) -> bool:
        return True

    def finish(self) -> list[bool]:
        return []

    def close(self) -> None:
        pass


class ClassifyEpochs(Workload):
    """The README pipeline over a class tree, then batches of shuffled epochs."""

    setup_reps = 5
    segment_items = 45  # about one epoch of batches
    unit_items = 90
    setup_records = BATCH_SIZE

    def __init__(self, fs, manifest: dict, user=_unwrapped):
        self.fs, self.m = fs, manifest
        Tensor = fs.Tensor

        def load(path):
            with open(path, "rb") as fh:
                return struct.unpack(f"<{IMAGE_DIM}d", fh.read())

        def augment(x):
            return Tensor((len(x),), [v * AUG_SCALE + AUG_SHIFT for v in x])

        self.load, self.augment = user(load), user(augment)

    def reset(self) -> None:
        # Let the previous set-up's records go before the next set-up runs.
        self.train = self.test = self.batches = self.first = None

    def setup(self) -> float:
        fs, m = self.fs, self.m
        sink = io.StringIO()
        t0 = clock()
        train, test = (
            fs.get_datastream(m["data_dir"], ext=IMAGE_EXT)
            | fs.datasplit(TEST_FRACTION, seed=m["seed"])
            | fs.stratify_sample_tt()
            | fs.summary(sink=sink)
            | fs.apply("filename", "image", self.load)
            | fs.apply("image", "augmented", self.augment, strategy=fs.EvalStrategy.ON_DEMAND)
            | fs.make_train_test_split
        )
        batches = iter(
            train
            | fs.infshuffle(seed=m["seed"])
            | fs.as_batch("augmented", "class_no", batch_size=BATCH_SIZE)
        )
        first = next(batches)
        seconds = clock() - t0
        self.sink, self.train, self.test, self.batches, self.first = sink, train, test, batches, first
        self.delivered = self.epochs = 0
        self.epoch_labels: dict[str, int] = {}
        self.epoch_rows: list[tuple] = []
        return seconds

    def check_setup(self) -> bool:
        m = self.m
        ok = (
            self.sink.getvalue() == m["summary"]
            and len(self.train) == m["train_size"]
            and len(self.test) == m["test_size"]
        )
        return self.accept(self.first)[1] and ok

    def pull(self):
        t0 = clock()
        batch = next(self.batches)
        return clock() - t0, batch

    def accept(self, batch):
        features = batch.features["augmented"]
        ok = (
            batch.size == BATCH_SIZE
            and features.shape == (BATCH_SIZE, IMAGE_DIM)
            and batch.labels.shape == (BATCH_SIZE,)
        )
        data, labels, epoch_size = features.data, batch.labels.data, self.m["train_size"]
        for row in range(batch.size):
            label = str(int(labels[row]))
            self.epoch_labels[label] = self.epoch_labels.get(label, 0) + 1
            self.epoch_rows.append(data[row * IMAGE_DIM:(row + 1) * IMAGE_DIM])
            self.delivered += 1
            if self.delivered % epoch_size == 0:
                ok = self._epoch_ok() and ok
        return batch.size, ok

    def _epoch_ok(self) -> bool:
        """A full epoch holds every training record once: same labels, feature sum and rows."""
        ok = (
            dict(sorted(self.epoch_labels.items())) == self.m["train_labels"]
            and math.fsum(v for row in self.epoch_rows for v in row) == self.m["train_fsum"]
            and rows_hash(self.epoch_rows) == self.m["train_rows_hash"]
        )
        self.epoch_labels, self.epoch_rows = {}, []
        self.epochs += 1
        return ok

    def finish(self) -> list[bool]:
        # Each delivered record forces its ON_DEMAND augment exactly once.
        forces = sum(r.cell("augmented").eval_count for r in self.train)
        self.forces_per_pull = forces / self.delivered
        return [self.forces_per_pull == 1.0, self.epochs >= 1]


class CacheFeatures(Workload):
    """apply_cached of a 256-d tensor per key: one cold fill, then warm passes."""

    setup_reps = 3

    def __init__(self, fs, manifest: dict, user=_unwrapped):
        self.fs, self.m = fs, manifest
        with open(manifest["keys"], encoding="utf-8") as fh:
            self.keys = json.load(fh)
        table = array("d")
        with open(manifest["values"], "rb") as fh:
            table.frombytes(fh.read())
        dim, n = manifest["dim"], len(self.keys)
        self.dim = dim
        self.expected = [self._digest(table[i * dim:(i + 1) * dim]) for i in range(n)]
        index = {key: i for i, key in enumerate(self.keys)}
        self.segment_items = self.setup_records = n  # a segment is one warm pass
        self.unit_items = 2 * n
        self.calls = self.generation = 0
        self.cache_dir = None
        Tensor = fs.Tensor

        def feature(key):
            self.calls += 1
            i = index[key]
            return Tensor((dim,), table[i * dim:(i + 1) * dim])

        self.f = user(feature)

    @staticmethod
    def _digest(values) -> bytes:
        return hashlib.blake2b(array("d", values).tobytes(), digest_size=16).digest()

    def _value_ok(self, i: int, value) -> bool:
        return (
            isinstance(value, self.fs.Tensor)
            and value.shape == (self.dim,)
            and self._digest(value.data) == self.expected[i]
        )

    def _stream(self):
        fs = self.fs
        return iter(
            fs.Datastream(self.keys)
            | fs.as_field("key")
            | fs.apply_cached("key", "feat", self.f, self.cache_dir, key_field="key")
        )

    def reset(self) -> None:
        self.close()
        self.generation += 1
        self.cache_dir = os.path.join(self.m["cache_root"], f"fill{self.generation}")

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir)
            self.cache_dir = None

    def setup(self) -> float:
        self.calls = self.bad = self.pos = 0
        t0 = clock()
        it = self._stream()
        seconds = clock() - t0
        for i in range(len(self.keys)):
            t0 = clock()
            value = next(it).get_field("feat")
            seconds += clock() - t0
            self.bad += not self._value_ok(i, value)
        self.cold_calls = self.calls
        self.it = None
        return seconds

    def check_setup(self) -> bool:
        n = len(self.keys)
        files = os.listdir(os.path.join(self.cache_dir, "feat"))
        return self.bad == 0 and self.cold_calls == n and len(files) == n

    def pull(self):
        t0 = clock()
        if self.it is None:
            self.it = self._stream()
        value = next(self.it).get_field("feat")
        return clock() - t0, value

    def accept(self, value):
        ok = self._value_ok(self.pos % len(self.keys), value)
        self.pos += 1
        if self.at_boundary():
            self.it = None
        return 1, ok

    def at_boundary(self) -> bool:
        return self.pos % len(self.keys) == 0

    def finish(self) -> list[bool]:
        # Warm passes never call f: misses == n, hits == n * passes.
        return [self.calls == self.cold_calls, self.pos >= len(self.keys)]


class CliCommand(Workload):
    """``run_cli`` in-process over the generated files, one invocation per item."""

    setup_reps = 11  # an import takes about 50 ms, so more of them for a steady median
    unit_items = 2
    trace_setup = False

    def __init__(self, fs, manifest: dict, user=_unwrapped):
        self.fs, self.m = fs, manifest
        self.files, self.out = manifest["files"], manifest["out"]
        self.next_file = 0

    def setup(self) -> float:
        """Cold start: importing fieldstream in a fresh interpreter."""
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, os.path.join(ROOT, "src")],
            capture_output=True, text=True, check=True, timeout=60,
        )
        return float(proc.stdout.split()[-1])

    def pull(self):
        f = self.files[self.next_file % len(self.files)]
        self.next_file += 1
        argv = self.argv(f["path"])
        t0 = clock()
        code = self.fs.run_cli(argv)
        return clock() - t0, (f, code)

    def accept(self, item):
        f, code = item
        with open(self.out, encoding="utf-8") as fh:
            digest = jsonl_digest(json.loads(line) for line in fh)
        return f["rows"], code == 0 and digest == f["digest"]


class CliConvert(CliCommand):
    def argv(self, path: str) -> list[str]:
        return ["convert", "--in", path, "--out", self.out]


class CliWindow(CliCommand):
    def argv(self, path: str) -> list[str]:
        return ["window", "--in", path, "--fields", "x,y", "--size", str(self.m["size"]), "--out", self.out]


WORKLOAD_CLASSES = {
    "classify_epochs": ClassifyEpochs,
    "cache_features": CacheFeatures,
    "cli_convert": CliConvert,
    "cli_window": CliWindow,
}


# On a shared 2-core x86 VM (CPython 3.11) the speed drifts by up to
# half, in phases of a second to minutes, as other tenants come and go,
# and a phase can cover a whole run. So end-to-end times are scaled to a
# reference speed. A
# fixed kernel of interpreter work, list allocation and JSON, touching no
# fieldstream code, is timed every CALIBRATE_EVERY_S between items; a
# time t counts as t * KERNEL_REF_S / k, where k is the median kernel
# time within SPEED_WINDOW_S of it. Rates and medians use the scaled
# times. Times are thread CPU time, which leaves out the waits for a CPU
# that other tenants' processes hold; all file I/O here is page-cache
# I/O, so on an idle machine CPU time and wall time agree.
#
# Tails are printed, not gated. Other tenants also slow single items by
# a quarter to a half, at a rate that differs from one period to the
# next: on that VM the p90 of classify_epochs spread by 18% over ten
# runs of the same code, and its median moved by 10% between two sets of
# ten, too much for a bound to tell a change from noise. And the
# kernel does not slow down exactly as the workloads do, so the tails are
# taken from the times as measured, each relative to its neighbourhood:
# the q-quantile printed is the scaled median times the q-quantile of
# t / (median of the TAIL_NEIGHBOURS items on either side and t itself),
# which on a machine of steady speed is the plain quantile.
KERNEL_REF_S = 3.0e-3
CALIBRATE_EVERY_S = 0.1
SPEED_WINDOW_S = 2.0
TAIL_NEIGHBOURS = 10
_KERNEL_ROWS = [{"id": i, "x": [i * 0.01 + j for j in range(16)], "s": "abc"} for i in range(60)]


def _kernel() -> float:
    acc, table = 0.0, {}
    for i in range(600):
        t = tuple([j * 0.5 for j in range(8)])
        table[i & 63] = t
        acc += t[3]
    acc += len(json.loads(json.dumps(_KERNEL_ROWS)))
    return acc + sum([float(i) for i in range(15000)])


def kernel_seconds() -> float:
    """The machine's current speed: the best of three kernel timings."""
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        _kernel()
        best = min(best, clock() - t0)
    return best


class Calibrated:
    """Times, and kernel timings taken around them to scale them by."""

    def __init__(self):
        self._at: list[float] = []
        self._kernel: list[float] = []
        self._times: list[tuple[float, float]] = []  # (when it ended, seconds)
        self.sample()

    def sample(self) -> None:
        self._at.append(perf_counter())
        self._kernel.append(kernel_seconds())

    def add(self, seconds: float) -> None:
        self._times.append((perf_counter(), seconds))

    def tick(self) -> None:
        if perf_counter() - self._at[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def kernel_median(self) -> float:
        return median(self._kernel)

    def results(self) -> tuple[list[float], list[float]]:
        """(times as measured, times scaled to the reference speed)."""
        at, kernel = self._at, self._kernel
        raw, scaled = [], []
        for when, seconds in self._times:
            i = bisect_left(at, when)  # the first sample after the time was taken
            lo = min(bisect_left(at, when - SPEED_WINDOW_S), max(i - 1, 0))
            hi = max(bisect_right(at, when + SPEED_WINDOW_S), min(i + 1, len(at)))
            raw.append(seconds)
            scaled.append(seconds * KERNEL_REF_S / median(kernel[lo:hi]))
        return raw, scaled


def local_quantile(times: list[float], q: float) -> float:
    """q-quantile of each time over the median of the times around it."""
    k = TAIL_NEIGHBOURS
    return percentile([t / median(times[max(0, i - k):i + k + 1]) for i, t in enumerate(times)], q)


def measure(wl: Workload, seconds: float) -> dict:
    """End-to-end run: repeated set-ups, then items until the time is up."""
    attempted = failed = 0
    setups = Calibrated()
    for _ in range(wl.setup_reps):
        wl.reset()
        setups.add(wl.setup())
        setups.sample()
        attempted += 1
        failed += not wl.check_setup()
    items, records = Calibrated(), []
    peak_rss_mb = None
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not wl.at_boundary() or peak_rss_mb is None:
        dt, item = wl.pull()
        items.add(dt)
        n, ok = wl.accept(item)
        records.append(n)
        attempted += 1
        failed += not ok
        items.tick()
        if len(records) == wl.unit_items:
            # After a fixed amount of work, so that the figure does not grow
            # with the number of items timed, which a faster program raises.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    items.sample()
    checks = wl.finish()
    attempted += len(checks)
    failed += checks.count(False)
    wl.close()

    def rates(times):
        seg = wl.segment_items
        return [
            sum(records[i:i + seg]) / sum(times[i:i + seg]) for i in range(0, len(times) - seg + 1, seg)
        ] or [sum(records) / sum(times)]

    raw_items, scaled_items = items.results()
    raw_setups, scaled_setups = setups.results()
    scaled_rates = rates(scaled_items)
    scaled_us = [t * 1e6 for t in scaled_items]
    raw_us = [t * 1e6 for t in raw_items]
    p50_us = percentile(scaled_us, 0.5)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "records_per_s": {
                "value": median(scaled_rates), "n": len(scaled_rates),
                "q1": percentile(scaled_rates, 0.25), "q3": percentile(scaled_rates, 0.75),
                "unscaled": median(rates(raw_items)),
            },
            "item_p50_us": {
                "value": p50_us, "n": len(scaled_us), "unscaled": percentile(raw_us, 0.5),
                "p90": p50_us * local_quantile(raw_us, 0.9), "p99": p50_us * local_quantile(raw_us, 0.99),
            },
            "setup_s": {
                "value": median(scaled_setups), "n": len(scaled_setups),
                "min": min(scaled_setups), "max": max(scaled_setups), "unscaled": median(raw_setups),
            },
            "peak_rss_mb": {"value": peak_rss_mb, "n": 1},
        },
        "kernel_ms": items.kernel_median() * 1e3,
        "kernel_ref_ms": KERNEL_REF_S * 1e3,
    }


def _unit(make, tracer: Tracer | None) -> dict:
    """One fixed unit of work; with a tracer, inside its wrappers."""
    user = _unwrapped if tracer is None else (lambda fn: tracer.timed("user.fn", fn))
    wl = make(user)
    seconds = 0.0
    delivered = attempted = failed = 0
    with tracer if tracer is not None else nullcontext():
        if wl.trace_setup:
            wl.reset()
            seconds += wl.setup()
            delivered += wl.setup_records
        setup_ok = wl.check_setup() if wl.trace_setup else True
        for _ in range(wl.unit_items):
            dt, item = wl.pull()
            n, ok = wl.accept(item)
            seconds += dt
            delivered += n
            attempted += 1
            failed += not ok
    checks = [setup_ok] + wl.finish()
    wl.close()
    return {
        "seconds": seconds,
        "delivered": delivered,
        "attempted": attempted + len(checks),
        "failed": failed + checks.count(False),
        "forces_per_pull": wl.forces_per_pull,
    }


def _floor_us(n: int) -> float:
    """Per-record time of a bare generator of dicts, the floor for stream overhead."""

    def gen():
        for i in range(n):
            yield {"i": i}

    t0 = clock()
    for _ in gen():
        pass
    return (clock() - t0) * 1e6 / n


def _layer_metrics(tr: Tracer, base: dict, traced: dict, floor_us: float) -> dict:
    delivered = traced["delivered"]
    per_us = 1e6 / delivered

    def us(name):
        return tr.self_s.get(name, 0.0) * per_us

    def calls(name):
        return tr.calls.get(name, 0) / delivered

    hits, misses = tr.counts["cache.hits"], tr.counts["cache.misses"]
    user_us = us("user.fn")
    return {
        "record.get_calls": calls("record.get"),
        "record.get_us": us("record.get"),
        "record.set_calls": calls("record.set"),
        "record.set_us": us("record.set"),
        "record.forces_per_pull": traced["forces_per_pull"],
        "stream.floor_us": floor_us,
        "stream.overhead_us": base["seconds"] * 1e6 / base["delivered"] - user_us,
        "user.fn_us": user_us,
        "combinators.apply.us": us("combinators.apply"),
        "combinators.sliding_window.us": us("combinators.sliding_window"),
        "tensor.init_calls": calls("tensor.init"),
        "tensor.init_us": us("tensor.init"),
        "tensor.elements_checked": tr.counts["tensor.elements"] / delivered,
        "tensor.stack_calls": calls("tensor.stack"),
        "tensor.stack_us": us("tensor.stack"),
        "mlprep.datasplit.us": us("mlprep.datasplit"),
        "mlprep.stratify_sample_tt.us": us("mlprep.stratify_sample_tt"),
        "mlprep.summary.us": us("mlprep.summary"),
        "mlprep.make_train_test_split.us": us("mlprep.make_train_test_split"),
        "mlprep.infshuffle.us": us("mlprep.infshuffle"),
        "mlprep.as_batch.us": us("mlprep.as_batch"),
        "cache.apply_cached.us": us("cache.apply_cached"),
        "cache.encode_us": us("cache.encode_value"),
        "cache.decode_us": us("cache.decode_value"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.bytes_written": tr.counts["cache.bytes_written"] / delivered,
        "cache.bytes_read": tr.counts["cache.bytes_read"] / delivered,
        "cache.to_jsonable_us": us("cache.to_jsonable"),
        "cache.from_jsonable_us": us("cache.from_jsonable"),
        "sources.get_datastream.us": us("sources.get_datastream"),
        "sources.csvsource.us": us("sources.csvsource"),
        "sources.jsonstream.us": us("sources.jsonstream"),
        "sources.bytes_read": tr.counts["sources.bytes"] / delivered,
        "cli.convert.us": us("cli.convert"),
        "cli.window.us": us("cli.window"),
        "cli.bytes_written": tr.counts["cli.bytes_written"] / delivered,
        "trace.overhead_ratio": traced["seconds"] / base["seconds"],
    }


def trace(fs, make, seconds: float, spans_path: str) -> dict:
    """Pairs of an untraced and a traced unit until the time is up; medians over pairs."""
    pairs, spans = [], []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while not pairs or perf_counter() < deadline:
        base = _unit(make, None)
        floor_us = median([_floor_us(base["delivered"]) for _ in range(3)])
        tr = Tracer(fs, span_cap=SPAN_CAP - len(spans))
        tr.run_id = len(pairs)
        traced = _unit(make, tr)
        spans.extend(tr.spans)
        pairs.append(_layer_metrics(tr, base, traced, floor_us))
        attempted += base["attempted"] + traced["attempted"]
        failed += base["failed"] + traced["failed"]
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": median([p[name] for p in pairs]), "n": len(pairs)} for name in pairs[0]},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", required=True, help="where a traced run writes its spans")
    args = ap.parse_args(argv)
    fs = import_library()
    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    cls = WORKLOAD_CLASSES[args.workload]

    def make(user):
        return cls(fs, manifest, user)

    if args.trace:
        result = trace(fs, make, args.seconds, args.spans)
    else:
        result = measure(make(_unwrapped), args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
