"""Metric definitions and summary statistics shared by the benchmark.

The tables here are the single source of the metric names, units and
directions that ``BENCHMARK.json`` declares; ``selfcheck.py`` asserts
that the two agree. Each per-layer metric names the end-to-end metric
it should move and on which workload, so a change to one layer can be
traced to the number a user sees.
"""

from __future__ import annotations

WORKLOADS = ("classify_epochs", "cache_features", "cli_convert", "cli_window")

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("records_per_s", "1/s", "higher", 0.15),
    ("item_p50_us", "us", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Per delivered record unless the unit says otherwise.
_SETUP = "setup_s on classify_epochs"
_RATE_CLASSIFY = "records_per_s on classify_epochs"
_CONVERT = "records_per_s on cli_convert"
_WINDOW = "records_per_s on cli_window"
_WARM = "records_per_s on cache_features"
_COLD = "setup_s on cache_features"

# name, unit, better, the end-to-end metric it should move
PER_LAYER = (
    ("record.get_calls", "count/rec", "lower", f"{_CONVERT}; {_RATE_CLASSIFY}"),
    ("record.get_us", "us/rec", "lower", f"{_CONVERT}; {_RATE_CLASSIFY}"),
    ("record.set_calls", "count/rec", "lower", f"{_CONVERT}; {_RATE_CLASSIFY}"),
    ("record.set_us", "us/rec", "lower", f"{_CONVERT}; {_RATE_CLASSIFY}"),
    ("record.forces_per_pull", "count/rec", "lower", f"{_RATE_CLASSIFY} (pinned at exactly 1)"),
    ("stream.floor_us", "us/rec", "lower", "none: the raw-generator floor the overhead is read against"),
    ("stream.overhead_us", "us/rec", "lower", "records_per_s on every workload"),
    ("user.fn_us", "us/rec", "lower", "none: the benchmark's own load, augment and f functions"),
    ("combinators.apply.us", "us/rec", "lower", f"{_RATE_CLASSIFY}; {_WINDOW}"),
    ("combinators.sliding_window.us", "us/rec", "lower", _WINDOW),
    ("tensor.init_calls", "count/rec", "lower", f"item_p50_us on classify_epochs; {_WINDOW}; {_WARM}"),
    ("tensor.init_us", "us/rec", "lower", f"item_p50_us on classify_epochs; {_WINDOW}; {_WARM}"),
    ("tensor.elements_checked", "count/rec", "lower", f"item_p50_us on classify_epochs; {_WINDOW}; {_WARM}"),
    ("tensor.stack_calls", "count/rec", "lower", f"item_p50_us on classify_epochs; {_WINDOW}"),
    ("tensor.stack_us", "us/rec", "lower", f"item_p50_us on classify_epochs; {_WINDOW}"),
    ("mlprep.datasplit.us", "us/rec", "lower", _SETUP),
    ("mlprep.stratify_sample_tt.us", "us/rec", "lower", _SETUP),
    ("mlprep.summary.us", "us/rec", "lower", _SETUP),
    ("mlprep.make_train_test_split.us", "us/rec", "lower", _SETUP),
    ("mlprep.infshuffle.us", "us/rec", "lower", f"{_RATE_CLASSIFY}; the p99 printed beside item_p50_us on classify_epochs"),
    ("mlprep.as_batch.us", "us/rec", "lower", "item_p50_us on classify_epochs"),
    ("cache.apply_cached.us", "us/rec", "lower", f"{_COLD}; {_WARM}"),
    ("cache.encode_us", "us/rec", "lower", _COLD),
    ("cache.decode_us", "us/rec", "lower", _WARM),
    ("cache.hits", "count", "higher", _WARM),
    ("cache.misses", "count", "lower", _COLD),
    ("cache.hit_ratio", "ratio", "higher", _WARM),
    ("cache.bytes_written", "B/rec", "lower", _COLD),
    ("cache.bytes_read", "B/rec", "lower", _WARM),
    ("cache.to_jsonable_us", "us/rec", "lower", f"{_CONVERT}; {_WINDOW}; {_COLD}"),
    ("cache.from_jsonable_us", "us/rec", "lower", f"{_WINDOW}; {_WARM}"),
    ("sources.get_datastream.us", "us/rec", "lower", _SETUP),
    ("sources.csvsource.us", "us/rec", "lower", _CONVERT),
    ("sources.jsonstream.us", "us/rec", "lower", _WINDOW),
    ("sources.bytes_read", "B/rec", "lower", f"{_SETUP}; {_CONVERT}"),
    ("cli.convert.us", "us/rec", "lower", _CONVERT),
    ("cli.window.us", "us/rec", "lower", _WINDOW),
    ("cli.bytes_written", "B/rec", "lower", f"{_CONVERT}; {_WINDOW}"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced time of the same unit of work"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def percentile(values, q: float) -> float:
    """Linearly interpolated q-quantile, 0 <= q <= 1, of a non-empty sample."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)
