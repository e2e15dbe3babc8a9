"""fieldstream benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload classify_epochs --seed 1 --seconds 20 --trace 0

Run it from the repository root. It writes the workload's inputs,
generated from the seed, into a scratch directory under ``.bench_tmp/``,
runs the workload in a child process (``worker.py``) that imports
fieldstream from ``src/``, and deletes the inputs again. It prints each
metric with its unit and sample count, the machine it ran on, and as
its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones of a
traced run, whose spans go to ``.bench_out/<workload>.spans.jsonl``.
``BENCHMARK.json`` at the repository root lists the workloads and
metrics; ``metrics.py`` says which end-to-end metric each layer moves.

Times are the thread CPU time of the calls into fieldstream, scaled to
a reference machine speed that a calibration kernel, timed between the
items, measures; each printed line also gives the figure as timed
("unscaled"). ``worker.py`` explains why: on a shared VM the speed
drifts by up to half between runs. ``python3 bench/selfcheck.py``
checks the benchmark itself. To run every workload::

    for w in classify_epochs cache_features cli_convert cli_window; do
        python3 bench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

from inputs import SIZES, make_inputs
from metrics import END_TO_END, PER_LAYER, UNITS, WORKLOADS

TARGETS = {name: target for name, _unit, _better, target in PER_LAYER}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER_TIMEOUT_S = 170

NOTES = {
    "classify_epochs": "item = one batch of 32; records = training records in batches after the first; "
    "setup = scan, split, stratify, summary, load, partition and shuffle up to the first batch",
    "cache_features": "item = one record of a warm pass; setup = the cold fill; cache files are on the "
    "local disk and warm reads are page-cache reads (the page cache is not dropped)",
    "cli_convert": "item = one run_cli convert call; records = CSV rows; setup = importing fieldstream "
    "in a fresh interpreter",
    "cli_window": "item = one run_cli window call; records = input JSONL rows; setup = importing "
    "fieldstream in a fresh interpreter",
}


def machine_facts() -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
    }


def _print_report(args, result: dict) -> None:
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print(f"# {NOTES[args.workload]}")
    for name, info in result["metrics"].items():
        extra = ", ".join(f"{k}={v:.6g}" for k, v in info.items() if k not in ("value", "n"))
        line = f"{name:34s} {info['value']:14.6g} {UNITS[name]:10s} n={info['n']}"
        if name == "item_p50_us" and info["n"] < 1000:
            extra = (extra + ", " if extra else "") + "fewer than 10 samples above p99"
        if name in TARGETS:
            extra = (extra + "; " if extra else "") + f"moves {TARGETS[name]}"
        print(line + (f"  ({extra})" if extra else ""))
    if "kernel_ms" in result:
        print(f"# speed: the calibration kernel took {result['kernel_ms']:.4g} ms (median), times are scaled "
              f"to its reference {result['kernel_ref_ms']:g} ms; 'unscaled' is as timed")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'error_ratio':34s} {failed / attempted:14.6g} {'ratio':10s} ({failed} failed of {attempted} attempted)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one fieldstream benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured part of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full", help="input size; tiny is for selfcheck.py")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "fieldstream", "__init__.py")):
        print(f"error: {ROOT}/src/fieldstream not found; the benchmark measures that copy", file=sys.stderr)
        return 2
    machine = machine_facts()
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        manifest = make_inputs(args.workload, work, args.seed, args.size)
        manifest_path = os.path.join(work, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload,
            "--manifest", manifest_path,
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--spans", os.path.join(ROOT, ".bench_out", f"{args.workload}.spans.jsonl"),
        ]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.splitlines()[-1])

    expected = [name for name, *_ in (PER_LAYER if args.trace else END_TO_END)]
    if list(result["metrics"]) != expected:
        print("error: the worker's metrics differ from those metrics.py declares", file=sys.stderr)
        return 1
    print(f"# machine {json.dumps(machine)}")
    _print_report(args, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name]["value"], "unit": UNITS[name]} for name in expected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
