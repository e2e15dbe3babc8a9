"""Self-check of the benchmark itself, at a tiny input size.

    python3 bench/selfcheck.py

From the repository root. It checks that BENCHMARK.json declares the
workloads and metrics that metrics.py defines; runs every workload
untraced and traced at the tiny size and checks that each run is
correct and reports every declared metric with its unit; feeds every
reference check a deliberately perturbed output and checks that the
check rejects it; and checks that run.py fails, printing no result,
in a copy of the benchmark without the library. Takes about a minute.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import metrics  # noqa: E402
import worker  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_declaration() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expect(bench["command"] == ["python3", "bench/run.py"], "BENCHMARK.json command runs bench/run.py")
    expect([w["name"] for w in bench["workloads"]] == list(metrics.WORKLOADS), "BENCHMARK.json workloads")
    expect(
        [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == list(metrics.END_TO_END),
        "BENCHMARK.json end-to-end metrics",
    )
    expect(
        [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [m[:3] for m in metrics.PER_LAYER],
        "BENCHMARK.json per-layer metrics",
    )


def check_runs() -> None:
    for workload in metrics.WORKLOADS:
        for trace, declared in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
            what = f"{workload} trace={trace}"
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            if proc.returncode != 0:
                expect(False, f"{what} exits 0: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{what} result keys")
            expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, f"{what} is correct")
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            expect(got == {name: unit for name, unit, *_ in declared}, f"{what} reports every metric with its unit")
            values = [m["value"] for m in result["metrics"].values()]
            numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in values)
            expect(numbers, f"{what} values are finite numbers")
            if trace == 0:
                expect(all(v > 0 for v in values), f"{what} end-to-end values are above 0")


def _nudge(x: float) -> float:
    return math.nextafter(x, math.inf)


def check_perturbations(fs, tmp: str) -> None:
    def manifest(workload: str) -> dict:
        root = tempfile.mkdtemp(dir=tmp)
        return inputs.make_inputs(workload, root, 11, "tiny")

    m = manifest("classify_epochs")

    def classify():
        wl = worker.ClassifyEpochs(fs, m)
        wl.reset()
        wl.setup()
        return wl

    wl = classify()
    wl.sink = io.StringIO(wl.sink.getvalue() + "owl\ttrain\t1\n")
    expect(not wl.check_setup(), "classify rejects a summary table with an extra row")

    def epoch_rejects(perturb) -> bool:
        wl = classify()
        wl.check_setup()
        _, batch = wl.pull()
        oks = [wl.accept(perturb(batch))[1]]
        while wl.epochs < 2:
            oks.append(wl.accept(wl.pull()[1])[1])
        return not all(oks)

    def feature_nudged(b):
        f = b.features["augmented"]
        return fs.Batch(features={"augmented": fs.Tensor(f.shape, (_nudge(f.data[0]),) + f.data[1:])}, labels=b.labels, size=b.size)

    def label_moved(b):
        labels = b.labels.data
        moved = ((labels[0] + 1) % len(inputs.CLASSES),) + labels[1:]
        return fs.Batch(features=b.features, labels=fs.Tensor(b.labels.shape, moved), size=b.size)

    expect(epoch_rejects(feature_nudged), "classify rejects an epoch with one feature value off by one ulp")
    expect(epoch_rejects(label_moved), "classify rejects an epoch with one label changed")
    wl = classify()
    wl.check_setup()
    wl.accept(wl.pull()[1])
    wl.train[0].get_field("augmented")  # one force more than records delivered
    expect(not wl.finish()[0], "classify rejects forces_per_pull != 1")

    wl = worker.CacheFeatures(fs, manifest("cache_features"))
    wl.reset()
    wl.setup()
    expect(wl.check_setup(), "cache accepts its cold fill")
    value = wl.pull()[1]
    expect(not wl.accept(fs.Tensor(value.shape, (_nudge(value.data[0]),) + value.data[1:]))[1],
           "cache rejects a warm value off by one ulp")
    wl.f(wl.keys[0])  # one call of f more than there were misses
    expect(not wl.finish()[0], "cache rejects a miss in a warm pass")
    wl.close()

    wl = worker.CliConvert(fs, manifest("cli_convert"))
    item = wl.pull()[1]
    expect(wl.accept(item)[1], "convert accepts its output")
    with open(wl.out, encoding="utf-8") as fh:
        text = fh.read()
    with open(wl.out, "w", encoding="utf-8") as fh:
        fh.write(text.replace('"tag": "', '"tag": "9', 1))
    expect(not wl.accept(item)[1], "convert rejects output with one cell changed")

    wl = worker.CliWindow(fs, manifest("cli_window"))
    item = wl.pull()[1]
    expect(wl.accept(item)[1], "window accepts its output")
    with open(wl.out, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    rows[-1]["y"]["data"][-1] = _nudge(rows[-1]["y"]["data"][-1])
    with open(wl.out, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in rows)
    expect(not wl.accept(item)[1], "window rejects output with one value off by one ulp")


def check_without_library(tmp: str) -> None:
    bare = os.path.join(tmp, "bare")
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "classify_epochs", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(), "run.py fails and prints no result without src/fieldstream")


def main() -> int:
    check_declaration()
    check_runs()
    fs = worker.import_library()
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        check_perturbations(fs, tmp)
        check_without_library(tmp)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
