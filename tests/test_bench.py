"""Smoke test of the benchmark harness on tiny inputs."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def traced_run(workload: str) -> dict:
    """A one-second traced run of ``workload``; checks exit 0, ``correct`` and no failed operation."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", "1", "--size", "tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


def test_traced_classify_epochs_run_is_correct():
    """A one-second traced run of the README pipeline workload.

    The tracer patches ``Record.set_field``, the plain function behind
    each pipeable (``__wrapped__``) and ``Tensor.__init__``; a rename of
    any of them makes this run fail.
    """
    result = traced_run("classify_epochs")
    assert result["metrics"]["record.set_calls"]["value"] > 0


@pytest.mark.parametrize("workload", ["cache_features", "cli_window"])
def test_traced_tensor_workload_run_is_correct(workload):
    """The cache decode and CLI window paths, which build and stack tensors."""
    traced_run(workload)


def test_traced_cli_convert_run_is_correct():
    """The CLI convert path: text rows written through the shared encoder, never the codec walk."""
    result = traced_run("cli_convert")
    assert result["metrics"]["cli.convert.us"]["value"] > 0
    assert result["metrics"]["cache.to_jsonable_us"]["value"] == 0
