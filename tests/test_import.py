"""What ``import fieldstream`` loads: each CLI call pays it in a fresh interpreter."""

import os
import subprocess
import sys

import fieldstream

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fieldstream.__file__)))

# Stdlib modules the package once loaded for almost nothing: inspect (with ast, dis and
# tokenize) for Signature.bind, dataclasses and copy for Batch and infshuffle, argparse for the CLI,
# typing for three annotation aliases in record.py.
NOT_AT_IMPORT = ["inspect", "dataclasses", "copy", "argparse", "typing"]

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import fieldstream
print(" ".join(sorted(set(sys.modules) - before)))
code = fieldstream.run_cli(["--help"])
print(code, "argparse" in sys.modules)
"""


def test_import_loads_none_of_the_avoided_modules_and_the_cli_loads_argparse():
    done = subprocess.run([sys.executable, "-S", "-c", PROBE, SRC], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()  # the help text comes between the first line and the last
    loaded, cli = lines[0].split(), lines[-1]
    assert "fieldstream.cli" in loaded
    assert [m for m in NOT_AT_IMPORT if m in loaded] == []
    assert cli == "0 True"
