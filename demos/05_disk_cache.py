#!/usr/bin/env python3
# apply_cached: an eager apply whose per-record results persist on disk.
# Re-running the same pipeline loads the files instead of recomputing, which
# is the difference between minutes and milliseconds for heavy features.

import tempfile
from pathlib import Path

import fieldstream as fs

cache_dir = Path(tempfile.mkdtemp(prefix="cache-"))
invocations = []


def expensive_feature(name):
    invocations.append(name)
    return fs.Tensor((3,), [float(len(name)), 1.0, 2.0])


def pipeline():
    return (
        fs.Datastream(["clip_a.mp4", "clip_b.mp4", "clips/c.mp4"])
        | fs.as_field("filename")
        | fs.apply_cached("filename", "feat", expensive_feature, cache_dir)
        | fs.as_list
    )


cold = pipeline()
print("cold run computed:", len(invocations), "features")

warm = pipeline()
print("warm run computed:", len(invocations) - 3, "new features (loaded from disk)")
print("values identical:", [r["feat"] for r in cold] == [r["feat"] for r in warm])

# One file per (field, key); slashes in keys are percent-encoded. Each file is
# a JSON header line, then the tensor data as little-endian float64 bytes.
for p in sorted((cache_dir / "feat").iterdir()):
    header, data = p.read_bytes().split(b"\n", 1)
    print("cache file:", p.name, "->", header.decode("utf-8"), "+", len(data), "data bytes")
