"""Seeded inputs and plain-Python reference results for each workload.

Everything here depends only on the seed and the size preset, and
nothing imports fieldstream, so the references are independent of the
code under test. ``make_inputs`` writes the input files into a fresh
directory and returns a JSON-able manifest: where the inputs are, plus
the reference results the worker checks its outputs against.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import struct
from array import array
from collections import Counter

SIZES = {
    "full": {
        "classify_files": 3000,
        "cache_keys": 1500,
        "convert_files": 20,
        "convert_rows": 1000,
        "window_files": 12,
        "window_rows": 24,
    },
    "tiny": {
        "classify_files": 90,
        "cache_keys": 40,
        "convert_files": 2,
        "convert_rows": 50,
        "window_files": 2,
        "window_rows": 20,
    },
}

# classify_epochs: imbalanced classes, names in sorted order so class_no
# follows get_datastream's numbering.
CLASSES = (("cat", 0.45), ("dog", 0.35), ("owl", 0.20))
IMAGE_EXT = ".f64"
IMAGE_DIM = 64
TEST_FRACTION = 0.2
BATCH_SIZE = 32
# The augment stage computes v * AUG_SCALE + AUG_SHIFT. Image values are
# multiples of 1/256 in [-2, 2], so every augmented value and every sum
# of them is exact and the epoch checks can compare floats with ==.
AUG_SCALE = 0.5
AUG_SHIFT = 0.25

# cache_features: one 256-d tensor per key; values that stress the exact
# round trip are scattered among the uniform draws.
CACHE_DIM = 256
KEY_WORDS = ("alpha", "beta", "délta", "ε", "zeta", "eta")
SPECIAL_FLOATS = (-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3, -123456789.0)

# cli_convert: text-only CSV, some cells quoted because of commas or quotes.
CSV_HEADER = ("id", "name", "city", "note", "tag")
NAMES = ("ada", "bo", "chen", "dara", "émile", "farah")
CITIES = ("Berlin", "Zürich", "São Paulo", "Oslo", "Lagos")
NOTES = ("plain", "tea, not coffee", 'said "hi", left', "a,b,c", "", "several plain words")

# cli_window: two 64-d tensor fields per row, windows of 16.
WINDOW_SIZE = 16
WINDOW_DIM = 64


def jsonl_digest(objs) -> str:
    """Digest of objects serialized one JSON text per line, as the CLI writes them."""
    h = hashlib.sha256()
    for obj in objs:
        h.update(json.dumps(obj, ensure_ascii=False).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def rows_hash(rows) -> int:
    """Order-independent digest of a multiset of float tuples."""
    return sum(hash(row) for row in rows) % 2**64


def _classify(root: str, seed: int, size: dict) -> dict:
    rng = random.Random(seed)
    n = size["classify_files"]
    tree = os.path.join(root, "tree")
    records = []  # (class_no, class_name, values) in get_datastream's order
    for class_no, (name, share) in enumerate(CLASSES):
        directory = os.path.join(tree, name)
        os.makedirs(directory)
        for i in range(round(n * share)):
            values = [rng.randint(-512, 512) / 256 for _ in range(IMAGE_DIM)]
            with open(os.path.join(directory, f"{name}-{i:05d}{IMAGE_EXT}"), "wb") as fh:
                fh.write(struct.pack(f"<{IMAGE_DIM}d", *values))
            records.append((class_no, name, values))

    # datasplit(p, seed): one draw per record in arrival order, test if u < p.
    draws = random.Random(seed)
    splits = ["test" if draws.random() < TEST_FRACTION else "train" for _ in records]
    # stratify_sample_tt: inside each split keep the first m records of
    # every class present, m being the smallest such class's count.
    kept = []
    for split in ("test", "train"):
        by_class: dict[int, list[int]] = {}
        for i, s in enumerate(splits):
            if s == split:
                by_class.setdefault(records[i][0], []).append(i)
        if by_class:
            m = min(len(v) for v in by_class.values())
            for indices in by_class.values():
                kept.extend(indices[:m])
    table = Counter((records[i][1], splits[i]) for i in kept)
    summary = "class\tsplit\tcount\n" + "".join(
        f"{cls}\t{split}\t{count}\n" for (cls, split), count in sorted(table.items())
    )
    train = [i for i in kept if splits[i] == "train"]
    return {
        "data_dir": tree,
        "seed": seed,
        "summary": summary,
        "train_size": len(train),
        "test_size": len(kept) - len(train),
        "train_labels": {str(k): v for k, v in sorted(Counter(records[i][0] for i in train).items())},
        "train_fsum": math.fsum(v * AUG_SCALE + AUG_SHIFT for i in train for v in records[i][2]),
        "train_rows_hash": rows_hash(tuple(v * AUG_SCALE + AUG_SHIFT for v in records[i][2]) for i in train),
    }


def _cache(root: str, seed: int, size: dict) -> dict:
    rng = random.Random(seed)
    n = size["cache_keys"]
    keys = [
        f"item {i:05d}/{rng.choice(KEY_WORDS)}" if i % 3 else f"item-{i:05d}-{rng.choice(KEY_WORDS)}"
        for i in range(n)
    ]
    values = array("d", (rng.uniform(-1e3, 1e3) for _ in range(n * CACHE_DIM)))
    for j, v in enumerate(SPECIAL_FLOATS):
        values[(j * (CACHE_DIM + 7)) % len(values)] = v
    keys_path = os.path.join(root, "keys.json")
    values_path = os.path.join(root, "values.f64")
    with open(keys_path, "w", encoding="utf-8") as fh:
        json.dump(keys, fh, ensure_ascii=False)
    with open(values_path, "wb") as fh:
        values.tofile(fh)
    return {"keys": keys_path, "values": values_path, "dim": CACHE_DIM, "cache_root": os.path.join(root, "caches")}


def _convert(root: str, seed: int, size: dict) -> dict:
    rng = random.Random(seed)
    files = []
    for k in range(size["convert_files"]):
        rows = [
            [f"{k:02d}-{i:05d}", rng.choice(NAMES), rng.choice(CITIES), rng.choice(NOTES), str(rng.randint(0, 99))]
            for i in range(size["convert_rows"])
        ]
        path = os.path.join(root, f"rows{k:02d}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            writer.writerows(rows)
        digest = jsonl_digest(dict(zip(CSV_HEADER, row)) for row in rows)
        files.append({"path": path, "rows": len(rows), "digest": digest})
    return {"files": files, "out": os.path.join(root, "out.jsonl")}


def _tensor_obj(data: list) -> dict:
    return {"t": "tensor", "shape": [len(data)], "data": data}


def _window(root: str, seed: int, size: dict) -> dict:
    rng = random.Random(seed)
    files = []
    for k in range(size["window_files"]):
        rows = []
        for i in range(size["window_rows"]):
            x = [rng.uniform(-1.0, 1.0) for _ in range(WINDOW_DIM)]
            y = [rng.uniform(-1.0, 1.0) for _ in range(WINDOW_DIM)]
            rows.append({"id": i, "x": _tensor_obj(x), "y": _tensor_obj(y), "label": rng.randint(0, 9)})
        path = os.path.join(root, f"rows{k:02d}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        expected = []
        for j in range(len(rows) - WINDOW_SIZE + 1):
            window = rows[j:j + WINDOW_SIZE]
            out = dict(window[-1])
            for name in ("x", "y"):
                out[name] = {
                    "t": "tensor",
                    "shape": [WINDOW_SIZE, WINDOW_DIM],
                    "data": [v for row in window for v in row[name]["data"]],
                }
            expected.append(out)
        files.append({"path": path, "rows": len(rows), "digest": jsonl_digest(expected)})
    return {"files": files, "out": os.path.join(root, "out.jsonl"), "size": WINDOW_SIZE}


_MAKERS = {
    "classify_epochs": _classify,
    "cache_features": _cache,
    "cli_convert": _convert,
    "cli_window": _window,
}


def make_inputs(workload: str, root: str, seed: int, size: str) -> dict:
    """Write the workload's inputs under ``root`` and return its manifest."""
    return _MAKERS[workload](root, seed, SIZES[size])
