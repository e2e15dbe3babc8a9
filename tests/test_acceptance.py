"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every tolerance is pinned here; nothing is calibrated
elsewhere.
"""

import io
import json
import os
import random
import struct
from collections import Counter
from itertools import islice

import pytest

from fieldstream import (
    CacheCorrupt,
    EvalStrategy,
    FieldCell,
    MissingField,
    Record,
    SplitLabel,
    Tensor,
    apply,
    apply_batch,
    apply_cached,
    as_batch,
    as_field,
    as_list,
    bind_field,
    check_associativity,
    check_left_identity,
    check_right_identity,
    datasplit,
    datasplit_by_pattern,
    decode_value,
    delay,
    delfield,
    encode_value,
    filter_field,
    get_datastream,
    infshuffle,
    jsonstream,
    make_train_test_split,
    records_equal,
    run_cli,
    scan,
    select_field,
    shard,
    sliding_window,
    stratify_sample,
    stratify_sample_tt,
    summary,
    take,
)
from fieldstream.stream import Datastream

from helpers import (
    CountingSource,
    ds,
    random_kind,
    random_law_record,
    random_record_fn,
    random_scalar_of,
    random_unary_chain,
    random_value,
    recs,
    strict_equal,
)


def ok(n, label):
    print(f"acceptance {n:02d} {label}: PASS")


# 1 ---------------------------------------------------------------------------------

def test_01_monadic_law_suite():
    rng = random.Random(101)
    for _ in range(1000):
        kind = random_kind(rng)
        f = random_record_fn(rng, kind)
        vs = [random_scalar_of(rng, kind) for _ in range(rng.randrange(0, 6))]
        assert check_left_identity(vs, "u", f)

    for _ in range(1000):
        kind = random_kind(rng)
        rows = [random_law_record(rng, "u", kind) for _ in range(rng.randrange(1, 6))]
        assert check_right_identity(rows, "u")

    for _ in range(1000):
        kind = random_kind(rng)
        f, mid = random_unary_chain(rng, kind, 1)
        g, _ = random_unary_chain(rng, mid, rng.randrange(1, 3))
        rows = [
            random_law_record(rng, "u", kind, forbidden=("v", "w"))
            for _ in range(rng.randrange(0, 6))
        ]
        assert check_associativity(rows, "u", "v", "w", f, g)

    for _ in range(500):
        kind = random_kind(rng)
        g, _ = random_unary_chain(rng, kind, rng.randrange(1, 3))
        rows = [
            random_law_record(rng, "u", kind, forbidden=("v",))
            for _ in range(rng.randrange(0, 8))
        ]
        via_apply = as_list(apply(Datastream(r.clone() for r in rows), "u", "v", g))
        via_bind = as_list(
            bind_field(Datastream(r.clone() for r in rows), "u", lambda x: Record(u=x, v=g(x)))
        )
        assert len(via_apply) == len(via_bind)
        assert all(records_equal(a, b) for a, b in zip(via_apply, via_bind))

    ok(1, "monadic law suite (3x1000 cases, 500 apply/bind streams)")


# 2 ---------------------------------------------------------------------------------

def test_02_evaluation_strategy_semantics():
    lazy = Record(x=2)
    lazy.set_field("y", FieldCell(EvalStrategy.LAZY_MEMOIZED, thunk=lambda r: r.get_field("x") + 1))
    for _ in range(10):
        assert lazy.get_field("y") == 3
    assert lazy.cell("y").eval_count <= 1

    on_demand = Record(x=2)
    on_demand.set_field("y", FieldCell(EvalStrategy.ON_DEMAND, thunk=lambda r: r.get_field("x") + 1))
    for gets in range(1, 11):
        on_demand.get_field("y")
        assert on_demand.cell("y").eval_count == gets

    eager = Record(x=2)
    for _ in range(10):
        eager.get_field("x")
    assert eager.cell("x").eval_count == 0

    # strategy invisibility: random apply chains, eager vs lazy-memoized
    rng = random.Random(202)
    for _ in range(100):
        kind = random_kind(rng)
        n = rng.randrange(0, 12)
        base = [random_scalar_of(rng, kind) for _ in range(n)]
        chain = []
        cur_kind, cur_field = kind, "f0"
        for i in range(rng.randrange(1, 5)):
            fn, cur_kind = random_unary_chain(rng, cur_kind, 1)
            chain.append((cur_field, f"f{i + 1}", fn))
            cur_field = f"f{i + 1}"

        def run(strategy):
            stream = as_field(list(base), "f0")
            for src, dst, fn in chain:
                stream = apply(stream, src, dst, fn, strategy=strategy)
            return [r.to_dict() for r in as_list(stream)]

        assert run(EvalStrategy.EAGER) == run(EvalStrategy.LAZY_MEMOIZED)

    ok(2, "evaluation strategy semantics and pure-f strategy invisibility")


# 3 ---------------------------------------------------------------------------------

def test_03_delfield_hazard():
    lazy = apply(as_field([10], "src"), "src", "dst", lambda v: v * 2,
                 strategy=EvalStrategy.LAZY_MEMOIZED)
    out = as_list(delfield(lazy, "src"))
    with pytest.raises(MissingField) as exc:
        out[0].get_field("dst")
    assert exc.value.name == "src"
    assert "src" in str(exc.value)

    eager = apply(as_field([10], "src"), "src", "dst", lambda v: v * 2)
    out = as_list(delfield(eager, "src"))
    assert out[0].get_field("dst") == 20

    ok(3, "delfield hazard under lazy apply, safe under eager apply")


# 4 ---------------------------------------------------------------------------------

def test_04_laziness_and_pull_counts():
    n = 37
    source = CountingSource(recs([{"x": i} for i in range(n)]))
    stream = (
        source.stream()
        | apply("x", "y", lambda v: v + 1)
        | filter_field("y", lambda v: True)
        | apply("y", "z", lambda v: v * 2)
    )
    assert source.pulls == 0
    assert len(as_list(stream)) == n
    assert source.pulls == n

    for k in (0, 1, 5, 17):
        source = CountingSource(recs([{"x": i} for i in range(n)]))
        three_stage = (
            source.stream()
            | apply("x", "y", lambda v: v + 1)
            | filter_field("y", lambda v: True)
            | apply("y", "z", lambda v: v * 2)
        )
        assert len(as_list(take(three_stage, k))) == k
        assert source.pulls == k

    ok(4, "laziness: 0 pulls before sink, N for as_list, k for take(k)")


# Upstream pulls before each stage's k-th output, one row per stage of the README's
# pull-budget table. take(n) and datasplit writing a new split file are pinned in
# test_stream.py and test_mlprep.py.
BUDGET_ROWS = 12


def loaded_split_file(tmp_path):
    path = tmp_path / "split.json"
    path.write_text(json.dumps({f"f{i:02d}": "train" for i in range(BUDGET_ROWS)}))
    return path


PULL_BUDGETS = {
    "apply": (lambda d: apply("x", "y", lambda v: v + 1), lambda k: k),
    "delay": (lambda d: delay("x", "prev"), lambda k: k),
    "scan": (lambda d: scan("x", "total", 0, lambda a, v: a + v), lambda k: k),
    "delfield": (lambda d: delfield("tag"), lambda k: k),
    "select_field": (lambda d: select_field("x"), lambda k: k),
    "bind_field": (lambda d: bind_field("x", lambda v: Record(y=v)), lambda k: k),
    "apply_cached": (lambda d: apply_cached("x", "sq", lambda v: v * v, d), lambda k: k),
    "datasplit_by_pattern": (lambda d: datasplit_by_pattern("f0"), lambda k: k),
    "datasplit": (lambda d: datasplit(0.5, seed=1), lambda k: k),
    "datasplit-loaded-file": (lambda d: datasplit(0.5, split_file=loaded_split_file(d)), lambda k: k),
    "filter_field": (lambda d: filter_field("x", lambda v: v % 3 == 0), lambda k: 3 * k - 2),
    "apply_batch": (lambda d: apply_batch("x", "y", lambda vs: vs, 5), lambda k: min(-(-k // 5) * 5, BUDGET_ROWS)),
    "as_batch": (lambda d: as_batch("x", "class_no", batch_size=5), lambda k: min(5 * k, BUDGET_ROWS)),
    "sliding_window": (lambda d: sliding_window("x", 4), lambda k: k + 4 - 1),
    "shard": (lambda d: shard(2, 5), lambda k: 2 + 1 + 5 * (k - 1)),
    "infshuffle": (lambda d: infshuffle(seed=1), lambda k: BUDGET_ROWS),
    "stratify_sample": (lambda d: stratify_sample(), lambda k: BUDGET_ROWS),
    "stratify_sample_tt": (lambda d: stratify_sample_tt(), lambda k: BUDGET_ROWS),
    "summary": (lambda d: summary(sink=io.StringIO()), lambda k: BUDGET_ROWS),
}


@pytest.mark.parametrize("stage, budget", PULL_BUDGETS.values(), ids=list(PULL_BUDGETS))
def test_04_every_stage_keeps_its_pull_budget(stage, budget, tmp_path):
    source = CountingSource(recs([
        {"x": i, "class_no": i % 2, "filename": f"f{i:02d}", "tag": "t", "split": "test" if i % 3 == 0 else "train"}
        for i in range(BUDGET_ROWS)
    ]))
    outputs = source.stream() | stage(tmp_path)
    pulls = [source.pulls for _ in islice(outputs, 2 * BUDGET_ROWS)]  # infshuffle never ends
    assert len(pulls) >= 2
    assert pulls == [budget(k) for k in range(1, len(pulls) + 1)]


# 5 ---------------------------------------------------------------------------------

def test_05_sliding_window_against_oracle():
    rng = random.Random(505)
    for _ in range(200):
        n = rng.randrange(0, 51)
        size = rng.randrange(1, 11)
        table = [[rng.uniform(-9, 9) for _ in range(6)] for _ in range(n)]

        rows, cells = [], []
        for i, flat in enumerate(table):
            r = Record(idx=i)
            cell = FieldCell(EvalStrategy.ON_DEMAND, thunk=lambda rr, f=flat: Tensor((2, 3), f))
            r.set_field("f", cell)
            rows.append(r)
            cells.append(cell)

        out = as_list(sliding_window(ds(rows), ["f"], size))

        expected = []
        for j in range(max(0, n - size + 1)):
            flat = [x for k in range(j, j + size) for x in table[k]]
            expected.append(Tensor((size, 2, 3), flat))

        assert [r.get_field("f") for r in out] == expected
        assert [r.get_field("idx") for r in out] == [j + size - 1 for j in range(len(expected))]
        assert all(c.eval_count == 1 for c in cells)

    ok(5, "sliding window matches brute-force oracle; one force per value")


# 6 ---------------------------------------------------------------------------------

def test_06_shard_partition():
    rng = random.Random(606)
    for n in (1, 2, 3, 5):
        for _ in range(10):
            length = rng.randrange(0, 101)
            values = [rng.randrange(1000) for _ in range(length)]
            seen_indices = []
            collected = []
            for k in range(n):
                rows = recs([{"i": i, "v": v} for i, v in enumerate(values)])
                got = as_list(shard(ds(rows), k, n))
                for r in got:
                    i = r.get_field("i")
                    assert i % n == k
                    seen_indices.append(i)
                    collected.append((i, r.get_field("v")))
            assert sorted(seen_indices) == list(range(length))  # disjoint + exhaustive
            collected.sort()
            assert [v for _, v in collected] == values  # order-recoverable

    ok(6, "shard partitions for n in {1,2,3,5}: disjoint, exhaustive, recoverable")


# 7 ---------------------------------------------------------------------------------

def test_07_split_and_stratify(tmp_path):
    rows = recs([{"filename": f"f{i:05d}"} for i in range(10_000)])
    out = as_list(datasplit(ds(rows), 0.2, seed=42))
    frac = sum(1 for r in out if r.get_field("split") == SplitLabel.TEST) / len(out)
    assert 0.18 <= frac <= 0.22, frac

    split_file = tmp_path / "split.json"
    saved = as_list(datasplit(ds(recs([{"filename": f"g{i}"} for i in range(500)])),
                              0.2, seed=7, split_file=split_file))
    loaded = as_list(datasplit(ds(recs([{"filename": f"g{i}"} for i in range(500)])),
                               0.2, seed=999, split_file=split_file))
    assert [r.get_field("split") for r in saved] == [r.get_field("split") for r in loaded]

    layout = [("A", 7), ("B", 3), ("C", 5)]
    rows = recs([
        {"class_no": c, "i": i}
        for i, c in enumerate(c for c, k in layout for _ in range(k))
    ])
    balanced = as_list(stratify_sample(ds(rows)))
    assert Counter(r.get_field("class_no") for r in balanced) == {"A": 3, "B": 3, "C": 3}

    tt_layout = [("A", "train")] * 6 + [("B", "train")] * 2 + [("A", "test")] * 1 + [("B", "test")] * 4
    rows = recs([{"class_no": c, "split": s} for c, s in tt_layout])
    balanced = as_list(stratify_sample_tt(ds(rows)))
    per_split = Counter((r.get_field("split"), r.get_field("class_no")) for r in balanced)
    assert per_split == {("train", "A"): 2, ("train", "B"): 2, ("test", "A"): 1, ("test", "B"): 1}

    ok(7, "datasplit band [0.18,0.22] at p=0.2; save/load exact; stratify to min")


# 8 ---------------------------------------------------------------------------------

def test_08_batching_and_infinite_shuffle():
    rows = recs([
        {"image": Tensor((4, 2), [float(i)] * 8), "class_id": i % 5}
        for i in range(100)
    ])
    batches = as_list(as_batch(ds(rows), "image", "class_id", batch_size=32))
    assert [b.features["image"].shape for b in batches] == [
        (32, 4, 2), (32, 4, 2), (32, 4, 2), (4, 4, 2),
    ]
    flat_labels = [x for b in batches for x in b.labels.data]
    assert flat_labels == [float(i % 5) for i in range(100)]

    n, epochs = 6, 3
    rows = []
    cells = []
    for i in range(n):
        r = Record(v=i, class_id=i)
        cell = FieldCell(EvalStrategy.ON_DEMAND, thunk=lambda rr: float(rr.get_field("v")))
        r.set_field("aug", cell)
        rows.append(r)
        cells.append(cell)

    def emitted(seed):
        out = as_list(take(infshuffle(ds(list(rows)), seed=seed), n * epochs))
        return [r.get_field("v") for r in out]

    first = emitted(3)
    for e in range(epochs):
        assert Counter(first[e * n:(e + 1) * n]) == Counter(range(n))
    assert first == emitted(3)

    # on-demand fields re-evaluate once per epoch occurrence
    stream = take(infshuffle(ds(list(rows)), seed=9), n * epochs)
    for b in as_list(as_batch(stream, "aug", "class_id", batch_size=n)):
        pass
    assert all(c.eval_count == epochs for c in cells)

    ok(8, "batch shapes [32,4,2]x3+[4,4,2], label order, epoch multisets")


# 9 ---------------------------------------------------------------------------------

def test_09_cache(tmp_path):
    calls = []

    def f(v):
        calls.append(v)
        return {"doubled": v * 2}

    def fresh():
        return ds(recs([{"filename": f"k{i}", "x": i} for i in range(8)]))

    cold = as_list(apply_cached(fresh(), "x", "out", f, tmp_path))
    assert len(calls) == 8
    assert len(os.listdir(tmp_path / "out")) == 8
    warm = as_list(apply_cached(fresh(), "x", "out", f, tmp_path))
    assert len(calls) == 8
    assert [r.get_field("out") for r in warm] == [r.get_field("out") for r in cold]

    victim = tmp_path / "out" / "k3.json"
    victim.write_bytes(b'{"v":1,"value"')
    with pytest.raises(CacheCorrupt) as exc:
        as_list(apply_cached(fresh(), "x", "out", f, tmp_path))
    assert "k3.json" in str(exc.value)

    rng = random.Random(909)
    for _ in range(1000):
        v = random_value(rng)
        assert strict_equal(decode_value(encode_value(v)), v)

    ok(9, "cache: cold N / warm 0, corrupt detection, 1000 exact round-trips")


# 10 --------------------------------------------------------------------------------

def build_pet_tree(root, per_class=20):
    for cls in ("cats", "dogs"):
        d = root / cls
        d.mkdir(parents=True, exist_ok=True)
        for i in range(per_class):
            (d / f"{cls[0]}{i:03d}.jpg").write_text("")


def test_10_end_to_end_cats_vs_dogs(tmp_path):
    build_pet_tree(tmp_path)

    def run():
        sink = io.StringIO()
        train, test = (
            get_datastream(tmp_path, ext=".jpg")
            | datasplit(0.2, seed=1234)
            | stratify_sample_tt()
            | summary(sink=sink)
            | apply("class_no", "x2", lambda v: v * 2, strategy=EvalStrategy.ON_DEMAND)
            | make_train_test_split
        )
        return train, test, sink.getvalue()

    train, test, table = run()

    # stratified: within each split, both classes have equal counts
    for part in (train, test):
        by_class = Counter(r.get_field("class_name") for r in part)
        assert by_class["cats"] == by_class["dogs"]
    assert len(train) + len(test) == sum(
        int(line.split("\t")[2]) for line in table.splitlines()[1:]
    )
    assert 0 < len(test) < len(train)

    # the on-demand field recomputes from class_no on every access
    for r in train[:3] + test[:3]:
        assert r.get_field("x2") == r.get_field("class_no") * 2

    # summary cross-tabulates class x split
    head, *rows = table.splitlines()
    assert head == "class\tsplit\tcount"
    assert {tuple(row.split("\t")[:2]) for row in rows} == {
        ("cats", "train"), ("cats", "test"), ("dogs", "train"), ("dogs", "test"),
    }

    train2, test2, table2 = run()
    key = lambda part: [(r.get_field("filename"), r.get_field("split").value) for r in part]
    assert key(train) == key(train2)
    assert key(test) == key(test2)
    assert table == table2

    ok(10, "end-to-end synthetic tree pipeline: consistent, seed-reproducible")


def write_feature_tree(root):
    """Three classes of four 8-float files, the README pipeline's input with files it can load."""
    for class_no, name in enumerate(["cats", "dogs", "owls"]):
        (root / name).mkdir(parents=True)
        for i in range(4):
            (root / name / f"{i}.f64").write_bytes(struct.pack("<8d", *(class_no + i / 8 + j for j in range(8))))


def test_10_readme_pipeline_through_shuffled_batches(tmp_path):
    write_feature_tree(tmp_path)
    forces = []

    def load_image(path):
        with open(path, "rb") as fh:
            return struct.unpack("<8d", fh.read())

    def augment(x):
        forces.append(x)
        return Tensor((len(x),), [v * 0.5 + 1 for v in x])

    train, test = (
        get_datastream(tmp_path, ext=".f64")
        | datasplit(0.25, seed=42)
        | stratify_sample_tt()
        | summary(sink=io.StringIO())
        | apply("filename", "image", load_image)
        | apply("image", "augmented", augment, strategy=EvalStrategy.ON_DEMAND)
        | make_train_test_split
    )
    assert train and not forces  # nothing is augmented before batching
    batches = train | infshuffle(seed=1) | as_batch("augmented", "class_no", batch_size=4)
    got = as_list(batches | take(5))
    assert [b.features["augmented"].shape for b in got] == [(4, 8)] * 5
    assert [b.labels.shape for b in got] == [(4,)] * 5
    labels = [x for b in got for x in b.labels.data]
    assert all(type(x) is float for x in labels) and set(labels) <= {0.0, 1.0, 2.0}
    assert len(forces) == 20  # one augment per emitted record

    ok(10, "README pipeline: 5 shuffled batches of (4, 8), float labels, one augment per emitted record")


# 11 --------------------------------------------------------------------------------

def test_11_cli(tmp_path, capsys):
    csv_text = 'id,name\n1,"a,b"\n2,plain\n3,"q""q"\n'
    src = tmp_path / "in.csv"
    src.write_text(csv_text, encoding="utf-8")
    mid = tmp_path / "mid.jsonl"
    back = tmp_path / "back.csv"
    assert run_cli(["convert", "--in", str(src), "--out", str(mid)]) == 0
    assert run_cli(["convert", "--in", str(mid), "--out", str(back)]) == 0
    assert back.read_text(encoding="utf-8").rstrip("\n") == csv_text.rstrip("\n")

    lines = [json.dumps({"i": i}) for i in range(10)]
    jsrc = tmp_path / "rows.jsonl"
    jsrc.write_text("\n".join(lines) + "\n", encoding="utf-8")
    jout = tmp_path / "sharded.jsonl"
    assert run_cli(["shard", "--in", str(jsrc), "--k", "1", "--n", "3", "--out", str(jout)]) == 0
    lib = [r.to_dict() for r in as_list(shard(jsonstream(jsrc), 1, 3))]
    assert [json.loads(l) for l in jout.read_text().splitlines()] == lib

    build_pet_tree(tmp_path / "pets", per_class=5)
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    args = ["split", "--dir", str(tmp_path / "pets"), "--test", "0.2", "--seed", "42", "--ext", ".jpg"]
    assert run_cli(args + ["--out", str(s1)]) == 0
    assert run_cli(args + ["--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()

    assert run_cli(["summary", "--dir", str(tmp_path / "pets"), "--ext", ".jpg"]) == 0
    cli_table = capsys.readouterr().out
    sink = io.StringIO()
    as_list(get_datastream(tmp_path / "pets", ext=".jpg") | summary(sink=sink))
    assert cli_table == sink.getvalue()

    assert run_cli(["definitely-not-a-command"]) == 1
    assert run_cli(["shard", "--in", str(tmp_path / "nope.jsonl"), "--k", "0", "--n", "1",
                    "--out", str(tmp_path / "x.jsonl")]) == 2

    ok(11, "CLI round-trip byte-stable; subcommands match library; exit codes")
