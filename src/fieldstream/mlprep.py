"""Train/test splitting, stratification, shuffling and minibatch packing.

Split assignment lives in a per-record ``split`` field holding one of
the labels ``train``, ``valid`` or ``test``. Splits can be drawn at
random (seeded, reproducible), loaded from or saved to a JSON split
file ``{key: label}``, or derived from filename patterns.

Class-count utilities default to the field name ``class_no`` and fall
back to ``class_id`` when only that one is present, since both names
are common for the same thing.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from collections import Counter
from enum import Enum
from functools import partial

from .cache import atomic_write_bytes, key_not_text, parse_json
from .combinators import apply
from .errors import (
    BadPattern,
    BadSplitFile,
    EmptyStream,
    NonNumericLabel,
    ShapeMismatch,
    UnknownSplitLabel,
    UnlistedKey,
)
from .record import Record, check_name
from .stream import Datastream, check_count, chunks, claim_iter, ensure_stream, field_list, pipeable
from .tensor import Tensor, _pinned_tensor, _stacked, to_float

__all__ = [
    "SplitLabel",
    "Batch",
    "datasplit",
    "datasplit_by_pattern",
    "stratify_sample",
    "stratify_sample_tt",
    "summary",
    "make_train_test_split",
    "infshuffle",
    "as_batch",
]

SPLIT_FIELD = "split"


class SplitLabel(str, Enum):
    """Closed set of split labels; members compare equal to their text."""

    TRAIN = "train"
    VALID = "valid"
    TEST = "test"

    __str__, __format__ = str.__str__, str.__format__  # print as the text on every Python, as StrEnum does


class Batch:
    """One minibatch: stacked feature tensors plus a flat label tensor; immutable, equal by value."""

    __slots__ = __match_args__ = ("features", "labels", "size")

    def __init__(self, features: dict[str, Tensor], labels: Tensor, size: int):
        if labels.shape != (size,):
            raise ShapeMismatch(f"labels shape {labels.shape} != ({size},)")
        for name, t in features.items():
            if not t.shape or t.shape[0] != size:
                raise ShapeMismatch(f"feature {name!r} shape {t.shape} has leading dim != {size}")
        for name, value in zip(Batch.__slots__, (features, labels, size)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Batch")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Batch")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.features, self.labels, self.size) == (other.features, other.labels, other.size)

    def __repr__(self) -> str:
        return f"Batch(features={self.features!r}, labels={self.labels!r}, size={self.size!r})"

    def __reduce__(self):  # pickle and copy rebuild through __init__, as __setattr__ refuses
        return Batch, (self.features, self.labels, self.size)


def _normalize_fractions(split_value):
    if isinstance(split_value, (tuple, list)):
        if len(split_value) != 2:
            raise ValueError(f"expected (valid_fraction, test_fraction), got {split_value!r}")
        valid, test = to_float(split_value[0]), to_float(split_value[1])
        if not (0.0 <= valid <= 1.0 and 0.0 <= test <= 1.0 and valid + test <= 1.0):
            raise ValueError(f"fractions must lie in [0, 1] and sum to at most 1: {split_value!r}")
        return valid, test
    p = to_float(split_value)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"test fraction must lie in [0, 1], got {split_value!r}")
    return 0.0, p


def _draw_label(u: float, valid: float, test: float) -> SplitLabel:
    if u < valid:
        return SplitLabel.VALID
    if u < valid + test:
        return SplitLabel.TEST
    return SplitLabel.TRAIN


def _load_split_file(path) -> dict[str, SplitLabel]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise BadSplitFile(f"{path}: malformed JSON: {e}") from None
    data = parse_json(text, BadSplitFile, f"{path}: malformed JSON: ")
    if not isinstance(data, dict):
        raise BadSplitFile(f"{path}: expected a JSON object of key -> label")
    out = {}
    for key, label in data.items():
        try:
            out[key] = SplitLabel(label)
        except ValueError:
            raise BadSplitFile(f"{path}: unknown label {label!r} for key {key!r}") from None
    return out


def _save_split_file(path, records, key_field: str) -> None:
    """Write the ``{key: label}`` table of split-labelled records, atomically.

    A key that is not text raises TypeError, and a key shared by two records BadSplitFile,
    before anything is written: the file could not be read back, or would keep one label.
    """
    plain = {}
    for r in records:
        key = r.get_field(key_field)
        if not isinstance(key, str):
            raise key_not_text("split", key_field, key)
        if key in plain:
            raise BadSplitFile(f"{path}: key {key!r} of field {key_field!r} appears twice; split keys must be unique")
        plain[key] = r.get_field(SPLIT_FIELD).value
    text = json.dumps(plain, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(path, text.encode("utf-8"))


@pipeable
def datasplit(s, split_value, seed: int = 0, split_file=None, key_field: str = "filename") -> Datastream:
    """Give every record an eager ``split`` label.

    A scalar ``split_value`` p marks each record test with probability
    p, train otherwise; a pair ``(valid_fraction, test_fraction)``
    splits three ways. Draws come from a seeded generator in arrival
    order, so the assignment depends only on the seed and position,
    never on field values. With a ``split_file`` path: an existing file is
    loaded when the stage is built (BadSplitFile if malformed) and
    applied by ``key_field``, whose values must be text (a key absent
    from the file raises UnlistedKey); a missing file is computed and then written, so the
    stage reads its whole input before it yields its first record.
    """
    valid, test = _normalize_fractions(split_value)
    check_name(key_field)
    if split_file is not None:
        split_file = os.fspath(split_file)
    stream = ensure_stream(s)
    if split_file is not None and os.path.exists(split_file):
        table = _load_split_file(split_file)

        def listed(key) -> SplitLabel:
            if not isinstance(key, str):
                raise key_not_text("split", key_field, key)
            label = table.get(key)
            if label is None:
                raise UnlistedKey(f"key {key!r} not present in {split_file}")
            return label

        return apply(stream, key_field, SPLIT_FIELD, listed)
    rng = random.Random(seed)
    it = claim_iter(stream)

    def drawn():  # a label reads no field, so the draw is a plain store loop rather than an apply
        for r in it:
            r.set_field(SPLIT_FIELD, _draw_label(rng.random(), valid, test))
            yield r

    if split_file is None:
        return Datastream(drawn())

    def written():
        records = list(drawn())
        _save_split_file(split_file, records, key_field)
        yield from records

    return Datastream(written())


@pipeable
def datasplit_by_pattern(s, test_pattern: str, valid_pattern: str | None = None, key_field: str = "filename") -> Datastream:
    """Assign splits by substring-searching patterns against a key field.

    The test pattern wins over the valid pattern; records matching
    neither are train.
    """
    try:
        test_re = re.compile(test_pattern)
        valid_re = re.compile(valid_pattern) if valid_pattern is not None else None
    except re.error as e:
        raise BadPattern(f"bad pattern: {e}") from None

    def label(key) -> SplitLabel:
        key = str(key)
        if test_re.search(key):
            return SplitLabel.TEST
        if valid_re is not None and valid_re.search(key):
            return SplitLabel.VALID
        return SplitLabel.TRAIN

    return apply(ensure_stream(s), key_field, SPLIT_FIELD, label)


def _resolve_class_field(records, requested: str | None) -> str:
    """Honor an explicit name; otherwise prefer class_no, then class_id."""
    if requested is not None:
        return requested
    if records:
        first = records[0]
        if first.has_field("class_no"):
            return "class_no"
        if first.has_field("class_id"):
            return "class_id"
    return "class_no"


def _stratified(s, class_field: str | None, group) -> Datastream:
    """Within each ``group(record)``, keep the first m records of every class.

    m is the size of the group's smallest class. Kept records are
    emitted in their original relative order.
    """
    if class_field is not None:
        check_name(class_field)
    it = claim_iter(s)

    def gen():
        records = list(it)
        field = _resolve_class_field(records, class_field)
        keys = [(group(r), r.get_field(field)) for r in records]
        quota: dict = {}
        for (g, _), n in Counter(keys).items():
            quota[g] = min(n, quota.get(g, n))
        seen: Counter = Counter()
        for r, key in zip(records, keys):
            seen[key] += 1
            if seen[key] <= quota[key[0]]:
                yield r

    return Datastream(gen())


@pipeable
def stratify_sample(s, class_field: str | None = None) -> Datastream:
    """Downsample so every class keeps the smallest class's count.

    Keeps the first m records of each class in arrival order, m being
    the size of the smallest class, and emits them in the original
    relative order. Materializes the stream. ``class_field`` defaults
    to ``class_no`` (``class_id`` accepted when only it is present).
    """
    return _stratified(s, class_field, lambda r: None)


@pipeable
def stratify_sample_tt(s, class_field: str | None = None, split_field: str = SPLIT_FIELD) -> Datastream:
    """:func:`stratify_sample` applied independently inside each split label."""
    check_name(split_field)
    return _stratified(s, class_field, lambda r: str(r.get_field(split_field)))


@pipeable
def summary(s, class_field: str | None = None, sink=None) -> Datastream:
    """Write a class/split count table, then re-emit the records unchanged.

    A pass-through tap for the middle of a pipeline. Rows are
    ``<class>\\t<split or "-">\\t<count>`` after a ``class\\tsplit\\tcount``
    header, sorted; the split column appears per record when a
    ``split`` field exists. Classes are counted by ``class_field`` but
    labelled with the record's ``class_name`` when it carries one.
    Writes to ``sink`` (default stdout) when the first element is
    pulled.
    """
    if class_field is not None:
        check_name(class_field)
    if sink is not None and not callable(getattr(sink, "write", None)):
        raise TypeError(f"summary sink must be None or have a callable write, got {type(sink).__name__}")
    it = claim_iter(s)

    def gen():
        records = list(it)
        out = sink if sink is not None else sys.stdout
        field = _resolve_class_field(records, class_field)
        counts: Counter = Counter()
        labels: dict = {}
        for r in records:
            key = r.get_field(field)
            if key not in labels:
                labels[key] = (
                    str(r.get_field("class_name")) if r.has_field("class_name") else str(key)
                )
            split = str(r.get_field(SPLIT_FIELD)) if r.has_field(SPLIT_FIELD) else "-"
            counts[(labels[key], split)] += 1
        out.write("class\tsplit\tcount\n")
        for (cls, split), n in sorted(counts.items()):
            out.write(f"{cls}\t{split}\t{n}\n")
        yield from records

    return Datastream(gen())


@pipeable
def make_train_test_split(s, split_field: str = SPLIT_FIELD):
    """Partition a finite stream into (train records, test records).

    Order is preserved within each part. Any label besides train/test,
    including valid, raises UnknownSplitLabel.
    """
    check_name(split_field)
    train: list[Record] = []
    test: list[Record] = []
    for r in claim_iter(s):
        label = r.get_field(split_field)
        if label == SplitLabel.TRAIN:
            train.append(r)
        elif label == SplitLabel.TEST:
            test.append(r)
        else:
            raise UnknownSplitLabel(f"expected train or test, got {label!r}")
    return train, test


@pipeable
def infshuffle(s, seed: int = 0) -> Datastream:
    """Infinite stream of shuffled epochs over a materialized input.

    Each epoch is a fresh seeded permutation of the full input. Every
    emission, in the first epoch too, is a new record sharing the input
    record's cells, so what later stages set or delete never reaches
    the next epoch, memoized fields compute once, and on-demand fields
    recompute once per emission (fresh augmentation every pass).
    """
    rng = random.Random(seed)  # built here, so a bad seed fails before anything is pulled
    it = claim_iter(s)

    def gen():
        records = list(it)
        if not records:
            raise EmptyStream("cannot shuffle an empty stream forever")
        while True:
            rng.shuffle(records)
            for r in records:
                yield r.__copy__()

    return Datastream(gen())


@pipeable
def as_batch(s, feature_fields, label_field: str, batch_size: int = 32) -> Datastream:
    """Pack consecutive records into minibatches.

    Each listed feature field is stacked along a new leading axis
    (numeric scalars count as rank-0 tensors); labels must be numeric
    scalars and stack to shape ``[batch]``. The first record's shape is
    pinned per feature field for the whole stream: a later value of
    another shape raises ShapeMismatch naming the field before that
    field of any later record in the batch is read. A finite stream
    ends with a partial batch; an infinite stream yields batches
    forever.
    """
    check_count(batch_size, "batch_size")
    names = field_list(feature_fields)
    check_name(label_field)
    it = claim_iter(s)

    def gen():
        shapes: dict[str, tuple[int, ...]] = {}
        pins = {name: partial(_pinned_tensor, shapes, name) for name in names}
        for chunk in chunks(it, batch_size):
            features = {
                name: _stacked((r.get_field(name) for r in chunk), len(chunk), shapes.get(name), pins[name])
                for name in pins  # a repeated name is joined once
            }
            values = [r.get_field(label_field) for r in chunk]
            try:
                labels = Tensor((len(chunk),), values)
            except ValueError as e:
                raise NonNumericLabel(f"label field {label_field!r}: {e}") from None
            yield Batch(features=features, labels=labels, size=len(chunk))

    return Datastream(gen())
