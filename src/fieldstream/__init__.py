"""Lazy multi-field datastreams.

Records of named fields, each field with its own evaluation strategy
(eager, lazy-memoized, or on-demand), flow through composable, lazy,
single-use streams::

    import fieldstream as fs

    images = (
        fs.get_files("data", ext=".jpg")
        | fs.as_field("filename")
        | fs.apply("filename", "image", load)
        | fs.filter_field("image", lambda im: im.shape[0] >= 2)
        | fs.apply("image", "augmented", augment, strategy=fs.EvalStrategy.ON_DEMAND)
        | fs.as_list
    )

On top of the stream core sit ML data-prep utilities (splitting,
stratification, shuffling, batching, disk caching, sharding) and a
small CLI (``fieldstream --help``).
"""

from .errors import (
    BadPattern,
    BadShard,
    BadSplitFile,
    BatchArity,
    CacheCorrupt,
    EmptyStream,
    FieldstreamError,
    IoError,
    MissingField,
    NonNumericLabel,
    NotAnObject,
    ParseError,
    RaggedRow,
    ShapeMismatch,
    SingleUseViolation,
    UnknownClass,
    UnknownSplitLabel,
    UnlistedKey,
)
from .tensor import Tensor, as_tensor
from .record import EvalStrategy, FieldCell, Record
from .stream import (
    Datastream,
    as_field,
    as_list,
    count,
    fold,
    pipe,
    pipeable,
    select_field,
    take,
)
from .combinators import (
    apply,
    apply_batch,
    delay,
    delfield,
    filter_field,
    scan,
    shard,
    sliding_window,
)
from .sources import csvsource, get_datastream, get_files, jsonstream
from .mlprep import (
    Batch,
    SplitLabel,
    as_batch,
    datasplit,
    datasplit_by_pattern,
    infshuffle,
    make_train_test_split,
    stratify_sample,
    stratify_sample_tt,
    summary,
)
from .cache import apply_cached, decode_value, encode_value, from_jsonable, to_jsonable
from .laws import (
    bind_field,
    check_associativity,
    check_left_identity,
    check_right_identity,
    records_equal,
)
from .cli import run_cli

__all__ = [
    # errors
    "FieldstreamError", "IoError", "MissingField", "SingleUseViolation",
    "BatchArity", "ShapeMismatch", "BadShard", "RaggedRow", "ParseError",
    "NotAnObject", "UnknownClass", "BadSplitFile", "UnlistedKey",
    "BadPattern", "EmptyStream", "UnknownSplitLabel", "NonNumericLabel",
    "CacheCorrupt",
    # core types
    "Tensor", "as_tensor", "EvalStrategy", "FieldCell", "Record",
    "Datastream", "SplitLabel", "Batch",
    # stream ops
    "pipe", "pipeable", "as_field", "select_field", "as_list", "take",
    "fold", "scan", "count",
    # combinators
    "apply", "filter_field", "delfield", "delay", "apply_batch",
    "sliding_window", "shard",
    # sources
    "get_files", "get_datastream", "csvsource", "jsonstream",
    # ml prep
    "datasplit", "datasplit_by_pattern", "stratify_sample",
    "stratify_sample_tt", "summary", "make_train_test_split", "infshuffle",
    "as_batch",
    # cache
    "apply_cached", "encode_value", "decode_value", "to_jsonable",
    "from_jsonable",
    # laws
    "bind_field", "check_left_identity", "check_right_identity",
    "check_associativity", "records_equal",
    # cli
    "run_cli",
]

__version__ = "0.1.0"
