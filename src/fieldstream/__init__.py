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

from .errors import *
from .tensor import *
from .record import *
from .stream import *
from .combinators import *
from .sources import *
from .mlprep import *
from .cache import *
from .laws import *
from .cli import *
from . import cache, cli, combinators, errors, laws, mlprep, record, sources, stream, tensor

__all__ = [*errors.__all__, *tensor.__all__, *record.__all__, *stream.__all__, *combinators.__all__,
           *sources.__all__, *mlprep.__all__, *cache.__all__, *laws.__all__, *cli.__all__]

__version__ = "0.1.0"
