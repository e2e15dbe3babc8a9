"""Exception vocabulary shared across the library.

Everything raised on purpose by this package derives from
:class:`FieldstreamError`, so a pipeline boundary can catch one type.
File system failures are not wrapped: they surface as ``OSError``.
"""

from __future__ import annotations

__all__ = [
    "FieldstreamError",
    "MissingField",
    "SingleUseViolation",
    "BatchArity",
    "ShapeMismatch",
    "BadShard",
    "RaggedRow",
    "ParseError",
    "NotAnObject",
    "UnknownClass",
    "BadSplitFile",
    "UnlistedKey",
    "BadPattern",
    "EmptyStream",
    "UnknownSplitLabel",
    "NonNumericLabel",
    "CacheCorrupt",
]

class FieldstreamError(Exception):
    """Base class for every error this package raises deliberately."""


class MissingField(FieldstreamError):
    """A record was asked for a field it does not carry.

    ``name`` is the missing field, which is also the first thing in the
    message so failures inside forced thunks point at the real culprit.
    """

    def __init__(self, name: str, detail: str | None = None):
        self.name = name
        msg = f"missing field {name!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class SingleUseViolation(FieldstreamError):
    """A stream was iterated or composed after it was already claimed."""


class BatchArity(FieldstreamError):
    """A batch function returned a different number of results than inputs."""


class ShapeMismatch(FieldstreamError):
    """A tensor value's shape disagrees with the shape established earlier."""


class BadShard(FieldstreamError):
    """Shard parameters violate 0 <= k < n."""


class RaggedRow(FieldstreamError):
    """A CSV row's cell count differs from the header's."""


class ParseError(FieldstreamError):
    """Input text could not be parsed; the message names file and position."""


class NotAnObject(FieldstreamError):
    """A JSON stream element is not an object."""


class UnknownClass(FieldstreamError):
    """A class directory is not listed in the provided class mapping."""


class BadSplitFile(FieldstreamError):
    """A split file failed to parse or contains an unknown label."""


class UnlistedKey(FieldstreamError):
    """A record's key is not present in the loaded split file."""


class BadPattern(FieldstreamError):
    """A split pattern is not a valid regular expression."""


class EmptyStream(FieldstreamError):
    """An operation that needs at least one element got none."""


class UnknownSplitLabel(FieldstreamError):
    """A split value outside the expected set of labels."""


class NonNumericLabel(FieldstreamError):
    """A batch label value is not a numeric scalar."""


class CacheCorrupt(FieldstreamError):
    """A cache file exists but cannot be decoded; never silently recomputed."""
