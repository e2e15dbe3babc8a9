"""A minimal n-dimensional float array: explicit shape, flat row-major data.

This is the unit of windowing and batching. It stores 64-bit floats in a
flat tuple, which keeps serialization exact and equality structural; it
is deliberately not a numerics type.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import ShapeMismatch

__all__ = ["Tensor", "as_tensor"]


class Tensor:
    """Immutable row-major float tensor with an explicit shape.

    The empty shape ``()`` denotes a scalar holding exactly one element.
    """

    __slots__ = ("_shape", "_data")

    def __init__(self, shape: Sequence[int], data: Sequence[float]):
        shape = check_shape(shape)
        flat = tuple(data)
        if set(map(type, flat)) != {float}:  # exact floats are valid as they are
            flat = tuple(map(to_float, flat))
        if len(flat) != math.prod(shape):
            raise ValueError(
                f"tensor data has {len(flat)} elements, shape {shape} needs {math.prod(shape)}"
            )
        self._shape = shape
        self._data = flat

    @classmethod
    def _trusted(cls, shape: tuple[int, ...], flat: tuple[float, ...]) -> "Tensor":
        """A tensor built with no checks: ``shape`` must be a tuple of valid
        dimensions and ``flat`` a tuple of exact floats of matching length."""
        t = object.__new__(cls)
        t._shape = shape
        t._data = flat
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    @property
    def data(self) -> tuple[float, ...]:
        return self._data

    @property
    def size(self) -> int:
        return len(self._data)

    def to_nested(self):
        """The data as nested lists, one level per dimension; a scalar comes back as a float."""

        def build(shape, offset):
            if not shape:
                return self._data[offset]
            head, *rest = shape
            step = math.prod(rest)
            return [build(rest, offset + i * step) for i in range(head)]

        return build(list(self._shape), 0)

    @staticmethod
    def stack(tensors: Sequence["Tensor"]) -> "Tensor":
        """Stack equal-shaped tensors along a new leading axis."""
        tensors = list(tensors)
        if not tensors:
            raise ValueError("cannot stack zero tensors")
        base = tensors[0]._shape
        data: list[float] = []
        for t in tensors:
            if t._shape != base:
                raise ShapeMismatch(f"cannot stack shape {t._shape} with shape {base}")
            data.extend(t._data)
        return Tensor._trusted((len(tensors),) + base, tuple(data))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self._shape == other._shape and self._data == other._data

    def __hash__(self) -> int:
        return hash((self._shape, self._data))

    def __repr__(self) -> str:
        if len(self._data) <= 6:
            return f"Tensor(shape={self._shape}, data={list(self._data)})"
        return f"Tensor(shape={self._shape}, <{len(self._data)} floats>)"


def check_shape(shape: Sequence[int]) -> tuple[int, ...]:
    """``shape`` as a tuple; a dimension that is a bool, not an int, or negative raises ValueError."""
    shape = tuple(shape)
    for dim in shape:
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
            raise ValueError(f"bad tensor dimension {dim!r}")
    return shape


def to_float(x) -> float:
    """``x`` as a float; bools, non-numbers and ints too large for a float raise ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{x!r} is not a number")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"integer of {x.bit_length()} bits does not fit a float") from None


def as_tensor(value) -> Tensor:
    """Coerce a field value to a tensor; numeric scalars become rank 0."""
    if isinstance(value, Tensor):
        return value
    try:
        return Tensor((), (value,))
    except ValueError as e:
        raise TypeError(f"neither a tensor nor a numeric scalar: {e}") from None


def _pinned_tensor(shapes: dict[str, tuple[int, ...]], name: str, value) -> Tensor:
    """``value`` as a tensor whose shape must equal the first one ``shapes`` saw for ``name``."""
    t = as_tensor(value)
    expected = shapes.setdefault(name, t.shape)
    if t.shape != expected:
        raise ShapeMismatch(f"field {name!r} has shape {t.shape}, expected {expected}")
    return t
