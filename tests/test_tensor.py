"""Tensor construction and scalar coercion."""

import pytest

from fieldstream import Tensor, as_tensor


def test_numbers_that_do_not_fit_a_float_are_rejected():
    with pytest.raises(ValueError):
        Tensor((1,), [10**400])
    with pytest.raises(TypeError):
        as_tensor(10**400)
