"""Tensor construction and scalar coercion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldstream import ShapeMismatch, Tensor, as_tensor
from fieldstream import tensor as tensor_module
from fieldstream.tensor import to_float


class FloatSubclass(float):
    pass


element = st.one_of(
    st.floats(),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.floats().map(FloatSubclass),
    st.text(max_size=3),
    st.just(10**400),
    # where a plain int's one float() hands over to the overflow message
    st.sampled_from([2**1000 + 1, 2**1000 - 1, -(2**1000) + 1, -(2**1000) - 1, 2**1023, 2**1024 + 1, -(2**1024)]),
)
tensor_data = st.one_of(st.lists(st.floats(), max_size=8), st.lists(element, max_size=8))


def test_numbers_that_do_not_fit_a_float_are_rejected():
    with pytest.raises(ValueError):
        Tensor((1,), [10**400])
    with pytest.raises(TypeError):
        as_tensor(10**400)


@settings(max_examples=300)
@given(tensor_data)
def test_tensor_data_follows_the_number_rule(data):
    """Every input gives what ``to_float`` per element gives: the same floats or the same error."""
    try:
        expected = tuple(map(to_float, data))
    except ValueError as e:
        with pytest.raises(ValueError) as info:
            Tensor((len(data),), data)
        assert str(info.value) == str(e)
    else:
        t = Tensor((len(data),), data)
        assert all(type(x) is float for x in t.data)
        assert list(map(repr, t.data)) == list(map(repr, expected))


def test_valid_floats_are_not_checked_again(monkeypatch):
    calls = []
    real = tensor_module.to_float

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(tensor_module, "to_float", counting)
    rows = [Tensor((64,), [float(i * 64 + j) for j in range(64)]) for i in range(16)]
    assert calls == []
    stacked = Tensor.stack(rows)
    assert calls == []
    assert stacked.shape == (16, 64)
    assert stacked.data == tuple(float(i) for i in range(16 * 64))
    assert Tensor((3,), [1, 2, 3]).data == (1.0, 2.0, 3.0)
    assert calls == [1, 2, 3]


def test_stack_errors():
    with pytest.raises(ValueError, match="cannot stack zero tensors"):
        Tensor.stack([])
    with pytest.raises(ShapeMismatch):
        Tensor.stack([Tensor((2,), [1.0, 2.0]), Tensor((3,), [1.0, 2.0, 3.0])])


def test_stack_takes_numeric_scalars_as_rank_0():
    assert Tensor.stack([1.0]) == Tensor((1,), [1.0])
    assert Tensor.stack([1, Tensor((), [2.5]), 3.0]) == Tensor((3,), [1.0, 2.5, 3.0])


@pytest.mark.parametrize("values, error, message", [
    ([Tensor((2,), [1.0, 2.0]), 2.0], ShapeMismatch, "cannot stack shape () with shape (2,)"),
    ([1.0, Tensor((2,), [1.0, 2.0])], ShapeMismatch, "cannot stack shape (2,) with shape ()"),
    (["a"], TypeError, "neither a tensor nor a numeric scalar: 'a' is not a number"),
    ([Tensor((), [1.0]), None], TypeError, "neither a tensor nor a numeric scalar: None is not a number"),
    ([1.0, True], TypeError, "neither a tensor nor a numeric scalar: True is not a number"),
])
def test_stack_of_a_non_tensor_raises_as_as_tensor_does(values, error, message):
    with pytest.raises(error) as info:
        Tensor.stack(values)
    assert str(info.value) == message
