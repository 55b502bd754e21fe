"""The two-branch sigmoid and the zeros-plus-add first gradient write.
`kernels.sigmoid` and `Tensor._accumulate` are checked against them, bit
for bit, one kernel at a time and over whole training runs."""

import numpy as np


def masked_sigmoid(x):
    """Stable logistic by boolean masks: 1/(1+e^-x) where x >= 0, else
    e^x/(1+e^x)."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def zeros_plus_add_accumulate(self, g):
    """`Tensor._accumulate` that starts every gradient from zeros."""
    if self.grad is None:
        self.grad = np.zeros_like(self.values)
    self.grad += g


def assert_bitwise_equal(actual, expected):
    """Same shape and the same float64 bit pattern in every entry; NaNs
    need only agree in place (their payloads may differ)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(actual[~nan].view(np.int64), expected[~nan].view(np.int64))
