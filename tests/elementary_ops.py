"""Elementary Tensor ops, each a graph node with its own backward pass.

The library runs only fused nodes (`autodiff.affine`, `autodiff.ovo_nce`,
`encoders.lstm_sequence`, `fusion._sigmoid_ce`), so these ops live beside
the tests: the composed oracles build the references for the fused nodes
from them, and the gradient checks compose small graphs with them. Each
takes Tensors or array-likes, and each rounds as the numpy expression it
names."""

import numpy as np

from mmcl import kernels
from mmcl.autodiff import Tensor, _unbroadcast


def add(a, b):
    a, b = Tensor._lift(a), Tensor._lift(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._result(a.values + b.values, (a, b), backward)


def sub(a, b):
    return add(a, -Tensor._lift(b))


def mul(a, b):
    a, b = Tensor._lift(a), Tensor._lift(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.values, b.shape))

    return Tensor._result(a.values * b.values, (a, b), backward)


def matmul(a, b):
    a, b = Tensor._lift(a), Tensor._lift(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.values.T)
        if b.requires_grad:
            b._accumulate(a.values.T @ g)

    return Tensor._result(a.values @ b.values, (a, b), backward)


def divide(a, b):
    a, b = Tensor._lift(a), Tensor._lift(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.values, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.values / (b.values * b.values), b.shape))

    return Tensor._result(a.values / b.values, (a, b), backward)


def transpose(x):
    x = Tensor._lift(x)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.T)

    return Tensor._result(x.values.T, (x,), backward)


def sqrt(x):
    x = Tensor._lift(x)
    out_values = np.sqrt(x.values)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * 0.5 / out_values)

    return Tensor._result(out_values, (x,), backward)


def sigmoid(x):
    x = Tensor._lift(x)
    out_values = kernels.sigmoid(x.values)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * out_values * (1.0 - out_values))

    return Tensor._result(out_values, (x,), backward)


def softplus(x):
    x = Tensor._lift(x)
    out_values = kernels.softplus(x.values)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * kernels.sigmoid(x.values))

    return Tensor._result(out_values, (x,), backward)


def mean(x, axis=None, keepdims=False):
    """The sum times 1/n, n the number of entries averaged."""
    x = Tensor._lift(x)
    n = x.values.size if axis is None else x.shape[axis]
    return mul(x.sum(axis=axis, keepdims=keepdims), 1.0 / n)


def logsumexp_rows(s):
    """Row-wise log-sum-exp of a 2-D tensor; backward is the row softmax."""
    s = Tensor._lift(s)
    out_values = kernels.logsumexp_rows(s.values)

    def backward(g):
        if s.requires_grad:
            soft = np.exp(s.values - out_values[:, None])
            s._accumulate(g[:, None] * soft)

    return Tensor._result(out_values, (s,), backward)
