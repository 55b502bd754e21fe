"""Elementary Tensor ops, each a graph node with its own backward pass, and
the finite-difference gradient check.

The library builds its graphs from six nodes only (`autodiff.affine`,
`autodiff.concat`, `autodiff.ovo_nce`, `Tensor.tanh`,
`encoders.lstm_sequence`, `fusion._sigmoid_ce`), so these ops live beside
the tests: the composed oracles build the references for the fused nodes
from them, and the gradient checks compose small graphs with them. Each
takes Tensors or array-likes, and each rounds as the numpy expression it
names. A plain gradient-descent step trains the small models of the tests
that need one, and `log_temperature` makes the contrastive losses' log tau."""

import numpy as np

from mmcl import kernels
from mmcl.autodiff import Parameter, Tensor


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b):
    a, b = Tensor._lift(a), Tensor._lift(b)

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return Tensor._result(a.values + b.values, (a, b), backward)


def neg(x):
    x = Tensor._lift(x)

    def backward(g):
        if x.requires_grad:
            x._accumulate(-g)

    return Tensor._result(-x.values, (x,), backward)


def sub(a, b):
    return add(a, neg(b))


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


def exp(x):
    x = Tensor._lift(x)
    out_values = np.exp(x.values)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * out_values)

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


def axis_sum(x, axis=None, keepdims=False):
    """The sum along one axis, e.g. the row sums at axis 1, or of every entry
    as a 0-d tensor without `axis`."""
    x = Tensor._lift(x)

    def backward(g):
        if x.requires_grad:
            g = g if keepdims or axis is None else np.expand_dims(g, axis)
            x._accumulate(np.broadcast_to(g, x.shape).copy())

    return Tensor._result(x.values.sum(axis=axis, keepdims=keepdims), (x,), backward)


def getitem(x, index):
    """Copy of the indexed entries of `x`; backward scatters into zeros, adding
    where an index repeats an entry."""
    x = Tensor._lift(x)

    def backward(g):
        if x.requires_grad:
            full = np.zeros_like(x.values)
            np.add.at(full, index, g)
            x._accumulate(full)

    return Tensor._result(np.array(x.values[index]), (x,), backward)


def mean(x, axis=None):
    """The sum times 1/n, n the number of entries averaged."""
    x = Tensor._lift(x)
    n = x.values.size if axis is None else x.shape[axis]
    return mul(axis_sum(x, axis), 1.0 / n)


def logsumexp_rows(s):
    """Row-wise log-sum-exp of a 2-D tensor; backward is the row softmax."""
    s = Tensor._lift(s)
    out_values = kernels.logsumexp_rows(s.values)

    def backward(g):
        if s.requires_grad:
            soft = np.exp(s.values - out_values[:, None])
            s._accumulate(g[:, None] * soft)

    return Tensor._result(out_values, (s,), backward)


def softmax(x):
    """Softmax of a 1-D tensor, rounded as `kernels.softmax`."""
    x = Tensor._lift(x)
    out_values = kernels.softmax(x.values)

    def backward(g):
        if x.requires_grad:
            x._accumulate((g - np.dot(g, out_values)) * out_values)

    return Tensor._result(out_values, (x,), backward)


def log_temperature(tau=1.0):
    """A trainable log temperature at `tau`: the Parameter that the
    contrastive losses take and `harness.pretrain` holds (from tau = 1)."""
    return Parameter("log_tau", np.log(tau))


def gradient_step(params, loss, lr):
    """One plain gradient-descent step on `loss()`: p -= lr * p.grad."""
    for p in params:
        p.zero_grad()
    loss().backward()
    for p in params:
        p.values -= lr * p.grad


def grad_check(f, inputs, h=1e-5):
    """Max relative error between analytic gradients of scalar `f` and
    central finite differences over every coordinate of `inputs`."""
    if isinstance(inputs, Tensor):
        inputs = [inputs]
    for x in inputs:
        x.requires_grad = True
        x.zero_grad()
    out = f()
    out.backward()
    analytic = [np.array(x.grad, copy=True) for x in inputs]
    worst = 0.0
    for x, ga in zip(inputs, analytic):
        flat = x.values.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f().values)
            flat[i] = orig - h
            fm = float(f().values)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = ga.ravel()[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
