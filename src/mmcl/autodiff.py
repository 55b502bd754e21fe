"""Reverse-mode differentiation over dense float64 arrays.

Every trainable computation in the package runs through `Tensor`. Each
operation records its parents and a closure that routes the upstream
gradient; `backward()` walks the implicit tape in reverse topological
order. Gradients accumulate into `.grad` until `Tensor.zero_grad` resets them,
so a parameter appearing in several loss terms sums its contributions.
"""

import numpy as np

from . import kernels
from .errors import ContractError, DegenerateInputError, DimensionError, DomainError, EPS


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Dense float64 array with an optional gradient slot."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.values.shape

    @property
    def ndim(self):
        return self.values.ndim

    def item(self):
        return float(self.values)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            # adding 0.0 turns -0.0 into +0.0 as zeros-plus-add did; the
            # buffer keeps the layout of `values`, so later matmuls round alike
            self.grad = np.add(g, 0.0, out=np.empty_like(self.values))
        else:
            self.grad += g

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _result(values, parents, backward):
        out = Tensor(values)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @staticmethod
    def _lift(x):
        return x if isinstance(x, Tensor) else Tensor(x)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = Tensor._lift(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.shape))

        return Tensor._result(a.values + b.values, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate(-g)

        return Tensor._result(-a.values, (a,), backward)

    def __sub__(self, other):
        return self + (-Tensor._lift(other))

    def __rsub__(self, other):
        return Tensor._lift(other) + (-self)

    def __mul__(self, other):
        other = Tensor._lift(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * b.values, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * a.values, b.shape))

        return Tensor._result(a.values * b.values, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._lift(other)
        a, b = self, other

        def backward(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g / b.values, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g * a.values / (b.values * b.values), b.shape))

        return Tensor._result(a.values / b.values, (a, b), backward)

    def __rtruediv__(self, other):
        return Tensor._lift(other) / self

    def __matmul__(self, other):
        other = Tensor._lift(other)
        a, b = self, other
        if a.ndim != 2 or b.ndim != 2:
            raise DimensionError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
        if a.shape[1] != b.shape[0]:
            raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")

        def backward(g):
            if a.requires_grad:
                a._accumulate(g @ b.values.T)
            if b.requires_grad:
                b._accumulate(a.values.T @ g)

        return Tensor._result(a.values @ b.values, (a, b), backward)

    @property
    def T(self):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate(g.T)

        return Tensor._result(a.values.T, (a,), backward)

    # -- nonlinearities -----------------------------------------------------

    def exp(self):
        a = self
        out_values = np.exp(a.values)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * out_values)

        return Tensor._result(out_values, (a,), backward)

    def log(self):
        a = self
        if np.any(a.values <= 0.0):
            raise DomainError("log requires strictly positive inputs")

        def backward(g):
            if a.requires_grad:
                a._accumulate(g / a.values)

        return Tensor._result(np.log(a.values), (a,), backward)

    def sqrt(self):
        a = self
        out_values = np.sqrt(a.values)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * 0.5 / out_values)

        return Tensor._result(out_values, (a,), backward)

    def sigmoid(self):
        a = self
        out_values = kernels.sigmoid(a.values)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * out_values * (1.0 - out_values))

        return Tensor._result(out_values, (a,), backward)

    def tanh(self):
        a = self
        out_values = np.tanh(a.values)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * (1.0 - out_values * out_values))

        return Tensor._result(out_values, (a,), backward)

    def softplus(self):
        a = self
        out_values = kernels.softplus(a.values)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * kernels.sigmoid(a.values))

        return Tensor._result(out_values, (a,), backward)

    def reshape(self, *shape):
        a = self

        def backward(g):
            if a.requires_grad:
                a._accumulate(g.reshape(a.shape))

        return Tensor._result(a.values.reshape(*shape), (a,), backward)

    def __getitem__(self, index):
        """Copy of the indexed entries; backward scatters into zeros."""
        a = self

        def backward(g):
            if a.requires_grad:
                full = np.zeros_like(a.values)
                np.add.at(full, index, g)
                a._accumulate(full)

        return Tensor._result(np.array(a.values[index]), (a,), backward)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self

        def backward(g):
            if not a.requires_grad:
                return
            if axis is None:
                a._accumulate(np.full_like(a.values, g))
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(g, a.shape).copy())

        return Tensor._result(a.values.sum(axis=axis, keepdims=keepdims), (a,), backward)

    def mean(self, axis=None, keepdims=False):
        n = self.values.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- backward pass ------------------------------------------------------

    def backward(self):
        if self.values.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {self.shape}")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.values))
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


# ---------------------------------------------------------------------------
# free functions


def concat(tensors, axis=1):
    tensors = [Tensor._lift(t) for t in tensors]
    widths = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + widths)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    values = np.concatenate([t.values for t in tensors], axis=axis)
    return Tensor._result(values, tensors, backward)


def softmax(x):
    """Stable softmax of a 1-D tensor; output sums to 1."""
    x = Tensor._lift(x)
    if x.ndim != 1 or x.shape[0] < 1:
        raise DimensionError(f"softmax expects a non-empty vector, got shape {x.shape}")
    shifted = x.values - x.values.max()
    e = np.exp(shifted)
    out_values = e / e.sum()

    def backward(g):
        if x.requires_grad:
            x._accumulate((g - np.dot(g, out_values)) * out_values)

    return Tensor._result(out_values, (x,), backward)


def logsumexp_rows(s):
    """Row-wise log-sum-exp of a 2-D tensor; backward is the row softmax."""
    s = Tensor._lift(s)
    out_values = kernels.logsumexp_rows(s.values)

    def backward(g):
        if s.requires_grad:
            soft = np.exp(s.values - out_values[:, None])
            s._accumulate(g[:, None] * soft)

    return Tensor._result(out_values, (s,), backward)


def row_normalize(x):
    """Scale each row of a 2-D tensor to unit L2 norm."""
    norms = np.linalg.norm(x.values, axis=1)
    bad = np.nonzero(norms <= EPS)[0]
    if bad.size:
        raise DegenerateInputError(f"zero-norm row at index {int(bad[0])}")
    return x / (x * x).sum(axis=1, keepdims=True).sqrt()


class Parameter(Tensor):
    """Named trainable tensor."""

    def __init__(self, name, values):
        super().__init__(values, requires_grad=True)
        self.name = name


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
