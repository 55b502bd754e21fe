"""Reverse-mode differentiation over dense float64 arrays.

Every trainable computation in the package runs through `Tensor`. Each
operation records its parents and a closure that routes the upstream
gradient; `backward()` walks the implicit tape in reverse topological
order. Gradients accumulate into `.grad` until `Tensor.zero_grad` resets them,
so a parameter appearing in several loss terms sums its contributions.
"""

import functools
import operator

import numpy as np

from . import kernels
from .errors import ContractError, DegenerateInputError, DimensionError, EPS


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

    # -- unary ops ----------------------------------------------------------

    def tanh(self):
        a = self
        out_values = np.tanh(a.values)

        def backward(g):
            if a.requires_grad:
                a._accumulate(g * (1.0 - out_values * out_values))

        return Tensor._result(out_values, (a,), backward)

    # -- backward pass ------------------------------------------------------

    def backward(self, grad=None):
        """Run every closure of the graph behind this tensor, last node first,
        with `grad` as this tensor's upstream gradient, as
        `torch.autograd.backward` does. `grad` must have this tensor's shape;
        without it the tensor must be a scalar, and its gradient is 1."""
        if grad is None:
            if self.values.size != 1:
                raise ContractError(f"backward requires a scalar loss, got shape {self.shape}")
            grad = np.ones_like(self.values)
        elif np.shape(grad) != self.shape:
            raise ContractError(f"upstream gradient of shape {np.shape(grad)} "
                                f"for a tensor of shape {self.shape}")
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
            for p in node._parents:  # a leaf has nothing to run: its parent's closure fills it
                if p._backward is not None and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


# ---------------------------------------------------------------------------
# free functions


def concat(tensors):
    """The 2-D `tensors` joined row by row: each output row is their rows side by side."""
    tensors = [Tensor._lift(t) for t in tensors]
    offsets = np.cumsum([0] + [t.shape[1] for t in tensors])

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(g[:, lo:hi])

    values = np.concatenate([t.values for t in tensors], axis=1)
    return Tensor._result(values, tensors, backward)


def _unit_rows(x):
    """(x scaled to unit rows, the N x 1 row norms); a zero row is an error."""
    r = np.sqrt((x * x).sum(axis=1, keepdims=True))
    bad = np.nonzero(r <= EPS)[0]
    if bad.size:
        raise DegenerateInputError(f"zero-norm row at index {int(bad[0])}")
    return x / r, r


def _through_norm(d_hat, x_hat, r):
    """Gradient to x of a gradient to x_hat = x / r: drop the radial part of
    d_hat, then divide by r."""
    return (d_hat - x_hat * (d_hat * x_hat).sum(axis=1, keepdims=True)) / r


def ovo_nce(embeddings, log_tau, logits=None):
    """One-vs-Others InfoNCE of K >= 2 row-aligned N x n batches as one graph
    node: the sum over i of lambda_i * NCE(e_i, mean of the other batches),
    lambda = softmax(logits) (a K-vector), or all ones (the plain sum) without `logits`.
    NCE(a, b) is the mean over k of -log softmax_m(cos(a_k, b_m) / tau) at
    m = k. Returns (loss, the K unweighted term values).

    The forward pass rounds as the composed ops would: 1/tau = exp(-log_tau)
    and lambda = `kernels.softmax(logits)`; the others' mean is their
    left-to-right sum times 1/(K-1); each term normalizes rows, takes
    a_hat b_hat^T, scales it, takes a row log-sum-exp, the diagonal and the
    mean; the total adds lambda_0 t_0 + lambda_1 t_1 + ... left to right. The
    backward pass runs the closed-form InfoNCE gradient of each term, routed
    back through both row norms and the mean, and through the exp and the
    softmax to log_tau and the logits. Batches of more than one shape raise
    DimensionError, logits of another shape than (K,) ContractError, and a
    zero-norm row DegenerateInputError."""
    embeddings = [Tensor._lift(e) for e in embeddings]
    log_tau = Tensor._lift(log_tau)
    logits = None if logits is None else Tensor._lift(logits)
    k = len(embeddings)
    if k < 2:
        raise ContractError(f"contrastive loss needs at least 2 modalities, got {k}")
    shapes = {e.shape for e in embeddings}
    if len(shapes) != 1:
        raise DimensionError(f"embedding shapes disagree: {sorted(shapes)}")
    if logits is not None and logits.shape != (k,):
        raise ContractError(f"lambda logits of shape {logits.shape} for K={k} modalities")
    inv_tau = np.exp(-log_tau.values)
    lam = np.ones(k) if logits is None else kernels.softmax(logits.values)
    share = 1.0 / (k - 1)
    n = embeddings[0].shape[0]
    diag = np.arange(n)
    scale = 1.0 / n
    terms = np.empty(k)
    saved = []
    for i, e in enumerate(embeddings):
        others = functools.reduce(operator.add,
                                  [o.values for j, o in enumerate(embeddings) if j != i])
        a_hat, r_a = _unit_rows(e.values)
        b_hat, r_b = _unit_rows(others * share)
        cos = a_hat @ b_hat.T
        s = cos * inv_tau
        lse = kernels.logsumexp_rows(s)
        terms[i] = (lse + (-s[diag, diag])).sum() * scale
        saved.append((a_hat, r_a, b_hat, r_b, cos, s, lse))
    loss = functools.reduce(operator.add, lam * terms)

    def backward(g):
        grads, d_inv = [None] * k, 0.0
        for i, (a_hat, r_a, b_hat, r_b, cos, s, lse) in enumerate(saved):
            ds = np.exp(s - lse[:, None])  # row softmax of s
            ds[diag, diag] -= 1.0
            ds *= (g * lam[i]) * scale
            d_inv = d_inv + (ds * cos).sum()
            dcos = ds * inv_tau
            d_own = _through_norm(dcos @ b_hat, a_hat, r_a)
            d_mean = _through_norm(dcos.T @ a_hat, b_hat, r_b) * share
            for j in range(k):
                d = d_own if j == i else d_mean
                grads[j] = d if grads[j] is None else grads[j] + d
        for e, d in zip(embeddings, grads):
            if e.requires_grad:
                e._accumulate(d)
        if log_tau.requires_grad:
            log_tau._accumulate(-(d_inv * inv_tau))
        if logits is not None and logits.requires_grad:
            d_lam = g * terms
            logits._accumulate((d_lam - np.dot(d_lam, lam)) * lam)

    parents = (*embeddings, log_tau) + (() if logits is None else (logits,))
    return Tensor._result(loss, parents, backward), terms


def affine(x, w, b):
    """x @ w + b as one graph node: an N x d batch times a d x m weight plus
    an m-vector bias, rounded as the matmul and the broadcast add would."""
    x = Tensor._lift(x)
    if x.ndim != 2 or w.ndim != 2:
        raise DimensionError(f"matmul needs 2-D operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {x.shape} x {w.shape}")

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ w.values.T)
        if w.requires_grad:
            w._accumulate(x.values.T @ g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return Tensor._result(x.values @ w.values + b.values, (x, w, b), backward)


class Parameter(Tensor):
    """Named trainable tensor."""

    def __init__(self, name, values):
        super().__init__(values, requires_grad=True)
        self.name = name
