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


@functools.cache
def _ovo_tables(k):
    """Read-only index tables of the stacked One-vs-Others pass over K
    batches: others[i], the batches but i in order, and route[j, i], the row
    of the 2K stack (batches, then others' means) through which term i
    reaches batch j."""
    others = np.array([[j for j in range(k) if j != i] for i in range(k)])
    route = np.where(np.eye(k, dtype=bool), np.arange(k), np.arange(k, 2 * k))
    others.flags.writeable = route.flags.writeable = False
    return others, route


def ovo_nce(embeddings, log_tau, logits=None):
    """One-vs-Others InfoNCE of K >= 2 row-aligned N x n batches as one graph
    node: the sum over i of lambda_i * NCE(e_i, mean of the other batches),
    lambda = softmax(logits) (a K-vector), or all ones (the plain sum) without `logits`.
    NCE(a, b) is the mean over k of -log softmax_m(cos(a_k, b_m) / tau) at
    m = k. Returns (loss, the K unweighted term values).

    Both passes run on the K batches and their K others' means stacked as
    one 2K x N x n array, and round as the composed ops of each term would:
    1/tau = exp(-log_tau) and lambda = `kernels.softmax(logits)`; the
    others' mean is their left-to-right sum times 1/(K-1); the rows are
    normalized, one batched matmul gives the K matrices a_hat b_hat^T, which
    are scaled, and a row log-sum-exp, the diagonal and a per-term mean give
    the terms; the total adds lambda_0 t_0 + lambda_1 t_1 + ... left to
    right. The backward pass runs the closed-form InfoNCE gradient of every
    term at once, routed back through the row norms and the means, and
    through the exp and the softmax to log_tau and the logits; each batch's
    gradient sums its part of each term in term order. Batches that are not
    2-D or of more than one shape raise DimensionError, an empty batch and a
    zero-norm row DegenerateInputError, and logits of another shape than
    (K,) or a log_tau that is not a scalar ContractError."""
    embeddings = [Tensor._lift(e) for e in embeddings]
    log_tau = Tensor._lift(log_tau)
    logits = None if logits is None else Tensor._lift(logits)
    k = len(embeddings)
    if k < 2:
        raise ContractError(f"contrastive loss needs at least 2 modalities, got {k}")
    shapes = {e.shape for e in embeddings}
    if len(shapes) != 1:
        raise DimensionError(f"embedding shapes disagree: {sorted(shapes)}")
    shape = embeddings[0].shape
    if len(shape) != 2:
        raise DimensionError(f"embedding batches must be N x n, got shape {shape}")
    n = shape[0]
    if n == 0:
        raise DegenerateInputError("empty embedding batch")
    if log_tau.shape != ():
        raise ContractError(f"log tau must be a scalar, got shape {log_tau.shape}")
    if logits is not None and logits.shape != (k,):
        raise ContractError(f"lambda logits of shape {logits.shape} for K={k} modalities")
    inv_tau = np.exp(-log_tau.values)
    lam = np.ones(k) if logits is None else kernels.softmax(logits.values)
    share = 1.0 / (k - 1)
    diag = np.arange(n)
    scale = 1.0 / n
    others, route = _ovo_tables(k)
    # rows 0..K-1 of u: the batches; row K + i: the others' mean of term i
    u = np.empty((2 * k, *shape))
    np.stack([e.values for e in embeddings], out=u[:k])
    mean = u[k:]
    mean[...] = u[others[:, 0]]
    for c in range(1, k - 1):
        mean += u[others[:, c]]
    mean *= share
    r = np.sqrt((u * u).sum(axis=2, keepdims=True))
    # the first zero row term by term, own batch before the others' mean
    bad = np.flatnonzero((r <= EPS).reshape(2, k, n).transpose(1, 0, 2))
    if bad.size:
        raise DegenerateInputError(f"zero-norm row at index {int(bad[0] % n)}")
    u /= r
    a_hat, b_hat = u[:k], u[k:]
    # the K cosine matrices, scaled to s in place; the backward pass computes
    # them again, so that no K x N x N array lives between the passes
    s = np.matmul(a_hat, b_hat.transpose(0, 2, 1))
    s *= inv_tau
    s_diag = s[:, diag, diag]
    m = s.max(axis=2)
    s -= m[:, :, None]
    lse = m + np.log(np.exp(s, out=s).sum(axis=2))  # s is spent
    terms = (lse + (-s_diag)).sum(axis=1) * scale
    loss = functools.reduce(operator.add, lam * terms)

    def backward(g):
        cos = np.matmul(a_hat, b_hat.transpose(0, 2, 1))
        ds = np.multiply(cos, inv_tau)  # s again
        ds -= lse[:, :, None]
        np.exp(ds, out=ds)  # row softmax of s
        ds[:, diag, diag] -= 1.0
        ds *= ((g * lam) * scale)[:, None, None]
        parts = np.multiply(ds, cos, out=cos).reshape(k, -1).sum(axis=1)
        d_inv = functools.reduce(operator.add, parts, 0.0)
        dcos = np.multiply(ds, inv_tau, out=ds)
        d = np.empty_like(u)
        np.matmul(dcos, b_hat, out=d[:k])
        np.matmul(dcos.transpose(0, 2, 1), a_hat, out=d[k:])
        # through each row norm: drop the radial part, then divide by the norm
        d -= u * (d * u).sum(axis=2, keepdims=True)
        d /= r
        d[k:] *= share
        grads = d[route[:, 0]] + d[route[:, 1]]
        for c in range(2, k):
            grads += d[route[:, c]]
        for e, grad in zip(embeddings, grads):
            if e.requires_grad:
                e._accumulate(grad)
        if log_tau.requires_grad:
            log_tau._accumulate(-(d_inv * inv_tau))
        if logits is not None and logits.requires_grad:
            d_lam = g * terms
            logits._accumulate((d_lam - np.dot(d_lam, lam)) * lam)

    parents = (*embeddings, log_tau) + (() if logits is None else (logits,))
    return Tensor._result(loss, parents, backward), terms


def dense(x, layers):
    """An affine + tanh stack as one graph node: for each (w, b) of `layers`
    in order, x @ w + b, with tanh between layers and none after the last.
    `x` is an N x d batch, each w a 2-D weight and each b its bias vector.

    The forward pass runs the matmul, the broadcast add and `np.tanh` of
    each layer in order, as the composed ops would. The backward pass walks
    the layers last to first with no intermediate gradient buffer; each
    weight, bias and input gradient rounds as the composed ops' would, and
    only the gradients that some parameter or the input requires are
    computed: with constant parameters, the input's gradient alone."""
    if not layers:
        raise ContractError("a dense stack needs at least one layer")
    x = Tensor._lift(x)
    ins = [x.values]  # the input of each layer: x, then each tanh output
    for li, (w, b) in enumerate(layers):
        h = ins[-1]
        if h.ndim != 2 or w.ndim != 2:
            raise DimensionError(f"matmul needs 2-D operands, got {h.shape} and {w.shape}")
        if h.shape[1] != w.shape[0]:
            raise DimensionError(f"matmul inner dimensions disagree: {h.shape} x {w.shape}")
        out = h @ w.values + b.values
        if li < len(layers) - 1:
            ins.append(np.tanh(out))
    # below[li]: whether layer li's input needs its gradient
    below = [x.requires_grad]
    for w, b in layers[:-1]:
        below.append(below[-1] or w.requires_grad or b.requires_grad)

    def backward(g):
        for li in reversed(range(len(layers))):
            (w, b), h = layers[li], ins[li]
            if w.requires_grad:
                w._accumulate(h.T @ g)
            if b.requires_grad:
                b._accumulate(g.sum(axis=0))
            if not below[li]:
                return
            g = g @ w.values.T
            if li:
                g = g * (1.0 - h * h)  # through the tanh whose output is h
        x._accumulate(g)

    parents = (x,) + tuple(p for layer in layers for p in layer)
    return Tensor._result(out, parents, backward)


class Parameter(Tensor):
    """Named trainable tensor."""

    def __init__(self, name, values):
        super().__init__(values, requires_grad=True)
        self.name = name
