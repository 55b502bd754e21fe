"""The One-vs-Others contrastive loss composed from elementary ops. Each
directional InfoNCE term is row normalization, a matmul against the
transpose, the scaling by 1/tau, a row log-sum-exp, the diagonal and the
mean; each others' mean is a left-to-right sum of Tensors times 1/(K-1); the
weighted terms are added left to right. The fused `autodiff.ovo_nce` op is
checked against it, forward and backward. The ops that only this
composition uses (sqrt, division, transpose, row log-sum-exp) live here."""

import numpy as np

from mmcl import kernels
from mmcl.autodiff import Tensor, _unbroadcast


def sqrt(x):
    out_values = np.sqrt(x.values)

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * 0.5 / out_values)

    return Tensor._result(out_values, (x,), backward)


def divide(a, b):
    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.values, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.values / (b.values * b.values), b.shape))

    return Tensor._result(a.values / b.values, (a, b), backward)


def transpose(x):
    def backward(g):
        if x.requires_grad:
            x._accumulate(g.T)

    return Tensor._result(x.values.T, (x,), backward)


def logsumexp_rows(s):
    """Row-wise log-sum-exp of a 2-D tensor; backward is the row softmax."""
    out_values = kernels.logsumexp_rows(s.values)

    def backward(g):
        if s.requires_grad:
            soft = np.exp(s.values - out_values[:, None])
            s._accumulate(g[:, None] * soft)

    return Tensor._result(out_values, (s,), backward)


def row_normalize(x):
    """Each row of a 2-D tensor scaled to unit L2 norm."""
    return divide(x, sqrt((x * x).sum(axis=1, keepdims=True)))


def similarity_matrix(a, b, inv_tau):
    """Entry (k, m) = cos(a_k, b_m) * inv_tau."""
    return (row_normalize(a) @ transpose(row_normalize(b))) * inv_tau


def composed_nce(a, b, inv_tau):
    """Mean over k of -log softmax_m(cos(a_k, b_m) * inv_tau) at m = k."""
    s = similarity_matrix(a, b, inv_tau)
    k = np.arange(s.shape[0])
    return (logsumexp_rows(s) - s[k, k]).mean()


def left_sum(tensors):
    """t0 + t1 + ... added left to right."""
    total = tensors[0]
    for t in tensors[1:]:
        total = total + t
    return total


def others_mean(embeddings, i):
    """Rowwise mean of every embedding batch except the i-th."""
    rest = [e for j, e in enumerate(embeddings) if j != i]
    return left_sum(rest) * (1.0 / (len(embeddings) - 1))


def composed_ovo(embeddings, inv_tau, weights=None):
    """`autodiff.ovo_nce` as a graph of elementary ops: (loss, the K
    unweighted term values)."""
    terms = [composed_nce(e, others_mean(embeddings, i), inv_tau)
             for i, e in enumerate(embeddings)]
    scaled = terms if weights is None else [weights[i] * t for i, t in enumerate(terms)]
    return left_sum(scaled), np.array([t.item() for t in terms])
