"""The One-vs-Others contrastive loss composed from elementary ops. Each
directional InfoNCE term is row normalization, a matmul against the
transpose, the scaling by 1/tau = exp(-log_tau), a row log-sum-exp, the
diagonal and the mean; each others' mean is a left-to-right sum of Tensors
times 1/(K-1); the terms, weighted by softmax(logits), are added left to
right. The fused `autodiff.ovo_nce` op is checked against it, forward and
backward."""

import numpy as np

from elementary_ops import (add, axis_sum, divide, exp, getitem, logsumexp_rows, matmul, mean,
                            mul, neg, softmax, sqrt, sub, transpose)


def row_normalize(x):
    """Each row of a 2-D tensor scaled to unit L2 norm."""
    return divide(x, sqrt(axis_sum(mul(x, x), 1, keepdims=True)))


def similarity_matrix(a, b, inv_tau):
    """Entry (k, m) = cos(a_k, b_m) * inv_tau."""
    return mul(matmul(row_normalize(a), transpose(row_normalize(b))), inv_tau)


def composed_nce(a, b, inv_tau):
    """Mean over k of -log softmax_m(cos(a_k, b_m) * inv_tau) at m = k."""
    s = similarity_matrix(a, b, inv_tau)
    k = np.arange(s.shape[0])
    return mean(sub(logsumexp_rows(s), getitem(s, (k, k))))


def left_sum(tensors):
    """t0 + t1 + ... added left to right."""
    total = tensors[0]
    for t in tensors[1:]:
        total = add(total, t)
    return total


def others_mean(embeddings, i):
    """Rowwise mean of every embedding batch except the i-th."""
    rest = [e for j, e in enumerate(embeddings) if j != i]
    return mul(left_sum(rest), 1.0 / (len(embeddings) - 1))


def composed_ovo(embeddings, log_tau, logits=None):
    """`autodiff.ovo_nce` as a graph of elementary ops, with 1/tau =
    exp(-log_tau) and the weights softmax(logits): (loss, the K unweighted
    term values)."""
    inv_tau = exp(neg(log_tau))
    weights = None if logits is None else softmax(logits)
    terms = [composed_nce(e, others_mean(embeddings, i), inv_tau)
             for i, e in enumerate(embeddings)]
    scaled = (terms if weights is None
              else [mul(getitem(weights, i), t) for i, t in enumerate(terms)])
    return left_sum(scaled), np.array([float(t.values) for t in terms])
