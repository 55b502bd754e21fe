"""The One-vs-Others contrastive loss composed from elementary ops. Each
directional InfoNCE term is row normalization, a matmul against the
transpose, the scaling by 1/tau = exp(-log_tau), a row log-sum-exp, the
diagonal and the mean; each others' mean is a left-to-right sum of Tensors
times 1/(K-1); the terms, weighted by softmax(logits), are added left to
right. The fused `autodiff.ovo_nce` op is checked against it, forward and
backward, and bit for bit against `per_term_ovo`, the same loss and its
closed-form gradients as a plain numpy loop over the K terms."""

import functools
import operator

import numpy as np

from mmcl import kernels

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


def _through_norm(d_hat, x_hat, r):
    """Gradient to x of a gradient to x_hat = x / r: drop the radial part of
    d_hat, then divide by r."""
    return (d_hat - x_hat * (d_hat * x_hat).sum(axis=1, keepdims=True)) / r


def per_term_ovo(values, log_tau, logits, g):
    """`autodiff.ovo_nce` on the arrays `values` as a loop over its K terms in
    plain numpy: each term's others' mean, unit rows, cosines, row
    log-sum-exp and closed-form InfoNCE gradient under the upstream gradient
    g, one term after the other, each batch's gradient summed in term order.
    Returns (loss, terms, the K batch gradients, the log-tau gradient, the
    logits gradient or None)."""
    k, n = len(values), values[0].shape[0]
    inv_tau = np.exp(-log_tau)
    lam = np.ones(k) if logits is None else kernels.softmax(logits)
    share, diag, scale = 1.0 / (k - 1), np.arange(n), 1.0 / n
    terms, grads, d_inv = np.empty(k), [None] * k, 0.0
    for i, own in enumerate(values):
        mean = functools.reduce(operator.add, [v for j, v in enumerate(values) if j != i]) * share
        r_a = np.sqrt((own * own).sum(axis=1, keepdims=True))
        r_b = np.sqrt((mean * mean).sum(axis=1, keepdims=True))
        a_hat, b_hat = own / r_a, mean / r_b
        cos = a_hat @ b_hat.T
        s = cos * inv_tau
        lse = kernels.logsumexp_rows(s)
        terms[i] = (lse + (-s[diag, diag])).sum() * scale
        ds = np.exp(s - lse[:, None])
        ds[diag, diag] -= 1.0
        ds *= (g * lam[i]) * scale
        d_inv = d_inv + (ds * cos).sum()
        dcos = ds * inv_tau
        d_own = _through_norm(dcos @ b_hat, a_hat, r_a)
        d_mean = _through_norm(dcos.T @ a_hat, b_hat, r_b) * share
        for j in range(k):
            d = d_own if j == i else d_mean
            grads[j] = d if grads[j] is None else grads[j] + d
    loss = functools.reduce(operator.add, lam * terms)
    d_lam = g * terms
    d_logits = None if logits is None else (d_lam - np.dot(d_lam, lam)) * lam
    return loss, terms, grads, -(d_inv * inv_tau), d_logits
