"""Properties of the fused graph ops against their composed oracles, over
random shapes and values: `autodiff.ovo_nce`, `autodiff.dense`,
`encoders.lstm_sequence` and `fusion._sigmoid_ce`."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from mmcl import kernels
from mmcl.autodiff import Tensor, dense, ovo_nce
from mmcl.encoders import lstm_sequence, make_lstm_params
from mmcl.fusion import _sigmoid_ce

from ce_oracle import composed_sigmoid_ce
from elementary_ops import affine, axis_sum, mul, tanh
from kernel_oracle import assert_bitwise_equal
from lstm_oracle import composed_unroll
from nce_oracle import composed_ovo

SEEDS = st.integers(0, 2**32 - 1)


def _grads(loss, inputs, seed):
    """Gradients of sum(loss * c) for a random upstream c, one per input."""
    for t in inputs:
        t.requires_grad = True
        t.zero_grad()
    out = loss()
    weight = np.random.default_rng(seed).standard_normal(out.shape)
    axis_sum(mul(out, weight)).backward()
    return [t.grad.copy() for t in inputs]


def _assert_close(got, want, rel):
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= rel * np.abs(w).max()


def _unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _log_tau_parts_scale(embeddings, tau, lam, c):
    """sum_i |lam_i c| sum|ds_i * cos_i| / (n tau), ds_i = rowsoftmax(cos_i / tau) - I:
    the summed magnitudes of the parts that add up to the log-tau gradient
    of `ovo_nce` under upstream weight c."""
    k, n = len(embeddings), embeddings[0].shape[0]
    total = 0.0
    for i, e in enumerate(embeddings):
        others = sum(o.values for j, o in enumerate(embeddings) if j != i) / (k - 1)
        cos = _unit_rows(e.values) @ _unit_rows(others).T
        p = np.exp(cos / tau)
        ds = p / p.sum(axis=1, keepdims=True) - np.eye(n)
        total += abs(lam[i] * c) * np.abs(ds * cos).sum()
    return total / (n * tau)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(2, 5), n=st.integers(1, 12), width=st.integers(2, 8),
       tau=st.floats(0.5, 5.0), weighting=st.sampled_from(["none", "logits", "peaked"]),
       seed=SEEDS)
@example(k=2, n=7, width=7, tau=3.8092108885439506, weighting="logits", seed=2)
def test_ovo_nce_matches_the_composed_oracle(k, n, width, tau, weighting, seed):
    # width >= 2: at width 1 every cosine is +-1 and the true gradient is 0,
    # so both sides hold only rounding noise. A small tau saturates the row
    # softmax of a few rows, and p - 1 then cancels to a gradient far below
    # the noise of its parts, so tau stays in [0.5, 5]. "peaked" logits put
    # nearly all of lambda on one modality.
    rng = np.random.default_rng(seed)
    embeddings = [Tensor(rng.standard_normal((n, width))) for _ in range(k)]
    log_tau = Tensor(np.log(tau))
    logits = {"none": None,
              "logits": Tensor(rng.standard_normal(k)),
              "peaked": Tensor(30.0 * np.eye(k)[rng.integers(k)])}[weighting]
    inputs = embeddings + [log_tau] + ([] if logits is None else [logits])

    fused_loss, fused_terms = ovo_nce(embeddings, log_tau, logits)
    oracle_loss, oracle_terms = composed_ovo(embeddings, log_tau, logits)
    assert_bitwise_equal(fused_loss.values, oracle_loss.values)
    assert_bitwise_equal(fused_terms, oracle_terms)

    fused = _grads(lambda: ovo_nce(embeddings, log_tau, logits)[0], inputs, seed)
    oracle = _grads(lambda: composed_ovo(embeddings, log_tau, logits)[0], inputs, seed)
    _assert_close(fused[:k] + fused[k + 1:], oracle[:k] + oracle[k + 1:], 1e-12)
    # the log-tau gradient sums parts of both signs, which can cancel to far
    # below their own size and rounding, so its error is bounded by that size
    lam = np.ones(k) if logits is None else kernels.softmax(logits.values)
    c = np.random.default_rng(seed).standard_normal(())  # the upstream weight of `_grads`
    scale = _log_tau_parts_scale(embeddings, tau, lam, c)
    assert abs(fused[k] - oracle[k]) <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(widths=st.lists(st.integers(1, 6), min_size=2, max_size=4), n=st.integers(1, 6),
       needs=st.lists(st.booleans(), min_size=7, max_size=7), seed=SEEDS)
def test_dense_matches_the_composed_affine_and_tanh(widths, n, needs, seed):
    # 1-3 layers; `needs` says which of the input and the parameters take a
    # gradient. The composed ops write each intermediate gradient through
    # `_accumulate`'s + 0.0 and the fused node writes none, so the two can
    # differ only in the sign of an exact zero, which `np.array_equal` takes
    # as equal.
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((n, widths[0])))
    layers = [(Tensor(rng.standard_normal((din, dout))), Tensor(rng.standard_normal(dout)))
              for din, dout in zip(widths[:-1], widths[1:])]
    inputs = [x] + [p for layer in layers for p in layer]
    for t, need in zip(inputs, needs):
        t.requires_grad = need

    def composed():
        h = x
        for li, (w, b) in enumerate(layers):
            h = affine(h, w, b)
            if li < len(layers) - 1:
                h = tanh(h)
        return h

    def grads(out):
        for t in inputs:
            t.zero_grad()
        weight = np.random.default_rng(seed).standard_normal(out.shape)
        axis_sum(mul(out, weight)).backward()
        return [None if t.grad is None else t.grad.copy() for t in inputs]

    assert_bitwise_equal(dense(x, layers).values, composed().values)
    got, want = grads(dense(x, layers)), grads(composed())
    assert [g is None for g in got] == [w is None for w in want] == [not t.requires_grad
                                                                     for t in inputs]
    for g, w in zip(got, want):
        assert g is None or np.array_equal(g, w)


@settings(max_examples=150, deadline=None)
@given(steps=st.integers(1, 6), n=st.integers(1, 6), din=st.integers(1, 6),
       hid=st.integers(1, 6), lam=st.sampled_from(["none", "zero", "one", "uniform"]),
       xs_need_grad=st.booleans(), seed=SEEDS)
def test_lstm_step_matches_the_composed_oracle(steps, n, din, hid, lam, xs_need_grad, seed):
    rng = np.random.default_rng(seed)
    params = make_lstm_params(rng, din, hid)
    params["b"].values[...] = rng.standard_normal(4 * hid)
    xs = [Tensor(rng.standard_normal((n, din))) for _ in range(steps)]
    lams = {"none": None, "zero": [0.0] * steps, "one": [1.0] * steps,
            "uniform": list(rng.uniform(size=steps))}[lam]
    inputs = list(params.values()) + (xs if xs_need_grad else [])

    def fused():
        return lstm_sequence(params, xs, lams)

    def oracle():
        return composed_unroll(params, xs, lams)

    assert_bitwise_equal(fused().values, oracle().values)
    _assert_close(_grads(fused, inputs, seed), _grads(oracle, inputs, seed), 1e-15)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), labels=st.integers(1, 5), weighted=st.booleans(), seed=SEEDS)
def test_sigmoid_ce_is_bitwise_the_composed_ops(n, labels, weighted, seed):
    rng = np.random.default_rng(seed)
    z = Tensor(rng.standard_normal((n, labels)) * 4.0)
    y = rng.integers(0, 2, size=(n, labels)).astype(np.float64)
    w = rng.uniform(0.5, 3.0, size=(n, labels)) if weighted else None
    assert_bitwise_equal(_sigmoid_ce(z, y, w).values, composed_sigmoid_ce(z, y, w).values)
    for got, want in zip(_grads(lambda: _sigmoid_ce(z, y, w), [z], seed),
                         _grads(lambda: composed_sigmoid_ce(z, y, w), [z], seed)):
        assert_bitwise_equal(got, want)
