"""Properties of the fused graph ops against their composed oracles, over
random shapes and values: `autodiff.ovo_nce`, `autodiff.affine`,
`encoders.lstm_sequence` and `fusion._sigmoid_ce`."""

import numpy as np
from hypothesis import given, settings, strategies as st

from mmcl.autodiff import Tensor, affine, ovo_nce
from mmcl.encoders import lstm_sequence, make_lstm_params
from mmcl.fusion import _sigmoid_ce

from ce_oracle import composed_sigmoid_ce
from elementary_ops import add, axis_sum, matmul, mul
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


@settings(max_examples=150, deadline=None)
@given(k=st.integers(2, 5), n=st.integers(1, 12), width=st.integers(2, 8),
       tau=st.floats(0.5, 5.0), weighting=st.sampled_from(["none", "logits", "peaked"]),
       seed=SEEDS)
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
    _assert_close(fused, oracle, 1e-12)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 8), d=st.integers(1, 8), m=st.integers(1, 8), seed=SEEDS)
def test_affine_is_bitwise_the_matmul_and_add(n, d, m, seed):
    rng = np.random.default_rng(seed)
    inputs = [Tensor(rng.standard_normal(shape)) for shape in ((n, d), (d, m), (m,))]
    x, w, b = inputs

    def composed():
        return add(matmul(x, w), b)

    assert_bitwise_equal(affine(x, w, b).values, composed().values)
    for got, want in zip(_grads(lambda: affine(x, w, b), inputs, seed),
                         _grads(composed, inputs, seed)):
        assert_bitwise_equal(got, want)


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
