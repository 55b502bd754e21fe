import numpy as np
import pytest

from mmcl.autodiff import Tensor, grad_check
from mmcl.encoders import LSTM_GATES, lstm_step, make_lstm_params
from mmcl.errors import ContractError, DegenerateInputError, DimensionError
from mmcl.fusion import (ClassifierHead, ModalitySequence, class_weights_from_counts,
                         concat_fuse, mlstm_forward, multilabel_ce, weighted_bce)
from mmcl.losses import ModalityEmbeddingSet

from lstm_oracle import composed_lstm_step, composed_unroll


def _params(rng, din, hid):
    return make_lstm_params(rng, din, hid)


def _gate_pre(params, x, h):
    """Per-gate pre-activations, each from its own column block."""
    hid = params["wh"].values.shape[0]
    return {gate: x @ params["wx"].values[:, k * hid:(k + 1) * hid]
            + h @ params["wh"].values[:, k * hid:(k + 1) * hid]
            + params["b"].values[k * hid:(k + 1) * hid]
            for k, gate in enumerate(LSTM_GATES)}


def _packed(c, h):
    return Tensor(np.hstack([c.values, h.values]))


def _seq(mats, lambdas, order=None):
    order = order or [f"m{i}" for i in range(len(mats))]
    return ModalitySequence(order, [Tensor(m) for m in mats], lambdas)


# --------------------------------------------------------------------------
# concatenation fusion

def test_concat_fuse_width_and_round_trip():
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((4, 3)) for _ in range(3)]
    emb = ModalityEmbeddingSet(["a", "b", "c"], [Tensor(m) for m in mats])
    fused = concat_fuse(emb)
    assert fused.shape == (4, 9)
    for i, m in enumerate(mats):
        np.testing.assert_array_equal(fused.values[:, 3 * i:3 * (i + 1)], m)


# --------------------------------------------------------------------------
# modality sequence validation

def test_modality_sequence_simplex_enforced():
    mats = [np.zeros((2, 3))] * 2
    with pytest.raises(ContractError):
        _seq(mats, [0.9, 0.3])


@pytest.mark.parametrize("lambdas", [[np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [2.0, -1.0, 0.0],
                                     [1.0 + 1e-7, -1e-7, 0.0]],
                         ids=["nan", "inf", "negative_summing_to_one", "tiny_negative"])
def test_modality_sequence_rejects_weights_off_the_simplex(lambdas):
    mats = [np.zeros((2, 3))] * 3
    with pytest.raises(ContractError, match="finite and nonnegative"):
        _seq(mats, lambdas)


def test_modality_sequence_absorbs_rounding():
    mats = [np.zeros((2, 3))] * 2
    seq = _seq(mats, [0.5 + 2e-7, 0.5])
    assert seq.lambdas.sum() == pytest.approx(1.0, abs=1e-15)


def test_modality_sequence_alignment():
    with pytest.raises(ContractError):
        ModalitySequence(["a"], [Tensor(np.zeros((2, 3)))], [0.5, 0.5])


# --------------------------------------------------------------------------
# gated cell

def test_mlstm_step_lambda_one_matches_plain_lstm():
    rng = np.random.default_rng(1)
    params = _params(rng, 3, 4)
    x = Tensor(rng.standard_normal((2, 3)))
    c0, h0 = Tensor(rng.standard_normal((2, 4))), Tensor(rng.standard_normal((2, 4)))
    gated = lstm_step(params, x, _packed(c0, h0), 1.0)
    c_ref, h_ref = composed_lstm_step(params, x, c0, h0)
    np.testing.assert_array_equal(gated.values, np.hstack([c_ref.values, h_ref.values]))


def test_mlstm_step_lambda_zero_suppresses_candidate():
    # lambda = 0: the step writes nothing new, C' = F . C
    rng = np.random.default_rng(2)
    params = _params(rng, 3, 4)
    x = Tensor(rng.standard_normal((2, 3)))
    c0, h0 = Tensor(rng.standard_normal((2, 4))), Tensor(rng.standard_normal((2, 4)))
    gated = lstm_step(params, x, _packed(c0, h0), 0.0)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    f = sig(_gate_pre(params, x.values, h0.values)["f"])
    np.testing.assert_allclose(gated.values[:, :4], f * c0.values, atol=1e-14)


def test_mlstm_write_magnitude_monotone_in_lambda():
    rng = np.random.default_rng(3)
    params = _params(rng, 3, 4)
    x = Tensor(rng.standard_normal((2, 3)))
    c0, h0 = Tensor(rng.standard_normal((2, 4))), Tensor(rng.standard_normal((2, 4)))

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    f = sig(_gate_pre(params, x.values, h0.values)["f"])
    deltas = []
    for lam in (0.0, 0.25, 0.5, 1.0):
        state = lstm_step(params, x, _packed(c0, h0), lam)
        deltas.append(np.linalg.norm(state.values[:, :4] - f * c0.values))
    assert deltas[0] == pytest.approx(0.0, abs=1e-12)
    assert all(a < b for a, b in zip(deltas, deltas[1:]))


def test_mlstm_forward_matches_reference_unroll():
    rng = np.random.default_rng(4)
    params = _params(rng, 3, 4)
    mats = [rng.standard_normal((2, 3)) for _ in range(3)]
    lambdas = np.array([0.5, 0.3, 0.2])
    out = mlstm_forward(params, _seq(mats, lambdas), 4).values

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    c = np.zeros((2, 4))
    h = np.zeros((2, 4))
    for x, lam in zip(mats, lambdas):
        pre = _gate_pre(params, x, h)
        c = sig(pre["f"]) * c + (sig(pre["i"]) * np.tanh(pre["g"])) * lam
        h = sig(pre["o"]) * np.tanh(c)
    np.testing.assert_allclose(out, h, atol=1e-13)


def test_mlstm_forward_uniform_lambda_reduces_to_scaled_plain_lstm():
    # with every lambda = 1 (via the unchecked constructor) the gated unroll
    # must equal the plain LSTM unroll bitwise
    rng = np.random.default_rng(5)
    params = _params(rng, 3, 4)
    mats = [rng.standard_normal((2, 3)) for _ in range(3)]
    seq = ModalitySequence.unchecked(["a", "b", "c"], [Tensor(m) for m in mats],
                                     np.ones(3))
    gated = mlstm_forward(params, seq, 4).values
    np.testing.assert_array_equal(gated, composed_unroll(params, mats, 4).values)


def test_mlstm_forward_rejects_single_modality():
    rng = np.random.default_rng(6)
    params = _params(rng, 3, 4)
    with pytest.raises(ContractError):
        mlstm_forward(params, ModalitySequence(["a"], [Tensor(np.zeros((2, 3)))], [1.0]), 4)


def test_mlstm_gradients_including_lambdas():
    rng = np.random.default_rng(7)
    params = _params(rng, 3, 4)
    mats = [Tensor(rng.standard_normal((2, 3))) for _ in range(5)]
    lam = Tensor(np.array([0.3, 0.25, 0.2, 0.15, 0.1]))

    def f():
        state = Tensor(np.zeros((2, 8)))
        for t, x_t in enumerate(mats):
            state = lstm_step(params, x_t, state, lam[t])
        h = state[:, 4:]
        return (h * h).sum()

    tensors = mats + [lam] + list(params.values())
    assert grad_check(f, tensors, h=1e-5) < 1e-4


# --------------------------------------------------------------------------
# heads and losses

def test_head_output_shape_and_linearity():
    head = ClassifierHead(4, [], 1, np.random.default_rng(0))
    w, b = head.layers[0]
    w.values[...] = np.array([[1.0], [0.0], [0.0], [0.0]])
    b.values[...] = 0.5
    x = np.array([[2.0, 9.0, 9.0, 9.0], [-1.0, 0.0, 0.0, 0.0]])
    np.testing.assert_allclose(head.forward(x).values, [[2.5], [-0.5]])


def test_head_feature_width_mismatch():
    head = ClassifierHead(4, [], 1, np.random.default_rng(0))
    with pytest.raises(DimensionError):
        head.forward(np.zeros((2, 5)))


def test_weighted_bce_analytic_values():
    # zero logit: softplus(0) - y*0 = log 2 for both classes
    logits = Tensor(np.zeros((4, 1)))
    targets = np.array([1, 0, 1, 0])
    assert weighted_bce(logits, targets).item() == pytest.approx(np.log(2.0), abs=1e-12)
    # weights scale the per-class terms
    val = weighted_bce(logits, targets, class_weights=(3.0, 1.0)).item()
    assert val == pytest.approx(np.log(2.0) * (3 + 1 + 3 + 1) / 4, abs=1e-12)


def test_weighted_bce_matches_manual_formula():
    rng = np.random.default_rng(8)
    z = rng.standard_normal(6)
    y = rng.integers(0, 2, size=6).astype(float)
    w_pos, w_neg = 2.0, 0.5
    p = 1.0 / (1.0 + np.exp(-z))
    manual = np.mean(np.where(y == 1, -w_pos * np.log(p), -w_neg * np.log(1 - p)))
    got = weighted_bce(Tensor(z.reshape(-1, 1)), y, (w_pos, w_neg)).item()
    assert got == pytest.approx(manual, abs=1e-10)


def test_weighted_bce_rejects_bad_targets_and_weights():
    with pytest.raises(ContractError):
        weighted_bce(Tensor(np.zeros((2, 1))), np.array([0.5, 1.0]))
    with pytest.raises(ContractError):
        weighted_bce(Tensor(np.zeros((2, 1))), np.array([0, 1]), (0.0, 1.0))


def test_weighted_bce_gradient():
    rng = np.random.default_rng(9)
    z = Tensor(rng.standard_normal((5, 1)))
    y = rng.integers(0, 2, size=5)
    assert grad_check(lambda: weighted_bce(z, y, (2.0, 1.0)), z) < 1e-6


def test_multilabel_ce_zero_logits():
    z = Tensor(np.zeros((3, 4)))
    y = np.random.default_rng(10).integers(0, 2, size=(3, 4))
    assert multilabel_ce(z, y).item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_multilabel_ce_shape_mismatch():
    with pytest.raises(DimensionError):
        multilabel_ce(Tensor(np.zeros((3, 4))), np.zeros((3, 5)))


def test_multilabel_ce_gradient():
    rng = np.random.default_rng(11)
    z = Tensor(rng.standard_normal((3, 4)))
    y = rng.integers(0, 2, size=(3, 4))
    assert grad_check(lambda: multilabel_ce(z, y), z) < 1e-6


def test_class_weights_formula():
    # w_c = (n_pos + n_neg) / (2 n_c)
    w_pos, w_neg = class_weights_from_counts(10, 30)
    assert w_pos == pytest.approx(2.0)
    assert w_neg == pytest.approx(40 / 60)
    assert class_weights_from_counts(5, 5) == (1.0, 1.0)


def test_class_weights_require_both_classes():
    with pytest.raises(DegenerateInputError):
        class_weights_from_counts(0, 10)
