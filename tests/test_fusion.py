import numpy as np
import pytest

from mmcl.autodiff import Tensor
from mmcl.encoders import LSTM_GATES, lstm_sequence, make_lstm_params
from mmcl.errors import ContractError, DegenerateInputError, DimensionError
from mmcl.fusion import (ClassifierHead, class_weights_from_counts, concat_fuse, mlstm_forward,
                         multilabel_ce, weighted_bce)
from mmcl.harness import Checkpoint, RunConfig, _resolve_lambdas

from elementary_ops import axis_sum, grad_check, mul
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


ROSTER = ["text_a", "text_b", "image", "demo", "series"]


def _resolve(lambdas, source="checkpoint"):
    """The mLSTM weights a run would use, given as a `literal:` source or
    stored in the contrastive checkpoint the run starts from."""
    k = len(lambdas)
    if source == "literal":
        config = RunConfig(ROSTER[:k], "mlstm", lambda_source=f"literal:{list(lambdas)}")
        return _resolve_lambdas(config, None)
    checkpoint = Checkpoint(RunConfig(ROSTER[:k], "contrastive_pretrain"), {},
                            np.asarray(lambdas, dtype=np.float64), 1.0)
    return _resolve_lambdas(RunConfig(ROSTER[:k], "mlstm"), checkpoint)


# --------------------------------------------------------------------------
# concatenation fusion

def test_concat_fuse_width_and_round_trip():
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((4, 3)) for _ in range(3)]
    fused = concat_fuse([Tensor(m) for m in mats])
    assert fused.shape == (4, 9)
    for i, m in enumerate(mats):
        np.testing.assert_array_equal(fused.values[:, 3 * i:3 * (i + 1)], m)


# --------------------------------------------------------------------------
# the modality sequence's weights, checked once per run by `_resolve_lambdas`

def test_modality_sequence_simplex_enforced():
    for source in ("literal", "checkpoint"):
        with pytest.raises(ContractError, match="sum to 1"):
            _resolve([0.9, 0.3], source)


@pytest.mark.parametrize("lambdas", [[np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5], [2.0, -1.0, 0.0],
                                     [1.0 + 1e-7, -1e-7, 0.0]],
                         ids=["nan", "inf", "negative_summing_to_one", "tiny_negative"])
def test_modality_sequence_rejects_weights_off_the_simplex(lambdas):
    with pytest.raises(ContractError, match="finite and nonnegative"):
        _resolve(lambdas)
    if np.isfinite(lambdas).all():  # a literal source holds finite numbers only
        with pytest.raises(ContractError, match="finite and nonnegative"):
            _resolve(lambdas, "literal")


def test_modality_sequence_absorbs_rounding():
    for source in ("literal", "checkpoint"):
        assert _resolve([0.5 + 2e-7, 0.5], source).sum() == pytest.approx(1.0, abs=1e-15)


def test_modality_sequence_alignment():
    # mlstm_forward takes the weights as given, but needs one per input
    params = _params(np.random.default_rng(0), 3, 4)
    inputs = [Tensor(np.zeros((2, 3)))] * 2
    for lambdas in ([0.5], [0.4, 0.3, 0.3]):
        with pytest.raises(ContractError, match="2 modality inputs"):
            mlstm_forward(params, inputs, lambdas)


# --------------------------------------------------------------------------
# gated cell

def test_mlstm_step_lambda_one_matches_plain_lstm():
    rng = np.random.default_rng(1)
    params = _params(rng, 3, 4)
    xs = [Tensor(rng.standard_normal((2, 3))) for _ in range(3)]
    gated = lstm_sequence(params, xs, [1.0] * 3)
    np.testing.assert_array_equal(gated.values, composed_unroll(params, xs).values)
    np.testing.assert_array_equal(gated.values, lstm_sequence(params, xs).values)


def _second_step(params, x1, x2, lam):
    """(H2 of a two-step sequence whose second write is scaled by `lam`,
    and C1, H1 after the first step)."""
    zeros = Tensor(np.zeros((x1.shape[0], params["wh"].shape[0])))
    c1, h1 = composed_lstm_step(params, x1, zeros, zeros)
    return lstm_sequence(params, [x1, x2], [1.0, lam]).values, c1.values, h1.values


def test_mlstm_step_lambda_zero_suppresses_candidate():
    # lambda = 0: the step writes nothing new, C2 = F . C1 and H2 = O . tanh(C2)
    rng = np.random.default_rng(2)
    params = _params(rng, 3, 4)
    x1, x2 = Tensor(rng.standard_normal((2, 3))), Tensor(rng.standard_normal((2, 3)))
    h2, c1, h1 = _second_step(params, x1, x2, 0.0)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    pre = _gate_pre(params, x2.values, h1)
    np.testing.assert_allclose(h2, sig(pre["o"]) * np.tanh(sig(pre["f"]) * c1), atol=1e-14)


def test_mlstm_write_magnitude_monotone_in_lambda():
    # C2 = F . C1 + lambda I . G, and tanh is increasing, so H2 moves away
    # from its lambda = 0 value monotonically in lambda
    rng = np.random.default_rng(3)
    params = _params(rng, 3, 4)
    x1, x2 = Tensor(rng.standard_normal((2, 3))), Tensor(rng.standard_normal((2, 3)))
    held = _second_step(params, x1, x2, 0.0)[0]
    deltas = [np.linalg.norm(_second_step(params, x1, x2, lam)[0] - held)
              for lam in (0.0, 0.25, 0.5, 1.0)]
    assert deltas[0] == pytest.approx(0.0, abs=1e-12)
    assert all(a < b for a, b in zip(deltas, deltas[1:]))


def test_mlstm_forward_matches_reference_unroll():
    rng = np.random.default_rng(4)
    params = _params(rng, 3, 4)
    mats = [rng.standard_normal((2, 3)) for _ in range(3)]
    lambdas = np.array([0.5, 0.3, 0.2])
    out = mlstm_forward(params, [Tensor(m) for m in mats], lambdas).values

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
    # with every lambda = 1 the gated unroll must equal the plain LSTM
    # unroll bitwise
    rng = np.random.default_rng(5)
    params = _params(rng, 3, 4)
    mats = [rng.standard_normal((2, 3)) for _ in range(3)]
    gated = mlstm_forward(params, [Tensor(m) for m in mats], np.ones(3)).values
    np.testing.assert_array_equal(gated, composed_unroll(params, mats).values)


def test_mlstm_forward_rejects_single_modality():
    rng = np.random.default_rng(6)
    params = _params(rng, 3, 4)
    with pytest.raises(ContractError):
        mlstm_forward(params, [Tensor(np.zeros((2, 3)))], [1.0])


def test_mlstm_gradients_through_constant_lambdas():
    rng = np.random.default_rng(7)
    params = _params(rng, 3, 4)
    mats = [Tensor(rng.standard_normal((2, 3))) for _ in range(5)]

    def f():
        h = lstm_sequence(params, mats, [0.3, 0.25, 0.2, 0.15, 0.1])
        return axis_sum(mul(h, h))

    tensors = mats + list(params.values())
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
    assert float(weighted_bce(logits, targets).values) == pytest.approx(np.log(2.0), abs=1e-12)
    # weights scale the per-class terms
    val = float(weighted_bce(logits, targets, class_weights=(3.0, 1.0)).values)
    assert val == pytest.approx(np.log(2.0) * (3 + 1 + 3 + 1) / 4, abs=1e-12)


def test_weighted_bce_matches_manual_formula():
    rng = np.random.default_rng(8)
    z = rng.standard_normal(6)
    y = rng.integers(0, 2, size=6).astype(float)
    w_pos, w_neg = 2.0, 0.5
    p = 1.0 / (1.0 + np.exp(-z))
    manual = np.mean(np.where(y == 1, -w_pos * np.log(p), -w_neg * np.log(1 - p)))
    got = float(weighted_bce(Tensor(z.reshape(-1, 1)), y, (w_pos, w_neg)).values)
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
    assert float(multilabel_ce(z, y).values) == pytest.approx(np.log(2.0), abs=1e-12)


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
