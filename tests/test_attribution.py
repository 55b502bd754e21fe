import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmcl.attribution import (AttributionReport, integrated_gradients,
                              modality_aggregate, spearman_rank_correlation)
from mmcl.autodiff import Tensor, concat
from mmcl.errors import MAX_IG_STEPS, ContractError, DegenerateInputError
from mmcl.fusion import ClassifierHead, weighted_bce

from ig_oracle import per_point_integrated_gradients
from elementary_ops import add, axis_sum, gradient_step, mul, sigmoid
from kernel_oracle import assert_bitwise_equal


def _row_sums(t):
    """The (S, 1) column of row sums: one logit per row."""
    return axis_sum(t, 1, keepdims=True)


def _linear_model(w):
    w = Tensor(np.asarray(w, float))
    return lambda t: _row_sums(mul(t, w))


# --------------------------------------------------------------------------
# integrated gradients

def test_linear_model_is_exact():
    # for f(x) = w.x the attribution of feature i is exactly w_i * x_i
    w = np.array([2.0, -1.0, 0.5])
    x = np.array([1.0, 3.0, -2.0])
    report = integrated_gradients(_linear_model(w), x, steps=4)
    np.testing.assert_allclose(report.per_feature, w * x, atol=1e-12)
    assert report.completeness_residual <= 1e-12


def test_constant_model_gives_zero():
    report = integrated_gradients(lambda t: add(_row_sums(mul(t, np.zeros(3))), 5.0),
                                  np.array([1.0, 2.0, 3.0]), steps=8)
    np.testing.assert_allclose(report.per_feature, np.zeros(3), atol=1e-12)
    assert report.output_at_input == pytest.approx(5.0)
    assert report.output_at_baseline == pytest.approx(5.0)


def test_input_independent_model_gives_zero():
    # the output never touches the input, so no gradient reaches it
    report = integrated_gradients(lambda t: Tensor(np.ones((t.shape[0], 1))), np.ones(3),
                                  steps=4)
    np.testing.assert_array_equal(report.per_feature, np.zeros(3))
    assert report.completeness_residual == 0.0
    assert report.output_at_input == report.output_at_baseline == 1.0


def test_nonzero_baseline():
    w = np.array([1.0, 2.0])
    x = np.array([3.0, 4.0])
    b = np.array([1.0, 1.0])
    report = integrated_gradients(_linear_model(w), x, baseline=b, steps=4)
    np.testing.assert_allclose(report.per_feature, w * (x - b), atol=1e-12)


def test_completeness_residual_shrinks_with_steps():
    # nonlinear model: the Riemann sum error must fall as steps grow
    def model(t):
        return _row_sums(mul(t.tanh(), t.tanh()))

    x = np.array([1.5, -2.0, 0.7])
    residuals = [integrated_gradients(model, x, steps=s).completeness_residual
                 for s in (4, 16, 64, 256)]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] < 1e-2


def test_completeness_holds_approximately():
    def model(t):
        return _row_sums(mul(sigmoid(t), np.array([1.0, -2.0, 0.5, 3.0])))

    x = np.array([0.4, -1.2, 2.0, 0.1])
    report = integrated_gradients(model, x, steps=512)
    gap = report.output_at_input - report.output_at_baseline
    assert report.per_feature.sum() == pytest.approx(gap, abs=1e-2)
    assert report.completeness_residual == pytest.approx(
        abs(report.per_feature.sum() - gap), abs=1e-15)


def test_ig_input_validation():
    with pytest.raises(ContractError):
        integrated_gradients(_linear_model([1.0]), np.array([1.0]), steps=1)
    for steps in (MAX_IG_STEPS + 1, 2.5, 4.0):  # a float used to raise numpy's TypeError
        with pytest.raises(ContractError, match="steps"):
            integrated_gradients(_linear_model([1.0]), np.array([1.0]), steps=steps)
    with pytest.raises(ContractError):
        integrated_gradients(_linear_model([1.0, 1.0]), np.array([1.0, 2.0]),
                             baseline=np.array([0.0]))
    with pytest.raises(ContractError, match=r"\(258, L\)"):  # (S,): a vector, not (S, L)
        integrated_gradients(lambda t: axis_sum(t, 1), np.array([1.0, 2.0]))
    with pytest.raises(ContractError, match=r"\(258, L\)"):  # scalar: everything summed away
        integrated_gradients(lambda t: axis_sum(t), np.array([1.0, 2.0]))
    with pytest.raises(ContractError, match=r"\(258, L\)"):  # (1, f): the rows summed away
        integrated_gradients(lambda t: axis_sum(t, 0, keepdims=True), np.array([1.0, 2.0]))
    for target in (2, -1, 1.0, True, None):  # L = 2 logits per row
        with pytest.raises(ContractError, match=r"outside \[0, 2\)"):
            integrated_gradients(lambda t: mul(t, np.ones(2)), np.array([1.0, 2.0]),
                                 target=target)


def test_ig_calls_model_once():
    calls = []

    def model(t):
        calls.append(t.shape)
        return _row_sums(mul(t, t))

    integrated_gradients(model, np.array([1.0, -2.0, 0.5]), steps=16)
    assert calls == [(18, 3)]


def _trained_head():
    rng = np.random.default_rng(3)
    head = ClassifierHead(4, [6], 1, rng)
    x_train = rng.standard_normal((64, 4))
    y_train = (x_train[:, 0] - 0.5 * x_train[:, 2] > 0).astype(float)
    for _ in range(30):
        gradient_step(head.parameters(), lambda: weighted_bce(head.forward(x_train), y_train),
                      0.05)
    return head.forward, 0


def _three_logit_head():
    return ClassifierHead(4, [6], 3, np.random.default_rng(8)).forward, 2


def _tanh_model():
    return lambda t: _row_sums(mul(t.tanh(), t.tanh())), 0


def _sigmoid_model():
    w = Tensor(np.array([1.0, -2.0, 0.5, 3.0]))
    return lambda t: _row_sums(mul(sigmoid(t), w)), 0


@pytest.mark.parametrize("make_model",
                         [_trained_head, _three_logit_head, _tanh_model, _sigmoid_model],
                         ids=["trained_head", "three_logit_head", "tanh", "sigmoid"])
@pytest.mark.parametrize("steps", [2, 64, 256])
def test_batched_ig_matches_per_point_loop(make_model, steps):
    model, target = make_model()
    rng = np.random.default_rng(steps)
    x = rng.standard_normal(4)
    baseline = 0.3 * rng.standard_normal(4)
    got = integrated_gradients(model, x, baseline=baseline, steps=steps, target=target)
    want = per_point_integrated_gradients(model, x, baseline=baseline, steps=steps,
                                          target=target)
    np.testing.assert_allclose(got.per_feature, want.per_feature, rtol=0, atol=1e-13)
    assert got.output_at_input == pytest.approx(want.output_at_input, rel=0, abs=1e-13)
    assert got.output_at_baseline == pytest.approx(want.output_at_baseline, rel=0, abs=1e-13)
    assert got.completeness_residual == pytest.approx(want.completeness_residual,
                                                      rel=0, abs=1e-13)
    np.testing.assert_array_equal(got.baseline, baseline)


def test_ig_of_one_column_is_bitwise_ig_of_a_model_of_that_column():
    # the seed's zero column sends zeros through the other logit's branch
    (sigmoid_column, _), (tanh_column, _) = _sigmoid_model(), _tanh_model()
    rng = np.random.default_rng(5)
    x, baseline = rng.standard_normal(4), 0.3 * rng.standard_normal(4)
    got = integrated_gradients(lambda t: concat([sigmoid_column(t), tanh_column(t)]), x,
                               baseline=baseline, steps=64, target=1)
    want = integrated_gradients(tanh_column, x, baseline=baseline, steps=64)
    np.testing.assert_array_equal(got.per_feature, want.per_feature, strict=True)
    assert (got.completeness_residual, got.output_at_input, got.output_at_baseline) == (
        want.completeness_residual, want.output_at_input, want.output_at_baseline)


# --------------------------------------------------------------------------
# modality aggregation

def _report(per_feature):
    return AttributionReport(np.asarray(per_feature, float), np.zeros(len(per_feature)),
                             0.0, 0.0, 0.0)


def test_modality_aggregate_sums_abs_and_normalizes():
    report = _report([1.0, -2.0, 0.0, 3.0])
    scores = modality_aggregate(report, 2)
    np.testing.assert_allclose(scores, [3 / 6, 3 / 6])
    report2 = _report([1.0, 1.0, 4.0, 0.0])
    np.testing.assert_array_equal(modality_aggregate(report2, 2), [2 / 6, 4 / 6])


def test_modality_aggregate_all_zero_falls_back_to_uniform():
    scores = modality_aggregate(_report([0.0, 0.0, 0.0, 0.0]), 2)
    np.testing.assert_allclose(scores, [0.5, 0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308], ids=["nan", "inf", "sum_overflows"])
def test_modality_aggregate_rejects_non_finite_attributions(bad):
    # NaN used to fall through `total > 0` to uniform scores
    with pytest.raises(DegenerateInputError, match="not finite"):
        modality_aggregate(_report([1.0, 2.0, bad, bad]), 2)


@pytest.mark.parametrize("k", [2, 4, 0, -3, 1.5, True])
def test_modality_aggregate_rejects_a_k_that_does_not_split_the_features(k):
    with pytest.raises(ContractError, match=f"3 features do not split into {k!r} equal"):
        modality_aggregate(_report([1.0, 2.0, 3.0]), k)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 5), width=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_modality_aggregate_is_bitwise_the_sums_of_its_blocks(k, width, seed):
    per_feature = np.random.default_rng(seed).standard_normal(k * width) * 10.0
    magnitude = np.abs(per_feature)
    raw = np.array([magnitude[i * width:(i + 1) * width].sum() for i in range(k)])
    assert_bitwise_equal(modality_aggregate(_report(per_feature), k), raw / raw.sum())


# --------------------------------------------------------------------------
# Spearman correlation

def test_spearman_monotone_is_one():
    a = np.array([1.0, 5.0, 2.0, 9.0])
    assert spearman_rank_correlation(a, np.exp(a)) == pytest.approx(1.0)
    assert spearman_rank_correlation(a, -a) == pytest.approx(-1.0)


def test_spearman_hand_case_with_ties():
    # midranks: a -> [1.5, 1.5, 3], b -> [1, 2, 3]
    a = np.array([1.0, 1.0, 2.0])
    b = np.array([10.0, 20.0, 30.0])
    ra = np.array([1.5, 1.5, 3.0])
    rb = np.array([1.0, 2.0, 3.0])
    expected = np.corrcoef(ra, rb)[0, 1]
    assert spearman_rank_correlation(a, b) == pytest.approx(expected, abs=1e-12)


def test_spearman_constant_input_is_zero():
    assert spearman_rank_correlation(np.ones(4), np.array([1.0, 2.0, 3.0, 4.0])) == 0.0


def test_spearman_validation():
    with pytest.raises(ContractError):
        spearman_rank_correlation(np.ones(3), np.ones(4))
    with pytest.raises(ContractError):
        spearman_rank_correlation(np.ones(1), np.ones(1))
