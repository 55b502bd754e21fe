import numpy as np
import pytest

from mmcl import kernels

from kernel_oracle import assert_bitwise_equal, masked_sigmoid


def _top5_row_loop(sim, patient_ids):
    """Oracle for top5_same_patient: walk each row in stable descending
    order, skip the row itself, and stop at a patient match or 5 others."""
    hits = 0
    for i in range(sim.shape[0]):
        found = 0
        for j in np.argsort(-sim[i], kind="stable"):
            if j == i:
                continue
            if patient_ids[j] == patient_ids[i]:
                hits += 1
                break
            found += 1
            if found == 5:
                break
    return hits


def test_sigmoid_reference_values():
    x = np.array([0.0, 100.0, -100.0])
    out = kernels.sigmoid(x)
    np.testing.assert_allclose(out, [0.5, 1.0, 0.0], atol=1e-30)
    assert np.all(np.isfinite(out))


def test_softplus_reference_values():
    x = np.array([0.0, 50.0, -50.0])
    out = kernels.softplus(x)
    assert out[0] == pytest.approx(np.log(2.0))
    assert out[1] == pytest.approx(50.0)
    assert 0.0 < out[2] < 1e-20
    assert np.all(np.isfinite(kernels.softplus(np.array([1000.0, -1000.0]))))


def test_logsumexp_reference_stable():
    s = np.array([[1000.0, 1000.0], [0.0, np.log(3.0)]])
    out = kernels.logsumexp_rows(s)
    assert out[0] == pytest.approx(1000.0 + np.log(2.0))
    assert out[1] == pytest.approx(np.log(4.0))


def test_logsumexp_rows_matches_naive():
    rng = np.random.default_rng(8)
    s = rng.standard_normal((4, 5)) * 3
    out = kernels.logsumexp_rows(s)
    np.testing.assert_allclose(out, np.log(np.exp(s).sum(axis=1)), rtol=1e-14)


def test_top5_reference_tie_breaking():
    # entry 0: its 5 nearest (all tied at 0.5) are entries 1..5 by index
    # order; entry 6 matches the patient but is ranked 6th, so no hit
    sim = np.full((7, 7), 0.5)
    np.fill_diagonal(sim, 1.0)
    pids = np.array([0, 1, 2, 3, 4, 5, 0], dtype=np.int64)
    hits = kernels.top5_same_patient(sim, pids)
    # rows 1..5 see row 0 (pid differs) plus rows among 1..6; row 6 sees
    # row 0 (same pid, rank 1) -> hit; row 0 misses
    assert hits == 1
    assert _top5_row_loop(sim, pids) == 1


@pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 4)])
def test_sigmoid_softplus_closed_form(shape):
    x = np.random.default_rng(0).standard_normal(shape) * 10
    sig, soft = kernels.sigmoid(x), kernels.softplus(x)
    assert sig.shape == soft.shape == shape
    np.testing.assert_allclose(sig, 1.0 / (1.0 + np.exp(-x)), rtol=1e-15, atol=1e-300)
    np.testing.assert_allclose(soft, np.log1p(np.exp(x)), rtol=1e-15, atol=1e-300)


@pytest.mark.parametrize("shape", [(32, 64), (32, 192), (15, 64), (64, 64), (32, 1)])
def test_sigmoid_bitwise_matches_masked_oracle_at_workload_shapes(shape):
    # LSTM pre-activations at the workload shapes, plus a wide tail
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for scale in (1.0, 10.0, 300.0):
        x = rng.standard_normal(shape) * scale
        assert_bitwise_equal(kernels.sigmoid(x), masked_sigmoid(x))


def test_sigmoid_bitwise_matches_masked_oracle_at_special_values():
    mags = [0.0, 1e-300, 36.0, 40.0, 709.0, 1000.0, np.inf]
    x = np.array(mags + [-m for m in mags] + [np.nan])
    out = kernels.sigmoid(x)
    assert_bitwise_equal(out, masked_sigmoid(x))
    assert out[0] == out[len(mags)] == 0.5  # both signed zeros
    assert np.isnan(out[-1])


@pytest.mark.parametrize("x", [np.array(-3.0), np.array(2.5),
                               np.random.default_rng(3).standard_normal((2, 3, 4)) * 20,
                               np.asfortranarray(np.random.default_rng(4).standard_normal((5, 7)) * 20)],
                         ids=["0d_negative", "0d_positive", "3d", "f_order"])
def test_sigmoid_bitwise_matches_masked_oracle_on_any_layout(x):
    out = kernels.sigmoid(x)
    assert_bitwise_equal(out, masked_sigmoid(x))


def test_active_top5_matches_reference():
    rng = np.random.default_rng(2)
    for trial in range(10):
        e = int(rng.integers(7, 40))
        sim = np.round(rng.standard_normal((e, e)), 1)  # coarse grid forces ties
        sim = (sim + sim.T) / 2
        pids = rng.integers(0, e // 2, size=e).astype(np.int64)
        before = sim.copy()
        assert kernels.top5_same_patient(sim, pids) == _top5_row_loop(sim, pids)
        np.testing.assert_array_equal(sim, before)
