import numpy as np
import pytest

from mmcl.autodiff import Tensor, grad_check
from mmcl.errors import ContractError, DimensionError
from mmcl.losses import (LambdaWeights, ModalityEmbeddingSet, Temperature,
                         infonce_pair_loss, loss_for_combination, others_mean,
                         ovo_loss, similarity_matrix, weighted_ovo_loss)
from mmcl.optim import SGD


# --------------------------------------------------------------------------
# independent oracles: plain numpy + python loops, no shared code paths

def _oracle_directional(a, b, tau):
    """Mean over rows of -log softmax_m(cos(a_k, b_m)/tau) at m=k."""
    n = a.shape[0]
    total = 0.0
    for k in range(n):
        sims = np.array([
            np.dot(a[k], b[m]) / (np.linalg.norm(a[k]) * np.linalg.norm(b[m]))
            for m in range(n)]) / tau
        total += -np.log(np.exp(sims[k]) / np.exp(sims).sum())
    return total / n


def _oracle_ovo(mats, tau):
    k = len(mats)
    total = 0.0
    terms = []
    for i in range(k):
        others = sum(mats[j] for j in range(k) if j != i) / (k - 1)
        t = _oracle_directional(mats[i], others, tau)
        terms.append(t)
        total += t
    return total, terms


def _rand_set(k, n, d, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, d)) for _ in range(k)]


# --------------------------------------------------------------------------
# pairwise InfoNCE

def test_infonce_single_sample_is_zero():
    tau = Temperature()
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[0.5, -1.0]])
    total, terms = infonce_pair_loss(a, b, tau)
    assert total.item() == pytest.approx(0.0, abs=1e-12)


def test_infonce_orthogonal_pair_closed_form():
    # identical orthonormal embeddings: matched cos = 1, mismatched = 0,
    # so each directional term is -log(e / (e + 1))
    tau = Temperature(1.0)
    e = Tensor(np.eye(2))
    total, terms = infonce_pair_loss(e, Tensor(np.eye(2)), tau)
    expected = -np.log(np.e / (np.e + 1.0))
    assert expected == pytest.approx(0.31326, abs=5e-6)
    for t in terms:
        assert t.item() == pytest.approx(expected, abs=1e-9)
    assert total.item() == pytest.approx(2 * expected, abs=1e-9)


def test_infonce_matches_oracle():
    a, b = _rand_set(2, 6, 4, seed=0)
    tau = Temperature(0.7)
    total, terms = infonce_pair_loss(Tensor(a), Tensor(b), tau)
    assert terms[0].item() == pytest.approx(_oracle_directional(a, b, 0.7), abs=1e-10)
    assert terms[1].item() == pytest.approx(_oracle_directional(b, a, 0.7), abs=1e-10)
    assert total.item() == pytest.approx(terms[0].item() + terms[1].item(), abs=1e-12)


def test_infonce_nonnegative_and_batch_permutation_invariant():
    a, b = _rand_set(2, 8, 5, seed=1)
    tau = Temperature()
    total, _ = infonce_pair_loss(Tensor(a), Tensor(b), tau)
    assert total.item() >= 0.0
    perm = np.random.default_rng(2).permutation(8)
    permuted, _ = infonce_pair_loss(Tensor(a[perm]), Tensor(b[perm]), tau)
    assert permuted.item() == pytest.approx(total.item(), abs=1e-12)


def test_infonce_small_tau_stays_finite():
    a, b = _rand_set(2, 5, 4, seed=3)
    tau = Temperature(1e-3)
    total, _ = infonce_pair_loss(Tensor(a), Tensor(b), tau)
    assert np.isfinite(total.item())


def test_infonce_gradients():
    a, b = _rand_set(2, 4, 3, seed=4)
    ta, tb = Tensor(a), Tensor(b)
    tau = Temperature(0.5)
    err = grad_check(lambda: infonce_pair_loss(ta, tb, tau)[0],
                     [ta, tb, tau.log_tau])
    assert err < 1e-5


# --------------------------------------------------------------------------
# One-vs-Others

def test_others_mean_hand_case():
    mats = [Tensor(np.full((2, 2), float(v))) for v in (1, 2, 6)]
    emb = ModalityEmbeddingSet(["a", "b", "c"], mats)
    np.testing.assert_allclose(others_mean(emb, 0).values, np.full((2, 2), 4.0))
    np.testing.assert_allclose(others_mean(emb, 2).values, np.full((2, 2), 1.5))


def test_others_mean_index_out_of_range():
    emb = ModalityEmbeddingSet(["a", "b"], [Tensor(np.eye(2)), Tensor(np.eye(2))])
    with pytest.raises(ContractError):
        others_mean(emb, 2)


def test_ovo_k2_reduces_to_infonce():
    a, b = _rand_set(2, 6, 4, seed=5)
    tau = Temperature(0.8)
    emb = ModalityEmbeddingSet(["a", "b"], [Tensor(a), Tensor(b)])
    ovo_total, ovo_terms = ovo_loss(emb, tau)
    nce_total, nce_terms = infonce_pair_loss(Tensor(a), Tensor(b), tau)
    assert abs(ovo_total.item() - nce_total.item()) <= 1e-12
    for ot, nt in zip(ovo_terms, nce_terms):
        assert abs(ot.item() - nt.item()) <= 1e-12


def test_ovo_matches_bruteforce_oracle():
    mats = _rand_set(3, 4, 5, seed=6)
    tau = Temperature(0.6)
    emb = ModalityEmbeddingSet(["a", "b", "c"], [Tensor(m) for m in mats])
    total, terms = ovo_loss(emb, tau)
    o_total, o_terms = _oracle_ovo(mats, 0.6)
    assert total.item() == pytest.approx(o_total, abs=1e-10)
    for t, ot in zip(terms, o_terms):
        assert t.item() == pytest.approx(ot, abs=1e-10)


def test_ovo_modality_permutation_permutes_terms():
    mats = _rand_set(4, 5, 3, seed=7)
    tau = Temperature()
    emb = ModalityEmbeddingSet(list("abcd"), [Tensor(m) for m in mats])
    _, terms = ovo_loss(emb, tau)
    order = [2, 0, 3, 1]
    emb2 = ModalityEmbeddingSet([emb.modalities[i] for i in order],
                                [Tensor(mats[i]) for i in order])
    _, terms2 = ovo_loss(emb2, tau)
    for pos, i in enumerate(order):
        assert terms2[pos].item() == pytest.approx(terms[i].item(), abs=1e-12)


# --------------------------------------------------------------------------
# weighted OvO

def test_weighted_ovo_uniform_lambda_scales_by_one_over_k():
    mats = _rand_set(3, 4, 4, seed=8)
    tau = Temperature()
    emb = ModalityEmbeddingSet(["a", "b", "c"], [Tensor(m) for m in mats])
    plain, _ = ovo_loss(emb, tau)
    lam = LambdaWeights(3)  # zero logits -> uniform weights
    weighted, _ = weighted_ovo_loss(emb, tau, lam)
    assert weighted.item() == pytest.approx(plain.item() / 3.0, abs=1e-12)


def test_weighted_ovo_literal_weights_match_manual_sum():
    lambdas = np.array([0.297, 0.245, 0.187, 0.172, 0.100])
    lambdas = lambdas / lambdas.sum()
    mats = _rand_set(5, 4, 3, seed=9)
    tau = Temperature(0.5)
    emb = ModalityEmbeddingSet(list("abcde"), [Tensor(m) for m in mats])
    lam = LambdaWeights(5, initial_logits=np.log(lambdas))
    np.testing.assert_allclose(lam.values(), lambdas, atol=1e-12)
    weighted, _ = weighted_ovo_loss(emb, tau, lam)
    _, o_terms = _oracle_ovo(mats, 0.5)
    assert weighted.item() == pytest.approx(float(np.dot(lambdas, o_terms)), abs=1e-10)


def test_weighted_ovo_joint_gradients():
    mats = _rand_set(3, 3, 3, seed=10)
    tensors = [Tensor(m) for m in mats]
    tau = Temperature(0.7)
    lam = LambdaWeights(3, initial_logits=[0.3, -0.2, 0.1])
    emb = ModalityEmbeddingSet(["a", "b", "c"], tensors)
    err = grad_check(lambda: weighted_ovo_loss(emb, tau, lam)[0],
                     tensors + [tau.log_tau, lam.logits])
    assert err < 1e-5


def test_lambda_simplex_preserved_after_optimizer_step():
    mats = _rand_set(3, 4, 3, seed=11)
    tau = Temperature()
    lam = LambdaWeights(3)
    emb = ModalityEmbeddingSet(["a", "b", "c"], [Tensor(m) for m in mats])
    opt = SGD(lam.parameters() + tau.parameters(), lr=0.5)
    for _ in range(5):
        opt.zero_grad()
        total, _ = weighted_ovo_loss(emb, tau, lam)
        total.backward()
        opt.step()
    vals = lam.values()
    assert vals.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(vals > 0.0)
    assert tau.tau > 0.0


def test_lambda_length_mismatch():
    mats = _rand_set(3, 4, 3, seed=12)
    emb = ModalityEmbeddingSet(["a", "b", "c"], [Tensor(m) for m in mats])
    with pytest.raises(ContractError):
        weighted_ovo_loss(emb, Temperature(), LambdaWeights(4))


# --------------------------------------------------------------------------
# similarity matrix + dispatch

def test_similarity_matrix_values():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([[3.0, 0.0], [1.0, 1.0]])
    s = similarity_matrix(Tensor(a), Tensor(b), Temperature(0.5)).values
    expected = np.array([[1.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]]) / 0.5
    np.testing.assert_allclose(s, expected, atol=1e-12)


def test_embedding_set_validation():
    with pytest.raises(ContractError):
        ModalityEmbeddingSet(["a"], [Tensor(np.eye(2))])
    with pytest.raises(DimensionError):
        ModalityEmbeddingSet(["a", "b"], [Tensor(np.zeros((2, 3)) + 1), Tensor(np.ones((3, 3)))])


def test_dispatch_k2_is_infonce():
    a, b = _rand_set(2, 5, 4, seed=13)
    tau = Temperature()
    emb = ModalityEmbeddingSet(["a", "b"], [Tensor(a), Tensor(b)])
    got = loss_for_combination(emb, tau, lam=LambdaWeights(2))
    want, _ = infonce_pair_loss(Tensor(a), Tensor(b), tau)
    assert got.item() == pytest.approx(want.item(), abs=1e-12)


def test_dispatch_k3_is_weighted_ovo():
    mats = _rand_set(3, 5, 4, seed=14)
    tau = Temperature()
    lam = LambdaWeights(3, initial_logits=[0.5, 0.0, -0.5])
    emb = ModalityEmbeddingSet(["a", "b", "c"], [Tensor(m) for m in mats])
    got = loss_for_combination(emb, tau, lam)
    want, _ = weighted_ovo_loss(emb, tau, lam)
    assert got.item() == pytest.approx(want.item(), abs=1e-12)


def test_dispatch_k3_requires_lambdas():
    mats = _rand_set(3, 5, 4, seed=15)
    emb = ModalityEmbeddingSet(["a", "b", "c"], [Tensor(m) for m in mats])
    with pytest.raises(ContractError):
        loss_for_combination(emb, Temperature(), lam=None)
