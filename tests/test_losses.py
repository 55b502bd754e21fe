import functools
import operator

import numpy as np
import pytest

from mmcl import harness, kernels
from mmcl.autodiff import Parameter, Tensor, ovo_nce
from mmcl.cohort import default_five_modality_spec, generate
from mmcl.errors import ContractError, DegenerateInputError, DimensionError
from mmcl.losses import infonce_pair_loss, weighted_ovo_loss

from elementary_ops import add, exp, grad_check, gradient_step, log_temperature, mul, neg
from kernel_oracle import assert_bitwise_equal
from nce_oracle import composed_nce, others_mean, similarity_matrix


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


def _logits(values):
    """Trainable lambda logits, as `harness.pretrain` holds them."""
    return Parameter("lambda_logits", values)


def _backward_nodes(loss):
    """Number of graph nodes with a backward closure reachable from `loss`."""
    seen, stack, count = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node._backward is not None
        stack.extend(node._parents)
    return count


# --------------------------------------------------------------------------
# the directional cosine-similarity NCE terms of the fused op at K = 2
# against the composed oracle (tests/test_fused_ops.py draws K = 2..5)

@pytest.mark.parametrize("n, d, tau", [(1, 3, 1.0), (6, 4, 0.7), (64, 8, 0.05), (5, 4, 1e-3)])
def test_cosine_nce_forward_bitwise_equals_composed_oracle(n, d, tau):
    a, b = _rand_set(2, n, d, seed=n)
    log_tau = log_temperature(tau)
    inv_tau = exp(neg(log_tau))
    _, terms = ovo_nce([Tensor(a), Tensor(b)], log_tau)
    assert_bitwise_equal(terms, [float(composed_nce(Tensor(a), Tensor(b), inv_tau).values),
                                 float(composed_nce(Tensor(b), Tensor(a), inv_tau).values)])


def _fused_pair(a, b, log_tau):
    return ovo_nce([a, b], log_tau)[0]


def _composed_pair(a, b, log_tau):
    inv_tau = exp(neg(log_tau))
    return add(composed_nce(a, b, inv_tau), composed_nce(b, a, inv_tau))


def _grads(loss, a, b, inv_tau):
    # the loss takes log tau = -log(1/tau)
    tensors = [Tensor(a, requires_grad=True), Tensor(b, requires_grad=True),
               Tensor(-np.log(inv_tau), requires_grad=True)]
    mul(loss(*tensors), 0.37).backward()
    return [t.grad for t in tensors]


@pytest.mark.parametrize("n, d, inv_tau", [(2, 3, 1.0), (6, 4, 1.4), (64, 8, 20.0)])
def test_cosine_nce_gradients_match_composed_oracle(n, d, inv_tau):
    # relative to each gradient's largest entry; the two round differently
    a, b = _rand_set(2, n, d, seed=100 + n)
    for got, want in zip(_grads(_fused_pair, a, b, inv_tau),
                         _grads(_composed_pair, a, b, inv_tau)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_cosine_nce_gradient_check():
    a, b = _rand_set(2, 5, 3, seed=17)
    tensors = [Tensor(a), Tensor(b), Tensor(0.8)]
    assert grad_check(lambda: _fused_pair(*tensors), tensors) < 1e-6


def test_cosine_nce_skips_parents_without_gradient():
    a, b = _rand_set(2, 4, 3, seed=18)
    ta, tb, log_tau = Tensor(a, requires_grad=True), Tensor(b), Tensor(-0.4)
    _fused_pair(ta, tb, log_tau).backward()
    assert ta.grad is not None and tb.grad is None and log_tau.grad is None


@pytest.mark.parametrize("k, nodes", [(2, 1), (3, 1), (5, 1)])
def test_loss_graph_size(k, nodes):
    # the contrastive op takes log tau and the lambda logits as they are
    emb = [Tensor(m, requires_grad=True) for m in _rand_set(k, 64, 8, seed=19)]
    if k == 2:
        loss, _ = infonce_pair_loss(*emb, log_temperature())
    else:
        loss, _ = weighted_ovo_loss(emb, log_temperature(), _logits(np.zeros(k)))
    assert _backward_nodes(loss) == nodes


# --------------------------------------------------------------------------
# pairwise InfoNCE

def test_infonce_single_sample_is_zero():
    a = Tensor([[1.0, 2.0]])
    b = Tensor([[0.5, -1.0]])
    total, terms = infonce_pair_loss(a, b, log_temperature())
    assert float(total.values) == pytest.approx(0.0, abs=1e-12)


def test_infonce_orthogonal_pair_closed_form():
    # identical orthonormal embeddings: matched cos = 1, mismatched = 0,
    # so each directional term is -log(e / (e + 1))
    e = Tensor(np.eye(2))
    total, terms = infonce_pair_loss(e, Tensor(np.eye(2)), log_temperature(1.0))
    expected = -np.log(np.e / (np.e + 1.0))
    assert expected == pytest.approx(0.31326, abs=5e-6)
    for t in terms:
        assert t.item() == pytest.approx(expected, abs=1e-9)
    assert float(total.values) == pytest.approx(2 * expected, abs=1e-9)


def test_infonce_matches_oracle():
    a, b = _rand_set(2, 6, 4, seed=0)
    total, terms = infonce_pair_loss(Tensor(a), Tensor(b), log_temperature(0.7))
    assert terms[0].item() == pytest.approx(_oracle_directional(a, b, 0.7), abs=1e-10)
    assert terms[1].item() == pytest.approx(_oracle_directional(b, a, 0.7), abs=1e-10)
    assert float(total.values) == pytest.approx(terms[0].item() + terms[1].item(), abs=1e-12)


def test_infonce_nonnegative_and_batch_permutation_invariant():
    a, b = _rand_set(2, 8, 5, seed=1)
    log_tau = log_temperature()
    total, _ = infonce_pair_loss(Tensor(a), Tensor(b), log_tau)
    assert float(total.values) >= 0.0
    perm = np.random.default_rng(2).permutation(8)
    permuted, _ = infonce_pair_loss(Tensor(a[perm]), Tensor(b[perm]), log_tau)
    assert float(permuted.values) == pytest.approx(float(total.values), abs=1e-12)


def test_infonce_small_tau_stays_finite():
    a, b = _rand_set(2, 5, 4, seed=3)
    total, _ = infonce_pair_loss(Tensor(a), Tensor(b), log_temperature(1e-3))
    assert np.isfinite(float(total.values))


def test_infonce_gradients():
    a, b = _rand_set(2, 4, 3, seed=4)
    ta, tb = Tensor(a), Tensor(b)
    log_tau = log_temperature(0.5)
    err = grad_check(lambda: infonce_pair_loss(ta, tb, log_tau)[0], [ta, tb, log_tau])
    assert err < 1e-5


# --------------------------------------------------------------------------
# One-vs-Others

def test_others_mean_hand_case():
    # the oracle's others' mean, which the fused op rounds like
    mats = [Tensor(np.full((2, 2), float(v))) for v in (1, 2, 6)]
    np.testing.assert_allclose(others_mean(mats, 0).values, np.full((2, 2), 4.0))
    np.testing.assert_allclose(others_mean(mats, 2).values, np.full((2, 2), 1.5))


def test_ovo_k2_reduces_to_infonce():
    a, b = _rand_set(2, 6, 4, seed=5)
    log_tau = log_temperature(0.8)
    emb = [Tensor(a), Tensor(b)]
    ovo_total, ovo_terms = ovo_nce(emb, log_tau)
    nce_total, nce_terms = infonce_pair_loss(Tensor(a), Tensor(b), log_tau)
    assert abs(float(ovo_total.values) - float(nce_total.values)) <= 1e-12
    for ot, nt in zip(ovo_terms, nce_terms):
        assert abs(ot.item() - nt.item()) <= 1e-12


def test_ovo_matches_bruteforce_oracle():
    mats = _rand_set(3, 4, 5, seed=6)
    emb = [Tensor(m) for m in mats]
    total, terms = ovo_nce(emb, log_temperature(0.6))
    o_total, o_terms = _oracle_ovo(mats, 0.6)
    assert float(total.values) == pytest.approx(o_total, abs=1e-10)
    for t, ot in zip(terms, o_terms):
        assert t.item() == pytest.approx(ot, abs=1e-10)


def test_ovo_modality_permutation_permutes_terms():
    mats = _rand_set(4, 5, 3, seed=7)
    emb = [Tensor(m) for m in mats]
    _, terms = ovo_nce(emb, log_temperature())
    order = [2, 0, 3, 1]
    emb2 = [Tensor(mats[i]) for i in order]
    _, terms2 = ovo_nce(emb2, log_temperature())
    for pos, i in enumerate(order):
        assert terms2[pos].item() == pytest.approx(terms[i].item(), abs=1e-12)


# --------------------------------------------------------------------------
# weighted OvO

def test_weighted_ovo_uniform_lambda_scales_by_one_over_k():
    mats = _rand_set(3, 4, 4, seed=8)
    log_tau = log_temperature()
    emb = [Tensor(m) for m in mats]
    plain, _ = ovo_nce(emb, log_tau)
    weighted, _ = weighted_ovo_loss(emb, log_tau, _logits(np.zeros(3)))  # uniform weights
    assert float(weighted.values) == pytest.approx(float(plain.values) / 3.0, abs=1e-12)


def test_weighted_ovo_literal_weights_match_manual_sum():
    lambdas = np.array([0.297, 0.245, 0.187, 0.172, 0.100])
    lambdas = lambdas / lambdas.sum()
    mats = _rand_set(5, 4, 3, seed=9)
    emb = [Tensor(m) for m in mats]
    logits = _logits(np.log(lambdas))
    np.testing.assert_allclose(kernels.softmax(logits.values), lambdas, atol=1e-12)
    weighted, _ = weighted_ovo_loss(emb, log_temperature(0.5), logits)
    _, o_terms = _oracle_ovo(mats, 0.5)
    assert float(weighted.values) == pytest.approx(float(np.dot(lambdas, o_terms)), abs=1e-10)


def test_weighted_ovo_joint_gradients():
    mats = _rand_set(3, 3, 3, seed=10)
    tensors = [Tensor(m) for m in mats]
    log_tau, logits = log_temperature(0.7), _logits([0.3, -0.2, 0.1])
    err = grad_check(lambda: weighted_ovo_loss(tensors, log_tau, logits)[0],
                     tensors + [log_tau, logits])
    assert err < 1e-5


def test_lambda_simplex_preserved_after_optimizer_step():
    mats = _rand_set(3, 4, 3, seed=11)
    log_tau, logits = log_temperature(), _logits(np.zeros(3))
    emb = [Tensor(m) for m in mats]
    for _ in range(5):
        gradient_step([logits, log_tau], lambda: weighted_ovo_loss(emb, log_tau, logits)[0], 0.5)
    vals = kernels.softmax(logits.values)
    assert vals.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(vals > 0.0)
    assert np.exp(log_tau.values) > 0.0


def test_weighted_ovo_loss_requires_logits():
    # without logits it returned the unweighted One-vs-Others sum, K times
    # the loss with uniform lambda, and no error
    emb = [Tensor(m) for m in _rand_set(3, 5, 4, seed=24)]
    with pytest.raises(ContractError, match="weighted OvO needs lambda logits"):
        weighted_ovo_loss(emb, log_temperature(), None)


def test_lambda_length_mismatch():
    mats = _rand_set(3, 4, 3, seed=12)
    emb = [Tensor(m) for m in mats]
    with pytest.raises(ContractError, match=r"lambda logits of shape \(4,\) for K=3"):
        weighted_ovo_loss(emb, log_temperature(), _logits(np.zeros(4)))


@pytest.mark.parametrize("case", ["zero_embedding_row", "others_cancel"])
def test_weighted_ovo_names_a_degenerate_row(case):
    mats = _rand_set(3, 5, 4, seed=21)
    if case == "zero_embedding_row":
        mats[1][2] = 0.0
    else:  # the mean of modalities 1 and 2, contrasted with modality 0
        mats[2][2] = -mats[1][2]
    with pytest.raises(DegenerateInputError, match="zero-norm row at index 2"):
        weighted_ovo_loss([Tensor(m) for m in mats], log_temperature(), _logits(np.zeros(3)))


def test_lambda_values_equal_the_graph_softmax():
    # the loss weights its terms by the lambda that a checkpoint stores,
    # `kernels.softmax` of the logits
    logits = _logits([0.3, -1.2, 0.0, 2.5, -0.4])
    total, terms = weighted_ovo_loss([Tensor(m) for m in _rand_set(5, 6, 4, seed=22)],
                                     log_temperature(0.6), logits)
    lambdas = kernels.softmax(logits.values)
    assert_bitwise_equal(total.values, functools.reduce(operator.add, lambdas * terms))


# --------------------------------------------------------------------------
# the oracle's similarity matrix

def test_similarity_matrix_values():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([[3.0, 0.0], [1.0, 1.0]])
    s = similarity_matrix(Tensor(a), Tensor(b), Tensor(2.0)).values
    expected = np.array([[1.0, 1 / np.sqrt(2)], [0.0, 1 / np.sqrt(2)]]) / 0.5
    np.testing.assert_allclose(s, expected, atol=1e-12)


# --------------------------------------------------------------------------
# the checks of the loss node, which every entry point runs


def test_dispatch_rejects_one_modality():
    with pytest.raises(ContractError, match="at least 2 modalities, got 1"):
        ovo_nce([Tensor(np.eye(2))], log_temperature())


@pytest.mark.parametrize("k", [2, 3])
def test_dispatch_rejects_a_shape_mismatch(k):
    mats = [Tensor(np.ones((2, 3)))] * (k - 1) + [Tensor(np.ones((3, 3)))]
    logits = None if k == 2 else _logits(np.zeros(k))
    with pytest.raises(DimensionError, match="shapes disagree"):
        ovo_nce(mats, log_temperature(), logits)


def test_dispatch_rejects_a_lambda_of_the_wrong_length():
    mats = _rand_set(3, 5, 4, seed=16)
    with pytest.raises(ContractError, match=r"lambda logits of shape \(4,\) for K=3"):
        ovo_nce([Tensor(m) for m in mats], log_temperature(), _logits(np.zeros(4)))


def test_ovo_nce_rejects_one_logit_for_three_modalities():
    # one logit used to broadcast to the unweighted sum in the forward pass
    # and fail in the backward pass with an IndexError
    mats = _rand_set(3, 5, 4, seed=23)
    with pytest.raises(ContractError, match=r"lambda logits of shape \(1,\) for K=3"):
        ovo_nce([Tensor(m) for m in mats], log_temperature(), _logits([0.0]))


@pytest.mark.parametrize("second", [(5, 4), (4, 6)], ids=["rows_4_and_5", "widths_4_and_6"])
def test_ovo_nce_rejects_batches_of_unequal_shape(second):
    # these used to fail inside numpy with a plain ValueError
    rng = np.random.default_rng(24)
    mats = [Tensor(rng.standard_normal((4, 4))), Tensor(rng.standard_normal(second))]
    with pytest.raises(DimensionError, match="embedding shapes disagree"):
        ovo_nce(mats, log_temperature())


@pytest.mark.parametrize("k", [2, 3])
def test_dispatch_names_a_zero_norm_row(k):
    mats = _rand_set(k, 5, 4, seed=20)
    mats[-1][3] = 0.0
    emb = [Tensor(m) for m in mats]
    with pytest.raises(DegenerateInputError, match="zero-norm row at index 3"):
        if k == 2:
            infonce_pair_loss(*emb, log_temperature())
        else:
            weighted_ovo_loss(emb, log_temperature(), _logits(np.zeros(k)))


# --------------------------------------------------------------------------
# pretrain dispatches each batch to InfoNCE at K = 2, to weighted OvO above


@pytest.fixture(scope="module")
def cohort():
    return generate(default_five_modality_spec(60, seed=0))


def _pretrain_calls(monkeypatch, cohort, k):
    """The arguments of every contrastive entry-point call of a one-epoch
    pretrain of the first k modalities, by entry point."""
    calls = {"infonce_pair_loss": [], "weighted_ovo_loss": []}
    for name, args in calls.items():
        def recorded(*call_args, _fn=getattr(harness, name), _args=args):
            _args.append(call_args)
            return _fn(*call_args)

        monkeypatch.setattr(harness, name, recorded)
    subset = ["text_a", "text_b", "image", "demo", "series"][:k]
    harness.pretrain(harness.RunConfig(subset, "contrastive_pretrain", max_epochs=1,
                                       batch_size=8), cohort)
    return calls


def test_dispatch_k2_is_infonce(monkeypatch, cohort):
    calls = _pretrain_calls(monkeypatch, cohort, 2)
    assert calls["infonce_pair_loss"] and not calls["weighted_ovo_loss"]
    for a, b, log_tau in calls["infonce_pair_loss"]:
        assert a.shape == b.shape and log_tau.name == "log_tau"


def test_dispatch_k3_is_weighted_ovo(monkeypatch, cohort):
    calls = _pretrain_calls(monkeypatch, cohort, 3)
    assert calls["weighted_ovo_loss"] and not calls["infonce_pair_loss"]
    for embeddings, log_tau, _ in calls["weighted_ovo_loss"]:
        assert len(embeddings) == 3 and log_tau.name == "log_tau"


def test_dispatch_k3_requires_lambdas(monkeypatch, cohort):
    # every K = 3 batch is weighted by the run's one vector of lambda logits
    calls = _pretrain_calls(monkeypatch, cohort, 3)["weighted_ovo_loss"]
    logits = {id(args[2]): args[2] for args in calls}
    assert len(logits) == 1
    (logits,) = logits.values()
    assert isinstance(logits, Parameter) and logits.name == "lambda_logits"
    assert logits.shape == (3,)
