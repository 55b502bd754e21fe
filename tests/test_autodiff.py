import weakref

import numpy as np
import pytest

from mmcl.autodiff import (Parameter, Tensor, concat, grad_check,
                           logsumexp_rows, softmax)
from mmcl.errors import ContractError, DimensionError, DomainError
from mmcl.optim import SGD, Adam


def test_matmul_identity():
    a = np.arange(4.0).reshape(2, 2)
    out = Tensor(np.eye(2)) @ Tensor(a)
    np.testing.assert_array_equal(out.values, a)


def test_matmul_hand_case():
    out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[1.0], [1.0]])
    np.testing.assert_array_equal(out.values, [[3.0], [7.0]])


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))


def test_matmul_gradient_vs_finite_differences():
    rng = np.random.default_rng(0)
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((4, 2)))
    err = grad_check(lambda: ((a @ b) * (a @ b)).sum(), [a, b])
    assert err < 1e-6


def test_elementwise_analytic_points():
    assert Tensor(0.0).sigmoid().item() == 0.5
    assert Tensor(0.0).tanh().item() == 0.0
    assert Tensor(1.0).log().item() == 0.0
    assert Tensor(0.0).exp().item() == 1.0


def test_log_domain_error():
    with pytest.raises(DomainError):
        Tensor([1.0, -2.0]).log()
    with pytest.raises(DomainError):
        Tensor([0.0]).log()


def test_mul_gradient():
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((2, 3)))
    b = Tensor(rng.standard_normal((2, 3)))
    err = grad_check(lambda: (a * b).sum(), [a, b])
    assert err < 1e-6


@pytest.mark.parametrize("op", ["sigmoid", "tanh", "exp", "softplus", "sqrt"])
def test_unary_gradients(op):
    rng = np.random.default_rng(2)
    x = Tensor(np.abs(rng.standard_normal((2, 3))) + 0.5)
    err = grad_check(lambda: getattr(x, op)().sum(), x)
    assert err < 1e-6


def test_softmax_uniform():
    out = softmax(Tensor(np.zeros(5)))
    np.testing.assert_allclose(out.values, np.full(5, 0.2), rtol=0, atol=1e-15)


def test_softmax_overflow_stability():
    out = softmax(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(out.values))
    assert out.values[0] == pytest.approx(1.0)
    assert out.values[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_sums_to_one_and_permutation_equivariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(6)
        out = softmax(Tensor(x)).values
        assert abs(out.sum() - 1.0) <= 1e-12
        perm = rng.permutation(6)
        np.testing.assert_allclose(softmax(Tensor(x[perm])).values, out[perm], atol=1e-15)


def test_softmax_empty_rejected():
    with pytest.raises(DimensionError):
        softmax(Tensor(np.zeros(0)))


def test_softmax_gradient():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal(5))
    w = rng.standard_normal(5)
    err = grad_check(lambda: (softmax(x) * Tensor(w)).sum(), x)
    assert err < 1e-6


def test_backward_sum_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_square():
    x = Tensor([3.0], requires_grad=True)
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_rejects_non_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        (x * x).backward()


def test_backward_composite_graph_matches_finite_differences():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((3, 3)))
    w = Tensor(rng.standard_normal((3, 2)))

    def f():
        h = (x @ w).tanh()
        return (h.sigmoid() * h.exp()).mean() + logsumexp_rows(x).sum()

    assert grad_check(f, [x, w], h=1e-5) < 1e-5


def test_backward_accumulates_until_reset():
    x = Tensor([2.0], requires_grad=True)
    x.sum().backward()
    first = x.grad
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0])  # two passes accumulate
    assert x.grad is first  # in place, after the first write
    x.zero_grad()
    assert x.grad is None


def _layout(a):
    return a.flags.c_contiguous, a.flags.f_contiguous


def test_first_gradient_takes_the_layout_of_values():
    # matmul backward hands a C-ordered gradient to the F-ordered `.T` node
    # and to an F-ordered leaf; each keeps the layout zeros_like gives it
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    f = Tensor(np.asfortranarray(rng.standard_normal((3, 4))), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)))
    xt = x.T
    ((xt @ w).sum() + (f @ w).sum()).backward()
    for node in (xt, f, x):
        assert _layout(node.grad) == _layout(np.zeros_like(node.values))
    assert _layout(xt.grad) == _layout(f.grad) == (False, True)


def test_first_gradient_does_not_alias_the_upstream_gradient():
    # reshape's backward passes a view of the upstream gradient
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    y = x.reshape(6)
    (y * Tensor(np.arange(6.0))).sum().backward()
    y.grad[:] = 99.0
    np.testing.assert_array_equal(x.grad, np.arange(6.0).reshape(2, 3))


def test_negative_zero_first_gradient_becomes_positive_zero():
    x = Tensor([1.0, 2.0], requires_grad=True)
    (x * Tensor(-0.0)).sum().backward()
    assert not np.signbit(x.grad).any()


def test_shared_parameter_accumulates_across_terms():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = x.sum() + (x * x).sum()
    loss.backward()
    np.testing.assert_allclose(x.grad, [3.0, 5.0])


def test_grad_check_linear_is_exact():
    x = Tensor(np.random.default_rng(7).standard_normal(4))
    assert grad_check(lambda: x.sum(), x) < 1e-10


def test_logsumexp_rows_matches_naive():
    rng = np.random.default_rng(8)
    s = rng.standard_normal((4, 5)) * 3
    out = logsumexp_rows(Tensor(s)).values
    np.testing.assert_allclose(out, np.log(np.exp(s).sum(axis=1)), rtol=1e-14)


@pytest.mark.parametrize("index", [(1, 2), (np.arange(3), np.arange(3)), ([0, 0, 2], [1, 1, 3])],
                         ids=["scalar", "diagonal", "repeated"])
def test_getitem_gradient(index):
    x = Tensor(np.random.default_rng(10).standard_normal((3, 4)))
    assert grad_check(lambda: (x[index] * x[index]).sum(), x) < 1e-6


def test_getitem_returns_copy():
    x = Tensor(np.arange(4.0).reshape(2, 2))
    k = np.arange(2)
    diag = x[k, k]
    np.testing.assert_array_equal(diag.values, [0.0, 3.0])
    diag.values[0] = 9.0
    assert x.values[0, 0] == 0.0
    assert x[1, 0].values.shape == ()


def test_concat_round_trip_and_gradient():
    rng = np.random.default_rng(9)
    parts = [Tensor(rng.standard_normal((3, w))) for w in (2, 4, 1)]
    out = concat(parts, axis=1)
    assert out.shape == (3, 7)
    np.testing.assert_array_equal(out.values[:, 2:6], parts[1].values)
    err = grad_check(lambda: (concat(parts, axis=1) * concat(parts, axis=1)).sum(), parts)
    assert err < 1e-6


def test_broadcast_gradients():
    rng = np.random.default_rng(10)
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((1, 4)))
    c = Tensor(rng.standard_normal(()))
    assert grad_check(lambda: ((a + b) * c).sum(), [a, b, c]) < 1e-6


def test_forward_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(-10, 10, size=(5, 5)))
    for out in (x.sigmoid(), x.tanh(), x.softplus(), (x * x).sqrt(), x.exp()):
        assert np.all(np.isfinite(out.values))


def test_primitive_gradients_on_gaussian_inputs():
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = Tensor(rng.standard_normal((2, 3)))
        y = Tensor(rng.standard_normal((2, 3)))
        assert grad_check(lambda: (x * y - x / (y * y + 3.0)).sigmoid().sum(), [x, y]) < 1e-5


def test_sgd_descends_quadratic():
    p = Parameter("w", np.array([5.0, -3.0]))
    opt = SGD([p], lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        loss = (p * p).sum()
        loss.backward()
        opt.step()
    assert np.abs(p.values).max() < 1e-6


def test_adam_descends_quadratic():
    p = Parameter("w", np.array([5.0, -3.0]))
    opt = Adam([p], lr=0.1)
    target = Tensor([1.0, 2.0])
    for _ in range(500):
        opt.zero_grad()
        diff = p - target
        (diff * diff).sum().backward()
        opt.step()
    np.testing.assert_allclose(p.values, [1.0, 2.0], atol=1e-3)


def test_optimizer_zero_grad():
    p = Parameter("w", np.ones(2))
    p.sum().backward()
    assert p.grad is not None
    SGD([p]).zero_grad()
    assert p.grad is None


def test_parameter_is_a_named_tensor():
    p = Parameter("w", np.array([1.0, 2.0]))
    assert isinstance(p, Tensor)
    assert p.name == "w" and p.requires_grad
    assert weakref.ref(p)() is p
    np.testing.assert_array_equal((p * 2.0).values, [2.0, 4.0])


def test_parameter_defines_its_own_init():
    # the benchmark's tracer wraps `Parameter.__init__` from the class's own dict
    assert "__init__" in Parameter.__dict__


def test_adam_moments_belong_to_the_optimizer():
    def quadratic_step(opt, p):
        opt.zero_grad()
        (p * p).sum().backward()
        opt.step()

    p = Parameter("w", np.array([5.0, -3.0]))
    first = Adam([p], lr=0.1)
    for _ in range(3):
        quadratic_step(first, p)
    fresh_p = Parameter("w", p.values.copy())
    quadratic_step(Adam([p], lr=0.1), p)
    quadratic_step(Adam([fresh_p], lr=0.1), fresh_p)
    np.testing.assert_array_equal(p.values, fresh_p.values)
