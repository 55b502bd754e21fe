import weakref

import numpy as np
import pytest

from mmcl import kernels
from mmcl.autodiff import Parameter, Tensor, concat, dense, ovo_nce
from mmcl.errors import ContractError, DimensionError
from mmcl.optim import Adam

from adam_oracle import LoopAdam
from elementary_ops import (add, affine, axis_sum, divide, exp, getitem, grad_check, logsumexp_rows,
                            matmul, mean, mul, neg, sigmoid, softmax, softplus, sqrt, sub, tanh,
                            transpose)


def _matmul(a, w):
    """a @ w through a one-layer `dense` stack with a zero bias."""
    return dense(Tensor(a), [(Tensor(w), Tensor(np.zeros(np.shape(w)[1])))])


def test_matmul_identity():
    a = np.arange(4.0).reshape(2, 2)
    out = _matmul(np.eye(2), a)
    np.testing.assert_array_equal(out.values, a)


def test_matmul_hand_case():
    out = _matmul([[1.0, 2.0], [3.0, 4.0]], [[1.0], [1.0]])
    np.testing.assert_array_equal(out.values, [[3.0], [7.0]])


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        _matmul(np.zeros((2, 3)), np.zeros((2, 3)))


@pytest.mark.parametrize("x_shape, w_shape, message", [
    ((2, 3), (2, 3), "inner dimensions disagree"), ((3,), (3, 2), "needs 2-D operands")])
def test_affine_raises_the_shape_errors_of_matmul(x_shape, w_shape, message):
    x, w, b = Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), Tensor(np.zeros(w_shape[-1]))
    with pytest.raises(DimensionError, match=message):
        affine(x, w, b)


@pytest.mark.parametrize("x_shape, w_shapes, message", [
    ((2, 3), [(2, 3)], "inner dimensions disagree"), ((3,), [(3, 2)], "needs 2-D operands"),
    ((2, 3), [(3, 4), (3, 2)], r"\(2, 4\) x \(3, 2\)"), ((2, 3), [(3, 4), (4,)], "2-D operands")])
def test_dense_raises_the_shape_errors_of_matmul(x_shape, w_shapes, message):
    layers = [(Tensor(np.zeros(shape)), Tensor(np.zeros(shape[-1]))) for shape in w_shapes]
    with pytest.raises(DimensionError, match=message):
        dense(Tensor(np.zeros(x_shape)), layers)


def test_dense_refuses_an_empty_stack():
    with pytest.raises(ContractError, match="at least one layer"):
        dense(Tensor(np.zeros((2, 3))), [])


def test_elementwise_analytic_points():
    assert kernels.sigmoid(np.array(0.0)) == 0.5
    assert float(tanh(Tensor(0.0)).values) == 0.0
    assert float(exp(Tensor(0.0)).values) == 1.0


# the library's own unary ops, and the elementary ops the composed oracles
# build from (the library fuses those away)
UNARY = {"sigmoid": sigmoid, "tanh": tanh, "exp": exp, "neg": neg, "softplus": softplus,
         "sqrt": sqrt, "mean": mean, "transpose": transpose, "logsumexp_rows": logsumexp_rows}


@pytest.mark.parametrize("op", list(UNARY))
def test_unary_gradients(op):
    rng = np.random.default_rng(2)
    x = Tensor(np.abs(rng.standard_normal((2, 3))) + 0.5)
    err = grad_check(lambda: axis_sum(UNARY[op](x)), x)
    assert err < 1e-6


BINARY = {"add": add, "sub": sub, "mul": mul, "divide": divide, "matmul": matmul}


@pytest.mark.parametrize("op", list(BINARY))
def test_binary_gradients(op):
    rng = np.random.default_rng(1)
    a = Tensor(rng.standard_normal((3, 3)))
    b = Tensor(np.abs(rng.standard_normal((3, 3))) + 0.5)
    err = grad_check(lambda: axis_sum(mul(BINARY[op](a, b), BINARY[op](a, b))), [a, b])
    assert err < 1e-6


def test_softmax_uniform():
    out = kernels.softmax(np.zeros(5))
    np.testing.assert_allclose(out, np.full(5, 0.2), rtol=0, atol=1e-15)


def test_softmax_overflow_stability():
    out = kernels.softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_sums_to_one_and_permutation_equivariant():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(6)
        out = kernels.softmax(x)
        assert abs(out.sum() - 1.0) <= 1e-12
        perm = rng.permutation(6)
        np.testing.assert_allclose(kernels.softmax(x[perm]), out[perm], atol=1e-15)


def test_softmax_gradient():
    # the oracles' softmax, which hands the loss gradient on to the logits
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal(5))
    w = rng.standard_normal(5)
    err = grad_check(lambda: axis_sum(mul(softmax(x), w)), x)
    assert err < 1e-6


def test_backward_sum_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    axis_sum(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_square():
    x = Tensor([3.0], requires_grad=True)
    axis_sum(mul(x, x)).backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_rejects_non_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        tanh(x).backward()


def _ones_seed_graph():
    """A leaf, a parameter and the 4 x 3 output of a small graph over them."""
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    w = Parameter("w", rng.standard_normal((5, 3)))
    return x, w, tanh(affine(x, w, Tensor(np.zeros(3))))


def test_backward_with_an_all_ones_seed_is_bitwise_the_summed_output():
    x, w, out = _ones_seed_graph()
    out.backward(np.ones(out.shape))
    seeded = x.grad.copy(), w.grad.copy()
    x, w, out = _ones_seed_graph()
    axis_sum(out).backward()
    for got, want in zip(seeded, (x.grad, w.grad)):
        np.testing.assert_array_equal(got, want, strict=True)


@pytest.mark.parametrize("shape", [(4,), (3, 4), (4, 3, 1), ()])
def test_backward_rejects_a_seed_of_another_shape(shape):
    x, w, out = _ones_seed_graph()
    with pytest.raises(ContractError, match=r"upstream gradient of shape .* \(4, 3\)"):
        out.backward(np.ones(shape))
    assert x.grad is None and w.grad is None


def test_backward_composite_graph_matches_finite_differences():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((3, 3)))
    w = Tensor(rng.standard_normal((3, 2)))
    b = Tensor(rng.standard_normal(2))

    def f():
        h = tanh(affine(x, w, b))
        return add(mean(mul(softplus(h), exp(h))), ovo_nce([matmul(x, w), h], Tensor(-0.7))[0])

    assert grad_check(f, [x, w, b], h=1e-5) < 1e-5


def test_backward_accumulates_until_reset():
    x = Tensor([2.0], requires_grad=True)
    axis_sum(x).backward()
    first = x.grad
    axis_sum(x).backward()
    np.testing.assert_array_equal(x.grad, [2.0])  # two passes accumulate
    assert x.grad is first  # in place, after the first write
    x.zero_grad()
    assert x.grad is None


def _layout(a):
    return a.flags.c_contiguous, a.flags.f_contiguous


def test_first_gradient_takes_the_layout_of_values():
    # matmul backward hands C-ordered gradients to a C-ordered and to an
    # F-ordered leaf; each keeps the layout zeros_like gives it
    rng = np.random.default_rng(7)
    c = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    f = Tensor(np.asfortranarray(rng.standard_normal((3, 4))), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 2)))
    add(axis_sum(matmul(c, w)), axis_sum(matmul(f, w))).backward()
    for node in (c, f):
        assert _layout(node.grad) == _layout(np.zeros_like(node.values))
    assert _layout(f.grad) == (False, True)


def test_first_gradient_does_not_alias_the_upstream_gradient():
    # add's backward passes the upstream gradient itself on
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    y = add(x, np.zeros((2, 3)))
    axis_sum(mul(y, np.arange(6.0).reshape(2, 3))).backward()
    y.grad[:] = 99.0
    np.testing.assert_array_equal(x.grad, np.arange(6.0).reshape(2, 3))


def test_negative_zero_first_gradient_becomes_positive_zero():
    x = Tensor([1.0, 2.0], requires_grad=True)
    axis_sum(mul(x, -0.0)).backward()
    assert not np.signbit(x.grad).any()


def test_shared_parameter_accumulates_across_terms():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = add(axis_sum(x), axis_sum(mul(x, x)))
    loss.backward()
    np.testing.assert_allclose(x.grad, [3.0, 5.0])


def test_grad_check_linear_is_exact():
    x = Tensor(np.random.default_rng(7).standard_normal(4))
    assert grad_check(lambda: axis_sum(x), x) < 1e-10


@pytest.mark.parametrize("index", [(1, 2), (np.arange(3), np.arange(3)), ([0, 0, 2], [1, 1, 3])],
                         ids=["scalar", "diagonal", "repeated"])
def test_getitem_gradient(index):
    x = Tensor(np.random.default_rng(10).standard_normal((3, 4)))
    assert grad_check(lambda: axis_sum(mul(getitem(x, index), getitem(x, index))), x) < 1e-6


def test_getitem_returns_copy():
    x = Tensor(np.arange(4.0).reshape(2, 2))
    k = np.arange(2)
    diag = getitem(x, (k, k))
    np.testing.assert_array_equal(diag.values, [0.0, 3.0])
    diag.values[0] = 9.0
    assert x.values[0, 0] == 0.0
    assert getitem(x, (1, 0)).values.shape == ()


def test_concat_round_trip_and_gradient():
    rng = np.random.default_rng(9)
    parts = [Tensor(rng.standard_normal((3, w))) for w in (2, 4, 1)]
    out = concat(parts)
    assert out.shape == (3, 7)
    np.testing.assert_array_equal(out.values[:, 2:6], parts[1].values)
    err = grad_check(lambda: axis_sum(mul(concat(parts), concat(parts))), parts)
    assert err < 1e-6


def test_broadcast_gradients():
    rng = np.random.default_rng(10)
    a = Tensor(rng.standard_normal((3, 4)))
    b = Tensor(rng.standard_normal((1, 4)))
    c = Tensor(rng.standard_normal(()))
    assert grad_check(lambda: axis_sum(mul(add(a, b), c)), [a, b, c]) < 1e-6


def test_forward_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(-10, 10, size=(5, 5)))
    for out in (tanh(x), softplus(x), exp(x)):
        assert np.all(np.isfinite(out.values))


def test_primitive_gradients_on_gaussian_inputs():
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = Tensor(rng.standard_normal((2, 3)))
        y = Tensor(rng.standard_normal((2, 3)))
        assert grad_check(lambda: axis_sum(softplus(sub(mul(x, y), mul(x, exp(neg(mul(y, y))))))),
                          [x, y]) < 1e-5


def test_adam_descends_quadratic():
    p = Parameter("w", np.array([5.0, -3.0]))
    opt = Adam([p], lr=0.1)
    target = Tensor([1.0, 2.0])
    for _ in range(500):
        opt.zero_grad()
        diff = sub(p, target)
        axis_sum(mul(diff, diff)).backward()
        opt.step()
    np.testing.assert_allclose(p.values, [1.0, 2.0], atol=1e-3)


def test_optimizer_zero_grad():
    p = Parameter("w", np.ones(2))
    axis_sum(p).backward()
    assert p.grad is not None
    Adam([p]).zero_grad()
    assert p.grad is None


def test_parameter_is_a_named_tensor():
    p = Parameter("w", np.array([1.0, 2.0]))
    assert isinstance(p, Tensor)
    assert p.name == "w" and p.requires_grad
    assert weakref.ref(p)() is p
    np.testing.assert_array_equal(mul(p, 2.0).values, [2.0, 4.0])


def test_parameter_defines_its_own_init():
    # the benchmark's tracer wraps `Parameter.__init__` from the class's own dict
    assert "__init__" in Parameter.__dict__


def test_adam_moments_belong_to_the_optimizer():
    def quadratic_step(opt, p):
        opt.zero_grad()
        axis_sum(mul(p, p)).backward()
        opt.step()

    p = Parameter("w", np.array([5.0, -3.0]))
    first = Adam([p], lr=0.1)
    for _ in range(3):
        quadratic_step(first, p)
    fresh_p = Parameter("w", p.values.copy())
    quadratic_step(Adam([p], lr=0.1), p)
    quadratic_step(Adam([fresh_p], lr=0.1), fresh_p)
    np.testing.assert_array_equal(p.values, fresh_p.values)


def test_optimizers_define_their_own_step_and_list_their_params():
    # the benchmark's tracer wraps `step` from the optimizer class's own dict
    # and reads `opt.params` to tell updated gradients from discarded ones
    assert "step" in Adam.__dict__
    params = [Parameter(name, np.zeros(2)) for name in "abc"]
    opt = Adam(iter(params))
    assert isinstance(opt.params, list)
    assert [id(p) for p in opt.params] == [id(p) for p in params]


# mixed shapes, a Fortran-ordered matrix and a 0-d scalar like `log_tau`
ADAM_SHAPES = [(3, 4), (4,), (), (2, 1, 3), (1,)]


def _adam_twins(seed):
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(shape) for shape in ADAM_SHAPES]
    values[0] = np.asfortranarray(values[0])
    flat = [Parameter(f"p{i}", v.copy(order="K")) for i, v in enumerate(values)]
    loop = [Parameter(f"p{i}", v.copy(order="K")) for i, v in enumerate(values)]
    return rng, flat, loop


def _set_grads(rng, twins, zero=()):
    for i, shape in enumerate(ADAM_SHAPES):
        g = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3)
        for params in twins:
            params[i].grad = np.zeros_like(g) if i in zero else g.copy()


def _assert_adam_matches_oracle(opt, oracle):
    assert opt.t == oracle.t
    for p, q, (lo, hi), m, v in zip(opt.params, oracle.params, opt.slices, oracle.m, oracle.v):
        np.testing.assert_array_equal(p.values, q.values, strict=True)
        assert np.array_equal(opt.m[lo:hi], np.ravel(m)) and np.array_equal(opt.v[lo:hi], np.ravel(v))


@pytest.mark.parametrize("zeros", [[()] * 5, [(), (2,), (0, 3), (), (0, 1, 2, 3, 4)]],
                         ids=["every_gradient", "some_zero"])
def test_flat_adam_is_bitwise_the_per_parameter_loop(zeros):
    # a zero gradient is still a gradient: the moments decay and the value
    # moves by what they hold
    rng, flat, loop = _adam_twins(0)
    opt, oracle = Adam(flat, lr=0.05), LoopAdam(loop, lr=0.05)
    for zero in zeros:
        _set_grads(rng, (flat, loop), zero)
        opt.step()
        oracle.step()
        _assert_adam_matches_oracle(opt, oracle)
    assert opt.t == 5


def test_adam_step_without_a_gradient_raises_and_changes_nothing():
    rng, flat, _ = _adam_twins(2)
    opt = Adam(flat, lr=0.05)
    _set_grads(rng, (flat,))
    opt.step()
    _set_grads(rng, (flat,))
    flat[2].grad = None
    before = opt.t, opt.m.copy(), opt.v.copy(), [p.values.copy() for p in flat]
    with pytest.raises(ContractError, match="'p2' has no gradient"):
        opt.step()
    assert opt.t == before[0] == 1
    assert np.array_equal(opt.m, before[1]) and np.array_equal(opt.v, before[2])
    for p, values in zip(flat, before[3]):
        assert np.array_equal(p.values, values)


def test_flat_adam_on_a_training_graph_is_bitwise_the_loop():
    rng, flat, loop = _adam_twins(1)
    x = rng.standard_normal((5, 3))

    def loss(params):
        w, b, s, u, c = params
        h = mul(tanh(add(matmul(x, w), b)), exp(s))
        return add(mean(mul(h, h)), mul(axis_sum(mul(u, u)), axis_sum(c)))

    opt, oracle = Adam(flat), LoopAdam(loop)
    for _ in range(5):
        for o, params in ((opt, flat), (oracle, loop)):
            for p in params:
                p.zero_grad()
            loss([params[0], params[1], params[2], axis_sum(params[3]), params[4]]).backward()
            o.step()
        _assert_adam_matches_oracle(opt, oracle)


def test_adam_never_rebinds_parameter_values():
    params = [Parameter("w", np.ones((2, 3))), Parameter("log_tau", np.array(0.5))]
    arrays = [p.values for p in params]
    opt = Adam(params)
    assert all(p.values is a for p, a in zip(params, arrays))
    for p in params:
        p.grad = np.ones_like(p.values)
    opt.step()
    assert all(p.values is a for p, a in zip(params, arrays))
    assert not any(np.shares_memory(a, opt.m) or np.shares_memory(a, opt.v) for a in arrays)


def test_two_adams_over_one_parameter_both_move_it():
    p = Parameter("w", np.array([5.0, -3.0]))
    q = Parameter("v", np.array([1.0]))
    first, second = Adam([p, q], lr=0.1), Adam([p], lr=0.1)
    trail = [p.values.copy()]
    for opt in (first, second, first, second):
        opt.zero_grad()
        add(axis_sum(mul(p, p)), axis_sum(mul(q, q))).backward()
        opt.step()
        trail.append(p.values.copy())
    assert all(np.all(np.abs(b) < np.abs(a)) for a, b in zip(trail, trail[1:]))
