import numpy as np
import pytest

from mmcl.autodiff import Tensor
from mmcl.encoders import (LSTM_GATES, LSTMEncoder, MLPEncoder, build_encoder, lstm_sequence,
                           make_lstm_params)
from mmcl.errors import ContractError, DegenerateInputError, DimensionError

from elementary_ops import add, axis_sum, grad_check, matmul, mul
from lstm_oracle import composed_unroll


def _mlp(seed=0, din=4, hidden=(6,), n=3):
    return MLPEncoder(din, hidden, n, np.random.default_rng(seed))


def _lstm(seed=0, din=3, hidden=(5,), n=4):
    return LSTMEncoder(din, hidden, n, np.random.default_rng(seed))


def _zero_params(model):
    for p in model.parameters():
        p.values[...] = 0.0


# --------------------------------------------------------------------------
# MLP encoder

def test_mlp_output_shape():
    enc = _mlp()
    out = enc.forward(np.random.default_rng(1).standard_normal((7, 4)))
    assert out.shape == (7, 3)


def test_mlp_zero_weights_give_zero_embeddings():
    enc = _mlp()
    _zero_params(enc)
    out = enc.forward(np.ones((5, 4)))
    np.testing.assert_array_equal(out.values, np.zeros((5, 3)))


def test_mlp_no_hidden_layer_is_affine():
    enc = _mlp(din=3, hidden=(), n=3)
    w, b = enc.layers[0]
    w.values[...] = np.eye(3)
    b.values[...] = [1.0, 2.0, 3.0]
    x = np.random.default_rng(1).standard_normal((4, 3))
    np.testing.assert_allclose(enc.forward(x).values, x + [1.0, 2.0, 3.0])


def test_mlp_input_dim_mismatch():
    enc = _mlp(din=4)
    with pytest.raises(DimensionError):
        enc.forward(np.zeros((2, 5)))


def test_mlp_gradients():
    enc = _mlp()
    x = Tensor(np.random.default_rng(1).standard_normal((3, 4)))
    tensors = enc.parameters() + [x]
    assert grad_check(lambda: axis_sum(mul(enc.forward(x), enc.forward(x))), tensors) < 1e-5


def test_mlp_batch_permutation_equivariant():
    enc = _mlp()
    x = np.random.default_rng(2).standard_normal((6, 4))
    perm = np.random.default_rng(3).permutation(6)
    np.testing.assert_allclose(enc.forward(x[perm]).values, enc.forward(x).values[perm],
                               atol=1e-14)


def test_mlp_deterministic_init():
    a, b = _mlp(seed=42), _mlp(seed=42)
    for pa, pb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa.values, pb.values)


# --------------------------------------------------------------------------
# LSTM cell

def _gate_pre(params, x, h):
    """Per-gate pre-activations, each from its own column block."""
    hid = params["wh"].values.shape[0]
    return {gate: x @ params["wx"].values[:, k * hid:(k + 1) * hid]
            + h @ params["wh"].values[:, k * hid:(k + 1) * hid]
            + params["b"].values[k * hid:(k + 1) * hid]
            for k, gate in enumerate(LSTM_GATES)}


def test_make_lstm_params_packs_per_gate_init_draws():
    gen = np.random.default_rng(3)
    params = make_lstm_params(gen, 3, 5, name="cell")
    assert {k: p.name for k, p in params.items()} == {
        "wx": "cell.wx", "wh": "cell.wh", "b": "cell.b"}
    # the draws of a per-gate layout: per gate, input then recurrent weights
    rng = np.random.default_rng(3)
    blocks = {"wx": [], "wh": []}
    for _ in LSTM_GATES:
        blocks["wx"].append(rng.uniform(-1 / np.sqrt(3), 1 / np.sqrt(3), size=(3, 5)))
        blocks["wh"].append(rng.uniform(-1 / np.sqrt(5), 1 / np.sqrt(5), size=(5, 5)))
    np.testing.assert_array_equal(params["wx"].values, np.hstack(blocks["wx"]))
    np.testing.assert_array_equal(params["wh"].values, np.hstack(blocks["wh"]))
    np.testing.assert_array_equal(params["b"].values, np.zeros(20))
    assert gen.random() == rng.random()  # later draws (projection, head) line up too


def test_lstm_gates_zero_params_give_half_sigmoids():
    # zero weights: i = f = o = sigmoid(0) = 0.5 and g = tanh(b_g), so each
    # step gives C' = 0.5 C + 0.5 tanh(b_g) and H' = 0.5 tanh(C'); the first
    # step writes C1 = 0.5 tanh(b_g), which the second halves
    params = make_lstm_params(np.random.default_rng(0), 3, 5)
    for p in params.values():
        p.values[...] = 0.0
    params["b"].values[10:15] = 0.7
    out = lstm_sequence(params, [np.ones((2, 3))] * 2).values
    c1 = 0.5 * np.tanh(0.7)
    np.testing.assert_allclose(out, 0.5 * np.tanh(0.5 * c1 + 0.5 * np.tanh(0.7)) * np.ones((2, 5)),
                               atol=1e-14)


def test_lstm_cell_zero_params_halve_cell_state():
    # only the g block of wx is nonzero, so the first step writes
    # C1 = 0.5 tanh(x1 wx_g); on a zero input f = 0.5, g = 0 => C2 = 0.5 C1,
    # H2 = 0.5 tanh(C2)
    rng = np.random.default_rng(1)
    params = make_lstm_params(rng, 3, 4)
    for p in params.values():
        p.values[...] = 0.0
    params["wx"].values[:, 8:12] = rng.standard_normal((3, 4))
    x1 = rng.standard_normal((2, 3))
    c1 = 0.5 * np.tanh(x1 @ params["wx"].values[:, 8:12])
    out = lstm_sequence(params, [x1, np.zeros((2, 3))]).values
    np.testing.assert_allclose(out, 0.5 * np.tanh(0.5 * c1), atol=1e-14)


def test_lstm_cell_matches_manual_unroll():
    rng = np.random.default_rng(5)
    params = make_lstm_params(rng, 3, 4)
    params["b"].values[...] = rng.standard_normal(16)
    xs = [rng.standard_normal((2, 3)) for _ in range(3)]

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    c, h = np.zeros((2, 4)), np.zeros((2, 4))
    for x in xs:
        pre = _gate_pre(params, x, h)
        c = sig(pre["f"]) * c + sig(pre["i"]) * np.tanh(pre["g"])
        h = sig(pre["o"]) * np.tanh(c)
    np.testing.assert_allclose(lstm_sequence(params, xs).values, h, atol=1e-14)


def _random_sequence(seed, steps=4, n=3, din=4, hid=5):
    rng = np.random.default_rng(seed)
    params = make_lstm_params(rng, din, hid)
    params["b"].values[...] = rng.standard_normal(4 * hid)
    return params, [rng.standard_normal((n, din)) for _ in range(steps)]


@pytest.mark.parametrize("lam", [1.0, 0.37, np.float64(0.81)])
def test_lstm_step_forward_bitwise_equals_composed_oracle(lam):
    for seed in range(5):
        params, xs = _random_sequence(seed)
        out = lstm_sequence(params, xs, [lam] * len(xs)).values
        lams = None if lam == 1.0 else [lam] * len(xs)
        # a weight of 1 leaves the write as it is, so it equals no weight
        np.testing.assert_array_equal(out, lstm_sequence(params, xs, lams).values)
        np.testing.assert_array_equal(out, composed_unroll(params, xs, lams).values)


def test_lstm_step_gradients_on_every_input():
    # Tensor steps, as the mLSTM passes its embeddings, take the gradient
    # through every later step; the gate weights are constants: they scale
    # the write but take no gradient
    params, xs = _random_sequence(11)
    xs = [Tensor(x) for x in xs]
    lams = [0.6, 0.2, 0.9, 0.4]
    weight = np.random.default_rng(12).standard_normal((3, 5))

    def loss():
        return axis_sum(mul(lstm_sequence(params, xs, lams), weight))

    inputs = xs + list(params.values())
    assert grad_check(loss, inputs, h=1e-5) < 1e-5


def test_lstm_step_gradients_bitwise_equal_composed_oracle():
    params, xs = _random_sequence(13)
    xs = [Tensor(x) for x in xs]
    lams = [0.45, 0.1, 0.3, 0.15]
    weight = np.random.default_rng(14).standard_normal((3, 5))
    inputs = xs + list(params.values())
    for t in inputs:
        t.requires_grad = True

    def grads(unroll):
        for t in inputs:
            t.zero_grad()
        axis_sum(mul(unroll(params, xs, lams), weight)).backward()
        return [t.grad.copy() for t in inputs]

    for got, want in zip(grads(lstm_sequence), grads(composed_unroll)):
        np.testing.assert_array_equal(got, want)


# --------------------------------------------------------------------------
# LSTM encoder

@pytest.mark.parametrize("xs", [[], np.zeros((0, 2, 3))], ids=["list", "array"])
def test_lstm_sequence_rejects_no_steps(xs):
    # this used to fail with an IndexError
    params = make_lstm_params(np.random.default_rng(0), 3, 4)
    with pytest.raises(ContractError, match="at least one step"):
        lstm_sequence(params, xs)


@pytest.mark.parametrize("lams", [[0.5], [0.5, 0.3, 0.2]], ids=["short", "long"])
def test_lstm_sequence_rejects_lams_of_another_length(lams):
    # a short list used to fail with an IndexError, and a long one had its
    # extra weights ignored
    params = make_lstm_params(np.random.default_rng(0), 3, 4)
    with pytest.raises(ContractError, match=f"2 steps but {len(lams)} step weights"):
        lstm_sequence(params, [np.ones((2, 3))] * 2, lams)


def test_lstm_encoder_output_shape():
    enc = _lstm()
    batch = np.random.default_rng(1).standard_normal((6, 4, 3))
    assert enc.forward(batch).shape == (6, 4)


def test_lstm_encoder_rejects_empty_sequence():
    enc = _lstm()
    with pytest.raises(DegenerateInputError):
        enc.forward(np.zeros((2, 0, 3)))


def test_lstm_encoder_step_dim_mismatch():
    enc = _lstm(din=3)
    with pytest.raises(DimensionError, match="per-step dim 3, got 5"):
        enc.forward(np.zeros((2, 4, 5)))


def test_lstm_encoder_rejects_2d_input():
    enc = _lstm()
    with pytest.raises(DimensionError, match="N x T x d"):
        enc.forward(np.zeros((4, 3)))


def test_lstm_encoder_gradients_through_time():
    # the observations are data and take no gradient; every parameter does
    enc = _lstm()
    data = np.random.default_rng(1).standard_normal((2, 3, 3))
    assert grad_check(lambda: axis_sum(mul(enc.forward(data), enc.forward(data))),
                      enc.parameters(), h=1e-5) < 1e-4


def test_lstm_encoder_refuses_a_tensor():
    # the encoder would drop the input's gradient, so it takes data only
    enc = _lstm()
    for requires_grad in (True, False):
        x = Tensor(np.zeros((2, 3, 3)), requires_grad=requires_grad)
        with pytest.raises(ContractError, match="data array, not a Tensor"):
            enc.forward(x)


def test_lstm_encoder_bitwise_equals_composed_unroll():
    enc = _lstm()
    data = np.random.default_rng(4).standard_normal((5, 4, 3))
    h = composed_unroll(enc.cell, [data[:, t, :] for t in range(4)])
    want = add(matmul(h, enc.w_proj), enc.b_proj)
    np.testing.assert_array_equal(enc.forward(data).values, want.values)


def test_lstm_encoder_batch_permutation_equivariant():
    enc = _lstm()
    data = np.random.default_rng(2).standard_normal((5, 4, 3))
    perm = np.random.default_rng(3).permutation(5)
    out = enc.forward(data).values
    out_p = enc.forward(data[perm]).values
    np.testing.assert_allclose(out_p, out[perm], atol=1e-13)


def test_lstm_encoder_deterministic():
    batch = np.random.default_rng(1).standard_normal((4, 4, 3))
    outs = [_lstm(seed=7).forward(batch).values for _ in range(2)]
    np.testing.assert_array_equal(outs[0], outs[1])


# --------------------------------------------------------------------------
# factory; the modality kind is validated by ModalitySpec (test_cohort.py)

def test_build_encoder_dispatch():
    rng = np.random.default_rng(0)
    assert isinstance(build_encoder("static_vector", 4, [6], 3, rng, "m"), MLPEncoder)
    assert isinstance(build_encoder("sequence", 3, [5], 4, rng, "s"), LSTMEncoder)
