import numpy as np
import pytest

from mmcl.autodiff import Tensor, concat, grad_check
from mmcl.encoders import (LSTM_GATES, EncoderConfig, LSTMEncoder, MLPEncoder, build_encoder,
                           lstm_step, make_lstm_params)
from mmcl.errors import ContractError, DegenerateInputError, DimensionError

from lstm_oracle import composed_lstm_step, composed_unroll


def _static_cfg(din=4, hidden=(6,), n=3):
    return EncoderConfig("static_vector", din, list(hidden), n)


def _seq_cfg(din=3, hidden=(5,), n=4):
    return EncoderConfig("sequence", din, list(hidden), n)


def _zero_params(model):
    for p in model.parameters():
        p.values[...] = 0.0


# --------------------------------------------------------------------------
# MLP encoder

def test_mlp_output_shape():
    enc = MLPEncoder(_static_cfg(), np.random.default_rng(0))
    out = enc.forward(np.random.default_rng(1).standard_normal((7, 4)))
    assert out.shape == (7, 3)


def test_mlp_zero_weights_give_zero_embeddings():
    enc = MLPEncoder(_static_cfg(), np.random.default_rng(0))
    _zero_params(enc)
    out = enc.forward(np.ones((5, 4)))
    np.testing.assert_array_equal(out.values, np.zeros((5, 3)))


def test_mlp_no_hidden_layer_is_affine():
    cfg = EncoderConfig("static_vector", 3, [], 3)
    enc = MLPEncoder(cfg, np.random.default_rng(0))
    w, b = enc.layers[0]
    w.values[...] = np.eye(3)
    b.values[...] = [1.0, 2.0, 3.0]
    x = np.random.default_rng(1).standard_normal((4, 3))
    np.testing.assert_allclose(enc.forward(x).values, x + [1.0, 2.0, 3.0])


def test_mlp_input_dim_mismatch():
    enc = MLPEncoder(_static_cfg(din=4), np.random.default_rng(0))
    with pytest.raises(DimensionError):
        enc.forward(np.zeros((2, 5)))


def test_mlp_gradients():
    enc = MLPEncoder(_static_cfg(), np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((3, 4)))
    tensors = enc.parameters() + [x]
    assert grad_check(lambda: (enc.forward(x) * enc.forward(x)).sum(), tensors) < 1e-5


def test_mlp_batch_permutation_equivariant():
    enc = MLPEncoder(_static_cfg(), np.random.default_rng(0))
    x = np.random.default_rng(2).standard_normal((6, 4))
    perm = np.random.default_rng(3).permutation(6)
    np.testing.assert_allclose(enc.forward(x[perm]).values, enc.forward(x).values[perm],
                               atol=1e-14)


def test_mlp_deterministic_init():
    a = MLPEncoder(_static_cfg(), np.random.default_rng(42))
    b = MLPEncoder(_static_cfg(), np.random.default_rng(42))
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


def _packed(c, h):
    return Tensor(np.hstack([c, h]))


def test_lstm_gates_zero_params_give_half_sigmoids():
    # zero weights: i = f = o = sigmoid(0) = 0.5 and g = tanh(b_g), so
    # C' = 0.5 C + 0.5 tanh(b_g) and H' = 0.5 tanh(C')
    params = make_lstm_params(np.random.default_rng(0), 3, 5)
    for p in params.values():
        p.values[...] = 0.0
    params["b"].values[10:15] = 0.7
    c0 = np.random.default_rng(1).standard_normal((2, 5))
    out = lstm_step(params, Tensor(np.ones((2, 3))), _packed(c0, np.zeros((2, 5)))).values
    c_want = 0.5 * c0 + 0.5 * np.tanh(0.7)
    np.testing.assert_allclose(out[:, :5], c_want, atol=1e-14)
    np.testing.assert_allclose(out[:, 5:], 0.5 * np.tanh(c_want), atol=1e-14)


def test_lstm_cell_zero_params_halve_cell_state():
    # with all-zero parameters: f = 0.5, g = 0 => C' = 0.5 C, H' = 0.5 tanh(C')
    params = make_lstm_params(np.random.default_rng(0), 3, 4)
    for p in params.values():
        p.values[...] = 0.0
    c0 = np.random.default_rng(1).standard_normal((2, 4))
    out = lstm_step(params, Tensor(np.zeros((2, 3))), _packed(c0, np.zeros((2, 4)))).values
    np.testing.assert_allclose(out[:, :4], 0.5 * c0, atol=1e-14)
    np.testing.assert_allclose(out[:, 4:], 0.5 * np.tanh(0.5 * c0), atol=1e-14)


def test_lstm_cell_matches_manual_unroll():
    rng = np.random.default_rng(5)
    params = make_lstm_params(rng, 3, 4)
    x = rng.standard_normal((2, 3))
    c0 = rng.standard_normal((2, 4))
    h0 = rng.standard_normal((2, 4))

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    pre = _gate_pre(params, x, h0)
    c_ref = sig(pre["f"]) * c0 + sig(pre["i"]) * np.tanh(pre["g"])
    h_ref = sig(pre["o"]) * np.tanh(c_ref)
    out = lstm_step(params, Tensor(x), _packed(c0, h0)).values
    np.testing.assert_allclose(out[:, :4], c_ref, atol=1e-14)
    np.testing.assert_allclose(out[:, 4:], h_ref, atol=1e-14)


def _random_step(seed, n=3, din=4, hid=5):
    rng = np.random.default_rng(seed)
    params = make_lstm_params(rng, din, hid)
    params["b"].values[...] = rng.standard_normal(4 * hid)
    return params, rng.standard_normal((n, din)), rng.standard_normal((n, 2 * hid))


@pytest.mark.parametrize("lam", [1.0, 0.37, np.float64(0.81)])
def test_lstm_step_forward_bitwise_equals_composed_oracle(lam):
    for seed in range(5):
        params, x, state = _random_step(seed)
        out = lstm_step(params, Tensor(x), Tensor(state), lam).values
        c, h = composed_lstm_step(params, Tensor(x), Tensor(state[:, :5]),
                                  Tensor(state[:, 5:]), None if lam == 1.0 else lam)
        np.testing.assert_array_equal(out, np.hstack([c.values, h.values]))


def test_lstm_step_gradients_on_all_six_inputs():
    params, x, state = _random_step(11)
    x, state, lam = Tensor(x), Tensor(state), Tensor(0.6)
    # distinct weights on C and H so that both halves of the state matter
    weight = np.random.default_rng(12).standard_normal(state.shape)

    def loss():
        return (lstm_step(params, x, state, lam) * weight).sum()

    inputs = [x, state, lam] + list(params.values())
    assert grad_check(loss, inputs, h=1e-5) < 1e-5


def test_lstm_step_gradients_bitwise_equal_composed_oracle():
    params, x, state = _random_step(13)
    x, state, lam = Tensor(x), Tensor(state), Tensor(0.45)
    weight = np.random.default_rng(14).standard_normal(state.shape)
    inputs = [x, state, lam] + list(params.values())
    for t in inputs:
        t.requires_grad = True

    def grads(step):
        for t in inputs:
            t.zero_grad()
        (step() * weight).sum().backward()
        return [t.grad.copy() for t in inputs]

    fused = grads(lambda: lstm_step(params, x, state, lam))
    composed = grads(lambda: concat(composed_lstm_step(
        params, x, state[:, :5], state[:, 5:], lam), axis=1))
    for got, want in zip(fused, composed):
        np.testing.assert_array_equal(got, want)


# --------------------------------------------------------------------------
# LSTM encoder

def test_lstm_encoder_output_shape():
    enc = LSTMEncoder(_seq_cfg(), np.random.default_rng(0))
    batch = np.random.default_rng(1).standard_normal((6, 4, 3))
    assert enc.forward(batch).shape == (6, 4)


def test_lstm_encoder_rejects_empty_sequence():
    enc = LSTMEncoder(_seq_cfg(), np.random.default_rng(0))
    with pytest.raises(DegenerateInputError):
        enc.forward(np.zeros((2, 0, 3)))


def test_lstm_encoder_step_dim_mismatch():
    enc = LSTMEncoder(_seq_cfg(din=3), np.random.default_rng(0))
    with pytest.raises(DimensionError, match="per-step dim 3, got 5"):
        enc.forward(np.zeros((2, 4, 5)))


def test_lstm_encoder_rejects_2d_input():
    enc = LSTMEncoder(_seq_cfg(), np.random.default_rng(0))
    with pytest.raises(DimensionError, match="N x T x d"):
        enc.forward(np.zeros((4, 3)))


def test_lstm_encoder_gradients_through_time():
    enc = LSTMEncoder(_seq_cfg(), np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((2, 3, 3)))
    tensors = enc.parameters() + [x]
    assert grad_check(lambda: (enc.forward(x) * enc.forward(x)).sum(),
                      tensors, h=1e-5) < 1e-4


def test_lstm_encoder_bitwise_equals_composed_unroll():
    enc = LSTMEncoder(_seq_cfg(), np.random.default_rng(0))
    data = np.random.default_rng(4).standard_normal((5, 4, 3))
    h = composed_unroll(enc.cell, [data[:, t, :] for t in range(4)], enc.hidden_dim)
    want = h @ enc.w_proj + enc.b_proj
    np.testing.assert_array_equal(enc.forward(data).values, want.values)


def test_lstm_encoder_batch_permutation_equivariant():
    enc = LSTMEncoder(_seq_cfg(), np.random.default_rng(0))
    data = np.random.default_rng(2).standard_normal((5, 4, 3))
    perm = np.random.default_rng(3).permutation(5)
    out = enc.forward(data).values
    out_p = enc.forward(data[perm]).values
    np.testing.assert_allclose(out_p, out[perm], atol=1e-13)


def test_lstm_encoder_deterministic():
    batch = np.random.default_rng(1).standard_normal((4, 4, 3))
    outs = [LSTMEncoder(_seq_cfg(), np.random.default_rng(7)).forward(batch).values
            for _ in range(2)]
    np.testing.assert_array_equal(outs[0], outs[1])


# --------------------------------------------------------------------------
# factory + config validation

def test_build_encoder_dispatch():
    rng = np.random.default_rng(0)
    assert isinstance(build_encoder(_static_cfg(), rng, "m"), MLPEncoder)
    assert isinstance(build_encoder(_seq_cfg(), rng, "s"), LSTMEncoder)


def test_encoder_config_validation():
    with pytest.raises(ContractError):
        EncoderConfig("audio", 4, [6], 3)
