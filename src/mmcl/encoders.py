"""Toy modality encoders: MLPs for static feature vectors and an LSTM for
sequences, all projecting into a shared n-dimensional embedding space."""

import numpy as np

from . import kernels
from .autodiff import Parameter, Tensor, _unbroadcast, affine
from .errors import DegenerateInputError, DimensionError

LSTM_GATES = ("i", "f", "g", "o")


def _init_weight(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class _MLP:
    """Affine + tanh stack over `dims`, with no tanh after the last layer.
    Subclasses name the input width they check in `forward`."""

    def __init__(self, dims, rng, name):
        self.name = name
        self.layers = [(Parameter(f"{name}.w{li}", _init_weight(rng, din, (din, dout))),
                        Parameter(f"{name}.b{li}", np.zeros(dout)))
                       for li, (din, dout) in enumerate(zip(dims[:-1], dims[1:]))]

    def parameters(self):
        return [p for w, b in self.layers for p in (w, b)]

    def _stack(self, batch, width, what):
        x = Tensor._lift(batch)
        if x.shape[1] != width:
            raise DimensionError(f"{self.name}: expected {what} {width}, got {x.shape[1]}")
        for li, (w, b) in enumerate(self.layers):
            x = affine(x, w, b)
            if li < len(self.layers) - 1:
                x = x.tanh()
        return x


class MLPEncoder(_MLP):
    """MLP over a static feature vector with a final linear projection to n."""

    def __init__(self, input_dim, hidden_dims, embedding_dim, rng, name="mlp"):
        self.input_dim = input_dim
        super().__init__([input_dim] + list(hidden_dims) + [embedding_dim], rng, name)

    def forward(self, batch):
        return self._stack(batch, self.input_dim, "input_dim")


def make_lstm_params(rng, input_dim, hidden_dim, name="lstm"):
    """Packed weights of one LSTM cell: `wx` (d x 4h), `wh` (h x 4h) and `b`
    (4h), each holding the gate column blocks in LSTM_GATES order."""
    # drawn one gate block at a time so a seed gives the same initial gate
    # weights whatever the packing
    wx, wh = [], []
    for _ in LSTM_GATES:
        wx.append(_init_weight(rng, input_dim, (input_dim, hidden_dim)))
        wh.append(_init_weight(rng, hidden_dim, (hidden_dim, hidden_dim)))
    return {"wx": Parameter(f"{name}.wx", np.hstack(wx)),
            "wh": Parameter(f"{name}.wh", np.hstack(wh)),
            "b": Parameter(f"{name}.b", np.zeros(len(LSTM_GATES) * hidden_dim))}


def lstm_step(params, x_t, state, lam=1.0):
    """One LSTM step as a single graph node; returns the next state.

    `state` is the packed N x 2h array [C | H]. The candidate write i*g is
    scaled by `lam`: the modality weight of the gated LSTM, where 1 gives
    the plain LSTM. `lam` may be a Tensor that requires a gradient."""
    wx, wh, b = params["wx"], params["wh"], params["b"]
    hid = wh.shape[0]
    x_t, state, lam = Tensor._lift(x_t), Tensor._lift(state), Tensor._lift(lam)
    c_prev, h_prev = state.values[:, :hid], state.values[:, hid:]
    pre = x_t.values @ wx.values + h_prev @ wh.values + b.values
    sig = kernels.sigmoid(pre)
    i, f, o = sig[:, :hid], sig[:, hid:2 * hid], sig[:, 3 * hid:]
    g = np.tanh(pre[:, 2 * hid:3 * hid])
    ig = i * g
    c = f * c_prev + ig * lam.values
    tc = np.tanh(c)

    def backward(grad):
        dh = grad[:, hid:]
        dc = grad[:, :hid] + dh * o * (1.0 - tc * tc)
        dig = dc * lam.values
        # gate gradients through sigmoid / tanh, in LSTM_GATES column order
        dpre = np.concatenate([dig * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                               dig * i * (1.0 - g * g), dh * tc * o * (1.0 - o)], axis=1)
        if x_t.requires_grad:
            x_t._accumulate(dpre @ wx.values.T)
        if state.requires_grad:
            state._accumulate(np.concatenate([dc * f, dpre @ wh.values.T], axis=1))
        wx._accumulate(x_t.values.T @ dpre)
        wh._accumulate(h_prev.T @ dpre)
        b._accumulate(dpre.sum(axis=0))
        if lam.requires_grad:
            lam._accumulate(_unbroadcast(dc * ig, lam.shape))

    return Tensor._result(np.concatenate([c, o * tc], axis=1), (x_t, state, wx, wh, b, lam),
                          backward)


class LSTMEncoder:
    """Unrolls an LSTM over a fixed-length sequence and projects the final
    hidden state to the shared embedding dimension."""

    def __init__(self, input_dim, hidden_dims, embedding_dim, rng, name="lstm"):
        self.input_dim = input_dim
        self.name = name
        self.hidden_dim = hidden_dims[-1]
        self.cell = make_lstm_params(rng, input_dim, self.hidden_dim, name)
        self.w_proj = Parameter(
            f"{name}.w_proj", _init_weight(rng, self.hidden_dim, (self.hidden_dim, embedding_dim)))
        self.b_proj = Parameter(f"{name}.b_proj", np.zeros(embedding_dim))

    def parameters(self):
        return list(self.cell.values()) + [self.w_proj, self.b_proj]

    def forward(self, batch):
        """Final embedding of an N x T x d batch; step t is `batch[:, t, :]`."""
        x = Tensor._lift(batch)
        if x.ndim != 3:
            raise DimensionError(f"{self.name}: sequence batch must be N x T x d, got {x.shape}")
        n, steps, dim = x.shape
        if steps < 1:
            raise DegenerateInputError(f"{self.name}: empty sequence")
        if dim != self.input_dim:
            raise DimensionError(
                f"{self.name}: expected per-step dim {self.input_dim}, got {dim}")
        state = Tensor(np.zeros((n, 2 * self.hidden_dim)))
        for t in range(steps):
            state = lstm_step(self.cell, x[:, t, :], state)
        return affine(state[:, self.hidden_dim:], self.w_proj, self.b_proj)


def build_encoder(kind, input_dim, hidden_dims, embedding_dim, rng, name):
    """An LSTM for a "sequence" modality, else an MLP; `ModalitySpec` has
    already checked the kind."""
    cls = LSTMEncoder if kind == "sequence" else MLPEncoder
    return cls(input_dim, hidden_dims, embedding_dim, rng, name)
