"""Toy modality encoders: MLPs for static feature vectors and an LSTM for
sequences, all projecting into a shared n-dimensional embedding space."""

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameter, Tensor
from .errors import ContractError, DegenerateInputError, DimensionError

LSTM_GATES = ("i", "f", "g", "o")


@dataclass
class EncoderConfig:
    modality_kind: str  # "static_vector" | "sequence"
    input_dim: int
    hidden_dims: list
    embedding_dim: int
    activation: str = "tanh"
    seq_len: int = 0  # sequences only

    def __post_init__(self):
        if self.modality_kind not in ("static_vector", "sequence"):
            raise ContractError(f"unknown modality_kind {self.modality_kind!r}")
        if self.activation not in ("tanh", "sigmoid"):
            raise ContractError(f"unknown activation {self.activation!r}")


def _init_weight(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _activate(t, activation):
    return t.tanh() if activation == "tanh" else t.sigmoid()


class _MLP:
    """Affine + activation stack over `dims`, with no activation after the
    last layer. Subclasses name the input width they check in `forward`."""

    def __init__(self, dims, rng, name, activation):
        self.name = name
        self.activation = activation
        self.layers = [(Parameter(f"{name}.w{li}", _init_weight(rng, din, (din, dout))),
                        Parameter(f"{name}.b{li}", np.zeros(dout)))
                       for li, (din, dout) in enumerate(zip(dims[:-1], dims[1:]))]

    def parameters(self):
        return [p for w, b in self.layers for p in (w, b)]

    def _stack(self, batch, width, what):
        x = batch if isinstance(batch, Tensor) else Tensor(batch)
        if x.shape[1] != width:
            raise DimensionError(f"{self.name}: expected {what} {width}, got {x.shape[1]}")
        for li, (w, b) in enumerate(self.layers):
            x = x @ w.tensor + b.tensor
            if li < len(self.layers) - 1:
                x = _activate(x, self.activation)
        return x


class MLPEncoder(_MLP):
    """MLP over a static feature vector with a final linear projection to n."""

    def __init__(self, cfg, rng, name="mlp"):
        if cfg.modality_kind != "static_vector":
            raise ContractError("MLPEncoder requires a static_vector config")
        self.cfg = cfg
        dims = [cfg.input_dim] + list(cfg.hidden_dims) + [cfg.embedding_dim]
        super().__init__(dims, rng, name, cfg.activation)

    def forward(self, batch):
        return self._stack(batch, self.cfg.input_dim, "input_dim")


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


def lstm_gates(params, x_t, h_prev):
    """Gate activations (i, f, g, o) shared by the plain and modality-gated
    cells."""
    pre = x_t @ params["wx"].tensor + h_prev @ params["wh"].tensor + params["b"].tensor
    hid = pre.shape[1] // len(LSTM_GATES)
    i, f, g, o = (pre[:, k * hid:(k + 1) * hid] for k in range(len(LSTM_GATES)))
    return i.sigmoid(), f.sigmoid(), g.tanh(), o.sigmoid()


def lstm_cell(params, x_t, state):
    """One standard LSTM step: returns the (C, H) pair."""
    c_prev, h_prev = state
    i, f, g, o = lstm_gates(params, x_t, h_prev)
    c = f * c_prev + i * g
    h = o * c.tanh()
    return c, h


class LSTMEncoder:
    """Unrolls an LSTM over a fixed-length sequence and projects the final
    hidden state to the shared embedding dimension."""

    def __init__(self, cfg, rng, name="lstm"):
        if cfg.modality_kind != "sequence":
            raise ContractError("LSTMEncoder requires a sequence config")
        self.cfg = cfg
        self.name = name
        self.hidden_dim = cfg.hidden_dims[-1]
        self.cell = make_lstm_params(rng, cfg.input_dim, self.hidden_dim, name)
        self.w_proj = Parameter(
            f"{name}.w_proj", _init_weight(rng, self.hidden_dim, (self.hidden_dim, cfg.embedding_dim)))
        self.b_proj = Parameter(f"{name}.b_proj", np.zeros(cfg.embedding_dim))

    def parameters(self):
        return list(self.cell.values()) + [self.w_proj, self.b_proj]

    def forward(self, batch):
        """Final embedding of an N x T x d batch; step t is `batch[:, t, :]`."""
        x = batch if isinstance(batch, Tensor) else Tensor(batch)
        if x.ndim != 3:
            raise DimensionError(f"{self.name}: sequence batch must be N x T x d, got {x.shape}")
        n, steps, dim = x.shape
        if steps < 1:
            raise DegenerateInputError(f"{self.name}: empty sequence")
        if dim != self.cfg.input_dim:
            raise DimensionError(
                f"{self.name}: expected per-step dim {self.cfg.input_dim}, got {dim}")
        c = Tensor(np.zeros((n, self.hidden_dim)))
        h = Tensor(np.zeros((n, self.hidden_dim)))
        for t in range(steps):
            c, h = lstm_cell(self.cell, x[:, t, :], (c, h))
        return h @ self.w_proj.tensor + self.b_proj.tensor


def build_encoder(cfg, rng, name):
    if cfg.modality_kind == "sequence":
        return LSTMEncoder(cfg, rng, name)
    return MLPEncoder(cfg, rng, name)
