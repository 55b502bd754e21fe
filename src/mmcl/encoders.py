"""Toy modality encoders: MLPs for static feature vectors and an LSTM for
sequences, all projecting into a shared n-dimensional embedding space."""

import numpy as np

from . import kernels
from .autodiff import Parameter, Tensor, affine
from .errors import ContractError, DegenerateInputError, DimensionError

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
    # drawn one gate block at a time so a seed gives the same starting gate
    # weights whatever the packing
    wx, wh = [], []
    for _ in LSTM_GATES:
        wx.append(_init_weight(rng, input_dim, (input_dim, hidden_dim)))
        wh.append(_init_weight(rng, hidden_dim, (hidden_dim, hidden_dim)))
    return {"wx": Parameter(f"{name}.wx", np.hstack(wx)),
            "wh": Parameter(f"{name}.wh", np.hstack(wh)),
            "b": Parameter(f"{name}.b", np.zeros(len(LSTM_GATES) * hidden_dim))}


def lstm_sequence(params, xs, lams=None):
    """Final H of an LSTM unrolled from a zero state over the T step batches
    `xs`, as a single graph node. `xs` is a sequence of N x d Tensors (the
    modality embeddings of the mLSTM, which take gradients) or of data
    arrays, such as a T x N x d array (the sequence encoder's data, which
    take none).

    With `lams` (T constant weights, numbers), step t's candidate write i*g
    is scaled by lams[t]: the modality-gated LSTM. The weights are not
    trained through the gate, so they get no gradient. Without them this is
    the plain LSTM.

    The forward pass projects every step's input with one stacked matmul,
    then runs each step as pre = x_t@wx + h@wh + b, C = f*C_prev + (i*g)*lam,
    H = o*tanh(C). The backward pass runs backpropagation through time
    inside the op: each step's gate gradient goes into one T x N x 4h
    buffer, and the input and weight gradients come from stacked products,
    the weight ones summed last step first. Both round as one node per step
    would."""
    wx, wh, b = params["wx"], params["wh"], params["b"]
    hid = wh.shape[0]
    xs = [Tensor._lift(x) for x in xs]
    steps, n = len(xs), xs[0].shape[0]
    x_all = np.stack([x.values for x in xs])
    xw = np.matmul(x_all, wx.values)
    # row t of h_all and c_all is the state before step t; s_all[t] ends as
    # S = [i | f | 1 | o], the g block set to 1 once g is taken
    h_all, c_all = np.zeros((steps + 1, n, hid)), np.zeros((steps + 1, n, hid))
    s_all, g_all = np.empty((steps, n, 4 * hid)), np.empty((steps, n, hid))
    tc_all = np.empty((steps, n, hid))
    for t in range(steps):
        pre = xw[t] + h_all[t] @ wh.values + b.values
        sig = s_all[t]
        sig[...] = kernels.sigmoid(pre)
        i, f, o = sig[:, :hid], sig[:, hid:2 * hid], sig[:, 3 * hid:]
        g = np.tanh(pre[:, 2 * hid:3 * hid], out=g_all[t])
        ig = i * g
        c = np.add(f * c_all[t], ig if lams is None else ig * lams[t], out=c_all[t + 1])
        tc = np.tanh(c, out=tc_all[t])
        np.multiply(o, tc, out=h_all[t + 1])
        sig[:, 2 * hid:3 * hid] = 1.0

    def backward(grad):
        # D = [1-i | 1-f | 1-g^2 | 1-o], and tanh's derivative at each C
        d_all = 1.0 - s_all
        d_all[:, :, 2 * hid:3 * hid] = 1.0 - g_all * g_all
        dtc_all = 1.0 - tc_all * tc_all
        dpre_all = np.empty((steps, n, 4 * hid))
        dh, dc_next = grad, 0.0
        for t in reversed(range(steps)):
            sig, g, tc, c_prev = s_all[t], g_all[t], tc_all[t], c_all[t]
            i, f, o = sig[:, :hid], sig[:, hid:2 * hid], sig[:, 3 * hid:]
            dc = dc_next + dh * o * dtc_all[t]
            dig = dc if lams is None else dc * lams[t]
            # (A * S) * D rounds as the four per-gate products
            dpre = dpre_all[t]
            np.multiply(dig, g, out=dpre[:, :hid])
            np.multiply(dc, c_prev, out=dpre[:, hid:2 * hid])
            np.multiply(dig, i, out=dpre[:, 2 * hid:3 * hid])
            np.multiply(dh, tc, out=dpre[:, 3 * hid:])
            dpre *= sig
            dpre *= d_all[t]
            if t:
                dh, dc_next = dpre @ wh.values.T, dc * f
        if any(x.requires_grad for x in xs):  # a data sequence needs no input gradient
            dx_all = np.matmul(dpre_all, wx.values.T)
            for x, dx in zip(reversed(xs), dx_all[::-1]):
                if x.requires_grad:
                    x._accumulate(dx)
        wx._accumulate(np.matmul(x_all.transpose(0, 2, 1), dpre_all)[::-1].sum(axis=0))
        wh._accumulate(np.matmul(h_all[:-1].transpose(0, 2, 1), dpre_all)[::-1].sum(axis=0))
        b._accumulate(dpre_all.sum(axis=1)[::-1].sum(axis=0))

    return Tensor._result(h_all[steps], (*xs, wx, wh, b), backward)


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
        """Final embedding of an N x T x d data array. `lstm_sequence` reads
        its T step views `batch[:, t, :]` through one axis swap, with no graph
        node per step. The data take no gradient, so a Tensor, whose gradient
        would be dropped, is refused."""
        if isinstance(batch, Tensor):
            raise ContractError(f"{self.name}: sequence batch must be a data array, not a Tensor")
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 3:
            raise DimensionError(f"{self.name}: sequence batch must be N x T x d, got {x.shape}")
        n, steps, dim = x.shape
        if steps < 1:
            raise DegenerateInputError(f"{self.name}: empty sequence")
        if dim != self.input_dim:
            raise DimensionError(
                f"{self.name}: expected per-step dim {self.input_dim}, got {dim}")
        h = lstm_sequence(self.cell, np.swapaxes(x, 0, 1))
        return affine(h, self.w_proj, self.b_proj)


def build_encoder(kind, input_dim, hidden_dims, embedding_dim, rng, name):
    """An LSTM for a "sequence" modality, else an MLP; `ModalitySpec` has
    already checked the kind."""
    cls = LSTMEncoder if kind == "sequence" else MLPEncoder
    return cls(input_dim, hidden_dims, embedding_dim, rng, name)
