"""The LSTM cell composed from elementary Tensor ops: matmuls, column
slices, sigmoids, tanh and products. The fused `encoders.lstm_sequence` op
is checked against its unroll, forward and backward."""

import numpy as np

from mmcl.autodiff import Tensor
from mmcl.encoders import LSTM_GATES

from elementary_ops import add, getitem, matmul, mul, sigmoid


def composed_lstm_step(params, x_t, c_prev, h_prev, lam=None):
    """(C, H) after one step. With `lam` the candidate write i*g is scaled
    by it, as in the modality-gated LSTM; without it this is the plain LSTM."""
    pre = add(add(matmul(x_t, params["wx"]), matmul(h_prev, params["wh"])), params["b"])
    hid = pre.shape[1] // len(LSTM_GATES)
    i, f, g, o = (getitem(pre, (slice(None), slice(k * hid, (k + 1) * hid)))
                  for k in range(len(LSTM_GATES)))
    i, f, g, o = sigmoid(i), sigmoid(f), g.tanh(), sigmoid(o)
    write = mul(i, g) if lam is None else mul(mul(i, g), lam)
    c = add(mul(f, c_prev), write)
    return c, mul(o, c.tanh())


def composed_unroll(params, steps, lambdas=None):
    """Final H of the composed cell over `steps` (Tensors or arrays), from a
    zero state; `lambdas`, when given, gates each step's write. Takes the
    arguments of `encoders.lstm_sequence`, so it can stand in for it."""
    n, hidden_dim = steps[0].shape[0], params["wh"].shape[0]
    c, h = Tensor(np.zeros((n, hidden_dim))), Tensor(np.zeros((n, hidden_dim)))
    for t, x_t in enumerate(steps):
        lam = None if lambdas is None else lambdas[t]
        c, h = composed_lstm_step(params, x_t, c, h, lam)
    return h
