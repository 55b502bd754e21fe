"""The LSTM cell composed from elementary Tensor ops: matmuls, column
slices, sigmoids, tanh and products. The fused `encoders.lstm_step` op is
checked against it, forward and backward."""

import numpy as np

from mmcl.autodiff import Tensor
from mmcl.encoders import LSTM_GATES


def composed_lstm_step(params, x_t, c_prev, h_prev, lam=None):
    """(C, H) after one step. With `lam` the candidate write i*g is scaled
    by it, as in the modality-gated LSTM; without it this is the plain LSTM."""
    pre = x_t @ params["wx"] + h_prev @ params["wh"] + params["b"]
    hid = pre.shape[1] // len(LSTM_GATES)
    i, f, g, o = (pre[:, k * hid:(k + 1) * hid] for k in range(len(LSTM_GATES)))
    i, f, g, o = i.sigmoid(), f.sigmoid(), g.tanh(), o.sigmoid()
    write = i * g if lam is None else (i * g) * Tensor._lift(lam)
    c = f * c_prev + write
    return c, o * c.tanh()


def composed_unroll(params, steps, hidden_dim, lambdas=None):
    """Final H of the composed cell over `steps` (Tensors or arrays), from a
    zero state; `lambdas`, when given, gates each step's write."""
    n = steps[0].shape[0]
    c, h = Tensor(np.zeros((n, hidden_dim))), Tensor(np.zeros((n, hidden_dim)))
    for t, x_t in enumerate(steps):
        lam = None if lambdas is None else lambdas[t]
        c, h = composed_lstm_step(params, Tensor._lift(x_t), c, h, lam)
    return h
