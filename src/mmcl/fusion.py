"""Multimodal fusion (concatenation and the modality-gated LSTM) plus the
classification heads and their training losses."""

import numpy as np

from . import kernels
from .autodiff import Tensor, concat
from .encoders import _MLP, lstm_sequence
from .errors import ContractError, DegenerateInputError, DimensionError


def concat_fuse(embeddings):
    """Rowwise concatenation of the per-modality batches in their order
    (width n*m)."""
    return concat(embeddings)


def mlstm_forward(params, inputs, lambdas):
    """Modality-gated LSTM: one `lstm_sequence` over the modality embeddings
    in fixed order, with each step's candidate write scaled by that
    modality's weight; returns final H. The weights are used as given."""
    if len(inputs) < 2:
        raise ContractError("mLSTM fusion needs at least 2 modalities")
    if len(lambdas) != len(inputs):
        raise ContractError(f"{len(inputs)} modality inputs but {len(lambdas)} lambdas")
    return lstm_sequence(params, inputs, lambdas)


class ClassifierHead(_MLP):
    """MLP from fused features to raw logits (no output activation)."""

    def __init__(self, input_dim, hidden_dims, num_labels, rng, name="head"):
        self.input_dim, self.num_labels = input_dim, num_labels
        super().__init__([input_dim] + list(hidden_dims) + [num_labels], rng, name)

    def forward(self, features):
        return self._stack(features, self.input_dim, "feature width")


def _check_binary_targets(targets):
    targets = np.asarray(targets, dtype=np.float64)
    if not ((targets == 0.0) | (targets == 1.0)).all():
        raise ContractError("targets must be 0/1")
    return targets


def _sigmoid_ce(z, y, w=None):
    """Mean sigmoid cross-entropy softplus(z) - y*z of logits `z` against
    0/1 targets `y` (same shape) as one graph node. With weights `w` it is
    the mean of w * (...) over every entry; without, the mean over axis 0
    and then over labels. Forward and backward round as the composed
    softplus, product, difference and means would."""
    z = Tensor._lift(z)
    q = kernels.softplus(z.values) - y * z.values
    if w is None:
        rows, cols = q.shape
        loss = (q.sum(axis=0) * (1.0 / rows)).sum() * (1.0 / cols)
    else:
        loss = (w * q).sum() * (1.0 / q.size)

    def backward(g):
        # the gradient reaching each softplus(z) - y*z entry
        dq = (g * (1.0 / cols)) * (1.0 / rows) if w is None else (g * (1.0 / q.size)) * w
        z._accumulate(dq * kernels.sigmoid(z.values) - dq * y)

    return Tensor._result(loss, (z,), backward)


def weighted_bce(logits, targets, class_weights=(1.0, 1.0)):
    """Class-weighted binary cross-entropy on raw logits, mean over samples.

    Uses softplus(z) - y*z for log-sum-exp stability."""
    targets = _check_binary_targets(targets).reshape(-1)
    w_pos, w_neg = class_weights
    if w_pos <= 0 or w_neg <= 0:
        raise ContractError("class weights must be positive")
    z = Tensor._lift(logits)
    if z.values.size != targets.size:
        raise DimensionError(f"logits {z.shape} vs targets {targets.shape}")
    w = np.where(targets == 1.0, w_pos, w_neg).reshape(z.shape)
    return _sigmoid_ce(z, targets.reshape(z.shape), w)


def multilabel_ce(logits, targets):
    """Unweighted per-label sigmoid cross-entropy, mean over samples and
    labels; each label is optimized independently."""
    targets = _check_binary_targets(targets)
    z = Tensor._lift(logits)
    if z.shape != targets.shape:
        raise DimensionError(f"logits {z.shape} vs targets {targets.shape}")
    return _sigmoid_ce(z, targets)


def class_weights_from_counts(n_pos, n_neg):
    """Inverse-frequency weights: w_c = (n_pos + n_neg) / (2 * n_c)."""
    if n_pos < 1 or n_neg < 1:
        raise DegenerateInputError("both classes need at least one sample")
    total = n_pos + n_neg
    return total / (2.0 * n_pos), total / (2.0 * n_neg)
