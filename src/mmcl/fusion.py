"""Multimodal fusion (concatenation and the modality-gated LSTM) plus the
classification heads and their training losses."""

import numpy as np

from .autodiff import Tensor, concat
from .encoders import _MLP, lstm_step
from .errors import ContractError, DegenerateInputError, DimensionError


def concat_fuse(embeddings):
    """Rowwise concatenation of the per-modality batches in their order
    (width n*m)."""
    return concat(embeddings, axis=1)


def mlstm_forward(params, inputs, lambdas, hidden_dim):
    """Modality-gated LSTM: one `lstm_step` per modality embedding in fixed
    order, with the candidate write scaled by that modality's weight;
    returns final H. The weights are used as given."""
    if len(inputs) < 2:
        raise ContractError("mLSTM fusion needs at least 2 modalities")
    if len(lambdas) != len(inputs):
        raise ContractError(f"{len(inputs)} modality inputs but {len(lambdas)} lambdas")
    n = inputs[0].shape[0]
    state = Tensor(np.zeros((n, 2 * hidden_dim)))
    for x_t, lam_t in zip(inputs, lambdas):
        state = lstm_step(params, x_t, state, lam_t)
    return state[:, hidden_dim:]


class ClassifierHead(_MLP):
    """MLP from fused features to raw logits (no output activation)."""

    def __init__(self, input_dim, hidden_dims, num_labels, rng, name="head"):
        self.input_dim, self.num_labels = input_dim, num_labels
        super().__init__([input_dim] + list(hidden_dims) + [num_labels], rng, name)

    def forward(self, features):
        return self._stack(features, self.input_dim, "feature width")


def _check_binary_targets(targets):
    targets = np.asarray(targets, dtype=np.float64)
    if not np.all(np.isin(targets, (0.0, 1.0))):
        raise ContractError("targets must be 0/1")
    return targets


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
    y = Tensor(targets.reshape(z.shape))
    w = Tensor(np.where(targets == 1.0, w_pos, w_neg).reshape(z.shape))
    per_sample = w * (z.softplus() - y * z)
    return per_sample.mean()


def multilabel_ce(logits, targets):
    """Unweighted per-label sigmoid cross-entropy, mean over samples and
    labels; each label is optimized independently."""
    targets = _check_binary_targets(targets)
    z = Tensor._lift(logits)
    if z.shape != targets.shape:
        raise DimensionError(f"logits {z.shape} vs targets {targets.shape}")
    y = Tensor(targets)
    return (z.softplus() - y * z).mean(axis=0).mean()


def class_weights_from_counts(n_pos, n_neg):
    """Inverse-frequency weights: w_c = (n_pos + n_neg) / (2 * n_c)."""
    if n_pos < 1 or n_neg < 1:
        raise DegenerateInputError("both classes need at least one sample")
    total = n_pos + n_neg
    return total / (2.0 * n_pos), total / (2.0 * n_neg)
