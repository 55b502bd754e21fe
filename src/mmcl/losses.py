"""Contrastive objectives: pairwise InfoNCE, One-vs-Others (OvO), and the
modality-weighted OvO with trainable importance weights on the simplex.

Conventions (documented deviations from raw summation):
- per-sample terms are averaged over the batch, so loss magnitudes are
  batch-size invariant;
- the two-modality batch loss sums both directional terms (a->b and b->a).
"""

import numpy as np

from . import kernels
from .autodiff import Parameter, ovo_nce
from .errors import ContractError, DimensionError


class Temperature:
    """Trainable temperature, stored as log tau so tau stays positive."""

    def __init__(self, initial=1.0):
        self.log_tau = Parameter("log_tau", np.array(np.log(initial)))

    @property
    def tau(self):
        return float(np.exp(self.log_tau.values))

    def parameters(self):
        return [self.log_tau]


class LambdaWeights:
    """Modality-importance logits; the softmax image lives on the simplex."""

    def __init__(self, num_modalities, initial_logits=None):
        logits = np.zeros(num_modalities) if initial_logits is None else np.asarray(initial_logits, float)
        if logits.shape != (num_modalities,):
            raise ContractError(f"lambda logits must have length {num_modalities}")
        self.logits = Parameter("lambda_logits", logits)

    def values(self):
        return kernels.softmax(self.logits.values)

    def parameters(self):
        return [self.logits]


def infonce_pair_loss(a, b, tau):
    """Two-modality batch loss: sum of both directional terms, each the mean
    over k of -log softmax_m(cos(a_k, b_m) / tau) at m = k; the K = 2 case of
    One-vs-Others. Returns (total, [a->b term, b->a term])."""
    return ovo_nce([a, b], tau.log_tau)


def weighted_ovo_loss(embeddings, tau, lam):
    """OvO with each modality term scaled by its softmax importance weight.
    Gradients flow to embeddings, tau, and the lambda logits jointly. Returns
    (total, the unweighted per-modality terms)."""
    if lam.logits.shape[0] != len(embeddings):
        raise ContractError(f"lambda length {lam.logits.shape[0]} != K={len(embeddings)}")
    return ovo_nce(embeddings, tau.log_tau, lam.logits)


def loss_for_combination(embeddings, tau, lam=None):
    """Loss of K row-aligned N x n embedding batches (row k of each belongs
    to sample k): K=2 -> pairwise InfoNCE, K>=3 -> weighted OvO. The batches
    are checked here, once; the losses above use them as given."""
    k = len(embeddings)
    if k < 2:
        raise ContractError(f"contrastive loss needs at least 2 modalities, got {k}")
    shapes = {e.shape for e in embeddings}
    if len(shapes) != 1:
        raise DimensionError(f"embedding shapes disagree: {sorted(shapes)}")
    if k == 2:
        total, _ = infonce_pair_loss(embeddings[0], embeddings[1], tau)
        return total
    if lam is None:
        raise ContractError("weighted OvO needs lambda weights for K >= 3")
    total, _ = weighted_ovo_loss(embeddings, tau, lam)
    return total
