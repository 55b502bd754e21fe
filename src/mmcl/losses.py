"""Contrastive objectives: pairwise InfoNCE, One-vs-Others (OvO), and the
modality-weighted OvO with trainable importance weights on the simplex.

Conventions (documented deviations from raw summation):
- per-sample terms are averaged over the batch, so loss magnitudes are
  batch-size invariant;
- the two-modality batch loss sums both directional terms (a->b and b->a).
"""

import numpy as np

from .autodiff import Parameter, Tensor, logsumexp_rows, row_normalize, softmax
from .errors import ContractError, DimensionError


class ModalityEmbeddingSet:
    """Row-aligned per-modality embedding batches: row k of every tensor
    belongs to sample k."""

    def __init__(self, modalities, embeddings):
        if len(modalities) != len(embeddings):
            raise ContractError("modalities and embeddings must align")
        if len(modalities) < 2:
            raise ContractError("need at least 2 modalities")
        shapes = {e.shape for e in embeddings}
        if len(shapes) != 1:
            raise DimensionError(f"embedding shapes disagree: {sorted(shapes)}")
        self.modalities = list(modalities)
        self.embeddings = list(embeddings)

    @property
    def num_modalities(self):
        return len(self.modalities)

    @property
    def batch_size(self):
        return self.embeddings[0].shape[0]


class Temperature:
    """Trainable temperature, stored as log tau so tau stays positive."""

    def __init__(self, initial=1.0):
        self.log_tau = Parameter("log_tau", np.array(np.log(initial)))

    @property
    def tau(self):
        return float(np.exp(self.log_tau.values))

    def inverse(self):
        return (-self.log_tau).exp()

    def parameters(self):
        return [self.log_tau]


class LambdaWeights:
    """Modality-importance logits; the softmax image lives on the simplex."""

    def __init__(self, num_modalities, initial_logits=None):
        logits = np.zeros(num_modalities) if initial_logits is None else np.asarray(initial_logits, float)
        if logits.shape != (num_modalities,):
            raise ContractError(f"lambda logits must have length {num_modalities}")
        self.logits = Parameter("lambda_logits", logits)

    def lambdas(self):
        return softmax(self.logits)

    def values(self):
        return softmax(Tensor(self.logits.values)).values

    def parameters(self):
        return [self.logits]


def similarity_matrix(a, b, tau):
    """Entry (k, m) = cos(a_k, b_m) / tau."""
    an = row_normalize(a)
    bn = row_normalize(b)
    return (an @ bn.T) * tau.inverse()


def _directional_nce(a, b, tau):
    """Mean over k of -log softmax similarity of the matched pair (k, k)."""
    s = similarity_matrix(a, b, tau)
    k = np.arange(s.shape[0])
    return (logsumexp_rows(s) - s[k, k]).mean()


def infonce_pair_loss(a, b, tau):
    """Two-modality batch loss: sum of both directional terms.

    Returns (total, [a->b term, b->a term])."""
    fwd = _directional_nce(a, b, tau)
    bwd = _directional_nce(b, a, tau)
    return fwd + bwd, [fwd, bwd]


def _left_sum(tensors):
    """t0 + t1 + ... added left to right, so every caller rounds alike."""
    total = tensors[0]
    for t in tensors[1:]:
        total = total + t
    return total


def others_mean(emb_set, i):
    """Rowwise mean of every modality except i."""
    k = emb_set.num_modalities
    if k < 2:
        raise ContractError("others_mean needs at least 2 modalities")
    if not 0 <= i < k:
        raise ContractError(f"modality index {i} out of range for K={k}")
    rest = [e for j, e in enumerate(emb_set.embeddings) if j != i]
    return _left_sum(rest) * (1.0 / (k - 1))


def _ovo_terms(emb_set, tau):
    return [_directional_nce(e, others_mean(emb_set, i), tau)
            for i, e in enumerate(emb_set.embeddings)]


def ovo_loss(emb_set, tau):
    """One-vs-Others loss: each modality contrasted against the mean of the
    rest. Returns (total, per-modality terms); for K=2 each term equals the
    corresponding directional InfoNCE term."""
    terms = _ovo_terms(emb_set, tau)
    return _left_sum(terms), terms


def weighted_ovo_loss(emb_set, tau, lam):
    """OvO with each modality term scaled by its softmax importance weight.
    Gradients flow to embeddings, tau, and the lambda logits jointly."""
    lambdas = lam.lambdas()
    if lambdas.shape[0] != emb_set.num_modalities:
        raise ContractError(
            f"lambda length {lambdas.shape[0]} != K={emb_set.num_modalities}")
    terms = [lambdas[i] * raw for i, raw in enumerate(_ovo_terms(emb_set, tau))]
    return _left_sum(terms), terms


def loss_for_combination(emb_set, tau, lam=None):
    """Dispatch: K=2 -> pairwise InfoNCE, K>=3 -> weighted OvO."""
    k = emb_set.num_modalities
    if k < 2:
        raise ContractError("contrastive loss needs at least 2 modalities")
    if k == 2:
        total, _ = infonce_pair_loss(emb_set.embeddings[0], emb_set.embeddings[1], tau)
        return total
    if lam is None:
        raise ContractError("weighted OvO needs lambda weights for K >= 3")
    total, _ = weighted_ovo_loss(emb_set, tau, lam)
    return total
