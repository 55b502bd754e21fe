"""Contrastive objectives: pairwise InfoNCE and the One-vs-Others (OvO)
objective weighted by trainable modality-importance weights on the simplex.
Both are the graph node `autodiff.ovo_nce`, which checks the batches and owns
the temperature and the weights; the caller holds log tau and the lambda
logits as Parameters.

Conventions (documented deviations from raw summation):
- per-sample terms are averaged over the batch, so loss magnitudes are
  batch-size invariant;
- the two-modality batch loss sums both directional terms (a->b and b->a).
"""

from .autodiff import ovo_nce
from .errors import ContractError


def infonce_pair_loss(a, b, log_tau):
    """Two-modality batch loss: sum of both directional terms, each the mean
    over k of -log softmax_m(cos(a_k, b_m) / tau) at m = k; the K = 2 case of
    One-vs-Others. Returns (total, [a->b term, b->a term])."""
    return ovo_nce([a, b], log_tau)


def weighted_ovo_loss(embeddings, log_tau, logits):
    """OvO of K >= 2 row-aligned batches with each modality term scaled by
    its weight lambda = softmax(logits). Gradients flow to the embeddings,
    log tau and the logits jointly. Returns (total, the unweighted
    per-modality terms). Logits of None raise ContractError."""
    if logits is None:
        raise ContractError("weighted OvO needs lambda logits, got None")
    return ovo_nce(embeddings, log_tau, logits)
