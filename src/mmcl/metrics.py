"""Ranking metrics, subgroup breakdowns, and embedding-alignment accuracy."""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ContractError, DegenerateInputError, EPS


@dataclass
class MetricsRecord:
    task: str
    auroc: float
    auprc: float
    seed: int


def _as_arrays(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ContractError(f"scores {scores.shape} vs labels {labels.shape}")
    return scores, labels


def midranks(x):
    """1-based ranks of a 1-D array; tied values share the mean of their ranks."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    xs = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and xs[j + 1] == xs[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auroc(scores, labels):
    """Mann-Whitney AUROC: probability a random positive outranks a random
    negative, ties counted 1/2."""
    scores, labels = _as_arrays(scores, labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInputError("AUROC needs both classes present")
    rank_sum = midranks(scores)[pos].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auprc(scores, labels):
    """Average precision: sum over descending distinct-score groups of
    precision times the recall increment (no interpolation)."""
    scores, labels = _as_arrays(scores, labels)
    n_pos = int((labels == 1).sum())
    if n_pos == 0:
        raise DegenerateInputError("AUPRC needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    ap = 0.0
    tp = fp = 0
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and s[j + 1] == s[i]:
            j += 1
        group_tp = int((y[i:j + 1] == 1).sum())
        tp += group_tp
        fp += (j - i + 1) - group_tp
        if group_tp:
            ap += (group_tp / n_pos) * (tp / (tp + fp))
        i = j + 1
    return ap


def groupwise(metric_fn, scores, labels, groups):
    """Apply a metric per group; groups whose data violates the metric's
    preconditions are skipped, not errored. Returns (per_group, skipped)."""
    scores, labels = _as_arrays(scores, labels)
    groups = np.asarray(groups)
    per_group = {}
    skipped = []
    for g in sorted(set(groups.tolist()), key=str):
        mask = groups == g
        try:
            per_group[g] = metric_fn(scores[mask], labels[mask])
        except DegenerateInputError:
            skipped.append(g)
    return per_group, skipped


def top5_alignment_accuracy(vectors, patient_ids):
    """Fraction of the E rows of an E x n embedding matrix whose 5 nearest
    cosine neighbors (self excluded, ties broken by row order) include
    another row of the same patient."""
    mat = np.asarray(vectors, dtype=np.float64)
    pids = np.asarray(patient_ids)
    if mat.ndim != 2 or pids.shape != mat.shape[:1]:
        raise ContractError(f"vectors {mat.shape} vs patient ids {pids.shape}: "
                            f"need E x n vectors and E ids")
    if mat.shape[0] < 7:
        raise ContractError("need at least 7 entries for 5 neighbors plus self")
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    zero = np.flatnonzero(norms[:, 0] <= EPS)
    if zero.size:
        raise DegenerateInputError(f"zero-norm embedding in row {zero[0]} "
                                   f"(patient {pids[zero[0]]})")
    mat = mat / norms
    sim = mat @ mat.T
    return kernels.top5_same_patient(sim, pids) / mat.shape[0]
