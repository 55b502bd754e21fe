"""Ranking metrics, subgroup breakdowns, and embedding-alignment accuracy."""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ContractError, DegenerateInputError, EPS


@dataclass
class MetricsRecord:
    auroc: float
    auprc: float


def _as_arrays(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ContractError(f"scores {scores.shape} vs labels {labels.shape}")
    return scores, labels


def _run_ends(xs):
    """One past the last index of each run of equal values in the sorted 1-D
    array `xs`; a NaN equals nothing, so each NaN is a run of its own."""
    return np.append(np.flatnonzero(xs[1:] != xs[:-1]) + 1, xs.size)


def midranks(x):
    """1-based ranks of a 1-D array; tied values share the mean of their ranks."""
    order = np.argsort(x, kind="stable")
    ends = _run_ends(x[order])
    starts = np.append(0, ends[:-1])
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
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
    ends = _run_ends(scores[order])  # rows ranked at or above each distinct score
    tp = np.cumsum(labels[order] == 1)[ends - 1]
    # cumsum adds the terms left to right; np.sum's pairwise order rounds differently
    return float(np.cumsum((np.diff(tp, prepend=0) / n_pos) * (tp / ends))[-1])


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
