"""Hot numeric kernels on plain numpy arrays."""

import numpy as np


def sigmoid(x):
    """Branch-free logistic, bitwise equal to the two-branch stable form."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0, e) / d


def softplus(x):
    # log(1 + e^x), stable for large |x|
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def logsumexp_rows(s):
    m = s.max(axis=1)
    return m + np.log(np.exp(s - m[:, None]).sum(axis=1))


def top5_same_patient(sim, patient_ids):
    """For each row of sim, take the 5 most similar other entries (stable
    ties: lower index wins) and count rows where any shares the patient id."""
    e = sim.shape[0]
    order = np.argsort(-sim, axis=1, kind="stable")
    # drop each row's own index; masking keeps the remaining order per row
    others = order[order != np.arange(e)[:, None]].reshape(e, e - 1)[:, :5]
    return int((patient_ids[others] == patient_ids[:, None]).any(axis=1).sum())
