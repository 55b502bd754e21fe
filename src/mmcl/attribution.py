"""Integrated-gradients feature attribution and per-modality aggregation."""

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import MAX_IG_STEPS, ContractError, DegenerateInputError, is_int
from .metrics import midranks


@dataclass
class AttributionReport:
    per_feature: np.ndarray
    baseline: np.ndarray
    completeness_residual: float
    output_at_input: float
    output_at_baseline: float


def integrated_gradients(model_fn, x, baseline=None, steps=256, target=0):
    """Path-integral attribution of logit `target` from baseline to x.

    `model_fn` maps a Tensor of shape (S, f) to a Tensor of logits of shape
    (S, L), each row depending only on its own input row. The `steps`
    right-endpoint path points, then x, then the baseline go through it as
    one (steps + 2) x f batch. One backward pass, seeded with 1 in column
    `target` of every row and 0 elsewhere, serves the whole Riemann sum;
    memory grows as (steps + 2) * f per call. f(x) and f(baseline) are read
    from that column, and the completeness residual
    |sum(attributions) - (f(x) - f(baseline))| is recorded."""
    x = np.asarray(x, dtype=np.float64)
    baseline = np.zeros_like(x) if baseline is None else np.asarray(baseline, dtype=np.float64)
    if x.shape != baseline.shape or x.ndim != 1:
        raise ContractError(f"input {x.shape} and baseline {baseline.shape} must be matching vectors")
    if not (is_int(steps) and 2 <= steps <= MAX_IG_STEPS):
        raise ContractError(f"integrated gradients needs 2 <= steps <= {MAX_IG_STEPS}, got {steps}")

    alphas = np.arange(1, steps + 1)[:, None] / steps
    points = np.empty((steps + 2, x.size))  # the path points, then x, then the baseline
    delta = x - baseline
    path = np.multiply(alphas, delta, out=points[:steps])
    np.add(baseline, path, out=path)
    points[steps], points[steps + 1] = x, baseline
    t = Tensor(points, requires_grad=True)
    out = model_fn(t)
    if out.ndim != 2 or out.shape[0] != steps + 2:
        raise ContractError(f"attributed model output must have shape ({steps + 2}, L), "
                            f"one row of logits per input row; got {out.shape}")
    if not is_int(target) or not 0 <= target < out.shape[1]:
        raise ContractError(f"target {target!r} outside [0, {out.shape[1]})")
    seed = np.zeros(out.shape)
    seed[:, target] = 1.0
    out.backward(seed)
    # an output that never reads its input leaves no gradient: all zeros
    grad = np.zeros_like(t.values) if t.grad is None else t.grad
    per_feature = delta * grad[:steps].sum(axis=0) / steps
    f_x, f_b = float(out.values[-2, target]), float(out.values[-1, target])
    residual = abs(per_feature.sum() - (f_x - f_b))
    return AttributionReport(per_feature, baseline, residual, f_x, f_b)


def modality_aggregate(per_feature, k):
    """Collapse per-feature attributions to one nonnegative score per
    modality. `per_feature` is one sample's attribution vector of f features,
    or an S x f stack of S samples' vectors, each row aggregated on its own:
    the feature axis splits into `k` equal consecutive blocks, one per
    modality in order, and each score is the sum of absolute values in its
    block, normalized to a probability vector. A row of all-zero
    attributions gives uniform scores; a NaN, an infinity or a sum that
    overflows in any row raises DegenerateInputError. Input of another rank,
    or a `k` that does not divide f, raises ContractError."""
    per_feature = np.asarray(per_feature, dtype=np.float64)
    if per_feature.ndim not in (1, 2):
        raise ContractError(f"attributions must be a vector or an S x f stack, "
                            f"got shape {per_feature.shape}")
    f = per_feature.shape[-1]
    if not (is_int(k) and k >= 1 and f % k == 0):
        raise ContractError(f"{f} features do not split into {k!r} equal modality blocks")
    with np.errstate(over="ignore"):
        raw = np.abs(per_feature).reshape(*per_feature.shape[:-1], k, -1).sum(axis=-1)
        total = raw.sum(axis=-1, keepdims=True)
    if not np.isfinite(total).all():
        raise DegenerateInputError("attributions are not finite: the model overflows")
    return np.divide(raw, total, out=np.full(raw.shape, 1.0 / k), where=total > 0)


def spearman_rank_correlation(a, b):
    """Spearman rho via Pearson correlation of midranks."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ContractError("spearman needs two equal-length vectors of size >= 2")
    ra, rb = midranks(a), midranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra**2).sum() * (rb**2).sum())
    if denom == 0:
        return 0.0
    return float((ra * rb).sum() / denom)
