"""Integrated gradients as a per-point loop: one graph for each of the
`steps` path points and one each for the input and the baseline. The
batched `attribution.integrated_gradients` is checked against it."""

import numpy as np

from mmcl.attribution import AttributionReport
from mmcl.autodiff import Tensor

from elementary_ops import getitem


def per_point_integrated_gradients(model_fn, x, baseline=None, steps=256, target=0):
    """Same report as `integrated_gradients`, from the same row-wise
    `model_fn` ((S, f) -> (S, L)) called on one-row batches; logit `target`
    of each is taken as a scalar and differentiated on its own."""
    x = np.asarray(x, dtype=np.float64)
    baseline = np.zeros_like(x) if baseline is None else np.asarray(baseline, dtype=np.float64)

    def scalar_output(point):
        t = Tensor(point[None, :], requires_grad=True)
        out = model_fn(t)
        assert out.ndim == 2 and out.shape[0] == 1
        return t, getitem(out, (0, target))

    grad_sum = np.zeros_like(x)
    for s in range(1, steps + 1):
        point = baseline + (s / steps) * (x - baseline)
        t, out = scalar_output(point)
        out.backward()
        grad_sum += t.grad[0]
    per_feature = (x - baseline) * grad_sum / steps

    _, out_x = scalar_output(x)
    _, out_b = scalar_output(baseline)
    f_x, f_b = float(out_x.values), float(out_b.values)
    residual = abs(per_feature.sum() - (f_x - f_b))
    return AttributionReport(per_feature, baseline, residual, f_x, f_b)
