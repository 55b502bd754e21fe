"""The sigmoid cross-entropy losses composed from elementary Tensor ops:
softplus, products, a difference and means. `fusion._sigmoid_ce`, the one
graph node behind `weighted_bce` and `multilabel_ce`, is checked against it."""

from mmcl.autodiff import Tensor


def composed_sigmoid_ce(z, y, w=None):
    """Takes the arguments of `fusion._sigmoid_ce`, so it can stand in for it."""
    z = Tensor._lift(z)
    q = z.softplus() - Tensor(y) * z
    return q.mean(axis=0).mean() if w is None else (Tensor(w) * q).mean()
