"""The sigmoid cross-entropy losses composed from elementary Tensor ops:
softplus, products, a difference and means. `fusion._sigmoid_ce`, the one
graph node behind `weighted_bce` and `multilabel_ce`, is checked against it."""

from elementary_ops import mean, mul, softplus, sub


def composed_sigmoid_ce(z, y, w=None):
    """Takes the arguments of `fusion._sigmoid_ce`, so it can stand in for it."""
    q = sub(softplus(z), mul(y, z))
    return mean(mean(q, axis=0)) if w is None else mean(mul(w, q))
