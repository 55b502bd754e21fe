"""Adam, the optimizer of every training run, over a list of Parameters."""

import itertools

import numpy as np

from .errors import ContractError

# the moment decay rates and the denominator guard of Kingma & Ba (2015)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive first/second-moment method with bias correction. The moments
    belong to the optimizer: `m` and `v` are one flat vector each, and
    parameter i owns `m[lo:hi]` and `v[lo:hi]` for `(lo, hi) = slices[i]`, in
    `params` order. `p.values` stays the parameter's own array, so a second
    optimizer over the same parameter moves it too."""

    def __init__(self, params, lr=1e-2):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        ends = [0, *itertools.accumulate(p.values.size for p in self.params)]
        self.slices = list(zip(ends, ends[1:]))
        self.m = np.zeros(ends[-1])
        self.v = np.zeros(ends[-1])
        # buffers rewritten by every step: the flat gradient, and the step to
        # subtract, also seen as one view per parameter in that parameter's shape
        self._grad = np.empty(ends[-1])
        self._delta = np.empty(ends[-1])
        self._param_deltas = [self._delta[lo:hi].reshape(p.values.shape)
                              for p, (lo, hi) in zip(self.params, self.slices)]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        """Advance `m` and `v` by the gradients, flattened into `_grad`, and
        subtract `lr * m_hat / (sqrt(v_hat) + EPS)` from the values. Each
        in-place op is an elementwise op of the textbook expressions, in their
        order, so every value rounds as they do. A parameter without a
        gradient raises ContractError before `t`, the moments or any value
        change."""
        for p in self.params:
            if p.grad is None:
                raise ContractError(f"Adam step: parameter {p.name!r} has no gradient")
        self.t += 1
        g, m, v, delta = self._grad, self.m, self.v, self._delta
        np.concatenate([p.grad.ravel() for p in self.params], out=g)
        m *= BETA1
        np.multiply(g, 1 - BETA1, out=delta)
        m += delta
        np.multiply(g, g, out=delta)
        delta *= 1 - BETA2
        v *= BETA2
        v += delta
        np.divide(m, 1 - BETA1**self.t, out=delta)
        delta *= self.lr
        denom = np.divide(v, 1 - BETA2**self.t, out=g)  # the gradient is spent
        np.sqrt(denom, out=denom)
        denom += EPS
        delta /= denom
        for p, param_delta in zip(self.params, self._param_deltas):
            p.values -= param_delta
