"""Gradient-descent optimizers over lists of Parameters."""

import itertools

import numpy as np

from .errors import ConfigurationError


class Optimizer:
    """Parameters updated in place by `step`, and their learning rate."""

    def __init__(self, params, lr=1e-2):
        self.params = list(params)
        self.lr = lr

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


class SGD(Optimizer):
    def step(self):
        for p in self.params:
            if p.grad is not None:
                p.values -= self.lr * p.grad


class Adam(Optimizer):
    """Adaptive first/second-moment method with bias correction. The moments
    belong to the optimizer: `m` and `v` are one flat vector each, and
    parameter i owns `m[lo:hi]` and `v[lo:hi]` for `(lo, hi) = slices[i]`, in
    `params` order. `p.values` stays the parameter's own array, so a second
    optimizer over the same parameter moves it too."""

    def __init__(self, params, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8):
        super().__init__(params, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        ends = list(itertools.accumulate((p.values.size for p in self.params), initial=0))
        self.slices = list(zip(ends, ends[1:]))
        self.m = np.zeros(ends[-1])
        self.v = np.zeros(ends[-1])
        # buffers rewritten by every step: the flat gradient, and the step to
        # subtract, also seen as one view per parameter in that parameter's shape
        self._grad = np.empty(ends[-1])
        self._delta = np.empty(ends[-1])
        self._param_deltas = [self._delta[lo:hi].reshape(p.values.shape)
                              for p, (lo, hi) in zip(self.params, self.slices)]

    def step(self):
        self.t += 1
        grads = [p.grad for p in self.params]
        if grads and all(g is not None for g in grads):
            np.concatenate([g.ravel() for g in grads], out=self._grad)
            self._update(0, self._grad.size)
        else:  # only the slices of parameters with a gradient; the rest keep their moments
            for g, (lo, hi) in zip(grads, self.slices):
                if g is not None:
                    self._grad[lo:hi] = g.ravel()
                    self._update(lo, hi)
        for p, g, delta in zip(self.params, grads, self._param_deltas):
            if g is not None:
                p.values -= delta

    def _update(self, lo, hi):
        """Advance `m[lo:hi]` and `v[lo:hi]` by the gradient in `_grad[lo:hi]`
        and write `lr * m_hat / (sqrt(v_hat) + eps)` to `_delta[lo:hi]`. Each
        in-place op is an elementwise op of the textbook expressions, in their
        order, so every value rounds as they do."""
        b1, b2 = self.beta1, self.beta2
        g, m, v, delta = self._grad[lo:hi], self.m[lo:hi], self.v[lo:hi], self._delta[lo:hi]
        m *= b1
        np.multiply(g, 1 - b1, out=delta)
        m += delta
        np.multiply(g, g, out=delta)
        delta *= 1 - b2
        v *= b2
        v += delta
        np.divide(m, 1 - b1**self.t, out=delta)
        delta *= self.lr
        denom = np.divide(v, 1 - b2**self.t, out=g)  # the gradient is spent
        np.sqrt(denom, out=denom)
        denom += self.eps
        delta /= denom


OPTIMIZERS = {"adam": Adam, "sgd": SGD}


def make_optimizer(kind, params, lr):
    if kind not in OPTIMIZERS:
        raise ConfigurationError(f"unknown optimizer kind: {kind!r}")
    return OPTIMIZERS[kind](params, lr=lr)
