"""Gradient-descent optimizers over lists of Parameters."""

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
    belong to the optimizer, one pair per parameter in `params` order."""

    def __init__(self, params, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8):
        super().__init__(params, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            self.m[i] = b1 * self.m[i] + (1 - b1) * p.grad
            self.v[i] = b2 * self.v[i] + (1 - b2) * p.grad**2
            m_hat = self.m[i] / (1 - b1**self.t)
            v_hat = self.v[i] / (1 - b2**self.t)
            p.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


OPTIMIZERS = {"adam": Adam, "sgd": SGD}


def make_optimizer(kind, params, lr):
    if kind not in OPTIMIZERS:
        raise ConfigurationError(f"unknown optimizer kind: {kind!r}")
    return OPTIMIZERS[kind](params, lr=lr)
