"""Gradient-descent optimizers over lists of Parameters."""

import numpy as np

from .autodiff import zero_grads
from .errors import ConfigurationError


class SGD:
    def __init__(self, params, lr=1e-2):
        self.params = list(params)
        self.lr = lr

    def step(self):
        for p in self.params:
            if p.grad is not None:
                p.tensor.values -= self.lr * p.grad

    def zero_grad(self):
        zero_grads(self.params)


class Adam:
    """Adaptive first/second-moment method with bias correction."""

    def __init__(self, params, lr=1e-2, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p in self.params:
            if p.grad is None:
                continue
            state = p.optimizer_state
            if "m" not in state:
                state["m"] = np.zeros_like(p.values)
                state["v"] = np.zeros_like(p.values)
            state["m"] = b1 * state["m"] + (1 - b1) * p.grad
            state["v"] = b2 * state["v"] + (1 - b2) * p.grad**2
            m_hat = state["m"] / (1 - b1**self.t)
            v_hat = state["v"] / (1 - b2**self.t)
            p.tensor.values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self):
        zero_grads(self.params)


OPTIMIZERS = {"adam": Adam, "sgd": SGD}


def make_optimizer(kind, params, lr):
    if kind not in OPTIMIZERS:
        raise ConfigurationError(f"unknown optimizer kind: {kind!r}")
    return OPTIMIZERS[kind](params, lr=lr)
