"""Parameter initialization and the Adam update rule."""

import math

import numpy as np

from .autodiff import Tensor


def glorot_init(rows, cols, rng):
    """Weight matrix drawn uniformly from +-sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ValueError("weight dimensions must be positive")
    bound = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-bound, bound, size=(rows, cols)), requires_grad=True)


# Adam's standard constants: the moment decay rates and the denominator guard.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def check_rates(lr, weight_decay):
    """Reject a learning rate that is not finite and positive, or a weight
    decay that is not finite and nonnegative."""
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"learning rate must be positive and finite, got {lr}")
    if not (math.isfinite(weight_decay) and weight_decay >= 0):
        raise ValueError(f"weight decay must be nonnegative and finite, got {weight_decay}")


class AdamState:
    """Adam moments for a fixed parameter list, with selective L2 decay.

    `decay` flags, aligned with `params`, mark the tensors whose gradient
    gets `weight_decay * value` added before the moment updates: weight
    matrices yes, biases and normalization parameters no. The constants are
    BETA1, BETA2 and EPS; the step counter starts at 0.
    """

    def __init__(self, params, lr, weight_decay=0.0, decay=None):
        check_rates(lr, weight_decay)
        self.params = list(params)
        if decay is None:
            decay = [True] * len(self.params)
        if len(decay) != len(self.params):
            raise ValueError("decay flags must align with params")
        self.decay = [bool(f) for f in decay]
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


def adam_step(state):
    """One bias-corrected Adam update in place; grads are left untouched.

    Parameters whose .grad is None are skipped entirely (their moments do
    not advance a notch either; nothing flowed to them this pass).
    """
    state.t += 1
    c1 = 1.0 - BETA1 ** state.t
    c2 = 1.0 - BETA2 ** state.t
    for i, p in enumerate(state.params):
        if p.grad is None:
            continue
        g = p.grad
        if state.decay[i] and state.weight_decay:
            g = g + state.weight_decay * p.data
        state.m[i] = BETA1 * state.m[i] + (1.0 - BETA1) * g
        state.v[i] = BETA2 * state.v[i] + (1.0 - BETA2) * (g * g)
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + EPS)
