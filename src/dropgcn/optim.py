"""Parameter initialization and the Adam update rule."""

import math

import numpy as np

from .autodiff import Tensor, _on_two_threads


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
    BETA1, BETA2 and EPS; the step counter starts at 0. In a pooled step
    each thread updates one half of every parameter (adam_step).
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
        # C order, so that a flat view of a moment is the moment itself.
        self.m = [np.zeros(p.data.shape) for p in self.params]
        self.v = [np.zeros(p.data.shape) for p in self.params]


# adam_step updates each half this many elements at a time, so that no
# temporary is as large as a parameter and a chunk's eight operands (256 kB
# each) stay near the cache. Timed with one BLAS thread on 2 vCPUs, on the
# 762k parameter elements of an 8-layer, hidden-256 gcn on 1433 features
# (medians of 5 x 40 steps): the whole-array expressions took 12.2 ms;
# chunks of 2^14, 2^15 and 2^16 took 10.7, 9.8 and 10.6 ms on one thread
# and 7.5, 6.3 and 5.7 ms on two. Much shorter chunks lose on two threads
# to hand-offs of the GIL between numpy calls (2^11: 15-32 ms).
CHUNK_LEN = 1 << 15


def _update(state, c1, c2, flats, half, scratch):
    """The Adam update of one half of every parameter that has a gradient:
    flat elements [0, (n + 1) // 2) of an n-element parameter for half 0,
    the rest for half 1. The moments are updated in place, the new values
    written into the fresh arrays of `flats`, through the (3, CHUNK_LEN)
    rows of `scratch`. Every operation writes into an array that exists, so
    nothing is allocated. The float operations are those of the textbook
    expressions, in the same order (a product or sum of two operands is the
    same float either way round)."""
    lr, wd = state.lr, state.weight_decay
    for flat, decay in zip(flats, state.decay):
        if flat is None:
            continue
        p, g, m, v, new = flat
        mid = (p.size + 1) // 2
        lo, hi = (0, mid) if half == 0 else (mid, p.size)
        for s in range(lo, hi, CHUNK_LEN):
            e = min(s + CHUNK_LEN, hi)
            t1, t2, t3 = scratch[:, :e - s]
            gs, ms, vs = g[s:e], m[s:e], v[s:e]
            if decay and wd:
                np.multiply(p[s:e], wd, out=t1)
                gs = np.add(gs, t1, out=t1)            # g + wd * p
            np.multiply(ms, BETA1, out=ms)
            np.multiply(gs, 1.0 - BETA1, out=t2)
            np.add(ms, t2, out=ms)                     # m = BETA1 m + (1 - BETA1) g
            np.multiply(gs, gs, out=t2)
            np.multiply(t2, 1.0 - BETA2, out=t2)
            np.multiply(vs, BETA2, out=vs)
            np.add(vs, t2, out=vs)                     # v = BETA2 v + (1 - BETA2) g^2
            np.divide(vs, c2, out=t3)
            np.sqrt(t3, out=t3)
            np.add(t3, EPS, out=t3)                    # sqrt(v / c2) + EPS
            np.divide(ms, c1, out=t2)
            np.multiply(t2, lr, out=t2)
            np.divide(t2, t3, out=t2)                  # lr (m / c1) / (sqrt(v / c2) + EPS)
            np.subtract(p[s:e], t2, out=new[s:e])


def adam_step(state, pool=None):
    """One bias-corrected Adam update; grads are left untouched.

    Parameters whose .grad is None are skipped entirely (their moments do
    not advance a notch either; nothing flowed to them this pass). The
    moments are updated in place, CHUNK_LEN elements at a time; each
    updated parameter is bound a new array, never written in place, so a
    models.model_view taken before the step keeps its values.

    With `pool`, an executor whose worker is idle, each thread updates one
    half of every parameter: this thread the first half of its elements,
    the worker the second (_on_two_threads, the row split of
    autodiff._by_rows); the worker writes only into arrays this thread
    allocated. Each element goes through the same float operations either
    way, so the bytes do not depend on the pool.
    """
    state.t += 1
    c1 = 1.0 - BETA1 ** state.t
    c2 = 1.0 - BETA2 ** state.t
    new = [None if p.grad is None else np.empty(p.data.shape) for p in state.params]
    flats = [None if a is None else tuple(np.ravel(x) for x in (p.data, p.grad, m, v, a))
             for p, m, v, a in zip(state.params, state.m, state.v, new)]
    scratch = np.empty((2, 3, CHUNK_LEN))
    _on_two_threads(pool, lambda half: _update(state, c1, c2, flats, half, scratch[half]),
                    0, 1)
    for p, a in zip(state.params, new):
        if a is not None:
            p.data = a
