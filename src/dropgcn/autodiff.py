"""Reverse-mode automatic differentiation over dense 2-D float64 arrays.

Define-by-run: each op computes its output eagerly and, when gradients are
wanted, records (output, inputs, vjp) on the active tape. backward() replays
the tape once in reverse, accumulating into .grad of every tensor that
requires gradients, then discards the tape. Ops cover exactly what the
propagation layers need; sparse matrices enter only as constants: a
propagation matrix through spmm, sparse input features (a scipy CSR
matrix) through dropout and sparse_matmul.
"""

import numpy as np
import scipy.sparse as sp

_grad_enabled = True


class no_grad:
    """Context manager that suspends tape recording (evaluation passes)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """2-D float64 array with an optional accumulated gradient.

    Scalars live as shape (1, 1); 1-D input is promoted to a single row.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ValueError(f"tensors are 2-D; got ndim={arr.ndim}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ValueError("item() needs a single-element tensor")
        return float(self.data.reshape(()))

    def detach(self):
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered op record for one forward pass; consumed by backward()."""

    def __init__(self):
        self.entries = []  # (out, inputs, vjp), execution order


_active = Tape()


def active_tape():
    return _active


def _make(data, inputs, vjp_builder):
    """Create an op output, recording it when gradients are in play.

    vjp_builder() returns the vector-Jacobian function g -> per-input grads
    (None for inputs that take none). Only called when recording.
    """
    rg = _grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=rg)
    if rg:
        _active.entries.append((out, tuple(inputs), vjp_builder()))
    return out


def backward(loss):
    """Accumulate d(loss)/d(tensor) into .grad along the recorded tape.

    The loss must be a recorded scalar. The tape is consumed: a second
    backward needs a fresh forward pass. Grads add onto whatever .grad
    already holds for leaves; clear them between steps.
    """
    global _active
    if loss.data.shape != (1, 1):
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("loss has no recorded history (built under no_grad, or no parameters)")
    entries = _active.entries
    _active = Tape()
    loss.grad = np.ones((1, 1))
    for out, inputs, vjp in reversed(entries):
        g = out.grad
        if g is None:
            continue
        grads = vjp(g)
        for t, gt in zip(inputs, grads):
            if gt is None or not t.requires_grad:
                continue
            t.grad = gt if t.grad is None else t.grad + gt


def clear_grads(tensors):
    for t in tensors:
        t.grad = None


# -- ops ---------------------------------------------------------------


def matmul(a, b):
    """a @ b for 2-D tensors."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def build():
        da, db = a.data, b.data

        def vjp(g):
            return (g @ db.T if a.requires_grad else None,
                    da.T @ g if b.requires_grad else None)

        return vjp

    return _make(a.data @ b.data, (a, b), build)


def spmm(a_sparse, h):
    """Sparse-times-dense propagation A @ H; A is a gradient-free constant."""
    if a_sparse.n_cols != h.shape[0]:
        raise ValueError(f"spmm shape mismatch: {a_sparse.shape} @ {h.shape}")
    m = a_sparse.to_scipy()

    def build():
        mt = m.T.tocsr()

        def vjp(g):
            return (mt @ g,)

        return vjp

    return _make(m @ h.data, (h,), build)


def sparse_matmul(x_sparse, w):
    """X @ W for a gradient-free scipy CSR matrix X (sparse input features);
    W's gradient is X^T @ g."""
    if x_sparse.shape[1] != w.shape[0]:
        raise ValueError(f"sparse_matmul shape mismatch: {x_sparse.shape} @ {w.shape}")

    def build():
        def vjp(g):
            return (x_sparse.T @ g,)

        return vjp

    return _make(x_sparse @ w.data, (w,), build)


def add(a, b):
    """Elementwise sum of same-shape tensors (residual connections)."""
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")

    def build():
        def vjp(g):
            return (g, g)

        return vjp

    return _make(a.data + b.data, (a, b), build)


def add_bias(x, b):
    """Row-broadcast bias: x + b with b of shape (1, cols)."""
    if b.shape != (1, x.shape[1]):
        raise ValueError(f"bias shape {b.shape} does not broadcast over {x.shape}")

    def build():
        def vjp(g):
            return (g, g.sum(axis=0, keepdims=True))

        return vjp

    return _make(x.data + b.data, (x, b), build)


def relu(x):
    """max(x, 0); subgradient 0 at 0."""

    def build():
        mask = x.data > 0

        def vjp(g):
            return (g * mask,)

        return vjp

    return _make(np.maximum(x.data, 0.0), (x,), build)


def dropout(x, rate, rng, training):
    """Inverted dropout: zero each element with probability `rate`, scale
    survivors by 1/(1-rate) so expectations match. Identity when rate is 0 or
    training is off (returns x itself, consuming no randomness).

    A sparse constant x (scipy CSR) draws one uniform per stored entry, in
    CSR order, and returns the scaled survivors as a new CSR constant.
    Dropping a zero changes nothing, so the output has the distribution of
    the dense draw from nnz(x) uniforms instead of one per element.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    scale = 1.0 / (1.0 - rate)
    if sp.issparse(x):
        keep = rng.random(x.nnz) >= rate
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        return sp.csr_matrix((x.data[keep] * scale, x.indices[keep], kept_before[x.indptr]),
                             shape=x.shape)
    mask = rng.random(x.shape) >= rate

    def build():
        def vjp(g):
            return (g * mask * scale,)

        return vjp

    return _make(x.data * mask * scale, (x,), build)


def concat_cols(tensors):
    """Column-wise concatenation of same-height tensors."""
    if not tensors:
        raise ValueError("concat_cols needs at least one tensor")
    heights = {t.shape[0] for t in tensors}
    if len(heights) != 1:
        raise ValueError(f"concat_cols height mismatch: {[t.shape for t in tensors]}")
    widths = [t.shape[1] for t in tensors]

    def build():
        bounds = np.cumsum(widths)[:-1]

        def vjp(g):
            return tuple(np.split(g, bounds, axis=1))

        return vjp

    return _make(np.hstack([t.data for t in tensors]), tuple(tensors), build)


def sum_all(x):
    """Sum of all elements, as a (1, 1) tensor."""

    def build():
        shape = x.shape

        def vjp(g):
            return (np.broadcast_to(g.reshape(()), shape).copy(),)

        return vjp

    return _make(x.data.sum().reshape(1, 1), (x,), build)


class BatchNormState:
    """Learnable scale/shift plus running statistics for one normalized layer.

    Running stats are updated in training mode only: kept fraction `momentum`
    of the old value, (1 - momentum) of the batch statistic. The running (and
    batch) variance is the biased one; `eps` guards the square root.
    """

    def __init__(self, width, momentum=0.9, eps=1e-5):
        self.scale = Tensor(np.ones((1, width)), requires_grad=True)
        self.shift = Tensor(np.zeros((1, width)), requires_grad=True)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self.momentum = float(momentum)
        self.eps = float(eps)


def batch_norm(x, state, training):
    """Column-wise batch normalization, then scale and shift.

    Training normalizes by batch mean/variance (and folds them into the
    running statistics); evaluation normalizes by the running statistics and
    touches nothing.
    """
    scale, shift = state.scale, state.shift
    if x.shape[1] != scale.shape[1]:
        raise ValueError(f"batch_norm width mismatch: {x.shape} vs {scale.shape}")
    if training:
        mu = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + state.eps)
        xhat = (x.data - mu) * inv_std
        m = state.momentum
        state.running_mean = m * state.running_mean + (1.0 - m) * mu
        state.running_var = m * state.running_var + (1.0 - m) * var

        def build():
            def vjp(g):
                gx = None
                if x.requires_grad:
                    gxh = g * scale.data
                    gx = inv_std * (gxh - gxh.mean(axis=0) - xhat * (gxh * xhat).mean(axis=0))
                return (
                    gx,
                    (g * xhat).sum(axis=0, keepdims=True) if scale.requires_grad else None,
                    g.sum(axis=0, keepdims=True) if shift.requires_grad else None,
                )

            return vjp

        return _make(xhat * scale.data + shift.data, (x, scale, shift), build)

    inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
    xhat = (x.data - state.running_mean) * inv_std

    def build():
        def vjp(g):
            return (
                g * scale.data * inv_std if x.requires_grad else None,
                (g * xhat).sum(axis=0, keepdims=True) if scale.requires_grad else None,
                g.sum(axis=0, keepdims=True) if shift.requires_grad else None,
            )

        return vjp

    return _make(xhat * scale.data + shift.data, (x, scale, shift), build)


def softmax_cross_entropy(logits, labels, mask):
    """Mean cross-entropy of row-wise softmax over the masked rows.

    `labels` is a length-N int vector, `mask` a nonempty index array of the
    rows that count. Row-max shifting keeps the exponentials tame; the
    gradient on masked rows is (softmax - onehot) / len(mask).
    """
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.int64)
    if mask.ndim != 1 or len(mask) == 0:
        raise ValueError("mask must be a nonempty index vector")
    if labels.ndim != 1 or len(labels) != logits.shape[0]:
        raise ValueError("labels must have one entry per logits row")
    picked = labels[mask]
    if picked.min() < 0 or picked.max() >= logits.shape[1]:
        raise ValueError("label id out of range for logits width")
    rows = logits.data[mask]
    shifted = rows - rows.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    k = len(mask)
    loss = -log_probs[np.arange(k), picked].sum() / k

    def build():
        probs = np.exp(log_probs)

        def vjp(g):
            delta = probs.copy()
            delta[np.arange(k), picked] -= 1.0
            full = np.zeros_like(logits.data)
            np.add.at(full, mask, delta * (float(g.reshape(())) / k))
            return (full,)

        return vjp

    return _make(np.array([[loss]]), (logits,), build)
