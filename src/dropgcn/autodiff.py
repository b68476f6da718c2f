"""Reverse-mode automatic differentiation over dense 2-D float64 arrays.

Define-by-run: each op computes its output eagerly and, inside `with
Tape():`, records it as one node: a weak reference to the output, its
inputs, and one vjp closure per input that takes gradients, holding only
the arrays that gradient needs (a relu keeps its mask, a matmul the other
side's factor). Outside a tape every output is a constant. A recorded
input is named by its node index, so the tape keeps neither outputs nor
intermediate inputs alive: an intermediate the caller drops is freed
during the forward pass. backward() replays the open tape once in
reverse, freeing each node's saved arrays and gradient once propagated.
Leaves accumulate into .grad; an intermediate gets .grad only if it is
still alive when its node is reached. Nothing in the walk reads a leaf's
gradient, so backward(loss, pool) hands each leaf product to an executor
and the walk computes only the chain of input gradients; the leaf
gradients are added in walk order afterwards, so .grad bytes do not
depend on the pool. Sparse matrices enter only as constants, through
spmm: a propagation matrix, or sparse input features (a scipy CSR matrix,
which dropout also takes).

matmul, add, add_bias and relu take the same kind of `pool`, an executor
whose one worker is idle. An output of at least SPLIT_MIN_ELEMENTS
elements is split by rows: the worker writes the bottom rows into the
output this thread allocated while this thread writes the top ones, and
this thread takes the bottom rows back when the worker has not started
them (_take_back, the rule backward uses for its leaf products). Every row
is the numpy computation of the unsplit op, so the bytes do not depend on
the pool. spmm takes no pool: scipy's sparse product holds the GIL.
"""

import weakref

import numpy as np
import scipy.sparse as sp


class Tensor:
    """2-D float64 array with an optional accumulated gradient.

    Scalars live as shape (1, 1); 1-D input is promoted to a single row.
    An op output also carries its node index on the tape that recorded it
    (an index only, so a tensor never keeps a tape alive).
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

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
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ValueError("item() needs a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Op record of one training step. Tapes do not nest; closing one
    clears it on every exit path, so a step that raises leaves nothing.

    entries[i] is node i, (out_ref, inputs, vjps) in execution order:
    out_ref a weak reference to the output, inputs one item per op input
    (the node index of an input recorded here, the tensor itself for any
    other input that takes gradients, None for one that takes none), vjps
    one function per input from the output's gradient to that input's
    gradient (None where the input takes none).
    """

    def __init__(self):
        self.entries = []

    def __enter__(self):
        global _active
        if _active is not None:
            raise RuntimeError("a tape is already open; tapes do not nest")
        _active = self
        return self

    def __exit__(self, *exc):
        global _active
        _active = None
        self.entries.clear()
        return False

    def ref(self, t):
        """How a node names its input t: t's node index when t was recorded
        here, t itself for any other tensor that takes gradients (a leaf,
        or an output of a closed tape: the weak reference tells it from the
        node now at its index), else None."""
        if not t.requires_grad:
            return None
        i = t._node
        if i is not None and i < len(self.entries) and self.entries[i][0]() is t:
            return i
        return t


_active = None  # the open Tape, if any


def active_tape():
    """The open tape, or a fresh empty one when none is open."""
    return Tape() if _active is None else _active


def _identity(g):
    return g


def _column_sums(g):
    return g.sum(axis=0, keepdims=True)


def _run_job(job):
    """vjp(g) for job = [vjp, g], emptying the job first, so its arrays go
    as soon as the product is done."""
    vjp, g = job
    job.clear()
    return vjp(g)


def _take_back(future, fn, *args):
    """The value of `future`, the call fn(*args) submitted to a pool: when
    the pool has not started it, it is cancelled there and run on this
    thread, else waited for. An error raised by the call re-raises here."""
    return fn(*args) if future.cancel() else future.result()


def _on_two_threads(pool, fn, top, bottom):
    """fn(top) on this thread and fn(bottom) on the pool's worker (taken
    back by _take_back once fn(top) is done); both here when pool is None.
    Returns once both have run."""
    if pool is None:
        fn(top)
        fn(bottom)
        return
    future = pool.submit(fn, bottom)
    try:
        fn(top)
    finally:
        _take_back(future, fn, bottom)


# An op given a pool splits an output of at least this many elements by
# rows between the calling thread and the pool's worker (_by_rows). Timed
# with one BLAS thread on 2 vCPUs: splitting an add or relu of 2708 x 48
# (130k elements) gains nothing, of 2708 x 128 (347k) it saves about 40 %,
# and a 2708 x 256 @ 256 x 256 product takes 4.5 ms instead of 8.6. Above
# this size each half of a product also stays out of OpenBLAS's
# small-matrix kernel, which sums in another order: split outputs of 70k
# to 110k elements with an inner dimension of 16 or 17 gave other last bits.
SPLIT_MIN_ELEMENTS = 1 << 18


def _by_rows(out, pool, rows):
    """Fill `out` by rows(s), which writes out[s] for a slice s of its rows
    with one numpy call and allocates nothing, and return it. With a pool
    and at least SPLIT_MIN_ELEMENTS elements, the worker writes the bottom
    rows while this thread writes the top ones (_on_two_threads); each row
    is the same numpy computation either way, so the bytes are those of
    one call over all rows."""
    if pool is None or out.size < SPLIT_MIN_ELEMENTS:
        rows(slice(None))
    else:
        mid = (out.shape[0] + 1) // 2
        _on_two_threads(pool, rows, slice(None, mid), slice(mid, None))
    return out


def _make(data, inputs, vjp_builder):
    """Create an op output, recording it when gradients are in play.

    vjp_builder() returns one vector-Jacobian function per input, g -> that
    input's gradient. Only called when recording; the functions of inputs
    that take no gradient are dropped, with any arrays they hold.
    """
    rg = _active is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=rg)
    if rg:
        refs = tuple(_active.ref(t) for t in inputs)
        vjps = tuple(None if r is None else f for r, f in zip(refs, vjp_builder()))
        out._node = len(_active.entries)
        _active.entries.append((weakref.ref(out), refs, vjps))
    return out


def backward(loss, pool=None):
    """Accumulate d(loss)/d(tensor) into .grad along the open tape.

    The loss must be a scalar recorded on the open tape, which is consumed:
    a second backward needs a fresh forward pass. Nodes are popped last to
    first; a node's gradient lives in a slot of this pass until it has been
    propagated, then the slot and the node's saved arrays are dropped.
    Grads add onto whatever .grad already holds for leaves (tensors not
    recorded on this tape); clear them between steps. A recorded tensor
    still alive when its node is reached gets .grad set to its gradient;
    one the caller has dropped gets nothing.

    Only the gradients of recorded inputs feed later nodes, so only they
    are computed in the walk. Each leaf's product (a weight's H^T g, a
    bias's column sums) is submitted to `pool`, an executor, when one is
    given, and runs while the walk goes on; with pool=None it runs in the
    walk. When the walk ends, this thread runs the products the pool has
    not started yet, last first, and waits for the rest. Then the leaf
    gradients are added into .grad in walk order, the order an inline pass
    adds them in, so the bytes do not depend on the pool or on which
    thread ran a product. A leaf product that raises re-raises here.
    """
    if loss.data.shape != (1, 1):
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    node = None if _active is None else _active.ref(loss)
    if not isinstance(node, int):
        raise ValueError("loss has no recorded history on the open tape")
    entries = _active.entries
    slots = [None] * len(entries)
    loss.grad = np.ones((1, 1))
    slots[node] = loss.grad
    leaf_grads = []  # (leaf, gradient), or (leaf, (job, future)) with a pool; walk order
    while entries:
        out_ref, inputs, vjps = entries.pop()
        node = len(entries)
        g, slots[node] = slots[node], None
        if g is None:
            continue
        out = out_ref()
        if out is not None:
            out.grad = g
        for src, vjp in zip(inputs, vjps):
            if vjp is None:
                continue
            if isinstance(src, Tensor):
                if pool is None:
                    leaf_grads.append((src, vjp(g)))
                else:
                    job = [vjp, g]
                    leaf_grads.append((src, (job, pool.submit(_run_job, job))))
            else:
                gt = vjp(g)
                slots[src] = gt if slots[src] is None else slots[src] + gt
    if pool is not None:
        # The walk is over: take back, last first, the products the pool
        # has not started, so this thread waits only on the one the worker
        # is running (a single worker starts them in submission order).
        for i in reversed(range(len(leaf_grads))):
            leaf, (job, future) = leaf_grads[i]
            leaf_grads[i] = (leaf, _take_back(future, _run_job, job))
    for leaf, gt in leaf_grads:
        leaf.grad = gt if leaf.grad is None else leaf.grad + gt


def clear_grads(tensors):
    for t in tensors:
        t.grad = None


# -- ops ---------------------------------------------------------------


def matmul(a, b, pool=None):
    """a @ b for 2-D tensors, split by rows across `pool` when it is large
    (_by_rows) and has more than one column: a one-column product is a
    matrix-vector product, whose row blocks BLAS sums in another order."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    da, db = a.data, b.data
    out = np.empty((da.shape[0], db.shape[1]))
    if db.shape[1] == 1:
        pool = None

    def build():
        # Each side's gradient needs only the other side's data.
        return (lambda g: g @ db.T), (lambda g: da.T @ g)

    return _make(_by_rows(out, pool, lambda s: np.matmul(da[s], db, out=out[s])),
                 (a, b), build)


def spmm(a_sparse, h):
    """A @ H for a gradient-free sparse constant A: a SparseMatrix (a
    propagation matrix) or a scipy sparse matrix (the input features that
    graph.model_input makes). H's gradient is A^T @ g, through scipy's transposed
    view of A, so no transpose is built. It takes no pool: scipy's sparse
    product holds the GIL, so a second thread would only take turns."""
    if a_sparse.shape[1] != h.shape[0]:
        raise ValueError(f"spmm shape mismatch: {a_sparse.shape} @ {h.shape}")
    m = a_sparse if sp.issparse(a_sparse) else a_sparse.to_scipy()

    def build():
        return (lambda g: m.T @ g,)

    return _make(m @ h.data, (h,), build)


def add(a, b, pool=None):
    """Elementwise sum of same-shape tensors (residual connections), split
    by rows across `pool` when it is large (_by_rows)."""
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    da, db = a.data, b.data
    out = np.empty(da.shape)

    def build():
        return _identity, _identity

    return _make(_by_rows(out, pool, lambda s: np.add(da[s], db[s], out=out[s])),
                 (a, b), build)


def add_bias(x, b, pool=None):
    """Row-broadcast bias: x + b with b of shape (1, cols), split by rows
    across `pool` when it is large (_by_rows)."""
    if b.shape != (1, x.shape[1]):
        raise ValueError(f"bias shape {b.shape} does not broadcast over {x.shape}")
    dx, db = x.data, b.data
    out = np.empty(dx.shape)

    def build():
        return _identity, _column_sums

    return _make(_by_rows(out, pool, lambda s: np.add(dx[s], db, out=out[s])),
                 (x, b), build)


def relu(x, pool=None):
    """max(x, 0); subgradient 0 at 0. Split by rows across `pool` when it
    is large (_by_rows)."""
    dx = x.data
    out = np.empty(dx.shape)

    def build():
        mask = dx > 0
        return (lambda g: g * mask,)

    return _make(_by_rows(out, pool, lambda s: np.maximum(dx[s], 0.0, out=out[s])),
                 (x,), build)


def dropout(x, rate, rng, training):
    """Inverted dropout: zero each element with probability `rate`, scale
    survivors by 1/(1-rate) so expectations match. Identity when rate is 0 or
    training is off (returns x itself, consuming no randomness).

    A sparse constant x (scipy CSR with sorted columns and no stored zeros,
    as graph.model_input makes it) draws one uniform per stored entry, in
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
        indptr = np.concatenate(([0], np.cumsum(keep)))[x.indptr]
        return sp.csr_matrix(((x.data * scale)[keep], x.indices[keep], indptr), shape=x.shape)
    mask = rng.random(x.shape) >= rate

    def build():
        return (lambda g: g * mask * scale,)

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
        ends = np.cumsum(widths).tolist()
        return tuple((lambda g, lo=hi - w, hi=hi: g[:, lo:hi]) for w, hi in zip(widths, ends))

    return _make(np.hstack([t.data for t in tensors]), tuple(tensors), build)


def sum_all(x):
    """Sum of all elements, as a (1, 1) tensor."""

    def build():
        shape = x.shape
        return (lambda g: np.broadcast_to(g.reshape(()), shape).copy(),)

    return _make(x.data.sum().reshape(1, 1), (x,), build)


# The fraction of the old running statistics batch norm keeps per training
# pass, and the guard it adds to the variance under the square root.
BN_MOMENTUM, BN_EPS = 0.9, 1e-5


class BatchNormState:
    """Learnable scale/shift plus running statistics for one normalized layer.

    Running stats are updated in training mode only: kept fraction
    BN_MOMENTUM of the old value, (1 - BN_MOMENTUM) of the batch statistic.
    The running (and batch) variance is the biased one; BN_EPS guards the
    square root.
    """

    def __init__(self, width):
        self.scale = Tensor(np.ones((1, width)), requires_grad=True)
        self.shift = Tensor(np.zeros((1, width)), requires_grad=True)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)


def batch_norm(x, state, training):
    """Column-wise batch normalization, then scale and shift.

    The mode picks (mu, var): training the batch mean/variance (folded into
    the running statistics), evaluation the running statistics, touching
    nothing. In training the input gradient also flows through mu and var.
    """
    scale, shift = state.scale, state.shift
    if x.shape[1] != scale.shape[1]:
        raise ValueError(f"batch_norm width mismatch: {x.shape} vs {scale.shape}")
    if training:
        mu = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        m = BN_MOMENTUM
        state.running_mean = m * state.running_mean + (1.0 - m) * mu
        state.running_var = m * state.running_var + (1.0 - m) * var
    else:
        mu, var = state.running_mean, state.running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mu) * inv_std

    def build():
        gamma = scale.data  # the vjps must not hold x itself

        def vjp_x(g):
            gxh = g * gamma
            if training:
                gxh = gxh - gxh.mean(axis=0) - xhat * (gxh * xhat).mean(axis=0)
            return inv_std * gxh

        return vjp_x, (lambda g: (g * xhat).sum(axis=0, keepdims=True)), _column_sums

    return _make(xhat * scale.data + shift.data, (x, scale, shift), build)


def index_mask(mask):
    """`mask` as a nonempty int64 vector of row ids. A boolean or float mask
    is rejected: cast to integers it would name other rows (a boolean
    [F, F, T, T] reads rows 0, 0, 1, 1) or truncated ones."""
    arr = np.asarray(mask)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("mask must be a nonempty index vector")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"mask must hold integer row ids, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def softmax_cross_entropy(logits, labels, mask):
    """Mean cross-entropy of row-wise softmax over the masked rows.

    `labels` is a length-N int vector, `mask` a nonempty integer index
    array of the rows that count (see index_mask). Row-max shifting keeps
    the exponentials tame; the gradient on masked rows is
    (softmax - onehot) / len(mask).
    """
    labels = np.asarray(labels, dtype=np.int64)
    mask = index_mask(mask)
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
        shape = logits.shape

        def vjp(g):
            delta = probs.copy()
            delta[np.arange(k), picked] -= 1.0
            full = np.zeros(shape)
            np.add.at(full, mask, delta * (float(g.reshape(())) / k))
            return full

        return (vjp,)

    return _make(np.array([[loss]]), (logits,), build)
