"""CSR sparse matrices and the adjacency normalization schemes used for propagation.

The graph side of the library speaks one matrix dialect: an immutable CSR
triple (row_offsets, col_indices, values) with column indices sorted and
strictly increasing within each row and no explicitly stored zeros. scipy
provides the conversion and multiplication kernels; everything observable
goes through this class so the storage invariants hold everywhere.
"""

import numpy as np
import scipy.sparse as sp

# Recognized propagation normalizations, by the names they go by elsewhere.
SCHEMES = ("FirstOrderGCN", "AugNormAdj", "BingGeNormAdj", "AugRWalk")

# Schemes that produce a symmetric matrix on symmetric input. AugRWalk row
# normalizes and is the odd one out.
SYMMETRIC_SCHEMES = ("FirstOrderGCN", "AugNormAdj", "BingGeNormAdj")


class SparseMatrix:
    """Immutable real matrix in CSR form.

    Construction canonicalizes: duplicate coordinates are an error upstream
    (builders here never produce them), columns are sorted within each row,
    and exact zeros are pruned. The underlying arrays are marked read-only,
    so instances can be shared freely (the one-shot edge-dropping path leans
    on that).
    """

    __slots__ = ("n_rows", "n_cols", "row_offsets", "col_indices", "values")

    def __init__(self, n_rows, n_cols, row_offsets, col_indices, values):
        n_rows = int(n_rows)
        n_cols = int(n_cols)
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int64)
        col_indices = np.ascontiguousarray(col_indices, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if row_offsets.shape != (n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows + 1")
        if row_offsets[0] != 0 or row_offsets[-1] != len(col_indices):
            raise ValueError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(row_offsets) < 0):
            raise ValueError("row_offsets must be nondecreasing")
        if len(col_indices) != len(values):
            raise ValueError("col_indices and values must have equal length")
        if len(col_indices) and (col_indices.min() < 0 or col_indices.max() >= n_cols):
            raise ValueError("column index out of range")
        # Strictly increasing columns within each row: sorted and duplicate-free.
        # bad[k] compares entries k and k+1, which is no check at all when k+1
        # starts a row (starts at 0 or nnz have no comparison to mask).
        bad = np.diff(col_indices) <= 0
        starts = row_offsets[1:-1]
        bad[starts[(starts > 0) & (starts < len(col_indices))] - 1] = False
        if bad.any():
            first = int(np.argmax(bad)) + 1
            r = int(np.searchsorted(row_offsets, first, side="right")) - 1
            raise ValueError(f"row {r}: column indices not strictly increasing")
        if np.any(values == 0.0):
            raise ValueError("explicit zeros are not stored; prune before construction")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.row_offsets = row_offsets
        self.col_indices = col_indices
        self.values = values
        for arr in (self.row_offsets, self.col_indices, self.values):
            arr.flags.writeable = False

    # -- constructors --------------------------------------------------

    @classmethod
    def from_scipy(cls, mat):
        """Canonicalize any scipy sparse matrix into this representation."""
        m = sp.csr_matrix(mat, dtype=np.float64, copy=True)
        m.sum_duplicates()
        m.sort_indices()
        m.eliminate_zeros()
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data)

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, values):
        """Build from coordinate triplets. Duplicate coordinates are summed."""
        m = sp.coo_matrix(
            (np.asarray(values, dtype=np.float64),
             (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
            shape=(n_rows, n_cols),
        )
        return cls.from_scipy(m)

    @classmethod
    def from_dense(cls, arr):
        return cls.from_scipy(sp.csr_matrix(np.asarray(arr, dtype=np.float64)))

    @classmethod
    def identity(cls, n):
        return cls.from_scipy(sp.identity(n, format="csr"))

    # -- views ---------------------------------------------------------

    @property
    def nnz(self):
        return len(self.values)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def to_scipy(self):
        """scipy CSR matrix of the same entries (kernels only; do not mutate).

        It shares the values array; scipy copies the int64 index arrays down
        to its own index dtype (int32 for matrices of this size)."""
        return sp.csr_matrix(
            (self.values, self.col_indices, self.row_offsets),
            shape=(self.n_rows, self.n_cols),
        )

    def to_dense(self):
        return self.to_scipy().toarray()

    def row(self, r):
        """(col_indices, values) slices of stored entries in row r."""
        lo, hi = self.row_offsets[r], self.row_offsets[r + 1]
        return self.col_indices[lo:hi], self.values[lo:hi]

    def row_ids(self):
        """Row index of each stored entry, in CSR order."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.row_offsets))

    def coo_arrays(self):
        """Stored entries as (rows, cols, values) arrays in CSR order."""
        return self.row_ids(), self.col_indices.copy(), self.values.copy()

    def diagonal(self):
        """Main diagonal, length min(n_rows, n_cols), zeros where unstored."""
        rows = self.row_ids()
        on = rows == self.col_indices
        d = np.zeros(min(self.n_rows, self.n_cols))
        d[rows[on]] = self.values[on]
        return d

    def undirected_edges(self):
        """(u, v) arrays with u < v, one entry per stored undirected edge.

        Assumes a structurally symmetric matrix; entries on the diagonal are
        ignored. Order is deterministic (CSR order of the upper triangle).
        """
        rows, cols, _ = self.coo_arrays()
        keep = rows < cols
        return rows[keep], cols[keep]

    def twins(self):
        """Position of each stored entry's transpose twin: for entry k at
        (i, j), twins()[k] is the position of the entry at (j, i). None when
        the matrix is not square or some entry has no twin.

        Sorting the entries by column, stably, lists them in CSC order; for a
        structurally symmetric matrix that is the CSR order of the transpose,
        so position k of the sort holds the twin of CSR entry k.
        """
        if self.n_rows != self.n_cols:
            return None
        rows, cols = self.row_ids(), self.col_indices
        twin = np.argsort(cols, kind="stable")
        if not (np.array_equal(cols[twin], rows) and np.array_equal(rows[twin], cols)):
            return None
        return twin

    def is_symmetric(self):
        """True when the matrix equals its transpose exactly: it is
        structurally symmetric and every entry's value minus its twin's is 0
        (so an inf or NaN weight never counts as symmetric)."""
        twin = self.twins()
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the test
            return twin is not None and bool(np.all(self.values - self.values[twin] == 0))

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None

    def __repr__(self):
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


def degrees(a):
    """Weighted row sums as a dense float vector.

    Zero rows (isolated nodes) yield 0. Each row is summed on its own, left
    to right in column order, so results are reproducible bit for bit.
    """
    return np.bincount(a.row_ids(), weights=a.values, minlength=a.n_rows)


def check_adjacency(a):
    """Raise ValueError unless `a` is an adjacency: square, finite and
    nonnegative, with nothing stored on the diagonal, and exactly symmetric."""
    if a.n_rows != a.n_cols:
        raise ValueError("adjacency must be square")
    if not np.all(np.isfinite(a.values)):
        raise ValueError("adjacency weights must be finite")
    if np.any(a.values < 0):
        raise ValueError("adjacency must be nonnegative")
    if np.any(a.diagonal() != 0):
        raise ValueError("adjacency must have a zero diagonal (self-loops are added by the scheme)")
    if not a.is_symmetric():
        raise ValueError("adjacency must be symmetric")


def keep_entries(n_rows, n_cols, row_offsets, col_indices, values, keep):
    """The matrix of the stored entries where the mask `keep` holds.

    `row_offsets`, `col_indices` and `values` are CSR arrays with columns
    strictly increasing within each row; `keep` is a boolean mask over the
    entries. Entries keep their order, so the result needs no re-sort, and
    each row's new offset counts the entries kept before it.
    """
    offsets = np.concatenate(([0], np.cumsum(keep)))[row_offsets]
    return SparseMatrix(n_rows, n_cols, offsets, col_indices[keep], values[keep])


def _with_diagonal(a, off_diagonal, diagonal):
    """a's pattern carrying the values `off_diagonal` (in CSR order), plus
    `diagonal` on the main diagonal, which a leaves empty. Built directly in
    CSR: each diagonal entry goes into its sorted row. Entries that are
    exactly zero (underflow) are pruned."""
    n = a.n_rows
    rows = a.row_ids()
    # Every earlier row gains one diagonal entry; an entry right of its own
    # row's diagonal moves one further.
    pos = np.arange(a.nnz) + rows + (a.col_indices > rows)
    on_diagonal = np.ones(a.nnz + n, dtype=bool)
    on_diagonal[pos] = False
    cols = np.empty(a.nnz + n, dtype=np.int64)
    vals = np.empty(a.nnz + n)
    cols[pos] = a.col_indices
    vals[pos] = off_diagonal
    cols[on_diagonal] = np.arange(n)
    vals[on_diagonal] = diagonal
    offsets = a.row_offsets + np.arange(n + 1)
    keep = vals != 0.0
    if not keep.all():
        return keep_entries(n, n, offsets, cols, vals, keep)
    return SparseMatrix(n, n, offsets, cols, vals)


def normalize(a, scheme):
    """Normalized propagation matrix for a symmetric, loop-free adjacency.

    Schemes (d is the weighted degree vector of `a`, I the identity):

    - FirstOrderGCN:  I + D^(-1/2) A D^(-1/2)
    - AugNormAdj:     (D+I)^(-1/2) (A+I) (D+I)^(-1/2)
    - BingGeNormAdj:  I + (D+I)^(-1/2) (A+I) (D+I)^(-1/2)
    - AugRWalk:       (D+I)^(-1) (A+I)

    Zero-degree rows are handled by the convention 0^(-1/2) = 0 for the
    unaugmented scaling; augmented schemes never divide by zero. All outputs
    keep the storage invariants (sorted, pruned).
    """
    check_adjacency(a)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown normalization scheme {scheme!r}; expected one of {SCHEMES}")
    d = degrees(a)
    rows, cols, vals = a.coo_arrays()
    # Symmetric schemes scale each entry by the single product dis[i] * dis[j],
    # which transposes to the identical float, so outputs are exactly symmetric.
    if scheme == "FirstOrderGCN":
        with np.errstate(divide="ignore"):
            dis = np.power(d, -0.5)
        dis[np.isinf(dis)] = 0.0
        return _with_diagonal(a, vals * (dis[rows] * dis[cols]), np.ones(a.n_rows))
    if scheme in ("AugNormAdj", "BingGeNormAdj"):
        dis = np.power(d + 1.0, -0.5)
        diagonal = 1.0 / (d + 1.0)
        if scheme == "BingGeNormAdj":
            diagonal = diagonal + 1.0
        return _with_diagonal(a, vals * (dis[rows] * dis[cols]), diagonal)
    # AugRWalk: row scaling of A + I, asymmetric by design
    dinv = np.power(d + 1.0, -1.0)
    return _with_diagonal(a, vals * dinv[rows], dinv)


def connected_components(a):
    """Component labels of the symmetric sparsity pattern.

    Returns (labels, count) with labels[i] the 0-based component id of node i.
    Ids are assigned in order of first discovery (node 0's component is 0),
    which makes labelings reproducible. Hand-rolled BFS on the CSR structure,
    so the spectral multiplicity cross-checks do not share code with scipy's
    graph routines.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("component labeling needs a square matrix")
    n = a.n_rows
    # Python lists: indexing them is much cheaper than indexing numpy scalars.
    labels = [-1] * n
    count = 0
    offsets, cols = a.row_offsets.tolist(), a.col_indices.tolist()
    for root in range(n):
        if labels[root] >= 0:
            continue
        labels[root] = count
        stack = [root]
        while stack:
            u = stack.pop()
            for v in cols[offsets[u]:offsets[u + 1]]:
                if labels[v] < 0:
                    labels[v] = count
                    stack.append(v)
        count += 1
    return np.array(labels, dtype=np.int64), count
