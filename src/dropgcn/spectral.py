"""Spectral analysis of propagation matrices and over-smoothing theory checks.

The quantities here drive the convergence story: a symmetric propagation
matrix has a top eigenvalue cluster whose eigenspace M is the subspace that
deep propagation collapses onto; the largest eigenvalue magnitude lambda
outside M, together with the filters' largest singular value s, bounds
how fast the subspace distance d_M(H) contracts per layer, and the relaxed
smoothing layer inverts that bound into a depth estimate. Edge removal is
studied directly: effective resistances, the lambda lower bound they imply,
and full random-removal trajectories.

Everything is dense linear algebra, capped at 5000 nodes, and it works per
connected component: a symmetric matrix is block diagonal over its
components, so its spectrum is the union of the blocks' spectra. One
reader, _component_blocks, scatters each component's dense block from the
CSR arrays, for the eigenvalues and the resistances alike. analyze takes
each block's eigenvalues from one eigenvalue-only LAPACK call (dsyev:
tridiagonal reduction, then the tridiagonal's eigenvalues); a singleton's
eigenvalue is its diagonal entry. No eigenvector is computed anywhere: for
a graph under a symmetric scheme, top_eigenspace builds M in closed form
from the degrees and the components (Oono & Suzuki, arXiv 1905.10947), and
analyze's numerical multiplicity is the check on it. Theorem 1's lambda is
read one way everywhere: the largest magnitude beyond the top dim(M)
eigenvalues, dim(M) counted by components, so an eigenvalue that a weak
edge puts near the top stays outside M. Removal trajectories
read only eigenvalues; each step masks the start graph's entries by
undirected edge id, as a DropEdge draw does. A trajectory draws every
removal first and counts each step's components by union-find over the
removals in reverse. It then solves its steps in stacks, each one numpy
eigvalsh call on the steps' matrices restricted to the nodes that still
have an edge at the stack's first step. Two worker threads each build and
solve whole stacks, and one's solve overlaps the other's build, since that
LAPACK call releases the GIL.
scipy.linalg is imported inside the functions that use it, so importing the
package (and training) does not load it.

Memory footprint, n nodes, k nodes in a connected component, c the
number of components:

- analyze holds every component's k x k float64 block, whose total is at
  most n times the largest k and is dominated by the largest component
  (49.4 MB for the 2486-node component of a 2708-node graph, 200 MB for one
  component at the cap). Each block is handed to LAPACK in Fortran order
  and reduced in its own buffer, without a copy. top_eigenspace returns
  one n x c array and builds nothing larger.
- resistances are computed per component from (L + J/k)^-1 = L^+ + J/k,
  with L the component's Laplacian and J the all-ones matrix: one Cholesky
  inverse, made in place in the component's dense block. That is about two
  k x k arrays per component at most (verify_resistance_bound turns the
  block into margins with one temporary);
  resistance_matrix adds its n x n output. effective_resistance builds only
  the block of the pair's component and reads the pair from its Cholesky
  factor by one solve, without the inverse.
- theorem1_trajectory holds at most one stack of step matrices per
  worker, with eigvalsh's copy of one of its matrices. A stack's matrices
  and their steps' n eigenvalues take at most STACK_BYTES (4 MB), or one
  step's if that is more; then one worker builds and solves the steps one
  at a time, so a large graph holds one n x n matrix and its copy. Each
  stack is mapped from the system and unmapped when freed, so no worker's
  malloc arena keeps it resident after the call.
"""

import math
import mmap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .dropedge import check_integer, edge_ids
from .sparsemat import (SYMMETRIC_SCHEMES, check_adjacency, connected_components, degrees,
                        keep_entries, normalize)

MAX_DENSE_NODES = 5000
# Eigenvalues (or components' top eigenvalues, for M) this close to the top.
TOP_CLUSTER_TOL = 1e-8
# Threshold on d_M of the over-smoothing probe and of each
# theorem1_trajectory step's l_hat, so of `probe-oversmoothing` and
# `theorem-check`.
SMOOTHING_EPSILON = 1e-3
# Bytes of one stack of removal-trajectory step matrices, of which numpy's
# eigvalsh takes one call, with each step's n eigenvalues; a stack holds at
# least one matrix.
STACK_BYTES = 4 * 2**20


@dataclass
class SpectralReport:
    """Eigenstructure of a symmetric propagation matrix.

    eigenvalues are ascending (eigh order). second_largest is Theorem 1's
    lambda, the largest |eigenvalue| beyond the top dim(M), 0.0 if none;
    top_multiplicity, the count within TOP_CLUSTER_TOL of the largest, is
    the numerical check on dim(M).
    """

    eigenvalues: np.ndarray
    top_multiplicity: int
    second_largest: float
    component_count: int


def _component_blocks(a, labels):
    """(nodes, block) for each component of `labels` with 2 or more nodes,
    in label order: `nodes` ascending, `block` the k x k dense float64 block
    of `a` on them, scattered from the CSR arrays only when the generator
    reaches it. No stored entry of `a` may join two labels: each entry is
    read into its row's block.
    """
    n = a.n_rows
    rows, cols, values = a.row_ids(), a.col_indices, a.values
    entry_labels = labels[rows]
    # Nodes grouped by label, each group ascending, and each node's index
    # within its group; the entries grouped the same way, by their row.
    sizes = np.bincount(labels)
    nodes_by_label = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    local = np.empty(n, dtype=np.int64)
    local[nodes_by_label] = np.arange(n) - np.repeat(starts, sizes)
    entries = np.argsort(entry_labels, kind="stable")
    entry_counts = np.bincount(entry_labels, minlength=len(sizes))
    entry_starts = np.cumsum(entry_counts) - entry_counts
    for label in np.flatnonzero(sizes > 1):
        k = int(sizes[label])
        nodes = nodes_by_label[starts[label]:starts[label] + k]
        own = entries[entry_starts[label]:entry_starts[label] + entry_counts[label]]
        block = np.zeros((k, k))
        block[local[rows[own]], local[cols[own]]] = values[own]
        yield nodes, block


def _check_order(n):
    if n == 0:
        raise ValueError("spectral analysis needs a nonempty matrix")
    if n > MAX_DENSE_NODES:
        raise ValueError(f"dense eigendecomposition capped at {MAX_DENSE_NODES} nodes; "
                         "analyze a subgraph instead")


def _top_cluster(w, dims):
    """(top multiplicity, second_largest) arrays, one entry per row of w,
    each row one matrix's eigenvalues in any order: the count within
    TOP_CLUSTER_TOL of the row's largest, and the largest magnitude beyond
    its top dims[i], 0.0 when that leaves none."""
    w = np.sort(w, axis=1)
    multiplicity = (w >= w[:, -1:] - TOP_CLUSTER_TOL).sum(axis=1)
    outside = np.arange(w.shape[1]) < w.shape[1] - np.asarray(dims)[:, None]
    return multiplicity, np.where(outside, np.abs(w), 0.0).max(axis=1)


def analyze(a_hat):
    """Eigenvalues of a symmetric propagation matrix, and Theorem 1's lambda
    outside its top eigenspace M.

    The matrix is block diagonal over its own connected components, whose
    count is component_count, so its spectrum is the union of the blocks'.
    A singleton's eigenvalue is its diagonal entry. Every larger component's
    dense block (_component_blocks) goes to one eigenvalue-only LAPACK call
    (dsyev, lower storage, in the block's own buffer), so the largest dense
    array is the largest component's k x k block. dim(M) counts the
    components whose top eigenvalue is within TOP_CLUSTER_TOL of the
    largest: a connected nonnegative block's top is simple (Perron-
    Frobenius), so on a graph this is top_eigenspace's column count under
    each symmetric scheme. Tests, not this function, compare it with
    top_multiplicity, so arbitrary symmetric matrices stay analyzable.
    """
    from scipy.linalg import eigh

    if a_hat.n_rows != a_hat.n_cols:
        raise ValueError("spectral analysis needs a square matrix")
    _check_order(a_hat.n_rows)
    if not a_hat.is_symmetric():
        raise ValueError("matrix is not symmetric; only symmetric schemes are analyzable")
    labels, count = connected_components(a_hat)
    singles = np.flatnonzero(np.bincount(labels)[labels] == 1)
    spectra = [a_hat.diagonal()[singles]]
    for _, block in _component_blocks(a_hat, labels):
        # The block is exactly symmetric, so its transpose is the same matrix
        # in Fortran order, which LAPACK can overwrite without a copy.
        spectra.append(eigh(block.T, lower=True, eigvals_only=True, overwrite_a=True,
                            check_finite=False, driver="ev"))
    tops = np.concatenate([spectra[0]] + [w[-1:] for w in spectra[1:]])
    dim = np.count_nonzero(tops >= tops.max() - TOP_CLUSTER_TOL)
    eigenvalues = np.sort(np.concatenate(spectra))
    multiplicity, second = _top_cluster(eigenvalues[None, :], [dim])
    return SpectralReport(eigenvalues=eigenvalues, top_multiplicity=int(multiplicity[0]),
                          second_largest=float(second[0]), component_count=count)


def top_eigenspace(adjacency, scheme):
    """Orthonormal n x c basis of the top eigenspace M of
    normalize(adjacency, scheme), for a symmetric scheme, in closed form.

    Under AugNormAdj and BingGeNormAdj, M is spanned by (D+I)^(1/2) 1_c for
    each connected component c, one column per component in label order.
    Under FirstOrderGCN it is spanned by D^(1/2) 1_c for each component that
    has an edge, at eigenvalue 2; an isolated node sits at 1, below the
    cluster, unless the graph has no edge, when every eigenvalue is 1 and M
    is the whole space (the identity is returned). No matrix is normalized.
    `adjacency` must pass check_adjacency.
    """
    check_adjacency(adjacency)
    if scheme not in SYMMETRIC_SCHEMES:
        raise ValueError(f"top_eigenspace needs a symmetric scheme, one of "
                         f"{SYMMETRIC_SCHEMES}; got {scheme!r}")
    n = adjacency.n_rows
    mass = degrees(adjacency)
    if scheme != "FirstOrderGCN":
        mass = mass + 1.0
    elif not mass.any():
        return np.eye(n)
    labels, count = connected_components(adjacency)
    # Each node's entry is its weight over its component's norm; components
    # of zero mass (FirstOrderGCN's isolated nodes) get no column.
    norms = np.sqrt(np.bincount(labels, weights=mass, minlength=count))
    kept = norms > 0
    column = np.cumsum(kept) - 1
    nodes = np.flatnonzero(kept[labels])
    basis = np.zeros((n, int(np.count_nonzero(kept))))
    basis[nodes, column[labels[nodes]]] = np.sqrt(mass[nodes]) / norms[labels[nodes]]
    return basis


def subspace_distance(h, basis):
    """Frobenius distance from the rows' span to the subspace: ||H - E E^T H||.

    `basis` must have orthonormal columns (as top_eigenspace returns). Accepts a
    Tensor or a plain array for H.
    """
    data = h.data if isinstance(h, Tensor) else np.asarray(h, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("H must be 2-D")
    if basis.shape[0] != data.shape[0]:
        raise ValueError(f"basis rows {basis.shape[0]} do not match H rows {data.shape[0]}")
    residual = data - basis @ (basis.T @ data)
    return float(np.linalg.norm(residual))


def relaxed_smoothing_layer(epsilon, d0, s, lam):
    """Smallest l with d0 * (s * lam)^l <= epsilon (l_star asks for a strict <).

    Degenerate regimes: a start already inside the epsilon-ball needs 0
    layers; a factor of exactly 0 lands on the subspace in 1; a factor >= 1
    never contracts below epsilon, reported as math.inf.
    """
    _check_positive("epsilon", epsilon)
    _check_positive("d0", d0)
    for name, value in (("s", s), ("lam", lam)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    if epsilon >= d0:
        return 0
    factor = s * lam
    if factor == 0.0:
        return 1
    if factor >= 1.0:
        return math.inf
    return int(math.ceil(math.log(epsilon / d0) / math.log(factor)))


def _check_positive(name, value):
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def empirical_smoothing_layer(hidden_states, basis, epsilon):
    """First 1-based layer whose output is within epsilon of the subspace.

    Scans the per-layer distances in order; None when no layer gets there.
    """
    _check_positive("epsilon", epsilon)
    for i, h in enumerate(hidden_states, 1):
        if subspace_distance(h, basis) < epsilon:
            return i
    return None


def smoothing_probe(hidden_states, basis, lam, s, epsilon):
    """The probe.json fields of one measurement: per-layer distances to the
    span of `basis`, the relaxed bound at second-largest magnitude `lam` and
    filter norm `s`, and the empirical crossing.

    Returns {"subspace_distance", "l_hat", "l_star", "s"}. d0 is the first
    hidden state's distance, which makes l_hat the bound on additional layers
    after the first: 0 when d0 is 0 (already within epsilon), None when the
    bound never contracts. l_star is read off the distances, None when never
    reached. ValueError when `hidden_states` is empty, as there is no d0.
    """
    distances = [subspace_distance(h, basis) for h in hidden_states]
    if not distances:
        raise ValueError("smoothing_probe needs at least one hidden state")
    # A state on the subspace starts inside the epsilon-ball, as one at
    # distance epsilon does: 0 layers, with epsilon, s and lam still checked.
    l_hat = relaxed_smoothing_layer(epsilon, distances[0] or epsilon, s, lam)
    return {
        "subspace_distance": distances,
        "l_hat": None if l_hat == math.inf else l_hat,
        "l_star": next((i for i, d in enumerate(distances, 1) if d < epsilon), None),
        "s": float(s),
    }


# -- effective resistance ----------------------------------------------


def _cholesky(m):
    """Lower Cholesky factor of M = L + J/k for one component, whose k x k
    adjacency block `m` (from _component_blocks) it overwrites: L the
    component's Laplacian, J the all-ones matrix. M is symmetric positive
    definite, and M^-1 = L^+ + J/k. M is built in the block's own buffer and
    factored in place, so the block is the only k x k array; the factor is
    returned as a Fortran-order view of it."""
    from scipy.linalg import lapack

    k = len(m)
    deg = m.sum(axis=1)
    np.negative(m, out=m)
    m.flat[:: k + 1] += deg
    m += 1.0 / k
    # m is symmetric, so m.T is the same matrix in Fortran order and LAPACK
    # works on it without a copy.
    chol, info = lapack.dpotrf(m.T, lower=1, clean=0, overwrite_a=1)
    _check_definite(info)
    return chol


def _check_definite(info):
    if info != 0:
        raise np.linalg.LinAlgError(f"L + J/k is not numerically positive definite "
                                    f"(info={info}); do the edge weights span too wide a range?")


def _component_resistance(block):
    """Pairwise resistance block of one component, made in its adjacency
    block: R(s, t) = M^-1[s, s] + M^-1[t, t] - 2 M^-1[s, t], the J/k terms
    of M^-1 cancelling. M is inverted in place from its Cholesky factor."""
    from scipy.linalg import lapack

    inv, info = lapack.dpotri(_cholesky(block), lower=1, overwrite_c=1)
    _check_definite(info)
    # The inverse fills the Fortran lower triangle, which is the upper
    # triangle of its transpose r.
    r = inv.T
    k = len(block)
    for i in range(k - 1):
        r[i + 1:, i] = r[i, i + 1:]
    diag = r.diagonal().copy()
    r *= -2.0
    r += diag[:, None]
    r += diag[None, :]
    return r


def effective_resistance(a, s, t):
    """Two-terminal effective resistance, each edge's weight taken as its
    conductance (a unit-weight graph is a network of unit resistors).

    Infinite across components; 0 between a node and itself. `a` must
    pass check_adjacency, and s and t are integer node ids (a bool or a
    float, even 2.0, is refused). One Cholesky factor of the component's
    M = L + J/k and one solve M x = b with b = e_s - e_t give
    R(s, t) = b^T x = x_s - x_t, since J b = 0.
    """
    from scipy.linalg import lapack

    check_adjacency(a)
    s, t = check_integer("node id s", s), check_integer("node id t", t)
    n = a.n_rows
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"node ids must lie in [0, {n}), got ({s}, {t})")
    if s == t:
        return 0.0
    labels, _ = connected_components(a)
    if labels[s] != labels[t]:
        return math.inf
    # Label s's component 0 and all else 1: only the first block is built.
    nodes, block = next(_component_blocks(a, (labels != labels[s]).astype(np.int64)))
    i, j = np.searchsorted(nodes, [s, t])
    b = np.zeros(len(nodes))
    b[i], b[j] = 1.0, -1.0
    x, _ = lapack.dpotrs(_cholesky(block), b, lower=1)
    return float(x[i] - x[j])


def resistance_matrix(a):
    """All-pairs effective resistance, math.inf across components. `a` must
    pass check_adjacency."""
    check_adjacency(a)
    n = a.n_rows
    out = np.full((n, n), math.inf)
    for nodes, block in _component_blocks(a, connected_components(a)[0]):
        out[np.ix_(nodes, nodes)] = _component_resistance(block)
    np.fill_diagonal(out, 0.0)
    return out


@dataclass
class ResistanceBoundReport:
    """Result of checking lambda >= 1 - (1/R_st)(1/d_s + 1/d_t) pairwise."""

    second_largest: float
    n_pairs: int
    worst_margin: float
    worst_pair: tuple
    violations: list

    @property
    def holds(self):
        return not self.violations


def verify_resistance_bound(a, tol=1e-8):
    """Check the resistance lower bound on lambda for every same-component
    pair of a graph, under the augmented symmetric normalization.

    The bound says well-connected pairs (small resistance, small degrees)
    force the second eigenvalue up; that is analyze's second_largest, the
    largest magnitude beyond the top c eigenvalues, c the component count.
    Margins below -tol count as violations; tol must be finite (a negative
    one also flags small positive margins).
    """
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    labels, _ = connected_components(a)
    lam = analyze(normalize(a, "AugNormAdj")).second_largest
    d = degrees(a)
    worst_margin, worst_pair = math.inf, None
    n_pairs = 0
    violations = []
    for nodes, block in _component_blocks(a, labels):
        k = len(nodes)
        # The margins overwrite the resistance block. The pairs (i, j), i < j,
        # are its strict upper triangle, which row-major order visits as a
        # double loop would; the rest holds inf (1/inf = 0 keeps it finite).
        margins = _component_resistance(block)
        lower = np.tri(k, dtype=bool)
        np.copyto(margins, math.inf, where=lower)
        inv_d = 1.0 / d[nodes]
        np.reciprocal(margins, out=margins)
        margins *= inv_d[:, None] + inv_d[None, :]
        np.subtract(1.0, margins, out=margins)  # the bound
        np.subtract(lam, margins, out=margins)
        np.copyto(margins, math.inf, where=lower)
        n_pairs += k * (k - 1) // 2
        first_min = int(np.argmin(margins))
        if margins.flat[first_min] < worst_margin:
            worst_margin = float(margins.flat[first_min])
            i, j = divmod(first_min, k)
            worst_pair = (int(nodes[i]), int(nodes[j]))
        i, j = np.divmod(np.flatnonzero(margins < -tol), k)
        violations += [(int(nodes[p]), int(nodes[q]), float(margins[p, q]))
                       for p, q in zip(i, j)]
    return ResistanceBoundReport(second_largest=lam, n_pairs=n_pairs,
                                 worst_margin=worst_margin, worst_pair=worst_pair,
                                 violations=violations)


# -- random edge-removal trajectories ----------------------------------


@dataclass
class TrajectoryStep:
    """State after `removed` edge deletions (step 0 is the intact graph)."""

    step: int
    removed_edge: tuple  # None at step 0
    n_components: int
    top_multiplicity: int
    second_largest: float
    l_hat: float


@dataclass
class TrajectoryReport:
    """Full random-removal run plus the checks the theory predicts.

    disconnect_steps are the steps where the component count rose. The
    multiplicity-tracks-components flag asserts dim(M) == component count at
    every step; the disjunction flag asserts that at every disconnection and
    at the final step, the relaxed smoothing layer did not drop below its
    starting value or the subspace grew. lambda is allowed to wobble in
    between; steps where it decreased are reported, not judged.
    """

    steps: list
    disconnect_steps: list
    lambda_decrease_steps: list
    multiplicity_tracks_components: bool
    disjunction_holds: bool


def _removal_components(n, u, v):
    """Component count of an n-node graph after each number of removals,
    0 to len(u), when the graph's edges (u[i], v[i]) are removed in list
    order and none is left at the end. One union-find pass adds the edges
    back, last removed first."""
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    counts = [n]
    for i in reversed(range(len(u))):
        ru, rv = root(u[i]), root(v[i])
        merged = ru != rv
        if merged:
            parent[ru] = rv
        counts.append(counts[-1] - merged)
    return counts[::-1]


def _mapped_zeros(shape):
    """Zero float64 array in an anonymous memory map of its own, unmapped
    when the array is freed. Memory that malloc returns to a worker
    thread's arena can stay resident there, beyond the reach of the other
    threads; a map goes back to the system."""
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(8 * count, 1), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buffer, count=count).reshape(shape)


def _step_stack(a, removal, last_step, first, end):
    """The AugNormAdj matrices of trajectory steps first to end - 1,
    restricted to the nodes that still have an edge at step `first`, as a
    stack; and each step's other nodes' eigenvalues. Those nodes stay
    singletons to the end of the stack, and a singleton's eigenvalue is its
    diagonal entry. removal[k] is the step that removes stored entry k of
    `a`, and last_step[i] the step that removes node i's last edge.
    """
    n = a.n_rows
    nodes = np.flatnonzero(last_step > first)
    k = len(nodes)
    local = np.full(n, -1)
    local[nodes] = np.arange(k)
    stack = _mapped_zeros((end - first, k, k))
    singles = np.empty((end - first, n - k))
    for i, step in enumerate(range(first, end)):
        m = normalize(keep_entries(n, n, a.row_offsets, a.col_indices, a.values,
                                   removal > step, a.twins()), "AugNormAdj")
        rows, cols = local[m.row_ids()], local[m.col_indices]
        inside = rows >= 0
        stack[i, rows[inside], cols[inside]] = m.values[inside]
        singles[i] = m.values[~inside]
    return stack, singles


def theorem1_trajectory(a, seed):
    """Remove uniformly random edges one at a time until none remain, and
    after each removal re-normalize (AugNormAdj) and read the eigenvalues
    and the component count.

    `seed` is a nonnegative integer, checked before any work. A step's
    second_largest is lambda beyond its top n_components eigenvalues
    (dim(M) under AugNormAdj), as analyze reads it. A step's l_hat takes
    d0 = s = 1 and epsilon = SMOOTHING_EPSILON, as the probe does, and a
    drop of more than TOP_CLUSTER_TOL counts as a lambda decrease.

    Requires a connected starting graph so the initial subspace dimension is
    1 and every later disconnection is visible as a +1.

    Every removal is drawn first, uniformly among the edges left, in
    undirected_edges() order. The component counts come from one
    union-find pass over the removals in reverse, independent of the
    eigenvalues, and the connected start is checked before any eigensolve.
    A step masks a's entries by edge id, as a draw does
    (dropedge.edge_ids), and normalizes the result (sparsemat.normalize).
    The steps go in order into stacks, each restricted to the nodes that
    still have an edge at its first step and solved by one eigenvalue-only
    numpy eigvalsh call (LAPACK dsyevd). A stack's matrices and its steps'
    n eigenvalues take at most STACK_BYTES, and a stack holds at least one
    step. Two worker threads each build a stack and solve it (one
    pool.map over the stacks), and eigvalsh releases the GIL, so one
    worker's solve overlaps the other's build; when one step alone exceeds
    STACK_BYTES, one worker builds and solves the steps one at a time, so a
    large graph holds one dense matrix and its copy at a time. The workers
    are joined before the function returns or raises, a failed solve
    cancels the stacks not yet started, and the results do not depend on
    which thread solves a stack.
    """
    seed = check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    check_adjacency(a)
    _check_order(a.n_rows)
    n = a.n_rows
    edge_id, n_edges = edge_ids(a)
    rng = np.random.default_rng(seed)
    remaining = list(range(n_edges))
    order = [remaining.pop(int(rng.integers(len(remaining)))) for _ in range(n_edges)]
    u, v = (ends[order].tolist() for ends in a.undirected_edges())
    n_components = _removal_components(n, u, v)
    if n_components[0] != 1:
        raise ValueError("trajectory needs a connected starting graph")

    # The step that removes each stored entry, and each node's last edge.
    edge_removal = np.empty(n_edges, dtype=np.int64)
    edge_removal[order] = np.arange(1, n_edges + 1)
    removal = edge_removal[edge_id]
    last_step = np.zeros(n, dtype=np.int64)
    np.maximum.at(last_step, a.row_ids(), removal)

    def step_bytes(first):
        # A step's k x k matrix and its n eigenvalues, k the nodes with an
        # edge at the stack's first step.
        k = int(np.count_nonzero(last_step > first))
        return 8 * (k * k + n)

    bounds = []
    first = 0
    while first <= n_edges:
        end = min(first + max(STACK_BYTES // step_bytes(first), 1), n_edges + 1)
        bounds.append((first, end))
        first = end
    workers = 2 if step_bytes(0) <= STACK_BYTES else 1

    def solve(bound):
        stack, singles = _step_stack(a, removal, last_step, *bound)
        w = np.concatenate([np.linalg.eigvalsh(stack), singles], axis=1)
        return _top_cluster(w, n_components[slice(*bound)])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        spectra = list(pool.map(solve, bounds))
    multiplicity = np.concatenate([m for m, _ in spectra]).tolist()
    second = np.concatenate([s for _, s in spectra]).tolist()

    steps = [TrajectoryStep(step=step, removed_edge=(u[step - 1], v[step - 1]) if step else None,
                            n_components=n_components[step],
                            top_multiplicity=multiplicity[step],
                            second_largest=second[step],
                            l_hat=relaxed_smoothing_layer(SMOOTHING_EPSILON, 1.0, 1.0,
                                                          second[step]))
             for step in range(n_edges + 1)]
    disconnects = [s.step for prev, s in zip(steps, steps[1:])
                   if s.n_components > prev.n_components]
    lam_decreases = [s.step for prev, s in zip(steps, steps[1:])
                     if s.second_largest < prev.second_largest - TOP_CLUSTER_TOL]
    multiplicity_ok = all(s.top_multiplicity == s.n_components for s in steps)

    base = steps[0]
    checkpoints = [steps[i] for i in disconnects] + [steps[-1]]
    disjunction = all(
        (s.l_hat >= base.l_hat) or (s.top_multiplicity > base.top_multiplicity)
        for s in checkpoints
    )
    return TrajectoryReport(steps=steps, disconnect_steps=disconnects,
                            lambda_decrease_steps=lam_decreases,
                            multiplicity_tracks_components=multiplicity_ok,
                            disjunction_holds=disjunction)
