"""Spectral analysis of propagation matrices and over-smoothing theory checks.

The quantities here drive the convergence story: a symmetric propagation
matrix has a top eigenvalue cluster whose eigenspace M is the subspace that
deep propagation collapses onto; the second-largest magnitude lambda outside
that cluster, together with the filters' largest singular value s, bounds
how fast the subspace distance d_M(H) contracts per layer, and the relaxed
smoothing layer inverts that bound into a depth estimate. Edge removal is
studied directly: effective resistances, the lambda lower bound they imply,
and full random-removal trajectories.

Everything is dense linear algebra, capped at 5000 nodes. The eigenvalue
route reduces the matrix once to tridiagonal form and takes every eigenvalue
from the tridiagonal; eigenvectors are computed only for the top cluster and
mapped back through the stored reflectors. Removal trajectories read only
eigenvalues, so their steps compute no eigenvectors at all. scipy.linalg is
imported inside the functions that use it, so importing the package (and
training) does not load it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .sparsemat import connected_components, degrees, keep_entries, normalize

MAX_DENSE_NODES = 5000


@dataclass
class SpectralReport:
    """Eigenstructure of a symmetric propagation matrix.

    eigenvalues are ascending (eigh order); basis holds an orthonormal basis
    of the top-cluster eigenspace, one column per clustered eigenvalue;
    second_largest is max |eigenvalue| outside the cluster, 0.0 when the
    cluster swallows the whole spectrum.
    """

    eigenvalues: np.ndarray
    top_multiplicity: int
    second_largest: float
    basis: np.ndarray
    component_count: int


def _spectrum(a_hat, tol):
    """Eigenvalues of a symmetric propagation matrix, split at the top cluster.

    The dense matrix is reduced once to tridiagonal form (LAPACK dsytrd,
    lower storage), and all eigenvalues come from the tridiagonal. Returns
    (eigenvalues ascending, multiplicity, second_largest, factors), where
    factors = (c, d, e, tau) lets _cluster_basis compute eigenvectors
    without a second reduction.
    """
    from scipy.linalg import eigh_tridiagonal, lapack

    if a_hat.n_rows != a_hat.n_cols:
        raise ValueError("spectral analysis needs a square matrix")
    if a_hat.n_rows == 0:
        raise ValueError("spectral analysis needs a nonempty matrix")
    if a_hat.n_rows > MAX_DENSE_NODES:
        raise ValueError(f"dense eigendecomposition capped at {MAX_DENSE_NODES} nodes; "
                         "analyze a subgraph instead")
    if not a_hat.is_symmetric(tol=0.0):
        raise ValueError("matrix is not symmetric; only symmetric schemes are analyzable")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    n = a_hat.n_rows
    # The matrix is exactly symmetric, so its transpose is the same matrix in
    # Fortran order, which dsytrd can overwrite without a copy.
    lwork, _ = lapack.dsytrd_lwork(n, lower=1)
    c, d, e, tau, info = lapack.dsytrd(a_hat.to_dense().T, lower=1, lwork=int(lwork),
                                       overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsytrd failed with info={info}")
    eigenvalues = eigh_tridiagonal(d, e, eigvals_only=True)
    top = eigenvalues[-1]
    multiplicity = int(np.sum(eigenvalues >= top - tol))
    if multiplicity < n:
        second = float(np.max(np.abs(eigenvalues[: n - multiplicity])))
    else:
        second = 0.0
    return eigenvalues, multiplicity, second, (c, d, e, tau)


def _cluster_basis(factors, m):
    """Orthonormal eigenvectors of the top m eigenvalues, from the factors
    _spectrum returns: eigenvectors of the tridiagonal, mapped back through
    the stored reflectors (what LAPACK dormtr does for lower storage)."""
    from scipy.linalg import eigh_tridiagonal, lapack

    c, d, e, tau = factors
    n = len(d)
    _, z = eigh_tridiagonal(d, e, select="i", select_range=(n - m, n - 1))
    if n > 1:
        # Q = H(1)...H(n-1) leaves row 0 alone; its reflectors sit below the
        # subdiagonal of c, i.e. in QR layout in c[1:, :n-1].
        reflectors = c[1:, : n - 1]
        query = lapack.dormqr("L", "N", reflectors, tau, z[1:], -1)[1]
        z[1:], _, info = lapack.dormqr("L", "N", reflectors, tau, z[1:], int(query[0]))
        if info != 0:
            raise np.linalg.LinAlgError(f"dormqr failed with info={info}")
    return z


def analyze(a_hat, tol=1e-8):
    """Eigendecompose a symmetric propagation matrix and split off the top
    cluster: every eigenvalue within `tol` of the maximum counts as top.

    All eigenvalues are computed, but eigenvectors only for the cluster.
    For the augmented symmetric normalization of a graph, the cluster
    multiplicity equals the number of connected components; that is checked
    by tests, not enforced here, so the function stays usable on arbitrary
    symmetric matrices.
    """
    eigenvalues, multiplicity, second, factors = _spectrum(a_hat, tol)
    _, n_components = connected_components(a_hat)
    return SpectralReport(
        eigenvalues=eigenvalues,
        top_multiplicity=multiplicity,
        second_largest=second,
        basis=_cluster_basis(factors, multiplicity),
        component_count=n_components,
    )


def subspace_distance(h, basis):
    """Frobenius distance from the rows' span to the subspace: ||H - E E^T H||.

    `basis` must have orthonormal columns (as produced by analyze). Accepts a
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
    """Smallest layer count l with d0 * (s * lam)^l < epsilon.

    Degenerate regimes: a start already inside the epsilon-ball needs 0
    layers; a factor of exactly 0 lands on the subspace in 1; a factor >= 1
    never contracts below epsilon, reported as math.inf.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if d0 <= 0:
        raise ValueError("d0 must be positive")
    if s < 0 or lam < 0:
        raise ValueError("s and lambda must be nonnegative")
    if epsilon >= d0:
        return 0
    factor = s * lam
    if factor == 0.0:
        return 1
    if factor >= 1.0:
        return math.inf
    return int(math.ceil(math.log(epsilon / d0) / math.log(factor)))


def empirical_smoothing_layer(hidden_states, basis, epsilon):
    """First 1-based layer whose output is within epsilon of the subspace.

    Scans the per-layer distances in order; None when no layer gets there.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    for i, h in enumerate(hidden_states, 1):
        if subspace_distance(h, basis) < epsilon:
            return i
    return None


@dataclass
class SmoothingProbe:
    """Layer-distance measurements against one propagation subspace."""

    epsilon: float
    distances: list
    l_hat: float
    l_star: object  # int layer id, or None when never reached
    s: float


def smoothing_probe(hidden_states, report, s, epsilon, d0=None):
    """Bundle distances, the relaxed bound, and the empirical crossing.

    d0 defaults to the first hidden state's distance, which makes l_hat the
    bound on additional layers after the first.
    """
    distances = [subspace_distance(h, report.basis) for h in hidden_states]
    if d0 is None:
        d0 = distances[0] if distances else 1.0
    if d0 <= 0:
        d0 = 1.0  # already on the subspace; any positive placeholder gives l_hat 0
    l_hat = relaxed_smoothing_layer(epsilon, d0, s, report.second_largest)
    l_star = empirical_smoothing_layer(hidden_states, report.basis, epsilon)
    return SmoothingProbe(epsilon=float(epsilon), distances=distances,
                          l_hat=l_hat, l_star=l_star, s=float(s))


# -- effective resistance ----------------------------------------------


def _component_resistance(dense, nodes):
    """Pairwise resistance block for one component of a dense adjacency via
    the Laplacian pseudoinverse: R(s, t) = Lp[s, s] + Lp[t, t] - 2 Lp[s, t]."""
    sub = dense[np.ix_(nodes, nodes)]
    lap = np.diag(sub.sum(axis=1)) - sub
    lp = np.linalg.pinv(lap)
    diag = np.diag(lp)
    return diag[:, None] + diag[None, :] - 2.0 * lp


def effective_resistance(a, s, t):
    """Two-terminal effective resistance with unit conductances on edges.

    Infinite across components; 0 between a node and itself.
    """
    n = a.n_rows
    if a.n_rows != a.n_cols:
        raise ValueError("resistance needs a square adjacency")
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"node ids must lie in [0, {n}), got ({s}, {t})")
    if s == t:
        return 0.0
    labels, _ = connected_components(a)
    if labels[s] != labels[t]:
        return math.inf
    nodes = np.flatnonzero(labels == labels[s])
    block = _component_resistance(a.to_dense(), nodes)
    pos = {int(v): i for i, v in enumerate(nodes)}
    return float(block[pos[s], pos[t]])


def resistance_matrix(a):
    """All-pairs effective resistance, math.inf across components."""
    n = a.n_rows
    labels, count = connected_components(a)
    dense = a.to_dense()
    out = np.full((n, n), math.inf)
    for c in range(count):
        nodes = np.flatnonzero(labels == c)
        out[np.ix_(nodes, nodes)] = _component_resistance(dense, nodes)
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
    force the second eigenvalue up. Margins below -tol count as violations.
    """
    report = analyze(normalize(a, "AugNormAdj"))
    lam = report.second_largest
    d = degrees(a)
    dense = a.to_dense()
    labels, count = connected_components(a)
    worst_margin, worst_pair = math.inf, None
    n_pairs = 0
    violations = []
    for c in range(count):
        nodes = np.flatnonzero(labels == c)
        if len(nodes) < 2:
            continue
        block = _component_resistance(dense, nodes)
        # Pairs (i, j), i < j, in row-major order, as a double loop visits them.
        i, j = np.triu_indices(len(nodes), 1)
        s, t = nodes[i], nodes[j]
        bound = 1.0 - (1.0 / block[i, j]) * (1.0 / d[s] + 1.0 / d[t])
        margins = lam - bound
        n_pairs += len(margins)
        first_min = int(np.argmin(margins))
        if margins[first_min] < worst_margin:
            worst_margin = float(margins[first_min])
            worst_pair = (int(s[first_min]), int(t[first_min]))
        violations += [(int(s[k]), int(t[k]), float(margins[k]))
                       for k in np.flatnonzero(margins < -tol)]
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


def _without_edge(a, u, v):
    """`a` with its stored entries (u, v) and (v, u) removed."""
    offsets, cols = a.row_offsets, a.col_indices
    keep = np.ones(a.nnz, dtype=bool)
    for r, col in ((u, v), (v, u)):
        keep[offsets[r] + np.searchsorted(cols[offsets[r]:offsets[r + 1]], col)] = False
    return keep_entries(a.n_rows, a.n_cols, offsets, cols, a.values, keep)


def theorem1_trajectory(a, seed, epsilon=1e-3, d0=1.0, tol=1e-8):
    """Remove uniformly random edges one at a time until none remain,
    re-normalizing (AugNormAdj) and recomputing the eigenvalues and the
    component count after each removal.

    Requires a connected starting graph so the initial subspace dimension is
    1 and every later disconnection is visible as a +1.
    """
    _, count = connected_components(a)
    if count != 1:
        raise ValueError("trajectory needs a connected starting graph")
    rng = np.random.default_rng(seed)

    def snapshot(mat, step, edge):
        # A step reads only the eigenvalues, so it computes no eigenvectors.
        _, multiplicity, second, _ = _spectrum(normalize(mat, "AugNormAdj"), tol)
        _, n_components = connected_components(mat)
        l_hat = relaxed_smoothing_layer(epsilon, d0, 1.0, second)
        return TrajectoryStep(step=step, removed_edge=edge, n_components=n_components,
                              top_multiplicity=multiplicity, second_largest=second,
                              l_hat=l_hat)

    steps = [snapshot(a, 0, None)]
    current = a
    step = 0
    while True:
        u, v = current.undirected_edges()
        if len(u) == 0:
            break
        pick = int(rng.integers(len(u)))
        edge = (int(u[pick]), int(v[pick]))
        current = _without_edge(current, *edge)
        step += 1
        steps.append(snapshot(current, step, edge))

    disconnects = [s.step for prev, s in zip(steps, steps[1:])
                   if s.n_components > prev.n_components]
    lam_decreases = [s.step for prev, s in zip(steps, steps[1:])
                     if s.second_largest < prev.second_largest - tol]
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
