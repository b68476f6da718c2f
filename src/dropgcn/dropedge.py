"""Random edge dropping for propagation matrices.

Each training epoch draws a random sub-adjacency: floor(V * p) of the V
undirected edges are removed uniformly without replacement (both stored
directions go together), and the survivor is re-normalized from scratch so
degrees reflect the dropped graph. Evaluation always sees the full, fixed
normalization.

Two granularities: one draw shared by every layer (the default; the returned
list repeats one matrix object), or an independent draw per layer.
"""

from dataclasses import dataclass

import numpy as np

from .sparsemat import SparseMatrix, normalize


@dataclass
class DropEdgeConfig:
    """Sampler settings: drop rate p in [0, 1], granularity, scheme, seed.

    `seed` seeds the sampler stream owned by whoever drives training; the
    functions below take an explicit Generator so one stream can cover
    initialization and per-epoch draws.
    """

    p: float = 0.0
    layer_wise: bool = False
    scheme: str = "AugNormAdj"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"drop rate p must lie in [0, 1], got {self.p}")


def sample(a, p, rng):
    """One dropped adjacency: remove floor(V * p) undirected edges of `a`.

    The draw is uniform over edge subsets of that exact size, so
    nnz(result) == nnz(a) - 2 * floor(V * p) always holds. p=0 returns an
    equal matrix; p=1 an edgeless one. `a` itself is never modified.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"drop rate p must lie in [0, 1], got {p}")
    u, v = a.undirected_edges()
    n_edges = len(u)
    n_drop = int(np.floor(n_edges * p))
    if n_drop == 0:
        return SparseMatrix(a.n_rows, a.n_cols, a.row_offsets, a.col_indices, a.values)
    chosen = rng.choice(n_edges, size=n_drop, replace=False)
    dropped = np.zeros(n_edges, dtype=bool)
    dropped[chosen] = True
    # Mark stored entries whose undirected edge was chosen, in both directions.
    key_drop = u[dropped] * a.n_cols + v[dropped]
    rows, cols, vals = a.coo_arrays()
    keys = np.minimum(rows, cols) * a.n_cols + np.maximum(rows, cols)
    keep = ~np.isin(keys, key_drop)
    return SparseMatrix.from_coo(a.n_rows, a.n_cols, rows[keep], cols[keep], vals[keep])


def sample_layerwise(a, p, n_layers, rng):
    """Independent draws, one per layer, consumed from `rng` in layer order."""
    if n_layers < 1:
        raise ValueError("need at least one layer")
    return [sample(a, p, rng) for _ in range(n_layers)]


def propagation_matrices(a, config, n_layers, rng, training, full=None):
    """Per-layer propagation matrices for one forward pass.

    Outside training, or at p=0, every layer gets the same object: the plain
    normalization of the full adjacency, untouched by the sampler (and `rng`
    is not consumed). `full`, when given, is that normalization already built,
    normalize(a, config.scheme), and is returned instead of a fresh one.
    During training with p > 0, a one-shot draw is dropped once,
    re-normalized once, and shared; the layer-wise variant drops and
    re-normalizes per layer.
    """
    if n_layers < 1:
        raise ValueError("need at least one layer")
    if not training or config.p == 0.0:
        if full is None:
            full = normalize(a, config.scheme)
        return [full] * n_layers
    if config.layer_wise:
        return [normalize(m, config.scheme) for m in sample_layerwise(a, config.p, n_layers, rng)]
    one = normalize(sample(a, config.p, rng), config.scheme)
    return [one] * n_layers
