"""Random edge dropping for propagation matrices.

Each training epoch draws a random sub-adjacency: floor(V * p) of the V
undirected edges are removed uniformly without replacement (both stored
directions go together), and the survivor is re-normalized from scratch so
degrees reflect the dropped graph. Evaluation always sees the full, fixed
normalization. One scheme, the model's (ModelConfig.scheme), normalizes
every draw, p=0 training and evaluation; DropEdgeConfig holds only the
drop rate and the granularity.

Two granularities: one draw shared by every layer (the default; the returned
list repeats one matrix object), or an independent draw per layer.
"""

from dataclasses import dataclass

import numpy as np

from .sparsemat import SparseMatrix, keep_entries, normalize


@dataclass
class DropEdgeConfig:
    """Edge-dropping settings: drop rate p in [0, 1] and granularity.

    The normalization scheme is the model's, ModelConfig.scheme. `scheme`
    here is an optional echo of it, so configs that name it still construct;
    nothing normalizes with it, and ModelConfig rejects an echo that differs
    from its own scheme.
    """

    p: float = 0.0
    layer_wise: bool = False
    scheme: str = None

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"drop rate p must lie in [0, 1], got {self.p}")


def _edge_ids(a):
    """Id of each stored entry's undirected edge, in undirected_edges()
    order, and the number of undirected edges.

    Sorting the entries by column, stably, lists them in CSC order; for a
    structurally symmetric matrix that is the CSR order of the transpose,
    so position k of the sort holds the twin (j, i) of CSR entry k = (i, j).
    """
    rows, cols = a.row_ids(), a.col_indices
    if np.any(rows == cols):
        raise ValueError("edge dropping needs an adjacency without stored diagonal entries")
    twin = np.argsort(cols, kind="stable")
    if not (np.array_equal(cols[twin], rows) and np.array_equal(rows[twin], cols)):
        raise ValueError("edge dropping needs a structurally symmetric adjacency")
    upper = rows < cols
    rank = np.cumsum(upper) - 1
    return np.where(upper, rank, rank[twin]), int(upper.sum())


def sample(a, p, rng):
    """One dropped adjacency: remove floor(V * p) undirected edges of `a`.

    The draw is uniform over edge subsets of that exact size, so
    nnz(result) == nnz(a) - 2 * floor(V * p) always holds. p=0 returns an
    equal matrix; p=1 an edgeless one. `a` itself is never modified; it must
    be structurally symmetric with no stored diagonal entry.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"drop rate p must lie in [0, 1], got {p}")
    edge_id, n_edges = _edge_ids(a)
    n_drop = int(np.floor(n_edges * p))
    if n_drop == 0:
        return SparseMatrix(a.n_rows, a.n_cols, a.row_offsets, a.col_indices, a.values)
    dropped = np.zeros(n_edges, dtype=bool)
    dropped[rng.choice(n_edges, size=n_drop, replace=False)] = True
    # Masking keeps the stored entries in CSR order, so nothing is re-sorted.
    return keep_entries(a.n_rows, a.n_cols, a.row_offsets, a.col_indices, a.values,
                        ~dropped[edge_id])


def sample_layerwise(a, p, n_layers, rng):
    """Independent draws, one per layer, consumed from `rng` in layer order."""
    if n_layers < 1:
        raise ValueError("need at least one layer")
    return [sample(a, p, rng) for _ in range(n_layers)]


def propagation_matrices(a, config, n_layers, rng, training, full=None):
    """Per-layer propagation matrices for one forward pass.

    `config` is the ModelConfig: its `scheme` normalizes and its `dropedge`
    gives the drop rate and granularity.

    Outside training, or at p=0, every layer gets the same object: the plain
    normalization of the full adjacency, untouched by the sampler (and `rng`
    is not consumed). `full`, when given, is that normalization already built,
    normalize(a, config.scheme), and is returned instead of a fresh one.
    During training with p > 0, a one-shot draw is dropped once,
    re-normalized once, and shared; the layer-wise variant drops and
    re-normalizes per layer.
    """
    scheme, drop = config.scheme, config.dropedge
    if n_layers < 1:
        raise ValueError("need at least one layer")
    if not training or drop.p == 0.0:
        if full is None:
            full = normalize(a, scheme)
        return [full] * n_layers
    if drop.layer_wise:
        return [normalize(m, scheme) for m in sample_layerwise(a, drop.p, n_layers, rng)]
    one = normalize(sample(a, drop.p, rng), scheme)
    return [one] * n_layers
