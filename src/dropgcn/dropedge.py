"""Random edge dropping for propagation matrices.

Each training epoch draws a random sub-adjacency: floor(V * p) of the V
undirected edges are removed uniformly without replacement (both stored
directions go together), and the survivor is re-normalized from scratch so
degrees reflect the dropped graph. Evaluation always sees the full, fixed
normalization, which the caller builds once and passes in. One scheme, the
model's (ModelConfig.scheme), normalizes every draw, p=0 training and
evaluation; DropEdgeConfig holds the rate, the granularity and an optional
echo of that scheme. Draws and spectral removal steps mask the stored
entries by edge_ids, read from the twins the adjacency keeps.

Two granularities: one draw shared by every layer (the default; the returned
list repeats one matrix object), or an independent draw per layer.

DropEdgeConfig is the first config class in the import order, so the type
checks every config class applies to its fields live here: check_integer,
check_real and check_flag, and _bind, which sets the values they return.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .sparsemat import keep_entries, normalize


def check_integer(name, value):
    """`value` as a Python int; ValueError naming the setting `name` when it
    is not an integer: a float, even 2.0, or a bool. numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_real(name, value):
    """`value` as a Python float; ValueError naming the setting `name` when it
    is not a real number, or is a bool. numpy floats and integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_flag(name, value):
    """`value` as a Python bool; ValueError naming the setting `name` when it
    is not a bool. numpy bools pass."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _bind(config, **values):
    """Set checked values on a frozen config, from its __post_init__."""
    for name, value in values.items():
        object.__setattr__(config, name, value)


@dataclass(frozen=True)
class DropEdgeConfig:
    """Edge-dropping settings: drop rate p in [0, 1] and granularity.

    The normalization scheme is the model's, ModelConfig.scheme. `scheme`
    here is an optional echo of it, so configs that name it still construct;
    nothing normalizes with it, and ModelConfig rejects an echo that differs
    from its own scheme. Like every config, it is checked once, when built,
    and frozen; dataclasses.replace makes a changed copy and checks it.
    """

    p: float = 0.0
    layer_wise: bool = False
    scheme: str = None

    def __post_init__(self):
        _bind(self, p=check_real("p", self.p),
              layer_wise=check_flag("layer_wise", self.layer_wise))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"drop rate p must lie in [0, 1], got {self.p}")


def edge_ids(a):
    """Id of each stored entry's undirected edge, in undirected_edges()
    order, and the number of undirected edges. An upper entry (i < j) takes
    its rank among the upper entries; a lower one takes its twin's (a.twins(),
    sorted once per matrix, so a fixed adjacency is not re-sorted per draw).
    """
    rows = a.row_ids()
    if np.any(rows == a.col_indices):
        raise ValueError("edge dropping needs an adjacency without stored diagonal entries")
    twin = a.twins()
    if twin is None:
        raise ValueError("edge dropping needs a structurally symmetric adjacency")
    upper = rows < a.col_indices
    rank = np.cumsum(upper) - 1
    return np.where(upper, rank, rank[twin]), int(upper.sum())


def drop_count(a, p):
    """floor(V * p): how many edges one draw at rate p removes from `a`, a
    symmetric zero-diagonal adjacency with V = nnz / 2 undirected edges."""
    return int(np.floor(a.nnz // 2 * p))


def sample(a, p, rng):
    """One dropped adjacency: remove drop_count(a, p) = floor(V * p)
    undirected edges of `a`.

    The draw is uniform over edge subsets of that exact size, so
    nnz(result) == nnz(a) - 2 * floor(V * p) always holds. A draw that drops
    nothing (p=0, or p < 1/V) returns `a` itself, which is immutable, and
    consumes nothing from `rng`; p=1 gives an edgeless matrix. `a` itself is
    never modified; it must be structurally symmetric with no stored
    diagonal entry, which is checked whatever the rate. `p` is a real number
    in [0, 1], as in DropEdgeConfig.
    """
    p = check_real("p", p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"drop rate p must lie in [0, 1], got {p}")
    edge_id, n_edges = edge_ids(a)
    n_drop = drop_count(a, p)
    if n_drop == 0:
        return a
    dropped = np.zeros(n_edges, dtype=bool)
    dropped[rng.choice(n_edges, size=n_drop, replace=False)] = True
    # Masking keeps the CSR order, and both entries of an edge go together:
    # the draw needs no re-sort and inherits a's twins.
    return keep_entries(a.n_rows, a.n_cols, a.row_offsets, a.col_indices, a.values,
                        ~dropped[edge_id], a.twins())


def sample_layerwise(a, p, n_layers, rng):
    """Independent draws, one per layer, consumed from `rng` in layer order."""
    if n_layers < 1:
        raise ValueError("need at least one layer")
    return [sample(a, p, rng) for _ in range(n_layers)]


def propagation_matrices(a, config, n_layers, rng, full):
    """Per-layer propagation matrices for one training forward pass.

    `config` is the ModelConfig: its `scheme` normalizes and its `dropedge`
    gives the drop rate and granularity. `full` is the full adjacency's
    normalization, normalize(a, config.scheme), which the caller builds once;
    evaluation uses it for every layer and never calls this.

    When a draw would drop nothing (drop_count is 0: p=0, or p < 1/V), every
    layer gets `full` itself, untouched by the sampler (and `rng` is not
    consumed). Otherwise a one-shot draw is dropped once, re-normalized
    once, and shared; the layer-wise variant drops and re-normalizes per
    layer.
    """
    scheme, drop = config.scheme, config.dropedge
    if n_layers < 1:
        raise ValueError("need at least one layer")
    if drop_count(a, drop.p) == 0:
        return [full] * n_layers
    if drop.layer_wise:
        return [normalize(m, scheme) for m in sample_layerwise(a, drop.p, n_layers, rng)]
    one = normalize(sample(a, drop.p, rng), scheme)
    return [one] * n_layers
