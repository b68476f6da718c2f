"""Graph-convolution layers, the four backbone wirings, and checkpoints.

One building block: the graph convolution layer (GCL)

    H_out = act( A_hat @ drop(H) @ W  [+ drop(H) @ W_self]  [+ b] )

with batch normalization, when enabled, between the affine part and the
activation. The products run in whichever order keeps them narrow:
A_hat @ (H @ W) when W has fewer columns than H, (A_hat @ H) @ W otherwise
(the order of Kipf & Welling's reference code). Low-density input features
(bag-of-words) enter as a sparse constant, see model_input. Backbones differ
only in how layers are wired, which build_model records per layer as
Model.wiring: the earlier outputs a layer reads (column-concatenated when
several) and whether its input is added back onto its output.

- gcn:      a plain chain, input width -> hidden -> ... -> classes
- resgcn:   the chain with identity skips around every hidden body layer
- jknet:    a chain whose every GCL output is column-concatenated and fed
            to a head: a dense layer, a GCL applied without propagation
- incepgcn: one input GCL fanning into parallel chains of depth 1..B whose
            outputs are concatenated into an output GCL

Output layers produce raw logits, no activation. forward() runs every
backbone through one loop over that record and returns the logits plus
the list of every GCL output in execution order, which is what the
layer-distance probes consume; training asks for the logits only, so no
layer output outlives its last reader or the tape's need for it.
"""

import copy
import json
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from .autodiff import (BatchNormState, Tensor, add, add_bias, batch_norm,
                       concat_cols, dropout, matmul, relu, spmm)
from .dropedge import DropEdgeConfig
from .optim import glorot_init
from .sparsemat import SCHEMES

BACKBONES = ("gcn", "resgcn", "jknet", "incepgcn")

# Input features with at most this fraction of nonzero entries go into the
# first layer as a sparse constant (bag-of-words features are about 1 % dense).
# Timed on 2708x1433 features with one BLAS thread, a first-layer epoch on the
# sparse path stops being faster than on the dense one at about 15 % density
# for hidden width 256, 17 % for 128 and 30 % for 16; at 10 % it is at least
# 1.3x faster for all three. Dense Gaussian features are 4-6x slower sparse.
SPARSE_INPUT_DENSITY = 0.10


@dataclass
class ModelConfig:
    """Architecture settings.

    n_layers counts the nominal depth knob: for gcn it is the number of
    GCLs; resgcn needs >= 3 (input + at least one residual body + output);
    jknet and incepgcn reinterpret the body count as chain length and branch
    count respectively and also need >= 3.

    `scheme` is the one propagation normalization of the model: it
    normalizes every edge-dropping draw, the full graph for p=0 training,
    and the full graph for evaluation. `dropedge` holds the drop rate and
    the granularity; an echo of the scheme in it must equal `scheme`.
    """

    backbone: str = "gcn"
    n_layers: int = 2
    hidden_dim: int = 128
    dropout: float = 0.0
    withloop: bool = False
    withbn: bool = False
    bias: bool = True
    scheme: str = "AugNormAdj"
    dropedge: DropEdgeConfig = field(default_factory=DropEdgeConfig)

    def __post_init__(self):
        self.backbone = str(self.backbone).lower()
        if self.backbone not in BACKBONES:
            raise ValueError(f"unknown backbone {self.backbone!r}; expected one of {BACKBONES}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown normalization scheme {self.scheme!r}")
        _check_scheme_echo(self)
        floor = 2 if self.backbone == "gcn" else 3
        if self.n_layers < floor:
            raise ValueError(f"{self.backbone} needs n_layers >= {floor}, got {self.n_layers}")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")


def _check_scheme_echo(config):
    """Reject a DropEdgeConfig.scheme echo that differs from the model's."""
    echo = config.dropedge.scheme
    if echo not in (None, config.scheme):
        raise ValueError(f"DropEdgeConfig.scheme {echo!r} differs from "
                         f"ModelConfig.scheme {config.scheme!r}; the model's scheme "
                         "normalizes every draw, so leave the sampler's unset")


class GCLParams:
    """Parameters of one graph convolution layer, or of the jknet head: a
    dense layer (no activation) that gcl_forward applies with a_hat=None."""

    __slots__ = ("weight", "bias", "self_weight", "bn", "activation")

    def __init__(self, weight, bias=None, self_weight=None, bn=None, activation=True):
        self.weight = weight
        self.bias = bias
        self.self_weight = self_weight
        self.bn = bn
        self.activation = bool(activation)


def model_input(features):
    """The features as the first layer takes them: a scipy CSR constant when
    at most SPARSE_INPUT_DENSITY of the entries are nonzero, else the dense
    array unchanged. Both give the same logits up to rounding."""
    features = np.asarray(features, dtype=np.float64)
    if np.count_nonzero(features) <= SPARSE_INPUT_DENSITY * features.size:
        return sp.csr_matrix(features)
    return features


def _project(h, w):
    """H @ W, for a tensor or a sparse-constant H."""
    return spmm(h, w) if sp.issparse(h) else matmul(h, w)


def gcl_forward(a_hat, h, params, training, rng=None, dropout_rate=0.0):
    """One GCL application. Input dropout happens here, before aggregation.

    `h` is a tensor, or a sparse constant from model_input; a sparse input is
    always projected before it is propagated. With a_hat=None there is no
    propagation: the layer is the dense H @ W (+ the rest), as the jknet
    head is.
    """
    h = dropout(h, dropout_rate, rng, training)
    w = params.weight
    if a_hat is None:
        z = _project(h, w)
    elif sp.issparse(h) or w.shape[1] < h.shape[1]:
        z = spmm(a_hat, _project(h, w))
    else:
        z = matmul(spmm(a_hat, h), w)
    if params.self_weight is not None:
        z = add(z, _project(h, params.self_weight))
    if params.bias is not None:
        z = add_bias(z, params.bias)
    if params.bn is not None:
        z = batch_norm(z, params.bn, training)
    if params.activation:
        z = relu(z)
    return z


class Model:
    """A built backbone: config, layer parameters, and wiring.

    `wiring` has one (sources, residual) entry per layer of `layers`, in
    execution order. In `sources`, 0 is the model input and k the output of
    GCL k-1 (the head's output is never read); several sources are
    column-concatenated in the order listed. A residual layer adds its
    input onto its output.
    """

    def __init__(self, config, n_features, n_classes, gcls, wiring, head=None):
        self.config = config
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        self.gcls = gcls
        self.wiring = wiring
        self.head = head

    @property
    def n_gcls(self):
        """Number of GCLs, which is also the propagation-matrix count needed."""
        return len(self.gcls)

    @property
    def layers(self):
        """The GCLs, then the head if there is one: the order of `wiring`."""
        return self.gcls + ([] if self.head is None else [self.head])

    def parameters(self):
        """All learnable tensors, in the fixed construction order."""
        return [value for _, value, decay in _state(self) if decay is not None]

    def decay_flags(self):
        """Aligned with parameters(): True where L2 weight decay applies."""
        return [decay for _, _, decay in _state(self) if decay is not None]

    def filter_weights(self):
        """The graph-convolution filter matrices (for spectral norms)."""
        return [layer.weight for layer in self.gcls]


def _state(model):
    """(name, value, decay) for every float, in construction order; decay is
    True or False for a learnable tensor (L2 decay on weight matrices only),
    None for a batch-norm running statistic, a plain array."""
    prefixes = [f"gcl{i}" for i in range(model.n_gcls)] + ["head"]
    for prefix, layer in zip(prefixes, model.layers):
        yield f"{prefix}.weight", layer.weight, True
        if layer.self_weight is not None:
            yield f"{prefix}.self_weight", layer.self_weight, True
        if layer.bias is not None:
            yield f"{prefix}.bias", layer.bias, False
        if layer.bn is not None:
            yield f"{prefix}.bn.scale", layer.bn.scale, False
            yield f"{prefix}.bn.shift", layer.bn.shift, False
            yield f"{prefix}.bn.running_mean", layer.bn.running_mean, None
            yield f"{prefix}.bn.running_var", layer.bn.running_var, None


def build_model(config, n_features, n_classes, rng):
    """Initialize a backbone and record its wiring. Parameter draws consume
    `rng` in a fixed order (layer by layer, weight then self-weight), so a
    seeded generator pins every initial value."""
    if n_features < 1 or n_classes < 1:
        raise ValueError("need at least one feature column and one class")
    # The dropedge field may have been reassigned since construction.
    _check_scheme_echo(config)
    cfg = config
    h = cfg.hidden_dim
    gcls, wiring, head = [], [], None

    def gcl(n_in, n_out, sources, last=False, residual=False):
        """Append a GCL reading `sources`; return its output's source id."""
        weight = glorot_init(n_in, n_out, rng)
        self_weight = glorot_init(n_in, n_out, rng) if cfg.withloop else None
        bias = Tensor(np.zeros((1, n_out)), requires_grad=True) if cfg.bias else None
        bn = BatchNormState(n_out) if cfg.withbn and not last else None
        gcls.append(GCLParams(weight, bias, self_weight, bn, activation=not last))
        wiring.append((tuple(sources), residual))
        return len(gcls)

    if cfg.backbone in ("gcn", "resgcn"):
        n = cfg.n_layers
        dims = [n_features] + [h] * (n - 1) + [n_classes]
        for i in range(n):
            gcl(dims[i], dims[i + 1], (i,), last=i == n - 1,
                residual=cfg.backbone == "resgcn" and 0 < i < n - 1)
    elif cfg.backbone == "jknet":
        n = cfg.n_layers - 1
        dims = [n_features] + [h] * n
        for i in range(n):
            gcl(dims[i], dims[i + 1], (i,))
        head_b = Tensor(np.zeros((1, n_classes)), requires_grad=True) if cfg.bias else None
        head = GCLParams(glorot_init(n * h, n_classes, rng), bias=head_b, activation=False)
        wiring.append((tuple(range(1, n + 1)), False))
    else:  # incepgcn: stem, branches of depth 1..n_layers-2, output GCL
        stem = gcl(n_features, h, (0,))
        ends = []
        for depth in range(1, cfg.n_layers - 1):
            out = stem
            for _ in range(depth):
                out = gcl(h, h, (out,))
            ends.append(out)
        gcl(len(ends) * h, n_classes, ends, last=True)
    return Model(cfg, n_features, n_classes, gcls, wiring, head=head)


def forward(model, prop_mats, x, training=False, rng=None, keep_hidden=True):
    """Run the backbone: each layer of model.layers in turn gathers its
    sources, applies gcl_forward, and adds its input back if residual.

    prop_mats is the per-GCL propagation matrix list (length >= n_gcls; the
    one-shot path passes the same object everywhere). Matrices are consumed
    in GCL execution order; for incepgcn that is input layer, then each
    branch in order of increasing depth, then the output layer. The head
    takes none. `x` is an array, a tensor, or the sparse constant
    model_input makes. Returns (logits, hidden_states) where hidden_states
    holds every GCL output, in that same order, post-residual where a skip
    applies. With keep_hidden=False it is None instead, and each output is
    released as soon as its last reader has gathered it, so it lives only
    as long as the tape needs it; training passes only need the logits.
    """
    n = model.n_gcls
    if len(prop_mats) < n:
        raise ValueError(f"need {n} propagation matrices, got {len(prop_mats)}")
    if not (isinstance(x, Tensor) or sp.issparse(x)):
        x = Tensor(x)
    last_reader = {s: j for j, (sources, _) in enumerate(model.wiring) for s in sources}
    outs = [x]
    for j, (layer, (sources, residual)) in enumerate(zip(model.layers, model.wiring)):
        h = [outs[s] for s in sources]
        if not keep_hidden:
            for s in sources:
                if last_reader[s] == j:
                    outs[s] = None
        h = h[0] if len(h) == 1 else concat_cols(h)
        z = gcl_forward(prop_mats[j] if j < n else None, h, layer, training, rng,
                        model.config.dropout)
        outs.append(add(z, h) if residual else z)
    return outs[-1], (outs[1:n + 1] if keep_hidden else None)


def predictions(logits):
    """Argmax class per row, ties to the lowest id."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    return np.argmax(data, axis=1)


def accuracy(logits, labels, mask):
    """Fraction of masked rows whose argmax matches the label."""
    mask = np.asarray(mask, dtype=np.int64)
    if len(mask) == 0:
        raise ValueError("mask must be nonempty")
    pred = predictions(logits)[mask]
    return float(np.mean(pred == np.asarray(labels)[mask]))


# -- checkpoints -------------------------------------------------------


def _state_arrays(model):
    """_state's entries as ordered (name, array) pairs."""
    return [(name, value if decay is None else value.data)
            for name, value, decay in _state(model)]


def config_from_dict(d):
    d = dict(d)
    # Older checkpoints store a sampler seed that nothing read.
    dropedge = {k: v for k, v in d["dropedge"].items() if k != "seed"}
    d["dropedge"] = DropEdgeConfig(**dropedge)
    return ModelConfig(**d)


def save_model(model, path):
    """Checkpoint to one .npz: config as JSON plus every float array.

    Arrays round-trip bit-exactly; load_model followed by save_model writes
    an equivalent checkpoint.
    """
    meta = {
        "config": asdict(model.config),
        "n_features": model.n_features,
        "n_classes": model.n_classes,
    }
    arrays = dict(_state_arrays(model))
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **arrays)
    return path


def load_model(path):
    """Rebuild a Model from save_model output, bit-identical parameters."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
    model = build_model(config_from_dict(meta["config"]), meta["n_features"],
                        meta["n_classes"], np.random.default_rng(0))
    for name, current in _state_arrays(model):
        if name not in arrays:
            raise ValueError(f"checkpoint missing array {name!r}")
        stored = arrays[name]
        if stored.shape != current.shape:
            raise ValueError(f"checkpoint array {name!r} has shape {stored.shape}, "
                             f"expected {current.shape}")
        current[...] = stored
    return model


def copy_model(model):
    """Deep copy for best-epoch snapshots: every array and layer is new,
    the config object is the same one."""
    return copy.deepcopy(model, {id(model.config): model.config})


def sup_singular_value(model):
    """Largest singular value across the GCL filter matrices."""
    return max(float(np.linalg.svd(w.data, compute_uv=False).max())
               for w in model.filter_weights())


def rescale_filters(model, target=1.0):
    """Scale each GCL filter so its top singular value is at most `target`.

    Returns the per-layer singular values after rescaling. Used by the
    contraction checks, which need the s_l <= 1 regime.
    """
    svals = []
    for w in model.filter_weights():
        s = float(np.linalg.svd(w.data, compute_uv=False).max())
        if s > target:
            w.data = w.data * (target / s)
            s = target
        svals.append(s)
    return svals
