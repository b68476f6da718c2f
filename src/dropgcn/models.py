"""Graph-convolution layers, the four backbone wirings, and checkpoints.

One building block: the graph convolution layer (GCL)

    H_out = act( A_hat @ drop(H) @ W  [+ drop(H) @ W_self]  [+ b] )

with batch normalization, when enabled, between the affine part and the
activation. The products run in whichever order keeps them narrow:
A_hat @ (H @ W) when W has fewer columns than H, (A_hat @ H) @ W otherwise
(the order of Kipf & Welling's reference code). Low-density input features
(bag-of-words) enter as the scipy CSR constant that Graph.x holds (made by
graph.model_input), always projected before they are propagated. Backbones
differ only in how layers are wired, which build_model records per layer as
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
                       concat_cols, dropout, index_mask, matmul, relu, spmm)
from .dropedge import DropEdgeConfig, _bind, check_flag, check_integer, check_real
from .optim import glorot_init
from .sparsemat import SCHEMES

BACKBONES = ("gcn", "resgcn", "jknet", "incepgcn")


@dataclass(frozen=True)
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

    Checked once, when built, and frozen, so build_model checks no field;
    dataclasses.replace makes a changed copy and checks it again.
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
        _bind(self, backbone=str(self.backbone).lower())
        if self.backbone not in BACKBONES:
            raise ValueError(f"unknown backbone {self.backbone!r}; expected one of {BACKBONES}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown normalization scheme {self.scheme!r}")
        if not isinstance(self.dropedge, DropEdgeConfig):
            raise ValueError(f"dropedge must be a DropEdgeConfig, got {self.dropedge!r}")
        if self.dropedge.scheme not in (None, self.scheme):
            raise ValueError(f"DropEdgeConfig.scheme {self.dropedge.scheme!r} differs from "
                             f"ModelConfig.scheme {self.scheme!r}; the model's scheme "
                             "normalizes every draw, so leave the sampler's unset")
        _bind(self, n_layers=check_integer("n_layers", self.n_layers),
              hidden_dim=check_integer("hidden_dim", self.hidden_dim))
        floor = 2 if self.backbone == "gcn" else 3
        if self.n_layers < floor:
            raise ValueError(f"{self.backbone} needs n_layers >= {floor}, got {self.n_layers}")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be positive")
        _bind(self, dropout=check_real("dropout", self.dropout),
              withloop=check_flag("withloop", self.withloop),
              withbn=check_flag("withbn", self.withbn), bias=check_flag("bias", self.bias))
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")


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


def _project(h, w, pool):
    """H @ W, for a tensor or a sparse-constant H."""
    return spmm(h, w) if sp.issparse(h) else matmul(h, w, pool=pool)


def gcl_forward(a_hat, h, params, training, rng=None, dropout_rate=0.0, pool=None):
    """One GCL application. Input dropout happens here, before aggregation.

    `h` is a tensor, or the sparse constant Graph.x holds; a sparse input is
    always projected before it is propagated. With a_hat=None there is no
    propagation: the layer is the dense H @ W (+ the rest), as the jknet
    head is. `pool` goes to the dense products, sums and relu, which split
    their rows across it when they are large (autodiff's `pool`).
    """
    h = dropout(h, dropout_rate, rng, training)
    w = params.weight
    if a_hat is None:
        z = _project(h, w, pool)
    elif sp.issparse(h) or w.shape[1] < h.shape[1]:
        z = spmm(a_hat, _project(h, w, pool))
    else:
        z = matmul(spmm(a_hat, h), w, pool=pool)
    if params.self_weight is not None:
        z = add(z, _project(h, params.self_weight, pool), pool=pool)
    if params.bias is not None:
        z = add_bias(z, params.bias, pool=pool)
    if params.bn is not None:
        z = batch_norm(z, params.bn, training)
    if params.activation:
        z = relu(z, pool=pool)
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
    seeded generator pins every initial value. With rng=None nothing is
    drawn and every weight is zero: the structure load_model fills."""
    if n_features < 1 or n_classes < 1:
        raise ValueError("need at least one feature column and one class")
    h = config.hidden_dim
    gcls, wiring, head = [], [], None

    def weight(n_in, n_out):
        return (glorot_init(n_in, n_out, rng) if rng is not None
                else Tensor(np.zeros((n_in, n_out)), requires_grad=True))

    def gcl(n_in, n_out, sources, last=False, residual=False):
        """Append a GCL reading `sources`; return its output's source id."""
        w = weight(n_in, n_out)
        self_weight = weight(n_in, n_out) if config.withloop else None
        bias = Tensor(np.zeros((1, n_out)), requires_grad=True) if config.bias else None
        bn = BatchNormState(n_out) if config.withbn and not last else None
        gcls.append(GCLParams(w, bias, self_weight, bn, activation=not last))
        wiring.append((tuple(sources), residual))
        return len(gcls)

    if config.backbone in ("gcn", "resgcn"):
        n = config.n_layers
        dims = [n_features] + [h] * (n - 1) + [n_classes]
        for i in range(n):
            gcl(dims[i], dims[i + 1], (i,), last=i == n - 1,
                residual=config.backbone == "resgcn" and 0 < i < n - 1)
    elif config.backbone == "jknet":
        n = config.n_layers - 1
        dims = [n_features] + [h] * n
        for i in range(n):
            gcl(dims[i], dims[i + 1], (i,))
        head_b = Tensor(np.zeros((1, n_classes)), requires_grad=True) if config.bias else None
        head = GCLParams(weight(n * h, n_classes), bias=head_b, activation=False)
        wiring.append((tuple(range(1, n + 1)), False))
    else:  # incepgcn: stem, branches of depth 1..n_layers-2, output GCL
        stem = gcl(n_features, h, (0,))
        ends = []
        for depth in range(1, config.n_layers - 1):
            out = stem
            for _ in range(depth):
                out = gcl(h, h, (out,))
            ends.append(out)
        gcl(len(ends) * h, n_classes, ends, last=True)
    return Model(config, n_features, n_classes, gcls, wiring, head=head)


def forward(model, prop_mats, x, training=False, rng=None, keep_hidden=True, pool=None):
    """Run the backbone: each layer of model.layers in turn gathers its
    sources, applies gcl_forward, and adds its input back if residual.

    prop_mats is the per-GCL propagation matrix list (length >= n_gcls; the
    one-shot path passes the same object everywhere). Matrices are consumed
    in GCL execution order; for incepgcn that is input layer, then each
    branch in order of increasing depth, then the output layer. The head
    takes none. `x` is an array, a tensor, or the sparse constant
    Graph.x holds. Returns (logits, hidden_states) where hidden_states
    holds every GCL output, in that same order, post-residual where a skip
    applies. With keep_hidden=False it is None instead, and each output is
    released as soon as its last reader has gathered it, so it lives only
    as long as the tape needs it; training passes only need the logits.
    `pool`, an executor whose worker is idle, goes to every layer's dense
    ops (gcl_forward) and residual sums; the logits do not depend on it.
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
                        model.config.dropout, pool)
        outs.append(add(z, h, pool=pool) if residual else z)
    return outs[-1], (outs[1:n + 1] if keep_hidden else None)


def predictions(logits):
    """Argmax class per row, ties to the lowest id."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    return np.argmax(data, axis=1)


def accuracy(logits, labels, mask):
    """Fraction of masked rows whose argmax matches the label; `mask` is a
    nonempty integer index array (see index_mask)."""
    mask = index_mask(mask)
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
                        meta["n_classes"], None)
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


def model_view(model):
    """The model as it is now, without copying an array: new Tensor objects
    over the same arrays, taking no gradients (so no op on the view is ever
    recorded), and each batch norm's running statistics by reference.

    The view keeps this moment's values while the model trains on, because
    no update writes into an array: adam_step binds each parameter a new
    one, and batch_norm binds new running statistics.
    """
    def constant(t):
        return None if t is None else Tensor(t.data)

    def layer(p):
        bn = None
        if p.bn is not None:
            bn = copy.copy(p.bn)
            bn.scale, bn.shift = constant(p.bn.scale), constant(p.bn.shift)
        return GCLParams(constant(p.weight), constant(p.bias), constant(p.self_weight),
                         bn, p.activation)

    head = None if model.head is None else layer(model.head)
    return Model(model.config, model.n_features, model.n_classes,
                 [layer(p) for p in model.gcls], model.wiring, head=head)


def _top_singular_values(model):
    """Each GCL filter's largest singular value. A filter with a non-finite
    weight raises ValueError naming its GCL, where the SVD would fail with
    a bare "did not converge"."""
    svals = []
    for i, w in enumerate(model.filter_weights()):
        if not np.isfinite(w.data).all():
            raise ValueError(f"GCL {i} filter has non-finite weights; "
                             "its singular values are undefined")
        svals.append(float(np.linalg.svd(w.data, compute_uv=False).max()))
    return svals


def sup_singular_value(model):
    """Largest singular value across the GCL filter matrices."""
    return max(_top_singular_values(model))


def rescale_filters(model, target=1.0):
    """Scale each GCL filter so its top singular value is at most `target`.

    Returns the per-layer singular values after rescaling. Used by the
    contraction checks, which need the s_l <= 1 regime.
    """
    svals = _top_singular_values(model)
    for w, s in zip(model.filter_weights(), svals):
        if s > target:
            w.data = w.data * (target / s)
    return [min(s, target) for s in svals]
