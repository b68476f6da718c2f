"""Graph-convolution layers, the four backbone wirings, and checkpoints.

One building block: the graph convolution layer (GCL)

    H_out = act( A_hat @ drop(H) @ W  [+ drop(H) @ W_self]  [+ b] )

with batch normalization, when enabled, between the affine part and the
activation. The products run in whichever order keeps them narrow:
A_hat @ (H @ W) when W has fewer columns than H, (A_hat @ H) @ W otherwise
(the order of Kipf & Welling's reference code). Low-density input features
(bag-of-words) enter as a sparse constant, see model_input. Backbones differ
only in how GCLs are wired:

- gcn:      a plain chain, input width -> hidden -> ... -> classes
- resgcn:   the chain with identity skips around every hidden body layer
- jknet:    a chain whose every GCL output is column-concatenated and fed
            to a dense output layer
- incepgcn: one input GCL fanning into parallel chains of depth 1..B whose
            outputs are concatenated into an output GCL

Output layers produce raw logits, no activation. forward() returns the
logits plus the list of every GCL output in execution order, which is what
the layer-distance probes consume; training asks for the logits only, so
no layer output outlives the tape's need for it.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from .autodiff import (BatchNormState, Tensor, add, add_bias, batch_norm,
                       concat_cols, dropout, matmul, relu, sparse_matmul, spmm)
from .dropedge import DropEdgeConfig
from .optim import glorot_init
from .sparsemat import SCHEMES, SparseMatrix

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
    """Parameters of one graph convolution layer."""

    __slots__ = ("weight", "bias", "self_weight", "bn", "activation")

    def __init__(self, weight, bias=None, self_weight=None, bn=None, activation=True):
        self.weight = weight
        self.bias = bias
        self.self_weight = self_weight
        self.bn = bn
        self.activation = bool(activation)


class DenseParams:
    """Plain dense output layer (the jknet head)."""

    __slots__ = ("weight", "bias")

    def __init__(self, weight, bias=None):
        self.weight = weight
        self.bias = bias


def model_input(features):
    """The features as the first layer takes them: a scipy CSR constant when
    at most SPARSE_INPUT_DENSITY of the entries are nonzero, else the dense
    array unchanged. Both give the same logits up to rounding."""
    features = np.asarray(features, dtype=np.float64)
    if np.count_nonzero(features) <= SPARSE_INPUT_DENSITY * features.size:
        return SparseMatrix.from_dense(features).to_scipy()
    return features


def _project(h, w):
    """H @ W, for a tensor or a sparse-constant H."""
    return sparse_matmul(h, w) if sp.issparse(h) else matmul(h, w)


def gcl_forward(a_hat, h, params, training, rng=None, dropout_rate=0.0):
    """One GCL application. Input dropout happens here, before aggregation.

    `h` is a tensor, or a sparse constant from model_input; a sparse input is
    always projected before it is propagated.
    """
    h = dropout(h, dropout_rate, rng, training)
    w = params.weight
    if sp.issparse(h) or w.shape[1] < h.shape[1]:
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
    """A built backbone: config, layer parameters, and wiring metadata."""

    def __init__(self, config, n_features, n_classes, gcls, head=None, branch_sizes=None):
        self.config = config
        self.n_features = int(n_features)
        self.n_classes = int(n_classes)
        self.gcls = gcls
        self.head = head
        self.branch_sizes = branch_sizes

    @property
    def n_gcls(self):
        """Number of GCLs, which is also the propagation-matrix count needed."""
        return len(self.gcls)

    def parameters(self):
        """All learnable tensors, in the fixed construction order."""
        return [p for p, _ in self._learnables()]

    def decay_flags(self):
        """Aligned with parameters(): True where L2 weight decay applies."""
        return [f for _, f in self._learnables()]

    def filter_weights(self):
        """The graph-convolution filter matrices (for spectral norms)."""
        return [layer.weight for layer in self.gcls]

    def _learnables(self):
        out = []
        for layer in self.gcls:
            out.append((layer.weight, True))
            if layer.self_weight is not None:
                out.append((layer.self_weight, True))
            if layer.bias is not None:
                out.append((layer.bias, False))
            if layer.bn is not None:
                out.append((layer.bn.scale, False))
                out.append((layer.bn.shift, False))
        if self.head is not None:
            out.append((self.head.weight, True))
            if self.head.bias is not None:
                out.append((self.head.bias, False))
        return out


def _make_gcl(cfg, n_in, n_out, rng, activation, with_bn):
    weight = glorot_init(n_in, n_out, rng)
    self_weight = glorot_init(n_in, n_out, rng) if cfg.withloop else None
    bias = Tensor(np.zeros((1, n_out)), requires_grad=True) if cfg.bias else None
    bn = BatchNormState(n_out) if with_bn else None
    return GCLParams(weight, bias=bias, self_weight=self_weight, bn=bn, activation=activation)


def build_model(config, n_features, n_classes, rng):
    """Initialize a backbone. Parameter draws consume `rng` in a fixed order
    (layer by layer, weight then self-weight), so a seeded generator pins
    every initial value."""
    if n_features < 1 or n_classes < 1:
        raise ValueError("need at least one feature column and one class")
    # The dropedge field may have been reassigned since construction.
    _check_scheme_echo(config)
    cfg = config
    h = cfg.hidden_dim
    gcls, head, branch_sizes = [], None, None
    if cfg.backbone in ("gcn", "resgcn"):
        dims = [n_features] + [h] * (cfg.n_layers - 1) + [n_classes]
        for i in range(cfg.n_layers):
            last = i == cfg.n_layers - 1
            gcls.append(_make_gcl(cfg, dims[i], dims[i + 1], rng,
                                  activation=not last, with_bn=cfg.withbn and not last))
    elif cfg.backbone == "jknet":
        n_gcls = cfg.n_layers - 1
        dims = [n_features] + [h] * n_gcls
        for i in range(n_gcls):
            gcls.append(_make_gcl(cfg, dims[i], dims[i + 1], rng,
                                  activation=True, with_bn=cfg.withbn))
        head_w = glorot_init(n_gcls * h, n_classes, rng)
        head_b = Tensor(np.zeros((1, n_classes)), requires_grad=True) if cfg.bias else None
        head = DenseParams(head_w, head_b)
    else:  # incepgcn
        branch_sizes = list(range(1, cfg.n_layers - 1))
        gcls.append(_make_gcl(cfg, n_features, h, rng, activation=True, with_bn=cfg.withbn))
        for size in branch_sizes:
            for _ in range(size):
                gcls.append(_make_gcl(cfg, h, h, rng, activation=True, with_bn=cfg.withbn))
        gcls.append(_make_gcl(cfg, len(branch_sizes) * h, n_classes, rng,
                              activation=False, with_bn=False))
    return Model(cfg, n_features, n_classes, gcls, head=head, branch_sizes=branch_sizes)


def forward(model, prop_mats, x, training=False, rng=None, keep_hidden=True):
    """Run the backbone.

    prop_mats is the per-GCL propagation matrix list (length >= n_gcls; the
    one-shot path passes the same object everywhere). Matrices are consumed
    in GCL execution order; for incepgcn that is input layer, then each
    branch in order of increasing depth, then the output layer. `x` is an
    array, a tensor, or the sparse constant model_input makes. Returns
    (logits, hidden_states) where hidden_states holds every GCL output, in
    that same order, post-residual where a skip applies. With
    keep_hidden=False it is None instead, and each GCL output is freed as
    soon as the next layer (and, when recording, the tape) no longer needs
    it; training passes only need the logits.
    """
    cfg = model.config
    if len(prop_mats) < model.n_gcls:
        raise ValueError(f"need {model.n_gcls} propagation matrices, got {len(prop_mats)}")
    if not (isinstance(x, Tensor) or sp.issparse(x)):
        x = Tensor(x)
    rate = cfg.dropout
    hidden = []
    if cfg.backbone in ("gcn", "resgcn"):
        h = x
        for i, layer in enumerate(model.gcls):
            z = gcl_forward(prop_mats[i], h, layer, training, rng, rate)
            residual = cfg.backbone == "resgcn" and 0 < i < model.n_gcls - 1
            h = add(z, h) if residual else z
            if keep_hidden:
                hidden.append(h)
    elif cfg.backbone == "jknet":
        # The head reads every GCL output, so they are all held regardless.
        h = x
        for i, layer in enumerate(model.gcls):
            h = gcl_forward(prop_mats[i], h, layer, training, rng, rate)
            hidden.append(h)
        cat = dropout(concat_cols(hidden), rate, rng, training)
        h = matmul(cat, model.head.weight)
        if model.head.bias is not None:
            h = add_bias(h, model.head.bias)
    else:  # incepgcn
        stem = gcl_forward(prop_mats[0], x, model.gcls[0], training, rng, rate)
        if keep_hidden:
            hidden.append(stem)
        idx = 1
        branch_out = []
        for size in model.branch_sizes:
            h = stem
            for _ in range(size):
                h = gcl_forward(prop_mats[idx], h, model.gcls[idx], training, rng, rate)
                if keep_hidden:
                    hidden.append(h)
                idx += 1
            branch_out.append(h)
        cat = concat_cols(branch_out)
        h = gcl_forward(prop_mats[idx], cat, model.gcls[idx], training, rng, rate)
        if keep_hidden:
            hidden.append(h)
    return h, (hidden if keep_hidden else None)


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
    """Ordered (name, array) pairs covering every float in the model."""
    out = []
    for i, layer in enumerate(model.gcls):
        out.append((f"gcl{i}.weight", layer.weight.data))
        if layer.self_weight is not None:
            out.append((f"gcl{i}.self_weight", layer.self_weight.data))
        if layer.bias is not None:
            out.append((f"gcl{i}.bias", layer.bias.data))
        if layer.bn is not None:
            out.append((f"gcl{i}.bn.scale", layer.bn.scale.data))
            out.append((f"gcl{i}.bn.shift", layer.bn.shift.data))
            out.append((f"gcl{i}.bn.running_mean", layer.bn.running_mean))
            out.append((f"gcl{i}.bn.running_var", layer.bn.running_var))
    if model.head is not None:
        out.append(("head.weight", model.head.weight.data))
        if model.head.bias is not None:
            out.append(("head.bias", model.head.bias.data))
    return out


def config_to_dict(config):
    d = asdict(config)
    return d


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
        "config": config_to_dict(model.config),
        "n_features": model.n_features,
        "n_classes": model.n_classes,
    }
    arrays = {name: arr for name, arr in _state_arrays(model)}
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **arrays)
    return path


def load_model(path):
    """Rebuild a Model from save_model output, bit-identical parameters."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
    cfg = config_from_dict(meta["config"])
    model = build_model(cfg, meta["n_features"], meta["n_classes"], np.random.default_rng(0))
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
    """Deep parameter copy (same config objects), for best-epoch snapshots."""
    clone = build_model(model.config, model.n_features, model.n_classes,
                        np.random.default_rng(0))
    for (_, src), (_, dst) in zip(_state_arrays(model), _state_arrays(clone)):
        dst[...] = src
    return clone


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
