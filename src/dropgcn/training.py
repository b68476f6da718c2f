"""Full-batch training, the over-smoothing probe, and ablation drivers.

One run: seed a generator, build the model from it, then per epoch draw the
propagation matrices (where the edge dropping happens), take one Adam step
on the training split, and evaluate all three splits with dropping and
dropout off. The reported test accuracy is the one at the best validation
epoch (earliest on ties). A (config, seed) pair fully determines every
number, including the bytes of metrics.csv.
"""

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import spectral
from .autodiff import active_tape, backward, clear_grads, no_grad, softmax_cross_entropy
from .dropedge import propagation_matrices
from .graph import load_graph_dir
from .models import (ModelConfig, accuracy, build_model, copy_model, forward,
                     model_input, save_model, sup_singular_value)
from .optim import AdamState, adam_step
from .sparsemat import SYMMETRIC_SCHEMES, normalize

METRIC_COLUMNS = ("epoch", "train_loss", "train_acc", "val_loss", "val_acc", "test_acc")
PROBE_EPSILON = 1e-3  # oversmoothing_probe's smoothing threshold on d_M


class TrainingDiverged(RuntimeError):
    """Raised when the loss leaves the reals; message says which epoch."""


@dataclass
class TrainConfig:
    """Everything one run needs: architecture, optimizer, data, output."""

    model: ModelConfig = field(default_factory=ModelConfig)
    lr: float = 0.01
    weight_decay: float = 0.0
    epochs: int = 400
    seed: int = 0
    data_dir: object = None
    out_dir: object = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be nonnegative")


@dataclass
class RunReport:
    """Per-epoch metric rows plus the selected final numbers."""

    rows: list                 # dicts keyed by METRIC_COLUMNS
    best_epoch: int
    val_acc: float
    test_acc: float
    wall_seconds: float
    config: dict

    def to_csv(self):
        lines = [",".join(METRIC_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(
                str(row["epoch"]) if c == "epoch" else repr(float(row[c]))
                for c in METRIC_COLUMNS))
        return "\n".join(lines) + "\n"

    def summary(self):
        return {
            "config": self.config,
            "epochs": len(self.rows),
            "best_epoch": self.best_epoch,
            "val_acc": self.val_acc,
            "test_acc": self.test_acc,
            "wall_seconds": self.wall_seconds,
        }


def write_json(path, payload):
    """`payload` as indented JSON plus a trailing newline at `path`; the
    parent directory is created if needed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_report(report, out_dir):
    """metrics.csv and summary.json under out_dir (created if needed)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(report.to_csv())
    write_json(out / "summary.json", report.summary())
    return out


def _resolve_graph(config, graph):
    if graph is not None:
        return graph
    if config.data_dir is None:
        raise ValueError("no graph given and config.data_dir is not set")
    return load_graph_dir(config.data_dir)


def _config_dict(config):
    d = asdict(config)
    d["data_dir"] = None if config.data_dir is None else str(config.data_dir)
    d["out_dir"] = None if config.out_dir is None else str(config.out_dir)
    return d


def _check_finite(which, loss, epoch):
    if not math.isfinite(loss):
        raise TrainingDiverged(
            f"{which} loss became {loss} at epoch {epoch}; "
            "lower the learning rate or check the input data")


def _run(config, graph, keep_best):
    """The epoch loop. Returns (report, final_model, best_model_or_None)."""
    mcfg = config.model
    rng = np.random.default_rng(config.seed)
    model = build_model(mcfg, graph.n_features, graph.n_classes, rng)
    opt = AdamState(model.parameters(), lr=config.lr, weight_decay=config.weight_decay,
                    decay=model.decay_flags())
    train_idx = graph.splits["train"]
    val_idx = graph.splits["val"]
    test_idx = graph.splits["test"]
    labels = graph.labels
    features = model_input(graph.features)

    # The full-graph normalization is fixed for the whole run; evaluation
    # and p=0 training share it.
    full = normalize(graph.adjacency, mcfg.scheme)
    eval_mats = [full] * model.n_gcls

    rows = []
    best = (-1.0, -1, -1.0)  # (val_acc, epoch, test_acc); ties keep the earliest
    best_snapshot = None
    t0 = time.perf_counter()
    try:
        for epoch in range(1, config.epochs + 1):
            mats = propagation_matrices(graph.adjacency, mcfg, model.n_gcls,
                                        rng, training=True, full=full)
            # Without the hidden-state list, each layer's output is freed
            # once its last reader has read it; the tape keeps what
            # backward() needs.
            logits, _ = forward(model, mats, features, training=True, rng=rng,
                                keep_hidden=False)
            loss = softmax_cross_entropy(logits, labels, train_idx)
            loss_val = loss.item()
            _check_finite("training", loss_val, epoch)
            train_acc = accuracy(logits, labels, train_idx)
            backward(loss)
            adam_step(opt)
            clear_grads(model.parameters())

            with no_grad():
                eval_logits, _ = forward(model, eval_mats, features, training=False,
                                         keep_hidden=False)
                val_loss = softmax_cross_entropy(eval_logits, labels, val_idx).item()
            _check_finite("validation", val_loss, epoch)
            val_acc = accuracy(eval_logits, labels, val_idx)
            test_acc = accuracy(eval_logits, labels, test_idx)
            rows.append({"epoch": epoch, "train_loss": loss_val, "train_acc": train_acc,
                         "val_loss": val_loss, "val_acc": val_acc, "test_acc": test_acc})
            if val_acc > best[0]:
                best = (val_acc, epoch, test_acc)
                if keep_best:
                    best_snapshot = copy_model(model)
    finally:
        # A run that raises between a forward pass and backward() leaves
        # its records, which hold activations, on the tape; the next run
        # would append to them.
        active_tape().entries.clear()
    wall = time.perf_counter() - t0

    report = RunReport(rows=rows, best_epoch=best[1], val_acc=best[0],
                       test_acc=best[2], wall_seconds=wall,
                       config=_config_dict(config))
    return report, model, best_snapshot


def train(config, graph=None, keep_best_model=False):
    """One full-batch run; returns the RunReport (and writes out_dir files).

    With keep_best_model=True the parameters at the best validation epoch
    are snapshotted and saved to out_dir/model.npz.
    """
    graph = _resolve_graph(config, graph)
    report, _, best_snapshot = _run(config, graph, keep_best_model)
    if config.out_dir is not None:
        write_report(report, config.out_dir)
        if best_snapshot is not None:
            save_model(best_snapshot, Path(config.out_dir) / "model.npz")
    return report


# -- over-smoothing probe ----------------------------------------------


@dataclass
class ProbeReport:
    """Layer-distance measurements before and after a training stint.

    `before` and `after` each map: "layer_distance" to {l: ||H^(l) -
    H^(l-1)||_F} over the probed range, "subspace_distance" to the per-GCL
    d_M values, plus the relaxed bound l_hat (None when the bound never
    contracts), the empirical crossing l_star (None when never reached), and
    the filters' top singular value s.
    """

    layer_range: tuple
    before: dict
    after: dict
    epochs_trained: int
    config: dict

    def summary(self):
        return {
            "config": self.config,
            "layer_range": list(self.layer_range),
            "before": self.before,
            "after": self.after,
            "epochs_trained": self.epochs_trained,
        }


def oversmoothing_probe(config, graph=None, layer_range=(2, 6), probe_epochs=150):
    """Measure layer-to-layer distances on a fresh model, train for
    probe_epochs, and measure the final model again.

    Both measurements draw propagation matrices through the model's
    edge-drop settings (that effect is the thing observed) but keep feature
    dropout off and batch statistics frozen, so a measurement on a frozen
    model is a pure function of the sampler state. Needs a symmetric scheme,
    since the subspace view wants an orthonormal eigenbasis, and probed
    layers that form a chain: each layer l in the range reads layer l-1.
    """
    graph = _resolve_graph(config, graph)
    mcfg = config.model
    if mcfg.scheme not in SYMMETRIC_SCHEMES:
        raise ValueError(f"probe needs a symmetric scheme, got {mcfg.scheme!r}")
    lo, hi = int(layer_range[0]), int(layer_range[1])
    rng = np.random.default_rng(config.seed)
    fresh = build_model(mcfg, graph.n_features, graph.n_classes, rng)
    if not 2 <= lo <= hi <= fresh.n_gcls:
        raise ValueError(f"layer_range {layer_range} must lie within 2..{fresh.n_gcls}")
    widths = [layer.weight.data.shape[1] for layer in fresh.gcls]
    for l in range(lo, hi + 1):
        if fresh.wiring[l - 1][0] != (l - 1,):
            raise ValueError(f"layer_range {layer_range}: layer {l} does not read "
                             f"layer {l - 1}, so their distance says nothing")
        if widths[l - 1] != widths[l - 2]:
            raise ValueError(f"layer_range {layer_range} crosses a width change "
                             f"at layer {l}; layer distances need equal widths")
    a_hat = normalize(graph.adjacency, mcfg.scheme)
    spec_report = spectral.analyze(a_hat)
    features = model_input(graph.features)

    def measured(model):
        mats = propagation_matrices(graph.adjacency, mcfg, model.n_gcls,
                                    rng, training=True, full=a_hat)
        with no_grad():
            _, hidden = forward(model, mats, features, training=False)
        diffs = {l: float(np.linalg.norm(hidden[l - 1].data - hidden[l - 2].data))
                 for l in range(lo, hi + 1)}
        probe = spectral.smoothing_probe(hidden, spec_report,
                                         sup_singular_value(model), PROBE_EPSILON)
        return {
            "layer_distance": diffs,
            "subspace_distance": probe.distances,
            "l_hat": None if probe.l_hat == math.inf else probe.l_hat,
            "l_star": probe.l_star,
            "s": probe.s,
        }

    before = measured(fresh)
    run_cfg = replace(config, epochs=probe_epochs, out_dir=None)
    _, trained, _ = _run(run_cfg, graph, keep_best=False)
    after = measured(trained)
    return ProbeReport(layer_range=(lo, hi), before=before, after=after,
                       epochs_trained=probe_epochs, config=_config_dict(config))


# -- ablations ---------------------------------------------------------


def _with_rates(config, dropout, p):
    mcfg = replace(config.model, dropout=dropout,
                   dropedge=replace(config.model.dropedge, p=p))
    return replace(config, model=mcfg, out_dir=None)


def ablate_dropout_dropedge(config, graph=None, dropout=0.5, p=0.5):
    """Train the four on/off combinations of feature dropout and edge
    dropping, all from the same seed. Returns {"neither", "dropout",
    "dropedge", "both"} -> RunReport."""
    graph = _resolve_graph(config, graph)
    variants = {
        "neither": _with_rates(config, 0.0, 0.0),
        "dropout": _with_rates(config, dropout, 0.0),
        "dropedge": _with_rates(config, 0.0, p),
        "both": _with_rates(config, dropout, p),
    }
    return {name: _run(cfg, graph, keep_best=False)[0] for name, cfg in variants.items()}


def ablate_layerwise(config, graph=None):
    """One-shot versus per-layer edge dropping at the configured rate.

    Returns {"oneshot", "layerwise"} -> RunReport; requires p > 0 so the
    comparison is not vacuous.
    """
    graph = _resolve_graph(config, graph)
    if config.model.dropedge.p == 0.0:
        raise ValueError("layer-wise ablation needs a nonzero drop rate p")
    oneshot = replace(config, out_dir=None,
                      model=replace(config.model,
                                    dropedge=replace(config.model.dropedge, layer_wise=False)))
    layerwise = replace(config, out_dir=None,
                        model=replace(config.model,
                                      dropedge=replace(config.model.dropedge, layer_wise=True)))
    return {
        "oneshot": _run(oneshot, graph, keep_best=False)[0],
        "layerwise": _run(layerwise, graph, keep_best=False)[0],
    }
