"""Full-batch training, the over-smoothing probe, and ablation drivers.

One run: seed a generator, build the model from it, then per epoch draw the
propagation matrices (where the edge dropping happens), take one Adam step
on the training split, and evaluate all three splits with dropping and
dropout off. The reported test accuracy is the one at the best validation
epoch (earliest on ties).

Each of the four calls takes a loaded Graph (graph.load_graph_dir reads
one from disk). The probe and both ablations take every setting from their
TrainConfig (epochs, rates, granularity) and, like train, write their
reports under config.out_dir when it is set. Each call checks its splits,
makes its own refusals, then normalizes its graph once for all its runs.

Epoch e is evaluated at one point of epoch e+1: after its training
forward, before its loss, so a validation divergence at epoch e is still
reported ahead of a training divergence at epoch e+1. The last epoch is
evaluated right after its Adam step. When a training step is
deterministic (no edge dropped, as at p=0 or p < 1/V; no feature dropout;
no batch norm), its forward pass is the evaluation forward of the
parameters it starts from, bit for bit, so epoch e's logits are read off
epoch e+1's training forward: E+1 forwards for E epochs instead of 2E.

Every run keeps one worker thread, which takes three kinds of work off
the main thread. Backward hands it every parameter-gradient product (a
weight's H^T g, a bias's column sums), so the main thread walks only the
chain of input gradients (autodiff.backward). A run whose step is not
deterministic starts epoch e's evaluation forward on it right after epoch
e's Adam step, so it runs while epoch e+1 samples its matrices and runs
its training forward. And whenever it is otherwise idle, it takes half of
the row-independent dense work: the bottom rows of each large dense
product, bias, sum and relu (autodiff's `pool`) in the training forward
of a deterministic step and in the final inline evaluation, and in every
Adam step, where each thread updates one half of every parameter
(optim.adam_step); not the training forward of a random step, when the
worker is evaluating (see _run). The worker reads a view of the model at
epoch e (models.model_view), makes no random draw and records nothing.
The worker takes its work in submission order, and epoch e's evaluation
is read before epoch e+1's backward, so gradient products never wait
behind it.
Each product is the call the main thread would make on the same arrays,
and gradients are added in the inline order, so the bytes are those of a
run without the worker. The gain needs a second core and one BLAS thread:
on one core the two threads take turns, and a multi-threaded BLAS already
spreads each product over the cores; either way the run can be slower
than without the worker, deterministic runs included.

The same config and seed give the same numbers, down to the bytes of
metrics.csv, on the same BLAS build with the same BLAS thread count. A
different thread count may sum in a different order and change the last
bits.

Under glibc, a run fixes malloc's mmap threshold at 32 MB and its trim
threshold at 64 MB for the whole process (see _keep_freed_memory).
"""

import ctypes
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import spectral
from .autodiff import Tape, Tensor, backward, clear_grads, softmax_cross_entropy
from .dropedge import _bind, check_integer, check_real, drop_count, propagation_matrices
from .graph import SPLIT_NAMES
from .models import (ModelConfig, accuracy, build_model, copy_model, forward,
                     model_view, save_model, sup_singular_value)
from .optim import AdamState, adam_step, check_rates
from .sparsemat import SYMMETRIC_SCHEMES, normalize

METRIC_COLUMNS = ("epoch", "train_loss", "train_acc", "val_loss", "val_acc", "test_acc")
PROBE_LAYERS = (2, 6)  # oversmoothing_probe's default layer_range


class TrainingDiverged(RuntimeError):
    """Raised when the loss leaves the reals; message says which epoch."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs but its graph: model, optimizer, seed, output;
    checked once, when built, and frozen (change it with dataclasses.replace)."""

    model: ModelConfig = field(default_factory=ModelConfig)
    lr: float = 0.01
    weight_decay: float = 0.0
    epochs: int = 400
    seed: int = 0
    out_dir: object = None

    def __post_init__(self):
        if not isinstance(self.model, ModelConfig):
            raise ValueError(f"model must be a ModelConfig, got {self.model!r}")
        _bind(self, epochs=check_integer("epochs", self.epochs),
              seed=check_integer("seed", self.seed), lr=check_real("lr", self.lr),
              weight_decay=check_real("weight_decay", self.weight_decay))
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        check_rates(self.lr, self.weight_decay)


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


def _config_dict(config):
    return {**asdict(config),
            "out_dir": None if config.out_dir is None else str(config.out_dir)}


def _check_splits(graph):
    """Reject an empty split: a run needs a loss, a selection criterion and
    a score. Each public call checks first, before its own refusals."""
    for name in SPLIT_NAMES:
        if len(graph.splits[name]) == 0:
            raise ValueError(f"the {name} split is empty; training needs nonempty "
                             "train, val and test splits")


def _check_drops_edges(adjacency, p, what):
    """Reject a rate p at which a draw drops no edge of `adjacency`: the
    arms `what` compares would be the same run."""
    if drop_count(adjacency, p) == 0:
        v = adjacency.nnz // 2
        raise ValueError(f"{what} needs a nonzero drop count: p={p} drops "
                         f"floor(V * p) = 0 of the V={v} edges")


def _check_finite(which, loss, epoch):
    if not math.isfinite(loss):
        raise TrainingDiverged(
            f"{which} loss became {loss} at epoch {epoch}; "
            "lower the learning rate or check the input data")


def _deterministic_step(mcfg, adjacency):
    """Whether a training step makes no random draw and trains on the same
    function evaluation applies: no edge dropped from `adjacency` (a drop
    count of 0), no feature dropout, no batch norm. Then a training forward
    computes, bit for bit, the logits of an evaluation forward on the same
    parameters."""
    return (drop_count(adjacency, mcfg.dropedge.p) == 0 and mcfg.dropout == 0.0
            and not mcfg.withbn)


# glibc's malloc serves a block above M_MMAP_THRESHOLD from a fresh mapping
# and hands the free top of its heap back to the system above
# M_TRIM_THRESHOLD. Both start low (128 KiB) and rise only after a large
# block is freed. An epoch allocates and frees arrays of several MB (2708 x
# 256 floats are 5.5 MB), and under low thresholds every epoch faults them
# in again. Measured on the Cora-shaped graph with the perfbench
# shallow-wide config (one BLAS thread, 2 vCPUs): about 2200 minor page
# faults per epoch and 35-40 epochs/s, against about 30 faults and 43-52
# epochs/s with these values, the highest the dynamic rule reaches (32 MB)
# and twice that.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory():
    """Have glibc's malloc keep freed blocks of up to 32 MB for reuse; a no-op
    where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _run(config, graph, full, keep_best):
    """The epoch loop on `full`, the call's one normalization of
    graph.adjacency. Returns (report, final_model, best_model_or_None).

    Per epoch: draw the propagation matrices; inside one tape run the
    training forward, the previous epoch's evaluation, the loss, its
    finiteness check, the training accuracy and backward (its parameter
    gradients computed on the worker); take the Adam step. Epoch e's
    evaluation logits come from epoch e+1's training forward when the step
    is deterministic (_deterministic_step: same parameters, same full
    matrix, no draws), else from the forward the worker started on the view
    of epoch e. The last epoch is evaluated inline. The pool goes to the
    training forward only on deterministic steps, and always to the Adam
    step and the last evaluation: nothing else is in flight on the worker
    then. Splitting a random step's forward too raised perfbench
    deep-layerwise peak RSS from 189-190 to 277-284 MB (3 pairs, one BLAS
    thread, 2 vCPUs), for epochs/s of 4.30-5.02 against 3.98-4.54 without,
    within the runs' spread. With keep_best, the best epoch's view
    (models.model_view, its batch-norm statistics included) is kept, valid
    since no update writes into an array, and copied once after the loop.
    """
    mcfg = config.model
    _keep_freed_memory()
    rng = np.random.default_rng(config.seed)
    model = build_model(mcfg, graph.n_features, graph.n_classes, rng)
    opt = AdamState(model.parameters(), lr=config.lr, weight_decay=config.weight_decay,
                    decay=model.decay_flags())
    train_idx = graph.splits["train"]
    val_idx = graph.splits["val"]
    test_idx = graph.splits["test"]
    labels = graph.labels
    eval_mats = [full] * model.n_gcls
    shared = _deterministic_step(mcfg, graph.adjacency)

    def eval_forward(view, pool=None):
        return forward(view, eval_mats, graph.x, training=False, keep_hidden=False,
                       pool=pool)[0]

    rows = []
    best = (-1.0, -1, -1.0, None)  # (val_acc, epoch, test_acc, view); earliest on ties

    def evaluate(logits, view, epoch, train_loss, train_acc):
        """Complete epoch `epoch`'s row from the logits of `view`, the model
        as that epoch left it, read through a constant so nothing is
        recorded; a new best keeps the view when keep_best."""
        nonlocal best
        logits = Tensor(logits.data)
        val_loss = softmax_cross_entropy(logits, labels, val_idx).item()
        _check_finite("validation", val_loss, epoch)
        val_acc = accuracy(logits, labels, val_idx)
        test_acc = accuracy(logits, labels, test_idx)
        rows.append({"epoch": epoch, "train_loss": train_loss, "train_acc": train_acc,
                     "val_loss": val_loss, "val_acc": val_acc, "test_acc": test_acc})
        if val_acc > best[0]:
            best = (val_acc, epoch, test_acc, view if keep_best else None)

    step = None     # (view, epoch, train loss, train accuracy) not yet evaluated
    pending = None  # the worker's evaluation forward of that view
    t0 = time.perf_counter()
    # One worker for the whole run; leaving the block joins it on every
    # exit path.
    with ThreadPoolExecutor(max_workers=1) as pool:
        for epoch in range(1, config.epochs + 1):
            mats = propagation_matrices(graph.adjacency, mcfg, model.n_gcls, rng, full)
            with Tape():
                # Without the hidden-state list, each layer's output is freed
                # once its last reader has read it; the tape keeps what
                # backward() needs.
                logits, _ = forward(model, mats, graph.x, training=True, rng=rng,
                                    keep_hidden=False, pool=pool if shared else None)
                if step is not None:
                    evaluate(logits if shared else pending.result(), *step)
                loss = softmax_cross_entropy(logits, labels, train_idx)
                loss_val = loss.item()
                _check_finite("training", loss_val, epoch)
                train_acc = accuracy(logits, labels, train_idx)
                backward(loss, pool)
            adam_step(opt, pool)
            clear_grads(model.parameters())

            step = (model_view(model), epoch, loss_val, train_acc)
            if epoch == config.epochs:
                evaluate(eval_forward(step[0], pool), *step)
            elif not shared:
                pending = pool.submit(eval_forward, step[0])
    wall = time.perf_counter() - t0

    val_acc, best_epoch, test_acc, best_view = best
    report = RunReport(rows=rows, best_epoch=best_epoch, val_acc=val_acc,
                       test_acc=test_acc, wall_seconds=wall, config=_config_dict(config))
    return report, model, None if best_view is None else copy_model(best_view)


def train(config, graph, keep_best_model=False):
    """One full-batch run on `graph`; returns the RunReport (writes out_dir files).

    With keep_best_model=True the parameters at the best validation epoch
    are snapshotted and saved to out_dir/model.npz; config.out_dir must then
    be set.

    Under glibc this changes malloc settings of the whole calling process,
    for good: it fixes the mmap threshold at 32 MB and the trim threshold at
    64 MB (see _keep_freed_memory), as do the probe and ablation runs.
    """
    _check_splits(graph)
    if keep_best_model and config.out_dir is None:
        raise ValueError("keep_best_model saves the best model to out_dir/model.npz; "
                         "set config.out_dir")
    full = normalize(graph.adjacency, config.model.scheme)
    report, _, best_snapshot = _run(config, graph, full, keep_best_model)
    if config.out_dir is not None:
        write_report(report, config.out_dir)
        if best_snapshot is not None:
            save_model(best_snapshot, Path(config.out_dir) / "model.npz")
    return report


# -- over-smoothing probe ----------------------------------------------


def oversmoothing_probe(config, graph, layer_range=PROBE_LAYERS):
    """Measure layer-to-layer distances on a fresh model, train it for
    config.epochs, and measure the final model again.

    Returns the probe.json fields, {"config", "layer_range": [lo, hi],
    "before", "after"}, and writes them under config.out_dir when it is
    set. `before` and `after` each map: "layer_distance" to {l: ||H^(l) -
    H^(l-1)||_F} over the probed range, then spectral.smoothing_probe's
    fields: "subspace_distance" to the per-GCL d_M values, the relaxed bound
    l_hat (0 when the first distance is 0, None when the bound never
    contracts), the empirical crossing l_star (None when never reached), and
    the filters' top singular value s.

    Both measurements draw propagation matrices through the model's
    edge-drop settings (that effect is the thing observed) but keep feature
    dropout off and batch statistics frozen, so a measurement on a frozen
    model is a pure function of the sampler state. Needs a symmetric scheme,
    whose top eigenspace spectral.top_eigenspace gives in closed form, and
    probed layers that form a chain: each layer l in the range reads layer
    l-1. Splits are checked first, and every refusal precedes normalizing.
    """
    _check_splits(graph)
    if len(layer_range) != 2:
        raise ValueError(f"layer_range must be a pair (lo, hi), got {layer_range!r}")
    lo, hi = (check_integer(f"layer_range[{i}]", v) for i, v in enumerate(layer_range))
    mcfg = config.model
    if mcfg.scheme not in SYMMETRIC_SCHEMES:
        raise ValueError(f"probe needs a symmetric scheme, got {mcfg.scheme!r}")
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
    basis = spectral.top_eigenspace(graph.adjacency, mcfg.scheme)
    lam = spectral.analyze(a_hat).second_largest

    def measured(model):
        mats = propagation_matrices(graph.adjacency, mcfg, model.n_gcls, rng, a_hat)
        _, hidden = forward(model, mats, graph.x, training=False)
        diffs = {l: float(np.linalg.norm(hidden[l - 1].data - hidden[l - 2].data))
                 for l in range(lo, hi + 1)}
        return {"layer_distance": diffs,
                **spectral.smoothing_probe(hidden, basis, lam, sup_singular_value(model),
                                           spectral.SMOOTHING_EPSILON)}

    before = measured(fresh)
    _, trained, _ = _run(config, graph, a_hat, keep_best=False)
    report = {"config": _config_dict(config), "layer_range": [lo, hi], "before": before,
              "after": measured(trained)}
    if config.out_dir is not None:
        write_json(Path(config.out_dir) / "probe.json", report)
    return report


# -- ablations ---------------------------------------------------------


def _run_arms(config, graph, **arms):
    """Train `config` once per arm, changed as that arm says: "dropout" sets
    the model's feature dropout, any other key a field of its DropEdgeConfig;
    no arm changes the scheme, so all share the one normalization made here.
    Returns {arm: RunReport}. Once every arm has finished, and when
    config.out_dir is set, writes each arm's metrics.csv and summary.json
    under out_dir/<arm>/ and every arm's summary to out_dir/summary.json."""
    full = normalize(graph.adjacency, config.model.scheme)
    reports = {}
    for name, change in arms.items():
        mcfg = replace(config.model, dropout=change.pop("dropout", config.model.dropout),
                       dropedge=replace(config.model.dropedge, **change))
        reports[name] = _run(replace(config, model=mcfg, out_dir=None), graph, full,
                             keep_best=False)[0]
    if config.out_dir is not None:
        out = Path(config.out_dir)
        for name, report in reports.items():
            write_report(report, out / name)
        write_json(out / "summary.json", {name: r.summary() for name, r in reports.items()})
    return reports


def ablate_dropout_dropedge(config, graph):
    """Train the four on/off combinations of the configured feature dropout
    and edge dropping, all from the same seed; "both" is `config` itself.
    Returns {"neither", "dropout", "dropedge", "both"} -> RunReport. Requires
    a nonzero dropout and a p that drops at least one edge, else an arm
    would repeat another."""
    _check_splits(graph)
    if config.model.dropout == 0.0:
        raise ValueError("the dropout/edge-drop ablation needs a nonzero dropout rate")
    _check_drops_edges(graph.adjacency, config.model.dropedge.p,
                       "the dropout/edge-drop ablation")
    return _run_arms(config, graph, neither={"dropout": 0.0, "p": 0.0},
                     dropout={"p": 0.0}, dropedge={"dropout": 0.0}, both={})


def ablate_layerwise(config, graph):
    """One-shot versus per-layer edge dropping at the configured rate.

    Returns {"oneshot", "layerwise"} -> RunReport; requires a p that drops
    at least one edge, else both arms would be the same run.
    """
    _check_splits(graph)
    _check_drops_edges(graph.adjacency, config.model.dropedge.p, "the layer-wise ablation")
    return _run_arms(config, graph, oneshot={"layer_wise": False},
                     layerwise={"layer_wise": True})
