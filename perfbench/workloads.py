"""The four workloads, their operations, correctness checks and metrics.

An operation is one training run or one spectral call. It fails when it
raises or fails a correctness check. Operations run in rounds (one training
run, or the three spectral calls in order) in a closed loop: a new round
starts only when the previous one would still fit in the time left, and
an untraced run makes at least two rounds, so repeats can be compared.
"""

import hashlib
import math
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from dropgcn import autodiff, graph as graph_mod, sparsemat, spectral, training
from dropgcn.dropedge import DropEdgeConfig
from dropgcn.models import ModelConfig
from dropgcn.training import TrainConfig

import cora_shaped
from tracing import ATTRS, NAME, START, Totals

# Read the tape through the original accessor, so reading it adds no span.
active_tape = autodiff.active_tape


@dataclass(frozen=True)
class Size:
    """Input sizes: the Cora-shaped graph and the two small spectral graphs
    (nodes, undirected edges)."""

    graph: cora_shaped.Shape
    trajectory: tuple
    resistance: tuple
    load_repeats: int


FULL = Size(cora_shaped.CORA, trajectory=(200, 588), resistance=(600, 1500), load_repeats=7)
TINY = Size(cora_shaped.TINY, trajectory=(24, 48), resistance=(40, 90), load_repeats=2)
SIZES = {"full": FULL, "tiny": TINY}


def _shallow_wide(seed, out_dir, epochs):
    return TrainConfig(
        model=ModelConfig(backbone="gcn", n_layers=2, hidden_dim=128, dropout=0.8,
                          scheme="FirstOrderGCN",
                          dropedge=DropEdgeConfig(p=0.3, scheme="FirstOrderGCN")),
        lr=0.01, weight_decay=5e-3, epochs=epochs, seed=seed, out_dir=out_dir)


def _deep(p, layer_wise):
    def config(seed, out_dir, epochs):
        return TrainConfig(
            model=ModelConfig(backbone="gcn", n_layers=8, hidden_dim=256, dropout=0.0,
                              scheme="AugNormAdj",
                              dropedge=DropEdgeConfig(p=p, layer_wise=layer_wise)),
            lr=0.005, weight_decay=5e-4, epochs=epochs, seed=seed, out_dir=out_dir)
    return config


# Wrapped functions every workload calls on its load path.
_LOAD = ("graph.load_graph_dir", "graph.load_graph", "sparsemat.SparseMatrix")
# Wrapped functions every training run calls, whatever its config.
_TRAIN = _LOAD + (
    "sparsemat.normalize", "sparsemat.degrees", "dropedge.propagation_matrices",
    "autodiff.spmm", "autodiff.matmul", "autodiff.relu", "autodiff.add_bias",
    "autodiff.dropout", "autodiff.softmax_cross_entropy", "autodiff.backward",
    "autodiff.clear_grads", "models.build_model", "models.forward", "models.gcl_forward",
    "models.accuracy", "models.copy_model", "models.save_model", "optim.glorot_init",
    "optim.adam_step", "training.train", "training.write_report")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # "train" or "spectral"
    expects: tuple               # wrapped names the layer map expects to be called
    config: object = None        # (seed, out_dir, epochs) -> TrainConfig
    epochs: int = 0              # per training run
    test_acc_floor: float = None


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("shallow-wide", "train", _TRAIN + ("dropedge.sample",), _shallow_wide,
             epochs=16,
             # 7 classes: chance is about 1/7; the generated features and
             # graph carry enough signal for a 2-layer gcn to pass 0.5 fast.
             test_acc_floor=0.5),
    Workload("deep-layerwise", "train",
             _TRAIN + ("dropedge.sample", "dropedge.sample_layerwise"),
             _deep(0.8, True), epochs=6),
    Workload("deep-nodrop", "train", _TRAIN, _deep(0.0, False), epochs=6),
    Workload("spectral", "spectral",
             _LOAD + ("sparsemat.normalize", "sparsemat.degrees",
                      "sparsemat.connected_components", "spectral.analyze",
                      "spectral.theorem1_trajectory", "spectral.verify_resistance_bound",
                      "spectral.relaxed_smoothing_layer")),
)}

# (name, unit, better), as in BENCHMARK.json. Every workload reports every
# one, so each must mean something, and never 0, on all four workloads.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# Printed per workload, next to the end-to-end set, by name and unit.
DETAIL = {
    "train": (("epochs_per_s", "1/s"), ("error_rate", "ratio")),
    "spectral": (("analyze_s", "s"), ("trajectory_steps_per_s", "1/s"),
                 ("resistance_pairs_per_s", "1/s"), ("error_rate", "ratio")),
}

PER_LAYER = (
    ("graph.load_graph_dir.ms", "ms", "lower"),
    ("graph.input_bytes", "bytes", "lower"),
    ("sparsemat.SparseMatrix.calls_per_epoch", "count", "lower"),
    ("sparsemat.SparseMatrix.self_ms_per_epoch", "ms", "lower"),
    ("sparsemat.normalize.calls_per_epoch", "count", "lower"),
    ("sparsemat.normalize.self_ms_per_epoch", "ms", "lower"),
    ("sparsemat.connected_components.ms", "ms", "lower"),
    ("dropedge.propagation_matrices.ms_per_epoch", "ms", "lower"),
    ("dropedge.sample.calls_per_epoch", "count", "lower"),
    ("dropedge.sample.self_ms_per_epoch", "ms", "lower"),
    ("dropedge.edges_kept_ratio", "ratio", "higher"),
    ("dropedge.distinct_matrices_per_epoch", "count", "lower"),
    ("autodiff.spmm.self_ms_per_epoch", "ms", "lower"),
    ("autodiff.spmm.flops_per_epoch", "flop_computed", "lower"),
    ("autodiff.matmul.self_ms_per_epoch", "ms", "lower"),
    ("autodiff.matmul.flops_per_epoch", "flop_computed", "lower"),
    ("autodiff.dropout.self_ms_per_epoch", "ms", "lower"),
    ("autodiff.dropout.draws_per_epoch", "count", "lower"),
    ("autodiff.backward.ms_per_epoch", "ms", "lower"),
    ("autodiff.softmax_cross_entropy.ms_per_epoch", "ms", "lower"),
    ("autodiff.tape_entries_per_step", "count", "lower"),
    ("autodiff.tape_entries_left", "count", "lower"),
    ("models.forward.train_self_ms_per_epoch", "ms", "lower"),
    ("models.forward.eval_self_ms_per_epoch", "ms", "lower"),
    ("models.copy_model.calls", "count", "lower"),
    ("models.copy_model.ms", "ms", "lower"),
    ("optim.adam_step.ms_per_epoch", "ms", "lower"),
    ("training.epoch_ms.p50", "ms", "lower"),
    ("training.epoch_ms.p90", "ms", "lower"),
    ("training.epoch_ms.samples", "count", "higher"),
    ("training.write_report.ms", "ms", "lower"),
    ("training.tracing_overhead", "ratio", "lower"),
    ("spectral.analyze.calls", "count", "lower"),
    ("spectral.analyze.self_ms", "ms", "lower"),
    ("spectral.analyze.order", "count", "lower"),
    ("spectral.theorem1_trajectory.steps", "count", "higher"),
    ("spectral.verify_resistance_bound.pairs", "count", "higher"),
    ("bench.uncalled_wrappers", "count", "lower"),
)


@dataclass
class Op:
    """One finished (or failed) operation."""

    kind: str
    wall: float = 0.0
    work: int = 0                # epochs, trajectory steps or node pairs
    digest: str = ""
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


# -- operations ----------------------------------------------------------


def _sha256(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def train_op(workload, graph, seed, out_dir):
    """One training run as `dropgcn train` makes it; checks its output."""
    cfg = workload.config(seed, out_dir, workload.epochs)
    t0 = perf_counter()
    report = training.train(cfg, graph=graph, keep_best_model=True)
    op = Op("train", wall=perf_counter() - t0, work=len(report.rows))
    op.digest = _sha256((out_dir / "metrics.csv").read_bytes())
    op.info = {"tape_left": len(active_tape().entries)}
    losses = [row[c] for row in report.rows for c in ("train_loss", "val_loss")]
    if not all(math.isfinite(x) for x in losses):
        op.problems.append("non-finite loss in metrics.csv")
    if workload.test_acc_floor is not None and report.test_acc < workload.test_acc_floor:
        op.problems.append(f"test_acc {report.test_acc:.4f} below floor "
                           f"{workload.test_acc_floor}")
    shutil.rmtree(out_dir)
    return op


def analyze_op(a_hat):
    t0 = perf_counter()
    rep = spectral.analyze(a_hat)
    op = Op("analyze", wall=perf_counter() - t0, work=1)
    op.digest = _sha256(rep.eigenvalues.tobytes(), rep.top_multiplicity, rep.component_count)
    op.info = {"order": a_hat.n_rows}
    if rep.top_multiplicity != rep.component_count:
        op.problems.append(f"top multiplicity {rep.top_multiplicity} != "
                           f"{rep.component_count} components (BFS)")
    return op


def trajectory_op(a, seed):
    t0 = perf_counter()
    rep = spectral.theorem1_trajectory(a, seed)
    op = Op("trajectory", wall=perf_counter() - t0, work=len(rep.steps) - 1)
    op.digest = _sha256([(s.removed_edge, s.n_components, s.top_multiplicity,
                          s.second_largest) for s in rep.steps])
    if not rep.multiplicity_tracks_components:
        op.problems.append("trajectory: multiplicity does not track components")
    if not rep.disjunction_holds:
        op.problems.append("trajectory: disjunction flag does not hold")
    return op


def resistance_op(a):
    t0 = perf_counter()
    rep = spectral.verify_resistance_bound(a)
    op = Op("resistance", wall=perf_counter() - t0, work=rep.n_pairs)
    op.digest = _sha256(rep.second_largest, rep.n_pairs, rep.worst_margin, rep.worst_pair)
    if not rep.holds:
        op.problems.append(f"resistance bound violated on {len(rep.violations)} pairs")
    return op


def load(data_dir):
    t0 = perf_counter()
    g = graph_mod.load_graph_dir(data_dir)
    return g, perf_counter() - t0


class Runner:
    """Runs one workload's rounds against one loaded graph and keeps every
    Op, checking that repeats of an operation give the same digest."""

    def __init__(self, workload, graph, seed, size, work_dir):
        self.work_dir = work_dir
        self.reference = {}          # kind -> digest of its first run
        self.pending = []            # problems hooks found during the running op
        self.n_train = 0
        if workload.kind == "train":
            self.round = [lambda: train_op(workload, graph, seed, self._out_dir())]
        else:
            a_hat = sparsemat.normalize(graph.adjacency, "AugNormAdj")
            traj = cora_shaped.connected_graph(seed, *size.trajectory)
            res = cora_shaped.connected_graph(seed, *size.resistance)
            self.round = [lambda: analyze_op(a_hat),
                          lambda: trajectory_op(traj, seed),
                          lambda: resistance_op(res)]

    def _out_dir(self):
        self.n_train += 1
        return self.work_dir / f"run-{self.n_train}"

    def _run_one(self, make_op):
        try:
            op = make_op()
        except Exception as exc:  # an operation that raises counts as failed
            op = Op("error", problems=[f"{type(exc).__name__}: {exc}"])
        op.problems += dict.fromkeys(self.pending)  # each distinct problem once
        self.pending.clear()
        ref = self.reference.setdefault(op.kind, op.digest)
        if op.digest != ref:
            op.problems.append(f"{op.kind}: output digest {op.digest[:16]} differs "
                               f"from the first run's {ref[:16]}")
        return op

    def rounds(self, seconds, min_rounds):
        """Closed loop: round after round while the last round's duration
        still fits in `seconds`; at least `min_rounds` rounds."""
        ops = []
        t_start = perf_counter()
        n = 0
        while True:
            t0 = perf_counter()
            ops += [self._run_one(make) for make in self.round]
            n += 1
            now = perf_counter()
            if n >= min_rounds and now + (now - t0) > t_start + seconds:
                return ops


# -- metrics -------------------------------------------------------------


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _rate(ops, kind):
    """Median of work/wall over the successful ops of one kind."""
    return _median([op.work / op.wall for op in ops
                    if op.kind == kind and not op.problems and op.wall > 0])


def work_per_s(kind, ops):
    """Training: epochs per second of train() wall time. Spectral: rounds
    per second, one round being one call of each of the three analyses."""
    if kind == "train":
        return _rate(ops, "train")
    walls = [_median([op.wall for op in ops if op.kind == k and not op.problems])
             for k in ("analyze", "trajectory", "resistance")]
    return 1.0 / sum(walls) if all(walls) else 0.0


def detail_metrics(kind, ops):
    ok = [op for op in ops if not op.problems]
    out = {"error_rate": (len(ops) - len(ok)) / len(ops)}
    if kind == "train":
        out["epochs_per_s"] = _rate(ops, "train")
    else:
        out["analyze_s"] = _median([op.wall for op in ok if op.kind == "analyze"])
        out["trajectory_steps_per_s"] = _rate(ops, "trajectory")
        out["resistance_pairs_per_s"] = _rate(ops, "resistance")
    return out


def _percentile(xs, q):
    """Nearest-rank percentile, 0 for no samples."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[max(0, math.ceil(q / 100.0 * len(xs)) - 1)]


def epoch_times_ms(spans):
    """Per-epoch wall times: an epoch runs from its propagation_matrices call
    (one per epoch in the training loop) to the next one, the last epoch of a
    run to the start of that run's write_report."""
    out, starts = [], []
    for span in spans:
        if span[NAME] == "dropedge.propagation_matrices":
            starts.append(span[START])
        elif span[NAME] == "training.write_report":
            starts.append(span[START])
            out += [1000.0 * (b - a) for a, b in zip(starts, starts[1:])]
            starts = []
    return out


def layer_metrics(workload, tracer, load_tracer, ops, input_bytes, tracing_overhead):
    """Every PER_LAYER metric from the spans of the traced phase."""
    spans = tracer.spans
    tot = Totals(spans)
    epochs = sum(op.work for op in ops if op.kind == "train")
    runs = sum(1 for op in ops if op.kind == "train")
    rounds = sum(1 for op in ops if op.kind == "analyze")

    def per(x, n):
        return x / n if n else 0.0

    def attrs(name, key):
        return [s[ATTRS][key] for s in spans
                if s[NAME] == name and s[ATTRS] and key in s[ATTRS]]

    kept = attrs("dropedge.sample", "kept")
    distinct = attrs("dropedge.propagation_matrices", "distinct")
    epoch_ms = epoch_times_ms(spans)
    traj = [op.work for op in ops if op.kind == "trajectory"]
    pairs = [op.work for op in ops if op.kind == "resistance"]
    orders = [op.info["order"] for op in ops if op.kind == "analyze"]
    uncalled = [name for name in workload.expects
                if not tracer.calls[name] and not load_tracer.calls[name]]
    def per_epoch(x):
        return per(x, epochs)

    m = {
        "graph.load_graph_dir.ms": Totals(load_tracer.spans).ms("graph.load_graph_dir"),
        "graph.input_bytes": input_bytes,
        "sparsemat.SparseMatrix.calls_per_epoch": per_epoch(tot.count("sparsemat.SparseMatrix")),
        "sparsemat.SparseMatrix.self_ms_per_epoch":
            per_epoch(tot.self_ms("sparsemat.SparseMatrix")),
        "sparsemat.normalize.calls_per_epoch": per_epoch(tot.count("sparsemat.normalize")),
        "sparsemat.normalize.self_ms_per_epoch": per_epoch(tot.self_ms("sparsemat.normalize")),
        "sparsemat.connected_components.ms": per(tot.ms("sparsemat.connected_components"), rounds),
        "dropedge.propagation_matrices.ms_per_epoch":
            per_epoch(tot.ms("dropedge.propagation_matrices")),
        "dropedge.sample.calls_per_epoch": per_epoch(tot.count("dropedge.sample")),
        "dropedge.sample.self_ms_per_epoch": per_epoch(tot.self_ms("dropedge.sample")),
        "dropedge.edges_kept_ratio": _median(kept),
        "dropedge.distinct_matrices_per_epoch": statistics.fmean(distinct) if distinct else 0.0,
        "autodiff.spmm.self_ms_per_epoch": per_epoch(tot.self_ms("autodiff.spmm")),
        "autodiff.spmm.flops_per_epoch": per_epoch(sum(attrs("autodiff.spmm", "flops"))),
        "autodiff.matmul.self_ms_per_epoch": per_epoch(tot.self_ms("autodiff.matmul")),
        "autodiff.matmul.flops_per_epoch": per_epoch(sum(attrs("autodiff.matmul", "flops"))),
        "autodiff.dropout.self_ms_per_epoch": per_epoch(tot.self_ms("autodiff.dropout")),
        "autodiff.dropout.draws_per_epoch": per_epoch(sum(attrs("autodiff.dropout", "draws"))),
        "autodiff.backward.ms_per_epoch": per_epoch(tot.ms("autodiff.backward")),
        "autodiff.softmax_cross_entropy.ms_per_epoch":
            per_epoch(tot.ms("autodiff.softmax_cross_entropy")),
        "autodiff.tape_entries_per_step": _median(attrs("autodiff.backward", "tape")),
        "autodiff.tape_entries_left": max((op.info.get("tape_left", 0) for op in ops), default=0),
        "models.forward.train_self_ms_per_epoch": per_epoch(tot.self_ms("models.forward.train")),
        "models.forward.eval_self_ms_per_epoch": per_epoch(tot.self_ms("models.forward.eval")),
        "models.copy_model.calls": per(tot.count("models.copy_model"), runs),
        "models.copy_model.ms": per(tot.ms("models.copy_model"), runs),
        "optim.adam_step.ms_per_epoch": per_epoch(tot.ms("optim.adam_step")),
        "training.epoch_ms.p50": _percentile(epoch_ms, 50),
        "training.epoch_ms.p90": _percentile(epoch_ms, 90),
        "training.epoch_ms.samples": len(epoch_ms),
        "training.write_report.ms":
            per(tot.ms("training.write_report"), tot.count("training.write_report")),
        "training.tracing_overhead": tracing_overhead,
        "spectral.analyze.calls": per(tot.count("spectral.analyze"), rounds),
        "spectral.analyze.self_ms": per(tot.self_ms("spectral.analyze"), rounds),
        "spectral.analyze.order": max(orders, default=0),
        "spectral.theorem1_trajectory.steps": _median(traj),
        "spectral.verify_resistance_bound.pairs": _median(pairs),
        "bench.uncalled_wrappers": len(uncalled),
    }
    return m, uncalled


# -- hooks: counts recorded at the wrapped boundaries ----------------------


def _set(span, **attrs):
    span[ATTRS] = {**(span[ATTRS] or {}), **attrs}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def make_hooks(problems):
    """Hooks for Tracer: name -> (pre, post). A draw whose size breaks the
    sampler's contract is reported in `problems` (a Runner's `pending`)."""

    def spmm(span, args, kwargs, out):
        a, h = args[0], args[1]
        _set(span, flops=2 * a.nnz * h.shape[1])

    def matmul(span, args, kwargs, out):
        (m, k), n = args[0].shape, args[1].shape[1]
        _set(span, flops=2 * m * k * n)

    def dropout(span, args, kwargs, out):
        x, rate = args[0], _arg(args, kwargs, 1, "rate")
        if _arg(args, kwargs, 3, "training") and rate > 0.0:
            _set(span, draws=x.data.size)

    def backward_pre(span, args, kwargs):
        _set(span, tape=len(active_tape().entries))

    def forward(span, args, kwargs, out):
        span[NAME] += ".train" if _arg(args, kwargs, 3, "training", False) else ".eval"

    def sample(span, args, kwargs, out):
        a, p = args[0], _arg(args, kwargs, 1, "p")
        n_edges = a.nnz // 2
        want = a.nnz - 2 * int(np.floor(n_edges * p))
        if out.nnz != want:
            problems.append(f"sample: draw has nnz {out.nnz}, expected {want}")
        _set(span, kept=(out.nnz // 2) / n_edges if n_edges else 0.0)

    def propagation(span, args, kwargs, out):
        if _arg(args, kwargs, 4, "training"):
            _set(span, distinct=len({id(m) for m in out}))

    return {
        "autodiff.spmm": (None, spmm),
        "autodiff.matmul": (None, matmul),
        "autodiff.dropout": (None, dropout),
        "autodiff.backward": (backward_pre, None),
        "models.forward": (None, forward),
        "dropedge.sample": (None, sample),
        "dropedge.propagation_matrices": (None, propagation),
    }
