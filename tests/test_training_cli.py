"""Training loop behaviour, probe/ablation drivers, and the command line."""

import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dropgcn import (BACKBONES, DropEdgeConfig, Graph, ModelConfig, TrainConfig,
                     TrainingDiverged, accuracy, forward, load_model,
                     normalize, oversmoothing_probe, softmax_cross_entropy,
                     synthetic_sbm, train)
from dropgcn import autodiff, cli, dropedge, models, sparsemat, spectral, training
from dropgcn import graph as graph_module
from dropgcn.autodiff import Tape, active_tape
from dropgcn.graph import adjacency_from_pairs, save_graph
from dropgcn.training import (ablate_dropout_dropedge, ablate_layerwise,
                              write_json, write_report)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def sbm():
    return synthetic_sbm(n_nodes=60, n_blocks=3, p_intra=0.4, p_inter=0.04,
                         n_features=8, seed=5)


def small_config(seed=0, epochs=20, p=0.0, **model_kw):
    model_kw.setdefault("hidden_dim", 16)
    mcfg = ModelConfig(dropedge=DropEdgeConfig(p=p), **model_kw)
    return TrainConfig(model=mcfg, lr=0.01, epochs=epochs, seed=seed)


@pytest.fixture(scope="module")
def bow(sbm):
    """The sbm graph with bag-of-words features: 2-3 words of 60 per node."""
    rng = np.random.default_rng(9)
    words = np.zeros((sbm.n_nodes, 60))
    for i, block in enumerate(sbm.labels):
        words[i, rng.choice(20, size=2, replace=False) + 20 * block] = 1.0
        words[i, rng.integers(60)] = 1.0
    features = words / words.sum(axis=1, keepdims=True)
    return Graph(sbm.n_nodes, sbm.adjacency, features, sbm.labels, sbm.splits)


class TestTrain:
    def test_report_shape(self, sbm):
        report = train(small_config(epochs=15), graph=sbm)
        assert len(report.rows) == 15
        assert [r["epoch"] for r in report.rows] == list(range(1, 16))
        for row in report.rows:
            assert 0.0 <= row["train_acc"] <= 1.0
            assert 0.0 <= row["val_acc"] <= 1.0
            assert math.isfinite(row["train_loss"])

    def test_learns_the_blocks(self, sbm):
        report = train(small_config(epochs=60), graph=sbm)
        assert report.test_acc >= 0.7

    def test_same_seed_same_bytes(self, sbm):
        a = train(small_config(seed=3, epochs=12, p=0.4, dropout=0.3), graph=sbm)
        b = train(small_config(seed=3, epochs=12, p=0.4, dropout=0.3), graph=sbm)
        assert a.to_csv() == b.to_csv()

    def test_same_bytes_in_two_processes(self, tmp_path):
        # Bytes reproduce per (config, seed, BLAS build, BLAS thread count);
        # both processes pin the same count, one and then two threads. Both
        # runs compute their parameter gradients on the worker thread; the
        # random one (dropout, p > 0) also evaluates each epoch there while
        # the next one trains.
        script = (
            "import sys\n"
            "from dropgcn import DropEdgeConfig, ModelConfig, TrainConfig, synthetic_sbm, train\n"
            "g = synthetic_sbm(n_nodes=60, n_blocks=3, p_intra=0.4, p_inter=0.04,\n"
            "                  n_features=8, seed=5)\n"
            "model = ModelConfig(n_layers=3, hidden_dim=16, dropout=float(sys.argv[2]),\n"
            "                    dropedge=DropEdgeConfig(p=float(sys.argv[3])))\n"
            "train(TrainConfig(model=model, epochs=12, seed=3, out_dir=sys.argv[1]), graph=g)\n")
        for rates, threads in [(r, t) for r in ((0.3, 0.4), (0.0, 0.0)) for t in ("1", "2")]:
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            csvs = []
            for tag in ("a", "b"):
                out_dir = tmp_path / f"{rates[1]}-{threads}{tag}"
                out = subprocess.run([sys.executable, "-W", "error", "-c", script,
                                      str(out_dir), *map(str, rates)], env=env,
                                     capture_output=True, text=True, timeout=300)
                assert out.returncode == 0, out.stderr[-2000:]
                csvs.append((out_dir / "metrics.csv").read_bytes())
            assert csvs[0] == csvs[1], f"rates {rates}, {threads} BLAS threads"

    def test_different_seed_differs(self, sbm):
        a = train(small_config(seed=3, epochs=12, p=0.4), graph=sbm)
        b = train(small_config(seed=4, epochs=12, p=0.4), graph=sbm)
        assert a.to_csv() != b.to_csv()

    def test_best_epoch_is_earliest_maximum(self, sbm):
        report = train(small_config(epochs=40, p=0.3), graph=sbm)
        vals = [r["val_acc"] for r in report.rows]
        top = max(vals)
        assert report.val_acc == top
        assert report.best_epoch == vals.index(top) + 1
        assert report.test_acc == report.rows[report.best_epoch - 1]["test_acc"]

    def test_best_model_snapshot_reproduces_val_acc(self, sbm, tmp_path):
        cfg = replace(small_config(epochs=25, p=0.3), out_dir=tmp_path / "run")
        report = train(cfg, graph=sbm, keep_best_model=True)
        model = load_model(tmp_path / "run" / "model.npz")
        mats = [normalize(sbm.adjacency, cfg.model.scheme)] * model.n_gcls
        logits, _ = forward(model, mats, sbm.features, training=False)
        assert accuracy(logits, sbm.labels, sbm.splits["val"]) == report.val_acc

    def test_divergence_reports_epoch(self, sbm):
        bad = sbm.features.copy()
        bad[0, 0] = np.nan
        poisoned = Graph(sbm.n_nodes, sbm.adjacency, bad, sbm.labels, sbm.splits)
        with pytest.raises(TrainingDiverged, match="epoch 1"):
            train(small_config(epochs=5), graph=poisoned)
        # The run raised between its forward pass and backward(); its tape
        # must be closed, so the next step can open one.
        with Tape():
            pass

    def test_validation_divergence_reports_epoch(self, sbm, monkeypatch):
        # Training stays finite; only the third epoch's validation loss is not.
        real = training.softmax_cross_entropy
        val_calls = []

        def poisoned(logits, labels, mask):
            loss = real(logits, labels, mask)
            if mask is sbm.splits["val"]:
                val_calls.append(mask)
                if len(val_calls) == 3:
                    loss.data[...] = np.inf
            return loss

        monkeypatch.setattr(training, "softmax_cross_entropy", poisoned)
        with pytest.raises(TrainingDiverged, match="validation loss became inf at epoch 3"):
            train(small_config(epochs=5), graph=sbm)

    def test_sparse_input_path_matches_dense(self, bow, monkeypatch):
        # Without dropout both paths consume the same random stream, so the
        # runs agree up to rounding; the dense one is forced by building the
        # same graph with the sparse switch at density 0.
        assert sp.issparse(bow.x)
        cfg = small_config(epochs=15, p=0.3, withloop=True)
        sparse_rows = train(cfg, graph=bow).rows
        monkeypatch.setattr(graph_module, "SPARSE_INPUT_DENSITY", 0.0)
        dense = Graph(bow.n_nodes, bow.adjacency, bow.features, bow.labels, bow.splits)
        assert not sp.issparse(dense.x)
        dense_rows = train(cfg, graph=dense).rows
        for got, want in zip(sparse_rows, dense_rows):
            for key in ("train_loss", "val_loss"):
                assert got[key] == pytest.approx(want[key], rel=1e-9)
            for key in ("train_acc", "val_acc", "test_acc"):
                assert got[key] == want[key]

    def test_sparse_input_with_dropout_learns(self, bow):
        a = train(small_config(epochs=60, p=0.3, dropout=0.5), graph=bow)
        assert a.test_acc >= 0.7
        assert a.to_csv() == train(small_config(epochs=60, p=0.3, dropout=0.5),
                                   graph=bow).to_csv()

    def test_sparse_input_epoch_builds_two_sparse_matrices(self, bow, monkeypatch):
        # One edge draw and its normalization per epoch; the sparse input's
        # dropout goes from CSR to CSR without a SparseMatrix.
        built = []
        init = sparsemat.SparseMatrix.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(sparsemat.SparseMatrix, "__init__", counting)
        counts = {}
        for epochs in (3, 7):
            built.clear()
            train(small_config(epochs=epochs, p=0.3, dropout=0.5), graph=bow)
            counts[epochs] = len(built)
        assert (counts[7] - counts[3]) / 4 == 2

    def test_sampler_runs_once_per_epoch(self, sbm, monkeypatch):
        calls = []
        orig = dropedge.sample

        def spy(a, p, rng):
            calls.append(p)
            return orig(a, p, rng)

        monkeypatch.setattr(dropedge, "sample", spy)
        train(small_config(epochs=7, p=0.4, n_layers=3), graph=sbm)
        # One draw per epoch, shared across the 3 layers; evaluation never draws.
        assert len(calls) == 7

        calls.clear()
        cfg = small_config(epochs=7, n_layers=3)
        drop = DropEdgeConfig(p=0.4, layer_wise=True)
        train(replace(cfg, model=replace(cfg.model, dropedge=drop)), graph=sbm)
        assert len(calls) == 7 * 3

        calls.clear()
        train(small_config(epochs=7, p=0.0), graph=sbm)
        assert calls == []

    def test_p_zero_normalizes_once_per_run(self, sbm, monkeypatch):
        calls = []

        def spy(module):
            orig = module.normalize

            def counted(a, scheme):
                calls.append(module.__name__)
                return orig(a, scheme)

            monkeypatch.setattr(module, "normalize", counted)

        spy(dropedge)
        spy(training)
        before = train(small_config(epochs=7, p=0.0), graph=sbm).to_csv()
        assert calls == ["dropgcn.training"]
        monkeypatch.undo()
        # Bit-identical to re-normalizing every epoch: same function, same input.
        real = dropedge.propagation_matrices

        def fresh_full(a, config, n_layers, rng, full):
            return real(a, config, n_layers, rng, normalize(a, config.scheme))

        monkeypatch.setattr(training, "propagation_matrices", fresh_full)
        assert before == train(small_config(epochs=7, p=0.0), graph=sbm).to_csv()

    def test_draws_do_not_re_sort_the_adjacency(self, sbm, monkeypatch):
        # The Graph's adjacency check found its transpose twins once; every
        # draw's edge ids reuse them, and each draw inherits its own, so the
        # symmetry check of its normalization sorts nothing either.
        sorts = []
        real = np.argsort

        def counted(a, *args, **kw):
            sorts.append(a is sbm.adjacency.col_indices)
            return real(a, *args, **kw)

        monkeypatch.setattr(np, "argsort", counted)
        for layer_wise in (False, True):
            cfg = small_config(epochs=5, n_layers=3)
            drop = DropEdgeConfig(p=0.4, layer_wise=layer_wise)
            train(replace(cfg, model=replace(cfg.model, dropedge=drop)), graph=sbm)
        assert sorts == []

    def test_configs_are_frozen_and_replace_checks_again(self):
        # Assigning a field used to skip every check: backbone="GCN" built an
        # incepgcn wiring, n_layers=1 a gcn below its floor, and epochs=0
        # trained nothing. Each config is checked when built, replace included.
        cfg = small_config(epochs=2, n_layers=4, scheme="AugNormAdj")
        for config, name, value in ((cfg.model.dropedge, "p", 2.0),
                                    (cfg.model, "backbone", "GCN"),
                                    (cfg.model, "n_layers", 1), (cfg, "epochs", 0)):
            with pytest.raises(FrozenInstanceError):
                setattr(config, name, value)
        assert cfg == small_config(epochs=2, n_layers=4, scheme="AugNormAdj")
        assert replace(cfg.model, backbone="GCN").backbone == "gcn"
        with pytest.raises(ValueError, match="BingGeNormAdj.*AugNormAdj"):
            replace(cfg.model, dropedge=DropEdgeConfig(p=0.0, scheme="BingGeNormAdj"))
        with pytest.raises(ValueError, match="gcn needs n_layers >= 2, got 1"):
            replace(cfg.model, n_layers=1)
        with pytest.raises(ValueError, match="epochs must be positive"):
            replace(cfg, epochs=0)

    def test_write_report_files(self, sbm, tmp_path):
        report = train(small_config(epochs=6), graph=sbm)
        out = write_report(report, tmp_path / "rep")
        text = (out / "metrics.csv").read_text()
        header, *lines = text.strip().split("\n")
        assert header == "epoch,train_loss,train_acc,val_loss,val_acc,test_acc"
        assert len(lines) == 6
        summary = json.loads((out / "summary.json").read_text())
        assert summary["epochs"] == 6
        assert summary["best_epoch"] == report.best_epoch
        assert summary["config"]["model"]["backbone"] == "gcn"


class TestSharedEvaluationForward:
    """A deterministic step (p=0, no dropout, no batch norm) reads epoch e's
    evaluation off epoch e+1's training forward; every other config runs
    an evaluation forward of its own each epoch."""

    EPOCHS = 10

    @pytest.mark.parametrize("withloop", [False, True], ids=["noloop", "withloop"])
    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_same_bytes_and_stream_as_two_forwards(self, sbm, tmp_path, monkeypatch,
                                                   backbone, withloop):
        generators = []
        real_rng = np.random.default_rng

        def recorded(seed):
            generators.append(real_rng(seed))
            return generators[-1]

        monkeypatch.setattr(training.np.random, "default_rng", recorded)

        def run(tag):
            cfg = replace(small_config(epochs=self.EPOCHS, n_layers=4, backbone=backbone,
                                       withloop=withloop), out_dir=tmp_path / tag)
            return cfg, train(cfg, graph=sbm, keep_best_model=True)

        cfg, shared = run("shared")
        assert training._deterministic_step(cfg.model, sbm.adjacency)
        # The best model was snapshotted inside a later epoch's step.
        assert shared.best_epoch < self.EPOCHS
        monkeypatch.setattr(training, "_deterministic_step", lambda mcfg, adjacency: False)
        run("two")
        one, two = tmp_path / "shared", tmp_path / "two"
        assert (one / "metrics.csv").read_bytes() == (two / "metrics.csv").read_bytes()
        with np.load(one / "model.npz") as a, np.load(two / "model.npz") as b:
            assert a.files == b.files
            for name in a.files:
                assert a[name].tobytes() == b[name].tobytes(), name
        assert len(generators) == 2
        assert generators[0].bit_generator.state == generators[1].bit_generator.state

    def test_snapshot_from_a_shared_forward_holds_no_gradients(self, sbm):
        cfg = small_config(epochs=self.EPOCHS, n_layers=4)
        full = normalize(sbm.adjacency, cfg.model.scheme)
        report, _, snapshot = training._run(cfg, sbm, full, keep_best=True)
        assert report.best_epoch < self.EPOCHS
        assert all(p.grad is None for p in snapshot.parameters())

    def forwards(self, cfg, sbm, monkeypatch, threads=None):
        """The training flag of every forward a run makes, in order; with a
        `threads` list, also the thread each forward ran on."""
        calls = []
        real = training.forward

        def spy(*args, **kw):
            calls.append(kw["training"])
            if threads is not None:
                threads.append(threading.current_thread())
            return real(*args, **kw)

        monkeypatch.setattr(training, "forward", spy)
        train(cfg, graph=sbm)
        return calls

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_deterministic_run_makes_one_forward_per_epoch(self, sbm, monkeypatch, backbone):
        cfg = small_config(epochs=7, n_layers=4, backbone=backbone)
        assert self.forwards(cfg, sbm, monkeypatch) == [True] * 7 + [False]

    def test_evaluation_records_nothing_on_the_tape(self, sbm, monkeypatch):
        # Epoch 1's step evaluates nothing, later steps evaluate the epoch
        # before: the tapes must still be the same length.
        sizes = []
        real = training.backward

        def spy(loss, pool):
            sizes.append(len(active_tape().entries))
            return real(loss, pool)

        monkeypatch.setattr(training, "backward", spy)
        train(small_config(epochs=5, n_layers=3), graph=sbm)
        assert len(sizes) == 5 and len(set(sizes)) == 1

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "two-forwards"])
    def test_validation_check_comes_first(self, sbm, monkeypatch, shared):
        # Epoch 3's step leaves a nan parameter: epoch 3's validation loss
        # and epoch 4's training loss are both nan, and the validation one
        # is reported, whichever forward computed it.
        real = training.adam_step
        steps = []

        def poisoning(state, pool):
            real(state, pool)
            steps.append(state.t)
            if state.t == 3:
                state.params[0].data[0, 0] = np.nan

        monkeypatch.setattr(training, "adam_step", poisoning)
        monkeypatch.setattr(training, "_deterministic_step",
                            lambda mcfg, adjacency: shared)
        with pytest.raises(TrainingDiverged, match="validation loss became nan at epoch 3"):
            train(small_config(epochs=6, n_layers=3), graph=sbm)
        assert steps == [1, 2, 3]

    @pytest.mark.parametrize("change", [
        {"dropout": 0.3},
        {"dropedge": DropEdgeConfig(p=0.4)},
        {"dropedge": DropEdgeConfig(p=0.4, layer_wise=True)},
        {"withbn": True},
    ], ids=["dropout", "oneshot", "layerwise", "withbn"])
    def test_other_runs_make_two_forwards_per_epoch(self, sbm, monkeypatch, change):
        # Epochs 1-6 are evaluated on the worker, concurrently with the next
        # epoch's training forward, so only the per-thread order is fixed;
        # the last epoch is evaluated inline, after its training forward.
        cfg = small_config(epochs=7, n_layers=3)
        cfg = replace(cfg, model=replace(cfg.model, **change))
        assert not training._deterministic_step(cfg.model, sbm.adjacency)
        threads = []
        calls = self.forwards(cfg, sbm, monkeypatch, threads)
        main = threading.main_thread()
        assert [c for c, t in zip(calls, threads) if t is main] == [True] * 7 + [False]
        assert [c for c, t in zip(calls, threads) if t is not main] == [False] * 6
        assert len({t for t in threads if t is not main}) == 1

    def test_rate_that_drops_no_edge_runs_as_p_zero(self, sbm, monkeypatch, tmp_path):
        # floor(V * p) = 0: nothing is dropped, so the run normalizes once,
        # shares its evaluation forward and writes the p=0 bytes.
        p = 0.9 / (sbm.adjacency.nnz // 2)
        calls = []
        for module in (dropedge, training):
            def counted(a, scheme, real=module.normalize):
                calls.append(scheme)
                return real(a, scheme)

            monkeypatch.setattr(module, "normalize", counted)
        cfg = small_config(epochs=5, n_layers=3, p=p)
        assert training._deterministic_step(cfg.model, sbm.adjacency)
        assert self.forwards(cfg, sbm, monkeypatch) == [True] * 5 + [False]
        assert len(calls) == 1
        train(replace(cfg, out_dir=tmp_path / "tiny-p"), graph=sbm)
        plain = replace(small_config(epochs=5, n_layers=3), out_dir=tmp_path / "p0")
        train(plain, graph=sbm)
        assert ((tmp_path / "tiny-p" / "metrics.csv").read_bytes()
                == (tmp_path / "p0" / "metrics.csv").read_bytes())


class InlinePool:
    """Stand-in for ThreadPoolExecutor that runs each submitted call at once
    on the calling thread: an evaluation right after the Adam step, where it
    ran before it moved to the worker, and each parameter-gradient product
    in the backward walk, as backward(loss) without a pool computes it."""

    def __init__(self, max_workers):
        assert max_workers == 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestConcurrentEvaluation:
    """Every run computes its parameter gradients on one worker thread; a
    run whose step is random also evaluates epoch e there, from a view of
    the model at epoch e, while epoch e+1 trains."""

    EPOCHS = 12

    @pytest.mark.parametrize("change", [
        {"withbn": True},
        {"dropout": 0.5},
        {"dropedge": DropEdgeConfig(p=0.4, layer_wise=True)},
        {"dropedge": DropEdgeConfig(p=0.4)},
        {},
    ], ids=["withbn", "dropout", "layerwise", "oneshot", "deterministic"])
    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_same_bytes_as_inline_evaluation(self, sbm, tmp_path, monkeypatch,
                                             backbone, change):
        def run(tag):
            cfg = small_config(epochs=self.EPOCHS, n_layers=4, backbone=backbone)
            cfg = replace(cfg, model=replace(cfg.model, **change), out_dir=tmp_path / tag)
            report = train(cfg, graph=sbm, keep_best_model=True)
            # The snapshot is the model its row was computed from: its
            # evaluation forward gives that row's validation loss exactly,
            # batch-norm running statistics included.
            model = load_model(tmp_path / tag / "model.npz")
            mats = [normalize(sbm.adjacency, cfg.model.scheme)] * model.n_gcls
            logits, _ = forward(model, mats, sbm.x, training=False)
            val_loss = softmax_cross_entropy(logits, sbm.labels, sbm.splits["val"]).item()
            assert val_loss == report.rows[report.best_epoch - 1]["val_loss"]
            return report

        assert run("worker").best_epoch < self.EPOCHS
        monkeypatch.setattr(training, "ThreadPoolExecutor", InlinePool)
        run("inline")
        one, two = tmp_path / "worker", tmp_path / "inline"
        assert (one / "metrics.csv").read_bytes() == (two / "metrics.csv").read_bytes()
        assert (one / "model.npz").read_bytes() == (two / "model.npz").read_bytes()

    @pytest.mark.parametrize("backbone,change", [(b, {}) for b in BACKBONES]
                             + [("gcn", {"dropout": 0.5})],
                             ids=[*BACKBONES, "gcn-dropout"])
    def test_split_ops_same_bytes_as_inline(self, sbm, tmp_path, monkeypatch, backbone,
                                            change):
        # Every dense op output splits, so the training forwards of a
        # deterministic run, every final evaluation and every Adam step
        # share their work with the worker; an InlinePool computes both
        # halves on the main thread, at the same split points.
        monkeypatch.setattr(autodiff, "SPLIT_MIN_ELEMENTS", 1)
        splits = []
        real = autodiff._on_two_threads

        def spy(pool, fn, top, bottom):
            splits.append(threading.current_thread() is threading.main_thread())
            return real(pool, fn, top, bottom)

        monkeypatch.setattr(autodiff, "_on_two_threads", spy)

        def run(tag):
            cfg = small_config(epochs=6, n_layers=4, backbone=backbone, withloop=True)
            cfg = replace(cfg, model=replace(cfg.model, **change), out_dir=tmp_path / tag)
            train(cfg, graph=sbm, keep_best_model=True)

        run("worker")
        assert splits and all(splits)
        monkeypatch.setattr(training, "ThreadPoolExecutor", InlinePool)
        run("inline")
        one, two = tmp_path / "worker", tmp_path / "inline"
        assert (one / "metrics.csv").read_bytes() == (two / "metrics.csv").read_bytes()
        assert (one / "model.npz").read_bytes() == (two / "model.npz").read_bytes()

    @pytest.mark.parametrize("p,dropout", [(0.0, 0.0), (0.0, 0.3), (0.4, 0.0)],
                             ids=["deterministic", "dropout", "dropedge"])
    def test_pool_goes_only_where_the_worker_is_idle(self, sbm, monkeypatch, p, dropout):
        # The training forward of a deterministic step gets the pool; on a
        # random step the worker is evaluating then, so it gets none. The
        # worker's evaluations get none, the final inline one and every
        # Adam step get it.
        seen = []
        real_forward, real_adam = training.forward, training.adam_step

        def forward(*args, **kw):
            main = threading.current_thread() is threading.main_thread()
            seen.append(("train" if kw["training"] else "eval", main, kw["pool"] is not None))
            return real_forward(*args, **kw)

        def adam_step(state, pool):
            seen.append(("adam", True, pool is not None))
            return real_adam(state, pool)

        monkeypatch.setattr(training, "forward", forward)
        monkeypatch.setattr(training, "adam_step", adam_step)
        train(small_config(epochs=3, n_layers=3, p=p, dropout=dropout), graph=sbm)
        shared = p == 0.0 and dropout == 0.0
        step = [("train", True, shared), ("adam", True, True)]
        if shared:
            assert seen == step * 3 + [("eval", True, True)]
        else:
            worker_eval = ("eval", False, False)
            assert sorted(seen) == sorted(step * 3 + [worker_eval] * 2 + [("eval", True, True)])

    def test_same_bytes_under_frequent_thread_switches(self, sbm, monkeypatch):
        # The interpreter hands over between the two threads every
        # microsecond, so the worker's reads interleave with the batch-norm
        # updates of the next step at many points.
        cfg = small_config(epochs=20, n_layers=4, backbone="resgcn", dropout=0.5,
                           withbn=True, p=0.4)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = train(cfg, graph=sbm).to_csv()
        finally:
            sys.setswitchinterval(old)
        monkeypatch.setattr(training, "ThreadPoolExecutor", InlinePool)
        assert worker == train(cfg, graph=sbm).to_csv()

    def test_worker_records_nothing_on_the_open_tape(self, sbm, monkeypatch):
        # The worker's evaluation of epoch e starts once epoch e+1's training
        # forward has filled the open tape; the main thread then waits for
        # its result, so the tape can only change by the worker.
        trained = [threading.Event() for _ in range(5)]  # [i]: epoch i+1 has trained
        seen = []
        real = training.forward

        def spy(*args, **kw):
            if threading.current_thread() is threading.main_thread():
                out = real(*args, **kw)
                if kw["training"]:
                    trained[next(i for i, e in enumerate(trained) if not e.is_set())].set()
                return out
            assert trained[len(seen) + 1].wait(timeout=60)
            tape = autodiff._active
            before = len(tape.entries)
            out = real(*args, **kw)
            seen.append((tape is not None, before, len(tape.entries), out[0].requires_grad))
            return out

        monkeypatch.setattr(training, "forward", spy)
        train(small_config(epochs=5, n_layers=3, dropout=0.3), graph=sbm)
        assert len(seen) == 4
        for tape_open, before, after, requires_grad in seen:
            assert tape_open and before > 0 and after == before and not requires_grad

    def test_divergence_leaves_no_worker_and_no_tape(self, sbm, monkeypatch):
        # Epoch 3's step leaves a nan parameter; the worker's evaluation of
        # epoch 3 reports it.
        before = set(threading.enumerate())
        real = training.adam_step

        def poisoning(state, pool):
            real(state, pool)
            if state.t == 3:
                state.params[0].data[0, 0] = np.nan

        monkeypatch.setattr(training, "adam_step", poisoning)
        with pytest.raises(TrainingDiverged, match="validation loss became nan at epoch 3"):
            train(small_config(epochs=6, n_layers=3, dropout=0.3), graph=sbm)
        assert set(threading.enumerate()) == before
        assert autodiff._active is None and not active_tape().entries

    def test_error_while_the_worker_runs_joins_it(self, sbm, monkeypatch):
        # Epoch 3's training forward raises while the worker still evaluates
        # epoch 2; the run returns only after that evaluation has finished.
        before = set(threading.enumerate())
        real = training.forward
        trained, evaluated = [], []

        def spy(*args, **kw):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.2)
                out = real(*args, **kw)
                evaluated.append(True)
                return out
            if kw["training"]:
                trained.append(True)
                if len(trained) == 3:
                    raise RuntimeError("stop")
            return real(*args, **kw)

        monkeypatch.setattr(training, "forward", spy)
        with pytest.raises(RuntimeError, match="stop"):
            train(small_config(epochs=6, n_layers=3, p=0.4), graph=sbm)
        assert len(evaluated) == 2
        assert set(threading.enumerate()) == before
        assert autodiff._active is None and not active_tape().entries

    def test_every_run_starts_exactly_one_worker_thread(self, sbm, monkeypatch):
        # Deterministic runs too: their backward computes the parameter
        # gradients on the worker.
        started = []
        real = threading.Thread.start

        def spy(thread):
            started.append(thread)
            return real(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        train(small_config(epochs=4, n_layers=3), graph=sbm)
        assert len(started) == 1
        train(small_config(epochs=4, n_layers=3, p=0.4), graph=sbm)
        assert len(started) == 2

    @pytest.mark.parametrize("p", [0.0, 0.4], ids=["deterministic", "random"])
    def test_failing_gradient_product_leaves_no_worker_and_no_tape(self, sbm, monkeypatch, p):
        # Epoch 2's first parameter-gradient product raises on the worker;
        # backward re-raises it and the run stops with nothing left behind.
        before = set(threading.enumerate())
        real = training.backward
        steps = []

        def boom(g):
            raise RuntimeError("gradient product failed")

        def spy(loss, pool):
            steps.append(pool)
            if len(steps) == 2:
                entries = active_tape().entries
                i, k = next((i, k) for i, (_, inputs, vjps) in enumerate(entries)
                            for k, (src, f) in enumerate(zip(inputs, vjps))
                            if isinstance(src, autodiff.Tensor) and f is not None)
                out_ref, inputs, vjps = entries[i]
                entries[i] = (out_ref, inputs, vjps[:k] + (boom,) + vjps[k + 1:])
            return real(loss, pool)

        monkeypatch.setattr(training, "backward", spy)
        with pytest.raises(RuntimeError, match="gradient product failed"):
            train(small_config(epochs=4, n_layers=3, p=p), graph=sbm)
        assert len(steps) == 2 and steps[0] is steps[1] is not None
        assert set(threading.enumerate()) == before
        assert autodiff._active is None and not active_tape().entries


class TestOneBestCopy:
    """A run keeps its best epoch as that epoch's view and copies it once,
    after the loop; a run that keeps no best model copies nothing."""

    @pytest.fixture
    def copies(self, monkeypatch):
        copied = []
        real = training.copy_model

        def counted(model):
            copied.append(model)
            return real(model)

        monkeypatch.setattr(training, "copy_model", counted)
        return copied

    def test_kept_run_copies_once(self, sbm, tmp_path, copies):
        # Batch norm: the view carries the best epoch's running statistics,
        # which later epochs rebind on the live model.
        cfg = replace(small_config(epochs=25, p=0.3, withbn=True), out_dir=tmp_path / "run")
        report = train(cfg, graph=sbm, keep_best_model=True)
        vals = [r["val_acc"] for r in report.rows]
        improvements = sum(v > max(vals[:i], default=-1.0) for i, v in enumerate(vals))
        assert improvements >= 3 and report.best_epoch < cfg.epochs
        assert len(copies) == 1
        model = load_model(tmp_path / "run" / "model.npz")
        mats = [normalize(sbm.adjacency, cfg.model.scheme)] * model.n_gcls
        logits, _ = forward(model, mats, sbm.x, training=False)
        val_loss = softmax_cross_entropy(logits, sbm.labels, sbm.splits["val"]).item()
        assert val_loss == report.rows[report.best_epoch - 1]["val_loss"]

    @pytest.mark.parametrize("call", ["train", "probe", "ablate_dropout_dropedge",
                                      "ablate_layerwise"])
    def test_runs_without_a_kept_model_copy_nothing(self, sbm, copies, call):
        cfg = small_config(epochs=6, p=0.5, dropout=0.4, n_layers=4)
        if call == "train":
            train(cfg, graph=sbm)
        elif call == "probe":
            oversmoothing_probe(cfg, graph=sbm, layer_range=(2, 3))
        else:
            getattr(training, call)(cfg, graph=sbm)
        assert copies == []


class TestEmptySplits:
    """A Graph may have an empty split; a run rejects it before it builds
    a model or draws anything, naming the split."""

    @staticmethod
    def emptied(sbm, name):
        splits = dict(sbm.splits, **{name: np.array([], dtype=np.int64)})
        return Graph(sbm.n_nodes, sbm.adjacency, sbm.features, sbm.labels, splits)

    @pytest.fixture
    def no_model(self, monkeypatch):
        monkeypatch.setattr(training, "build_model",
                            lambda *a, **k: pytest.fail("built a model"))

    @pytest.mark.parametrize("name", ["train", "val", "test"])
    def test_train(self, sbm, no_model, name):
        with pytest.raises(ValueError, match=f"the {name} split is empty"):
            train(small_config(epochs=3, p=0.4), graph=self.emptied(sbm, name))

    def test_probe(self, sbm, no_model, monkeypatch):
        monkeypatch.setattr(training.spectral, "analyze",
                            lambda *a: pytest.fail("analyzed"))
        with pytest.raises(ValueError, match="the val split is empty"):
            oversmoothing_probe(small_config(epochs=3, p=0.5, n_layers=4),
                                graph=self.emptied(sbm, "val"), layer_range=(2, 3))

    def test_ablations(self, sbm, no_model):
        graph = self.emptied(sbm, "test")
        with pytest.raises(ValueError, match="the test split is empty"):
            ablate_dropout_dropedge(small_config(epochs=3, p=0.5, dropout=0.5), graph=graph)
        with pytest.raises(ValueError, match="the test split is empty"):
            ablate_layerwise(small_config(epochs=3, p=0.5), graph=graph)

    def test_split_is_reported_before_a_refused_rate(self, sbm, no_model):
        # Each call checks its splits before its own refusals.
        graph = self.emptied(sbm, "train")
        for call in (lambda: ablate_dropout_dropedge(small_config(p=0.5), graph=graph),
                     lambda: ablate_dropout_dropedge(small_config(dropout=0.5), graph=graph),
                     lambda: ablate_layerwise(small_config(p=0.0), graph=graph),
                     lambda: oversmoothing_probe(small_config(n_layers=4), graph=graph,
                                                 layer_range=(2, 9)),
                     lambda: train(small_config(), graph=graph, keep_best_model=True)):
            with pytest.raises(ValueError, match="the train split is empty"):
                call()


class TestTrainConfig:
    @pytest.mark.parametrize("lr,weight_decay", [
        (math.nan, 0.0), (math.inf, 0.0), (0.0, 0.0), (0.01, math.nan),
        (0.01, math.inf), (0.01, -1.0)])
    def test_rates_must_be_finite(self, lr, weight_decay):
        with pytest.raises(ValueError, match="learning rate|weight decay"):
            TrainConfig(lr=lr, weight_decay=weight_decay)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, 0, -3])
    def test_epochs_must_be_an_integer(self, value):
        # 0 and -3 are integers but no epoch count; the probe trains
        # config.epochs, so this is also its check.
        message = "positive" if value in (0, -3) else "an integer"
        with pytest.raises(ValueError, match=f"epochs must be {message}"):
            TrainConfig(epochs=value)

    @pytest.mark.parametrize("value", [1.5, 1.0, None])
    def test_seed_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="seed must be an integer"):
            TrainConfig(seed=value)

    def test_seed_must_be_nonnegative(self):
        # Refused when built, with theorem1_trajectory's message, not later
        # by numpy's generator once the graph is loaded.
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            TrainConfig(seed=-1)
        assert TrainConfig(seed=0).seed == 0

    def test_numpy_integers_accepted_as_ints(self, sbm, tmp_path):
        # Stored as Python ints, so summary.json can hold them.
        cfg = TrainConfig(model=ModelConfig(n_layers=np.int64(2), hidden_dim=np.int32(8)),
                          epochs=np.int64(2), seed=np.uint8(3), out_dir=tmp_path)
        assert len(train(cfg, graph=sbm).rows) == 2
        saved = json.loads((tmp_path / "summary.json").read_text())["config"]
        assert (saved["epochs"], saved["seed"]) == (2, 3)
        assert (saved["model"]["n_layers"], saved["model"]["hidden_dim"]) == (2, 8)

    def test_nested_configs_must_have_their_type(self):
        # A dict is refused where it enters, naming the field, not later as
        # an AttributeError in train or in the scheme-echo check.
        with pytest.raises(ValueError, match=r"^model must be a ModelConfig, got \{"):
            TrainConfig(model={"n_layers": 2})
        with pytest.raises(ValueError, match=r"^dropedge must be a DropEdgeConfig, got \{"):
            ModelConfig(dropedge={"p": 0.5})
        with pytest.raises(ValueError, match="^dropedge must be a DropEdgeConfig, got None"):
            ModelConfig(dropedge=None)
        # A checkpoint's config dict still loads, its DropEdgeConfig built first.
        cfg = ModelConfig(n_layers=3, dropedge=DropEdgeConfig(p=0.25, layer_wise=True))
        assert models.config_from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg

    @pytest.mark.parametrize("value", [2.5, 4.0])
    def test_n_layers_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="n_layers must be an integer"):
            ModelConfig(n_layers=value)

    @pytest.mark.parametrize("value", [2.5, 16.0])
    def test_hidden_dim_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="hidden_dim must be an integer"):
            ModelConfig(hidden_dim=value)

    @pytest.mark.parametrize("build,name,bad,numpy_value", [
        (DropEdgeConfig, "p", True, np.float32(0.25)),
        (ModelConfig, "dropout", "0.5", np.float64(0.25)),
        (TrainConfig, "lr", True, np.float32(0.125)),
        (TrainConfig, "weight_decay", "0", np.float64(5e-4)),
        (DropEdgeConfig, "layer_wise", "no", np.True_),
        (ModelConfig, "withloop", 1, np.True_),
        (ModelConfig, "withbn", "yes", np.False_),
        (ModelConfig, "bias", 0, np.False_),
    ])
    def test_rates_and_flags_must_have_their_type(self, build, name, bad, numpy_value):
        # p=True used to drop every edge, lr=True trained at 1.0,
        # layer_wise="no" ran layer-wise and p="0.5" failed in a comparison.
        with pytest.raises(ValueError, match=rf"^{name} must be a (real number|bool), "
                                             rf"got {re.escape(repr(bad))}$"):
            build(**{name: bad})
        # Stored as Python floats and bools, so summary.json can hold them.
        value = getattr(build(**{name: numpy_value}), name)
        assert type(value) is type(numpy_value.item()) and value == numpy_value

    def test_keep_best_model_needs_out_dir(self, sbm, monkeypatch):
        # The snapshots would be copied every best epoch and then dropped.
        monkeypatch.setattr(training, "build_model", lambda *a, **k: pytest.fail("built"))
        monkeypatch.setattr(training.np.random, "default_rng",
                            lambda *a: pytest.fail("seeded a generator"))
        with pytest.raises(ValueError, match="out_dir"):
            train(small_config(epochs=3, p=0.4), graph=sbm, keep_best_model=True)


class TestProbe:
    def test_probe_structure(self, sbm):
        cfg = small_config(epochs=15, p=0.5, n_layers=6)
        report = oversmoothing_probe(cfg, graph=sbm, layer_range=(2, 5))
        assert list(report) == ["config", "layer_range", "before", "after"]
        assert report["layer_range"] == [2, 5]
        assert report["config"]["epochs"] == 15
        for block in (report["before"], report["after"]):
            assert sorted(block["layer_distance"]) == [2, 3, 4, 5]
            assert all(v >= 0.0 for v in block["layer_distance"].values())
            assert len(block["subspace_distance"]) == 6
            assert block["s"] > 0.0

    def test_probe_trains_config_epochs_and_writes_under_out_dir(self, sbm, tmp_path,
                                                                  monkeypatch):
        trained = []
        real = training._run

        def spy(config, graph, full, keep_best):
            result = real(config, graph, full, keep_best)
            trained.append(len(result[0].rows))
            return result

        monkeypatch.setattr(training, "_run", spy)
        cfg = replace(small_config(epochs=7, p=0.5, n_layers=4), out_dir=tmp_path / "probe")
        report = oversmoothing_probe(cfg, graph=sbm, layer_range=(2, 3))
        assert trained == [7]
        text = (tmp_path / "probe" / "probe.json").read_text()
        assert text == json.dumps(report, indent=2) + "\n"
        saved = json.loads(text)
        assert saved["config"]["epochs"] == 7 and "epochs_trained" not in saved

    def test_probe_deterministic(self, sbm):
        cfg = small_config(epochs=8, p=0.5, n_layers=4)
        a = oversmoothing_probe(cfg, graph=sbm, layer_range=(2, 3))
        b = oversmoothing_probe(cfg, graph=sbm, layer_range=(2, 3))
        assert json.dumps(a) == json.dumps(b)

    def test_probe_on_sparse_features(self, bow):
        cfg = small_config(epochs=5, p=0.5, n_layers=4, dropout=0.5)
        report = oversmoothing_probe(cfg, graph=bow, layer_range=(2, 3))
        assert all(math.isfinite(v) for v in report["after"]["layer_distance"].values())

    def test_probe_at_p_zero_normalizes_once(self, sbm, monkeypatch):
        # One normalization for the probe's spectrum, both measurements and
        # the training run.
        calls = []
        orig = training.normalize

        def counted(a, scheme):
            calls.append(scheme)
            return orig(a, scheme)

        monkeypatch.setattr(training, "normalize", counted)
        monkeypatch.setattr(dropedge, "normalize", counted)
        oversmoothing_probe(small_config(epochs=3, n_layers=4, scheme="BingGeNormAdj"),
                            graph=sbm, layer_range=(2, 3))
        assert calls == ["BingGeNormAdj"]

    def test_probe_lambda_leaves_out_only_m_under_a_weak_bridge(self, monkeypatch):
        # Two 20-node blocks joined by one edge of weight 1e-9 form one
        # component, so M has one column, but the second eigenvalue lies
        # within analyze's tolerance of the top, so its cluster holds two.
        # Theorem 1's lambda is that second eigenvalue, not the third.
        two = synthetic_sbm(n_nodes=40, n_blocks=2, p_intra=0.5, p_inter=0.0,
                            n_features=8, seed=3)
        a = two.adjacency
        bridged = sparsemat.SparseMatrix.from_coo(
            40, 40, np.concatenate([a.row_ids(), [0, 1]]),
            np.concatenate([a.col_indices, [1, 0]]), np.concatenate([a.values, [1e-9] * 2]))
        graph = Graph(40, bridged, two.features, two.labels, two.splits)
        a_hat = normalize(bridged, "AugNormAdj")
        assert sparsemat.connected_components(bridged)[1] == 1
        assert spectral.analyze(a_hat).top_multiplicity == 2
        seen = []
        real = spectral.smoothing_probe

        def spy(hidden, basis, lam, s, epsilon):
            seen.append((basis.shape[1], lam))
            return real(hidden, basis, lam, s, epsilon)

        monkeypatch.setattr(spectral, "smoothing_probe", spy)
        oversmoothing_probe(small_config(epochs=2, n_layers=4), graph=graph, layer_range=(2, 3))
        w = np.linalg.eigvalsh(a_hat.to_dense())
        assert 1 - 1e-8 < w[-2] < 1 - 1e-12
        assert [c for c, _ in seen] == [1, 1]
        for _, lam in seen:
            assert lam == pytest.approx(np.abs(w[:-1]).max(), abs=1e-12)

    def test_probe_rejects_bad_settings(self, sbm):
        cfg = small_config(n_layers=4, scheme="AugRWalk")
        echo = DropEdgeConfig(p=0.0, scheme="AugRWalk")
        cfg = replace(cfg, model=replace(cfg.model, dropedge=echo))
        with pytest.raises(ValueError, match="symmetric"):
            oversmoothing_probe(cfg, graph=sbm)
        with pytest.raises(ValueError, match="layer_range"):
            oversmoothing_probe(small_config(n_layers=4), graph=sbm,
                                layer_range=(2, 9))
        # Layer 4 of a 4-GCL gcn maps hidden width to class width.
        with pytest.raises(ValueError, match="width"):
            oversmoothing_probe(small_config(n_layers=4), graph=sbm,
                                layer_range=(2, 4))
        # incepgcn's layer 3 is branch 2's first layer: it reads the stem,
        # not branch 1's output, which is layer 2.
        with pytest.raises(ValueError, match="layer 3 does not read layer 2"):
            oversmoothing_probe(small_config(n_layers=5, backbone="incepgcn"), graph=sbm)

    def test_refused_probe_never_normalizes(self, sbm, monkeypatch):
        # Each refusal depends on the config alone, so it comes before the
        # graph is normalized.
        def refuse(*args, **kw):
            raise AssertionError("the probe normalized the graph before refusing")

        monkeypatch.setattr(training, "normalize", refuse)
        echo = DropEdgeConfig(p=0.0, scheme="AugRWalk")
        row = small_config(n_layers=4, scheme="AugRWalk")
        for cfg, layers, message in (
                (replace(row, model=replace(row.model, dropedge=echo)), (2, 3), "symmetric"),
                (small_config(n_layers=4), (2, 9), "must lie within 2..4"),
                (small_config(n_layers=4), (2, 4), "width"),
                (small_config(n_layers=5, backbone="incepgcn"), (2, 6), "does not read")):
            with pytest.raises(ValueError, match=message):
                oversmoothing_probe(cfg, graph=sbm, layer_range=layers)

    def test_layer_range_must_be_integers(self, sbm, monkeypatch):
        # (2.7, 4.9) used to probe layers 2-4 without a word.
        def refuse(*args, **kw):
            raise AssertionError("the probe did work before checking layer_range")

        monkeypatch.setattr(training, "build_model", refuse)
        monkeypatch.setattr(training.spectral, "analyze", refuse)
        for layers, which in (((2.7, 4.9), 0), ((2, 4.0), 1)):
            with pytest.raises(ValueError, match=rf"layer_range\[{which}\] must be an integer"):
                oversmoothing_probe(small_config(epochs=3, n_layers=6), graph=sbm,
                                    layer_range=layers)

    @pytest.mark.parametrize("layers", [(2, 3, 4), (2,)])
    def test_layer_range_must_be_a_pair(self, sbm, monkeypatch, layers):
        # Unpacking used to fail with "too many values to unpack" or "not
        # enough values to unpack", after the graph was normalized.
        def refuse(*args, **kw):
            raise AssertionError("the probe did work before checking layer_range")

        monkeypatch.setattr(training, "normalize", refuse)
        monkeypatch.setattr(training, "build_model", refuse)
        with pytest.raises(ValueError, match=re.escape(
                f"layer_range must be a pair (lo, hi), got {layers!r}")):
            oversmoothing_probe(small_config(epochs=3, n_layers=6), graph=sbm,
                                layer_range=layers)

    def test_probe_within_an_incepgcn_branch(self, sbm):
        # Layers 5-7 are branch 3 of a 5-layer incepgcn, a chain.
        cfg = small_config(epochs=3, n_layers=5, backbone="incepgcn")
        report = oversmoothing_probe(cfg, graph=sbm, layer_range=(6, 7))
        for block in (report["before"], report["after"]):
            assert sorted(block["layer_distance"]) == [6, 7]
            assert all(math.isfinite(v) for v in block["layer_distance"].values())


class TestAblations:
    def test_four_way_grid(self, sbm):
        reports = ablate_dropout_dropedge(small_config(epochs=5, p=0.5, dropout=0.4),
                                          graph=sbm)
        assert sorted(reports) == ["both", "dropedge", "dropout", "neither"]
        rates = {name: (rep.config["model"]["dropout"],
                        rep.config["model"]["dropedge"]["p"])
                 for name, rep in reports.items()}
        assert rates == {"neither": (0.0, 0.0), "dropout": (0.4, 0.0),
                         "dropedge": (0.0, 0.5), "both": (0.4, 0.5)}

    def test_arms_are_the_runs_of_their_configs(self, sbm):
        # Each arm is train() on the config with its rates; "both" is the
        # config itself, and the layer-wise arms keep its dropout and p.
        cfg = small_config(epochs=6, p=0.5, dropout=0.4, n_layers=3)

        def changed(dropout=0.4, **dropedge):
            model = replace(cfg.model, dropout=dropout,
                            dropedge=replace(cfg.model.dropedge, **dropedge))
            return replace(cfg, model=model)

        arms = {"neither": changed(0.0, p=0.0), "dropout": changed(p=0.0),
                "dropedge": changed(0.0), "both": cfg,
                "oneshot": changed(layer_wise=False), "layerwise": changed(layer_wise=True)}
        reports = {**ablate_dropout_dropedge(cfg, graph=sbm), **ablate_layerwise(cfg, graph=sbm)}
        assert list(reports) == list(arms)
        for name, arm in arms.items():
            assert reports[name].to_csv() == train(arm, graph=sbm).to_csv(), name

    @pytest.mark.parametrize("which", ["dropout_dropedge", "layerwise"])
    def test_reports_written_under_out_dir(self, sbm, tmp_path, which):
        ablate = ablate_layerwise if which == "layerwise" else ablate_dropout_dropedge
        cfg = replace(small_config(epochs=4, p=0.5, dropout=0.4), out_dir=tmp_path / "abl")
        reports = ablate(cfg, graph=sbm)
        out = tmp_path / "abl"
        combined = json.loads((out / "summary.json").read_text())
        assert list(combined) == list(reports)
        for name, report in reports.items():
            assert (out / name / "metrics.csv").read_text() == report.to_csv()
            summary = json.loads((out / name / "summary.json").read_text())
            assert summary == combined[name] == json.loads(json.dumps(report.summary()))
            assert summary["config"]["out_dir"] is None

    @pytest.mark.parametrize("which", ["dropout_dropedge", "layerwise"])
    def test_nothing_written_before_every_arm_finished(self, sbm, tmp_path, monkeypatch,
                                                       which):
        ablate = ablate_layerwise if which == "layerwise" else ablate_dropout_dropedge
        runs = []
        real = training._run

        def last_arm_fails(config, graph, full, keep_best):
            runs.append(config)
            if len(runs) == (2 if which == "layerwise" else 4):
                raise TrainingDiverged("the last arm diverged")
            return real(config, graph, full, keep_best)

        monkeypatch.setattr(training, "_run", last_arm_fails)
        cfg = replace(small_config(epochs=3, p=0.5, dropout=0.4), out_dir=tmp_path / "abl")
        with pytest.raises(TrainingDiverged, match="last arm"):
            ablate(cfg, graph=sbm)
        assert not (tmp_path / "abl").exists()

    def test_layerwise_pair(self, sbm):
        reports = ablate_layerwise(small_config(epochs=5, p=0.5, n_layers=3),
                                   graph=sbm)
        assert sorted(reports) == ["layerwise", "oneshot"]
        assert reports["oneshot"].config["model"]["dropedge"]["layer_wise"] is False
        assert reports["layerwise"].config["model"]["dropedge"]["layer_wise"] is True

    def test_layerwise_needs_dropping(self, sbm):
        with pytest.raises(ValueError, match="nonzero"):
            ablate_layerwise(small_config(epochs=5, p=0.0), graph=sbm)

    @pytest.mark.parametrize("which", ["layerwise", "dropout_dropedge"])
    def test_rate_that_drops_no_edge_is_rejected(self, sbm, monkeypatch, which):
        # floor(V * p) = 0: the arms would train the same model, so neither
        # ablation trains anything.
        v = sbm.adjacency.nnz // 2
        p = 0.9 / v
        monkeypatch.setattr(training, "_run", lambda *a, **k: pytest.fail("trained"))
        with pytest.raises(ValueError, match=rf"p={p} drops .* V={v} edges"):
            if which == "layerwise":
                ablate_layerwise(small_config(epochs=5, p=p), graph=sbm)
            else:
                ablate_dropout_dropedge(small_config(epochs=5, p=p, dropout=0.5), graph=sbm)

    def test_dropout_ablation_needs_dropout(self, sbm, monkeypatch):
        monkeypatch.setattr(training, "_run", lambda *a, **k: pytest.fail("trained"))
        with pytest.raises(ValueError, match="nonzero dropout rate"):
            ablate_dropout_dropedge(small_config(epochs=5, p=0.5), graph=sbm)

    def test_vacuous_rate_trains_identical_arms(self):
        # Why the check exists: on this 588-edge graph p=1e-4 drops no edge,
        # and without the check both layer-wise arms give the same losses.
        g = synthetic_sbm(seed=0)
        assert g.adjacency.nnz // 2 == 588 and dropedge.drop_count(g.adjacency, 1e-4) == 0
        cfg = small_config(epochs=3, p=1e-4, n_layers=3)
        full = normalize(g.adjacency, cfg.model.scheme)
        runs = [training._run(replace(cfg, model=replace(
                    cfg.model, dropedge=DropEdgeConfig(p=1e-4, layer_wise=lw))), g, full,
                    False)[0]
                for lw in (False, True)]
        assert runs[0].to_csv() == runs[1].to_csv()
        with pytest.raises(ValueError, match="V=588"):
            ablate_layerwise(cfg, graph=g)


class TestOneNormalizationPerCall:
    """Each public call normalizes the full graph once, under the model's
    scheme, and every run it makes (and the probe's spectrum) uses that one
    matrix."""

    RUNS = {"train": 1, "probe": 1, "ablate_dropout_dropedge": 4, "ablate_layerwise": 2}

    @pytest.mark.parametrize("call", list(RUNS))
    def test_once_per_call(self, sbm, monkeypatch, call):
        made, used = [], []
        for module in (training, dropedge):
            def counted(a, scheme, real=module.normalize):
                out = real(a, scheme)
                if a is sbm.adjacency:
                    made.append(out)
                return out

            monkeypatch.setattr(module, "normalize", counted)
        real_run, real_analyze = training._run, training.spectral.analyze

        def run_spy(config, graph, full, keep_best):
            used.append(full)
            return real_run(config, graph, full, keep_best)

        def analyze_spy(a_hat, *args, **kw):
            used.append(a_hat)
            return real_analyze(a_hat, *args, **kw)

        monkeypatch.setattr(training, "_run", run_spy)
        monkeypatch.setattr(training.spectral, "analyze", analyze_spy)
        cfg = small_config(epochs=3, p=0.5, dropout=0.4, n_layers=4)
        if call == "train":
            train(cfg, graph=sbm)
        elif call == "probe":
            oversmoothing_probe(cfg, graph=sbm, layer_range=(2, 3))
        else:
            getattr(training, call)(cfg, graph=sbm)
        assert len(made) == 1
        assert len(used) == self.RUNS[call] + (call == "probe")
        assert all(full is made[0] for full in used)


class TestSetupOrder:
    """Each public call checks its splits once, then makes its own
    refusals, then normalizes the graph once."""

    @staticmethod
    def call(name, cfg, graph):
        if name == "train":
            return train(cfg, graph=graph)
        if name == "probe":
            return oversmoothing_probe(cfg, graph=graph, layer_range=(2, 3))
        return getattr(training, name)(cfg, graph=graph)

    @pytest.mark.parametrize("name", ["train", "probe", "ablate_dropout_dropedge",
                                      "ablate_layerwise"])
    def test_splits_checked_once(self, sbm, monkeypatch, name):
        checked = []
        real = training._check_splits
        monkeypatch.setattr(training, "_check_splits",
                            lambda graph: checked.append(graph) or real(graph))
        self.call(name, small_config(epochs=2, p=0.5, dropout=0.4, n_layers=4), sbm)
        assert checked == [sbm]

    @pytest.mark.parametrize("name,model_kw,message", [
        ("ablate_dropout_dropedge", {"p": 0.5}, "nonzero dropout rate"),
        ("ablate_dropout_dropedge", {"p": 1e-6, "dropout": 0.5}, "drops"),
        ("ablate_layerwise", {"p": 1e-6}, "drops")])
    def test_refused_ablation_never_normalizes(self, sbm, monkeypatch, name, model_kw,
                                               message):
        # Dropout 0, or a p with floor(V * p) = 0 (1e-6 on 60 nodes): the
        # refusal needs the config alone, so it comes before any work.
        def refuse(*args, **kw):
            raise AssertionError("the ablation did work before refusing")

        monkeypatch.setattr(training, "normalize", refuse)
        monkeypatch.setattr(training, "build_model", refuse)
        with pytest.raises(ValueError, match=message):
            self.call(name, small_config(epochs=2, **model_kw), sbm)

    def test_probe_before_model_is_the_trained_model_at_start(self, sbm, monkeypatch):
        # The probe measures a fresh model and then trains one; both are the
        # first draw of the config's seed, so "before" is the training run's
        # starting point.
        built = []
        real = training.build_model

        def spy(*args, **kw):
            model = real(*args, **kw)
            built.append([p.data.copy() for p in model.parameters()])
            return model

        monkeypatch.setattr(training, "build_model", spy)
        oversmoothing_probe(small_config(epochs=2, p=0.5, dropout=0.4, n_layers=4),
                            graph=sbm, layer_range=(2, 3))
        assert len(built) == 2
        fresh, started = built
        assert len(fresh) == len(started) > 0
        assert all(np.array_equal(a, b) for a, b in zip(fresh, started))


def test_keep_freed_memory_is_a_no_op_without_mallopt(monkeypatch):
    # A C library without mallopt (not glibc) leaves the run as it is.
    monkeypatch.setattr(training.ctypes, "CDLL", lambda name: object())
    assert training._keep_freed_memory() is None


def test_run_fixes_malloc_thresholds(monkeypatch, sbm):
    # Every run sets both thresholds through mallopt, with int arguments.
    calls = []

    class Mallopt:
        def __call__(self, param, value):
            calls.append((self.argtypes, param, value))
            return 1

    class Libc:
        mallopt = Mallopt()

    monkeypatch.setattr(training.ctypes, "CDLL", lambda name: Libc())
    train(small_config(epochs=1), graph=sbm)
    ints = (training.ctypes.c_int, training.ctypes.c_int)
    assert calls == [(ints, -3, 32 << 20), (ints, -1, 64 << 20)]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory, sbm):
    d = tmp_path_factory.mktemp("data") / "sbm"
    save_graph(sbm, d)
    return d


def run_cli(*argv):
    return cli.main(list(argv))


class TestCli:
    BASE = ("--hidden", "16", "--epochs", "8")

    def test_train_writes_everything(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli("train", "--data-dir", str(dataset_dir),
                       "--out-dir", str(out), *self.BASE, "--sampling-percent", "0.7")
        assert code == 0
        assert (out / "model.npz").exists()
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 8
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["model"]["dropedge"]["p"] == pytest.approx(0.3)
        assert "best epoch" in capsys.readouterr().out

    def test_keep_all_edges_matches_plain_run(self, dataset_dir, sbm, tmp_path):
        out = tmp_path / "full"
        run_cli("train", "--data-dir", str(dataset_dir), "--out-dir", str(out),
                *self.BASE, "--sampling-percent", "1.0")
        direct = train(small_config(epochs=8), graph=sbm)
        assert (out / "metrics.csv").read_text() == direct.to_csv()

    @pytest.mark.parametrize("keep,p", [("0.8", 0.2), ("0.9", 0.1)])
    def test_sampling_percent_is_the_decimal_complement(self, tmp_path, keep, p):
        # In binary floating point 1 - 0.9 is 0.09999999999999998, which drops
        # floor(10 * p) = 0 of a 10-edge ring's edges where p=0.1 drops one.
        ring = np.arange(10)
        g = Graph(10, adjacency_from_pairs(10, ring, (ring + 1) % 10), np.eye(10),
                  ring % 2, {"train": ring[:6], "val": ring[6:8], "test": ring[8:]})
        save_graph(g, tmp_path / "ring")
        want = DropEdgeConfig(p=p).p
        assert dropedge.drop_count(g.adjacency, 1.0 - float(keep)) == round(10 * p) - 1
        assert dropedge.drop_count(g.adjacency, want) == round(10 * p)
        for command in (("train",), ("ablate", "--mode", "layerwise")):
            out = tmp_path / command[0]
            assert run_cli(*command, "--data-dir", str(tmp_path / "ring"),
                           "--out-dir", str(out), "--hidden", "4", "--epochs", "2",
                           "--sampling-percent", keep) == 0
            summary = json.loads((out / "summary.json").read_text())
            for run in ([summary] if command[0] == "train" else summary.values()):
                assert run["config"]["model"]["dropedge"]["p"] == want

    def test_sampling_percent_out_of_range(self, dataset_dir):
        for keep in ("1.5", "-0.1", "nan", "inf", "-inf"):
            with pytest.raises(SystemExit) as exc:
                run_cli("train", "--data-dir", str(dataset_dir),
                        "--sampling-percent", keep)
            assert exc.value.code == 2, keep

    @pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--lr", "inf"),
                                            ("--weight-decay", "nan")])
    def test_non_finite_rate_is_usage_error(self, dataset_dir, flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--data-dir", str(dataset_dir), flag, value)
        assert exc.value.code == 2

    def test_negative_seed_is_usage_error(self, dataset_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--data-dir", str(dataset_dir), "--seed", "-1")
        assert exc.value.code == 2
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "probe-oversmoothing", "ablate",
                                         "theorem-check"])
    def test_negative_seed_refused_before_the_dataset_is_read(self, tmp_path, capsys,
                                                              command):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--data-dir", str(tmp_path / "nope"), "--seed", "-1")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "seed must be nonnegative, got -1" in err and "nope" not in err

    @pytest.mark.parametrize("command", [
        ("train",),
        ("probe-oversmoothing", "--nlayers", "4", "--probe-layers", "2", "3"),
        ("analyze-spectral",),
        ("theorem-check",),
        ("ablate", "--dropout", "0.3", "--sampling-percent", "0.6"),
    ], ids=lambda command: command[0])
    def test_each_command_loads_its_dataset_once(self, dataset_dir, tmp_path,
                                                 monkeypatch, command):
        loads = []

        def load(data_dir):
            loads.append(data_dir)
            return graph_module.load_graph_dir(data_dir)

        monkeypatch.setattr(cli, "load_graph_dir", load)
        run_flags = () if command[0] in ("analyze-spectral", "theorem-check") else (
            "--hidden", "8", "--epochs", "2")
        assert run_cli(*command, "--data-dir", str(dataset_dir),
                       "--out-dir", str(tmp_path / "out"), *run_flags) == 0
        assert loads == [str(dataset_dir)]

    def test_unknown_flag_is_usage_error(self, dataset_dir):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--data-dir", str(dataset_dir), "--frobnicate")
        assert exc.value.code == 2

    def test_missing_dataset_is_runtime_error(self, tmp_path, capsys):
        code = run_cli("train", "--data-dir", str(tmp_path / "nope"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_spectral_writes_json(self, dataset_dir, sbm, tmp_path):
        out = tmp_path / "spec"
        code = run_cli("analyze-spectral", "--data-dir", str(dataset_dir),
                       "--out-dir", str(out))
        assert code == 0
        payload = json.loads((out / "spectral.json").read_text())
        assert len(payload["eigenvalues"]) == sbm.n_nodes
        assert payload["top_multiplicity"] == payload["component_count"]
        assert "basis_shape" not in payload

    def test_spectral_rejects_row_normalization(self, dataset_dir):
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze-spectral", "--data-dir", str(dataset_dir),
                    "--normalization", "AugRWalk")
        assert exc.value.code == 2

    def test_probe_refuses_row_normalization_before_the_dataset_is_read(self, tmp_path,
                                                                        capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("probe-oversmoothing", "--data-dir", str(tmp_path / "nope"),
                    "--normalization", "AugRWalk")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'AugRWalk'" in err and "nope" not in err

    def test_spectral_payload_bytes(self, dataset_dir, sbm, tmp_path):
        # The payload built from the report's fields is byte for byte the one
        # spelled out field by field.
        out = tmp_path / "spec"
        assert run_cli("analyze-spectral", "--data-dir", str(dataset_dir),
                       "--out-dir", str(out), "--normalization", "BingGeNormAdj") == 0
        report = spectral.analyze(normalize(sbm.adjacency, "BingGeNormAdj"))
        expected = {
            "normalization": "BingGeNormAdj",
            "n_nodes": sbm.n_nodes,
            "eigenvalues": [float(v) for v in report.eigenvalues],
            "top_multiplicity": report.top_multiplicity,
            "second_largest": report.second_largest,
            "component_count": report.component_count,
        }
        write_json(tmp_path / "expected.json", expected)
        assert (out / "spectral.json").read_bytes() == (tmp_path / "expected.json").read_bytes()

    def test_theorem_check_has_no_epsilon_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("theorem-check", "--data-dir", str(tmp_path), "--epsilon", "0.01")
        assert exc.value.code == 2

    def test_theorem_check(self, tmp_path, capsys):
        # A small graph that is certainly connected.
        g = synthetic_sbm(n_nodes=10, n_blocks=2, p_intra=0.9, p_inter=0.6,
                          n_features=4, seed=1)
        from dropgcn import connected_components
        assert connected_components(g.adjacency)[1] == 1
        d = tmp_path / "tiny"
        save_graph(g, d)
        out = tmp_path / "thm"
        code = run_cli("theorem-check", "--data-dir", str(d),
                       "--out-dir", str(out), "--seed", "2")
        assert code == 0
        payload = json.loads((out / "theorem_check.json").read_text())
        assert payload["multiplicity_tracks_components"] is True
        assert payload["disjunction_holds"] is True
        assert payload["steps"][-1]["top_multiplicity"] == 10
        assert '"epsilon": 0.001,' in (out / "theorem_check.json").read_text()
        assert "disconnections=" in capsys.readouterr().out

    def test_probe_command(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "probe"
        code = run_cli("probe-oversmoothing", "--data-dir", str(dataset_dir),
                       "--out-dir", str(out), "--hidden", "16", "--nlayers", "5",
                       "--sampling-percent", "0.8", "--epochs", "6",
                       "--probe-layers", "2", "4")
        assert code == 0
        payload = json.loads((out / "probe.json").read_text())
        assert payload["layer_range"] == [2, 4]
        assert sorted(payload["before"]["layer_distance"]) == ["2", "3", "4"]
        text = capsys.readouterr().out
        assert "before" in text and "after" in text

    @pytest.mark.parametrize("command", [
        ("train",),
        ("probe-oversmoothing", "--nlayers", "4", "--probe-layers", "2", "3"),
        ("ablate", "--mode", "dropout-vs-dropedge"),
        ("ablate", "--mode", "layerwise"),
    ], ids=["train", "probe", "ablate-grid", "ablate-layerwise"])
    def test_run_flags_reach_the_reports(self, dataset_dir, tmp_path, command):
        out = tmp_path / "out"
        code = run_cli(*command, "--data-dir", str(dataset_dir), "--out-dir", str(out),
                       "--hidden", "16", "--epochs", "3", "--dropout", "0.3",
                       "--sampling-percent", "0.6")
        assert code == 0
        if command[0] == "probe-oversmoothing":
            assert json.loads((out / "probe.json").read_text())["config"]["epochs"] == 3
            return
        runs = [""] if command[0] == "train" else list(json.loads(
            (out / "summary.json").read_text()))
        rates = {"": (0.3, 0.4), "neither": (0.0, 0.0), "dropout": (0.3, 0.0),
                 "dropedge": (0.0, 0.4), "both": (0.3, 0.4), "oneshot": (0.3, 0.4),
                 "layerwise": (0.3, 0.4)}
        for name in runs:
            assert len((out / name / "metrics.csv").read_text().splitlines()) == 1 + 3
            model = json.loads((out / name / "summary.json").read_text())["config"]["model"]
            assert model["dropout"] == rates[name][0], name
            assert model["dropedge"]["p"] == pytest.approx(rates[name][1]), name

    def test_probe_trains_150_epochs_by_default(self):
        parser = cli.build_parser()
        base = ("--data-dir", "data")
        assert parser.parse_args(["probe-oversmoothing", *base]).epochs == 150
        assert parser.parse_args(["probe-oversmoothing", *base, "--epochs", "3"]).epochs == 3
        assert parser.parse_args(["train", *base]).epochs == 400
        assert parser.parse_args(["ablate", *base]).epochs == 400
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["probe-oversmoothing", *base, "--probe-epochs", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["train", "ablate", "probe-oversmoothing"])
    def test_default_flags_build_the_default_configs(self, command):
        parser = cli.build_parser()
        args = parser.parse_args([command, "--data-dir", "data"])
        built = asdict(cli._train_config(args, parser))
        epochs = 150 if command == "probe-oversmoothing" else TrainConfig().epochs
        assert built == asdict(TrainConfig(epochs=epochs, out_dir="dropgcn-out"))
        assert built["model"] == asdict(ModelConfig())

    def test_other_default_flags_are_the_library_defaults(self):
        parser = cli.build_parser()
        base = ("--data-dir", "data")
        probe = parser.parse_args(["probe-oversmoothing", *base])
        assert tuple(probe.probe_layers) == training.PROBE_LAYERS
        assert (inspect.signature(oversmoothing_probe).parameters["layer_range"].default
                == training.PROBE_LAYERS)
        spec = parser.parse_args(["analyze-spectral", *base])
        assert spec.normalization == ModelConfig().scheme

    def test_backbone_choices_are_the_library_backbones(self):
        parser = cli.build_parser()
        for backbone in BACKBONES:
            assert parser.parse_args(["train", "--data-dir", "d", "--backbone",
                                      backbone]).backbone == backbone
        with pytest.raises(SystemExit):
            parser.parse_args(["train", "--data-dir", "d", "--backbone", "sage"])

    def test_theorem_check_payload_bytes(self, dataset_dir, tmp_path, monkeypatch):
        # The payload built from the report's fields is byte for byte the one
        # spelled out field by field, an infinite l_hat written as null.
        from dropgcn.spectral import TrajectoryReport, TrajectoryStep
        steps = [TrajectoryStep(0, None, 1, 1, 0.25, 5),
                 TrajectoryStep(1, (0, 3), 2, 2, 1.0, math.inf),
                 TrajectoryStep(2, (1, 2), 2, 2, 0.5, 10)]
        report = TrajectoryReport(steps, [1], [2], True, True)
        monkeypatch.setattr(cli, "theorem1_trajectory", lambda a, seed: report)
        assert run_cli("theorem-check", "--data-dir", str(dataset_dir),
                       "--out-dir", str(tmp_path / "thm"), "--seed", "4") == 0
        expected = {
            "seed": 4,
            "epsilon": 1e-3,
            "steps": [
                {
                    "step": s.step,
                    "removed_edge": None if s.removed_edge is None else list(s.removed_edge),
                    "n_components": s.n_components,
                    "top_multiplicity": s.top_multiplicity,
                    "second_largest": s.second_largest,
                    "l_hat": None if s.l_hat == math.inf else s.l_hat,
                }
                for s in steps
            ],
            "disconnect_steps": [1],
            "lambda_decrease_steps": [2],
            "multiplicity_tracks_components": True,
            "disjunction_holds": True,
        }
        write_json(tmp_path / "expected.json", expected)
        assert ((tmp_path / "thm" / "theorem_check.json").read_bytes()
                == (tmp_path / "expected.json").read_bytes())

    def test_ablate_grid_command(self, dataset_dir, tmp_path):
        out = tmp_path / "abl"
        code = run_cli("ablate", "--data-dir", str(dataset_dir),
                       "--out-dir", str(out), *self.BASE,
                       "--dropout", "0.3", "--sampling-percent", "0.6")
        assert code == 0
        for name in ("neither", "dropout", "dropedge", "both"):
            assert (out / name / "metrics.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary) == ["both", "dropedge", "dropout", "neither"]

    @pytest.mark.parametrize("flags,message", [
        (("--dropout", "0", "--sampling-percent", "0.5"), "needs a nonzero dropout rate"),
        (("--dropout", "0.5", "--sampling-percent", "1"), "nonzero drop count"),
        (("--dropout", "0.5"), "nonzero drop count"),
    ], ids=["dropout-0", "sampling-1", "sampling-default"])
    def test_ablate_grid_refuses_zero_rates(self, dataset_dir, tmp_path, capsys, flags,
                                            message):
        # The rates given are the rates used: a zero rate is refused by the
        # library, not replaced by 0.5.
        out = tmp_path / "abl"
        code = run_cli("ablate", "--data-dir", str(dataset_dir), "--out-dir", str(out),
                       *self.BASE, *flags)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_readme_ablate_command(self, dataset_dir, tmp_path, capsys):
        # The ablate example in README.md, as printed there, on sbm data.
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = text.index("dropgcn ablate ")
        end = text.index("\n```", start)
        argv = text[start:end].replace("\\\n", " ").split()[1:]
        argv[argv.index("--data-dir") + 1] = str(dataset_dir)
        assert argv[argv.index("--dropout") + 1] == "0.5"
        assert argv[argv.index("--sampling-percent") + 1] == "0.5"
        out = tmp_path / "abl"
        assert run_cli(*argv, "--out-dir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary) == ["both", "dropedge", "dropout", "neither"]
        assert "both: val_acc=" in capsys.readouterr().out

    def test_ablate_layerwise_command(self, dataset_dir, tmp_path):
        out = tmp_path / "ablw"
        code = run_cli("ablate", "--mode", "layerwise", "--data-dir",
                       str(dataset_dir), "--out-dir", str(out), *self.BASE,
                       "--nlayers", "3", "--sampling-percent", "0.7")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary) == ["layerwise", "oneshot"]

    def test_ablate_layerwise_needs_sampling(self, dataset_dir, sbm, tmp_path, capsys):
        # The library's check decides, so a rate that drops no edge is
        # refused like p=0: exit 1, naming p and V.
        v = sbm.adjacency.nnz // 2
        for flags in ((), ("--sampling-percent", str(1.0 - 0.5 / v))):
            code = run_cli("ablate", "--mode", "layerwise", "--data-dir", str(dataset_dir),
                           "--out-dir", str(tmp_path / "abl"), *flags)
            assert code == 1
            err = capsys.readouterr().err
            assert "nonzero drop count" in err and f"V={v} " in err
            assert not (tmp_path / "abl").exists()
