"""Training loop behaviour, probe/ablation drivers, and the command line."""

import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from dropgcn import (DropEdgeConfig, Graph, ModelConfig, TrainConfig,
                     TrainingDiverged, accuracy, forward, load_model,
                     normalize, oversmoothing_probe, synthetic_sbm, train)
from dropgcn import cli, dropedge, training
from dropgcn.autodiff import active_tape
from dropgcn.graph import save_graph
from dropgcn.training import (ablate_dropout_dropedge, ablate_layerwise,
                              write_report)


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
        cfg = small_config(epochs=25, p=0.3)
        cfg.out_dir = tmp_path / "run"
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
        # The run raised between its forward pass and backward(); it must
        # not leave that pass's records on the tape for the next run.
        assert active_tape().entries == []

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
        # runs agree up to rounding; the dense one is forced by skipping the
        # conversion.
        assert sp.issparse(training.model_input(bow.features))
        cfg = small_config(epochs=15, p=0.3, withloop=True)
        sparse_rows = train(cfg, graph=bow).rows
        monkeypatch.setattr(training, "model_input", lambda features: features)
        dense_rows = train(cfg, graph=bow).rows
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

    def test_no_graph_no_data_dir(self):
        with pytest.raises(ValueError, match="data_dir"):
            train(small_config())

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
        cfg.model.dropedge = DropEdgeConfig(p=0.4, layer_wise=True)
        train(cfg, graph=sbm)
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
        monkeypatch.setattr(training, "propagation_matrices",
                            lambda *args, full=None, **kw: real(*args, **kw))
        assert before == train(small_config(epochs=7, p=0.0), graph=sbm).to_csv()

    def test_reassigned_mismatched_scheme_echo_rejected_before_training(self, sbm, tmp_path,
                                                                        monkeypatch):
        cfg = small_config(epochs=2, scheme="AugNormAdj")
        cfg.out_dir = tmp_path / "run"
        cfg.model.dropedge = DropEdgeConfig(p=0.0, scheme="BingGeNormAdj")
        calls = []
        monkeypatch.setattr(training, "propagation_matrices",
                            lambda *args, **kw: calls.append(args))
        with pytest.raises(ValueError, match="BingGeNormAdj.*AugNormAdj"):
            train(cfg, graph=sbm, keep_best_model=True)
        assert calls == []
        assert not (tmp_path / "run" / "model.npz").exists()

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


class TestProbe:
    def test_probe_structure(self, sbm):
        cfg = small_config(epochs=400, p=0.5, n_layers=6)
        report = oversmoothing_probe(cfg, graph=sbm, layer_range=(2, 5),
                                     probe_epochs=15)
        assert report.layer_range == (2, 5)
        assert report.epochs_trained == 15
        for block in (report.before, report.after):
            assert sorted(block["layer_distance"]) == [2, 3, 4, 5]
            assert all(v >= 0.0 for v in block["layer_distance"].values())
            assert len(block["subspace_distance"]) == 6
            assert block["s"] > 0.0

    def test_probe_deterministic(self, sbm):
        cfg = small_config(epochs=400, p=0.5, n_layers=4)
        a = oversmoothing_probe(cfg, graph=sbm, layer_range=(2, 3), probe_epochs=8)
        b = oversmoothing_probe(cfg, graph=sbm, layer_range=(2, 3), probe_epochs=8)
        assert json.dumps(a.summary()) == json.dumps(b.summary())

    def test_probe_on_sparse_features(self, bow):
        cfg = small_config(p=0.5, n_layers=4, dropout=0.5)
        report = oversmoothing_probe(cfg, graph=bow, layer_range=(2, 3), probe_epochs=5)
        assert all(math.isfinite(v) for v in report.after["layer_distance"].values())

    def test_probe_at_p_zero_normalizes_twice(self, sbm, monkeypatch):
        # One normalization for the probe's spectrum and both measurements,
        # one for the training run.
        calls = []
        orig = training.normalize

        def counted(a, scheme):
            calls.append(scheme)
            return orig(a, scheme)

        monkeypatch.setattr(training, "normalize", counted)
        monkeypatch.setattr(dropedge, "normalize", counted)
        oversmoothing_probe(small_config(n_layers=4, scheme="BingGeNormAdj"), graph=sbm,
                            layer_range=(2, 3), probe_epochs=3)
        assert calls == ["BingGeNormAdj", "BingGeNormAdj"]

    def test_probe_rejects_bad_settings(self, sbm):
        cfg = small_config(n_layers=4, scheme="AugRWalk")
        cfg.model.dropedge = DropEdgeConfig(p=0.0, scheme="AugRWalk")
        with pytest.raises(ValueError, match="symmetric"):
            oversmoothing_probe(cfg, graph=sbm)
        with pytest.raises(ValueError, match="layer_range"):
            oversmoothing_probe(small_config(n_layers=4), graph=sbm,
                                layer_range=(2, 9))
        # Layer 4 of a 4-GCL gcn maps hidden width to class width.
        with pytest.raises(ValueError, match="width"):
            oversmoothing_probe(small_config(n_layers=4), graph=sbm,
                                layer_range=(2, 4))


class TestAblations:
    def test_four_way_grid(self, sbm):
        reports = ablate_dropout_dropedge(small_config(epochs=5), graph=sbm,
                                          dropout=0.4, p=0.5)
        assert sorted(reports) == ["both", "dropedge", "dropout", "neither"]
        rates = {name: (rep.config["model"]["dropout"],
                        rep.config["model"]["dropedge"]["p"])
                 for name, rep in reports.items()}
        assert rates == {"neither": (0.0, 0.0), "dropout": (0.4, 0.0),
                         "dropedge": (0.0, 0.5), "both": (0.4, 0.5)}

    def test_layerwise_pair(self, sbm):
        reports = ablate_layerwise(small_config(epochs=5, p=0.5, n_layers=3),
                                   graph=sbm)
        assert sorted(reports) == ["layerwise", "oneshot"]
        assert reports["oneshot"].config["model"]["dropedge"]["layer_wise"] is False
        assert reports["layerwise"].config["model"]["dropedge"]["layer_wise"] is True

    def test_layerwise_needs_dropping(self, sbm):
        with pytest.raises(ValueError, match="nonzero"):
            ablate_layerwise(small_config(epochs=5, p=0.0), graph=sbm)


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

    def test_sampling_percent_out_of_range(self, dataset_dir):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--data-dir", str(dataset_dir),
                    "--sampling-percent", "1.5")
        assert exc.value.code == 2

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
        assert payload["basis_shape"] == [sbm.n_nodes, payload["top_multiplicity"]]

    def test_spectral_rejects_row_normalization(self, dataset_dir):
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze-spectral", "--data-dir", str(dataset_dir),
                    "--normalization", "AugRWalk")
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
        assert "disconnections=" in capsys.readouterr().out

    def test_probe_command(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "probe"
        code = run_cli("probe-oversmoothing", "--data-dir", str(dataset_dir),
                       "--out-dir", str(out), "--hidden", "16", "--nlayers", "5",
                       "--sampling-percent", "0.8", "--probe-epochs", "6",
                       "--probe-layers", "2", "4")
        assert code == 0
        payload = json.loads((out / "probe.json").read_text())
        assert payload["layer_range"] == [2, 4]
        assert sorted(payload["before"]["layer_distance"]) == ["2", "3", "4"]
        text = capsys.readouterr().out
        assert "before" in text and "after" in text

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

    def test_ablate_layerwise_command(self, dataset_dir, tmp_path):
        out = tmp_path / "ablw"
        code = run_cli("ablate", "--mode", "layerwise", "--data-dir",
                       str(dataset_dir), "--out-dir", str(out), *self.BASE,
                       "--nlayers", "3", "--sampling-percent", "0.7")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert sorted(summary) == ["layerwise", "oneshot"]

    def test_ablate_layerwise_needs_sampling(self, dataset_dir):
        with pytest.raises(SystemExit) as exc:
            run_cli("ablate", "--mode", "layerwise", "--data-dir", str(dataset_dir))
        assert exc.value.code == 2
