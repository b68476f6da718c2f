"""train() against the plain-numpy reference loop in reference_trainer.py:
the same config and seed must give the same metrics.csv, best epoch and
best-epoch weights, up to rounding."""

import csv

import numpy as np
import pytest

from dropgcn import DropEdgeConfig, ModelConfig, TrainConfig, synthetic_sbm, train
from dropgcn.dropedge import drop_count

import reference_trainer

EPOCHS, HIDDEN, LR, WEIGHT_DECAY, SEED = 20, 16, 0.01, 5e-4, 4
RTOL = 1e-9


@pytest.fixture(scope="module")
def graph():
    return synthetic_sbm(seed=2)


@pytest.mark.parametrize("p", [0.0, 0.3])
@pytest.mark.parametrize("n_layers", [2, 3])
def test_train_agrees_with_the_reference_loop(graph, tmp_path, n_layers, p):
    assert (drop_count(graph.adjacency, p) > 0) == (p > 0)
    config = TrainConfig(
        model=ModelConfig(backbone="gcn", n_layers=n_layers, hidden_dim=HIDDEN, dropout=0.0,
                          dropedge=DropEdgeConfig(p=p)),
        lr=LR, weight_decay=WEIGHT_DECAY, epochs=EPOCHS, seed=SEED, out_dir=tmp_path)
    report = train(config, graph, keep_best_model=True)
    rows, best_epoch, best = reference_trainer.train(graph, n_layers, HIDDEN, p, LR,
                                                     WEIGHT_DECAY, EPOCHS, SEED)

    with open(tmp_path / "metrics.csv", newline="") as fh:
        written = list(csv.DictReader(fh))
    assert len(written) == len(rows) == EPOCHS
    for got, want in zip(written, rows):
        assert int(got["epoch"]) == want["epoch"]
        for column in ("train_loss", "val_loss"):
            assert float(got[column]) == pytest.approx(want[column], rel=RTOL, abs=0), (
                want["epoch"], column)
        for column in ("train_acc", "val_acc", "test_acc"):
            assert float(got[column]) == want[column], (want["epoch"], column)
    assert report.best_epoch == best_epoch

    with np.load(tmp_path / "model.npz") as saved:
        assert sorted(k for k in saved.files if k != "__meta__") == sorted(best)
        for name, want in best.items():
            np.testing.assert_allclose(saved[name], want, rtol=RTOL, atol=0, err_msg=name)
