"""The dataset converter, exercised on synthetic raw files."""

import hashlib
import importlib.util
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from dropgcn import load_graph_dir

_spec = importlib.util.spec_from_file_location(
    "prepare_dataset",
    Path(__file__).resolve().parent.parent / "tools" / "prepare_dataset.py")
prepare_dataset = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(prepare_dataset)


def write_planetoid(raw, name="cora"):
    """A 12-node fake: 8 labeled nodes, 4 test nodes listed out of order."""
    rng = np.random.default_rng(13)
    n_all, n_test, width, n_classes = 8, 4, 6, 3
    allx = rng.random((n_all, width)) * (rng.random((n_all, width)) < 0.5)
    tx = rng.random((n_test, width)) * (rng.random((n_test, width)) < 0.5)
    tx[0, 0] = 0.625  # marker checked below
    ally = np.eye(n_classes)[rng.integers(0, n_classes, n_all)]
    ty = np.eye(n_classes)[[2, 0, 1, 2]]
    graph = {0: [1, 2], 1: [0], 2: [0, 3], 3: [2], 4: [5], 5: [4], 6: [7],
             7: [6, 8], 8: [7], 9: [10], 10: [9, 11], 11: [10]}
    blobs = {
        "x": scipy.sparse.csr_matrix(allx[:2]),
        "y": ally[:2],
        "tx": scipy.sparse.csr_matrix(tx),
        "ty": ty,
        "allx": scipy.sparse.csr_matrix(allx),
        "ally": ally,
        "graph": graph,
    }
    raw.mkdir(parents=True, exist_ok=True)
    for suffix, blob in blobs.items():
        with open(raw / f"ind.{name}.{suffix}", "wb") as fh:
            pickle.dump(blob, fh)
    test_index = [10, 8, 11, 9]
    (raw / f"ind.{name}.test.index").write_text(
        "\n".join(str(i) for i in test_index) + "\n")
    return allx, tx, ty, test_index


class TestPlanetoid:
    def test_end_to_end(self, tmp_path, capsys):
        allx, tx, ty, test_index = write_planetoid(tmp_path / "raw")
        out = tmp_path / "data"
        code = prepare_dataset.main(["planetoid", "--raw-dir",
                                     str(tmp_path / "raw"), "--name", "cora",
                                     "--out", str(out), "--val-size", "2"])
        assert code == 0
        assert "12 nodes" in capsys.readouterr().out
        g = load_graph_dir(out)
        assert g.n_nodes == 12
        assert g.n_features == 6
        np.testing.assert_array_equal(g.splits["train"], np.arange(6))
        np.testing.assert_array_equal(g.splits["val"], [6, 7])
        np.testing.assert_array_equal(g.splits["test"], [8, 9, 10, 11])
        # tx row k lands at the node named on line k of test.index.
        marked = tx[0] / tx[0].sum()
        np.testing.assert_allclose(g.features[test_index[0]], marked, atol=1e-12)
        assert g.labels[test_index[0]] == 2
        assert g.labels[test_index[1]] == 0
        # Rows are normalized to unit sum (zero rows stay zero).
        sums = g.features.sum(axis=1)
        assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))
        # The 7-8 edge bridges the labeled and test blocks.
        assert g.adjacency.to_dense()[7, 8] == 1.0

    def test_gap_nodes_get_zero_rows(self, tmp_path):
        raw = tmp_path / "raw"
        write_planetoid(raw)
        # Rewrite the index so node 9 is missing: a gap like citeseer has.
        (raw / "ind.cora.test.index").write_text("10\n8\n11\n")
        with open(raw / "ind.cora.tx", "rb") as fh:
            tx = pickle.load(fh).toarray()
        with open(raw / "ind.cora.tx", "wb") as fh:
            pickle.dump(scipy.sparse.csr_matrix(tx[:3]), fh)
        with open(raw / "ind.cora.ty", "rb") as fh:
            ty = pickle.load(fh)
        with open(raw / "ind.cora.ty", "wb") as fh:
            pickle.dump(ty[:3], fh)
        g = prepare_dataset.load_planetoid(raw, "cora", n_val=2)
        assert g.n_nodes == 12
        np.testing.assert_array_equal(g.features[9], np.zeros(6))
        np.testing.assert_array_equal(g.splits["test"], [8, 10, 11])

    def test_val_size_must_fit(self, tmp_path):
        write_planetoid(tmp_path / "raw")
        with pytest.raises(SystemExit):
            prepare_dataset.load_planetoid(tmp_path / "raw", "cora", n_val=500)


class TestLinqs:
    def write_linqs(self, d):
        d.mkdir(parents=True, exist_ok=True)
        content = [
            "paper_a 1 0 1 ai",
            "paper_b 0 1 0 ml",
            "paper_c 1 1 0 ai",
            "paper_d 0 0 1 db",
            "paper_e 1 0 0 ml",
            "paper_f 0 1 1 db",
        ]
        cites = [
            "paper_a paper_b",
            "paper_b paper_a",  # mutual citation collapses to one edge
            "paper_c paper_a",
            "paper_d paper_f",
            "paper_e paper_f",
            "paper_x paper_a",  # unknown id, skipped with a note
        ]
        (d / "toy.content").write_text("\n".join(content) + "\n")
        (d / "toy.cites").write_text("\n".join(cites) + "\n")

    def test_end_to_end(self, tmp_path, capsys):
        self.write_linqs(tmp_path)
        out = tmp_path / "data"
        code = prepare_dataset.main(
            ["linqs", "--content", str(tmp_path / "toy.content"),
             "--cites", str(tmp_path / "toy.cites"), "--out", str(out),
             "--seed", "3", "--val-size", "1", "--test-size", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "skipped 1 citation" in captured.err
        g = load_graph_dir(out)
        assert g.n_nodes == 6
        assert g.n_classes == 3
        assert g.adjacency.nnz == 2 * 4  # a-b, a-c, d-f, e-f
        assert {len(g.splits[k]) for k in ("val", "test")} == {1, 2}
        assert len(g.splits["train"]) == 3

    def test_split_sizes_must_fit(self, tmp_path):
        self.write_linqs(tmp_path)
        with pytest.raises(SystemExit):
            prepare_dataset.main(
                ["linqs", "--content", str(tmp_path / "toy.content"),
                 "--cites", str(tmp_path / "toy.cites"),
                 "--out", str(tmp_path / "d"), "--val-size", "3",
                 "--test-size", "3"])

    def test_seed_changes_split(self, tmp_path):
        self.write_linqs(tmp_path)
        g1 = prepare_dataset.load_linqs(tmp_path / "toy.content",
                                        tmp_path / "toy.cites", 0, 1, 2)
        g2 = prepare_dataset.load_linqs(tmp_path / "toy.content",
                                        tmp_path / "toy.cites", 5, 1, 2)
        assert not np.array_equal(g1.splits["test"], g2.splits["test"])


def digests(out):
    """First 16 hex digits of each written file's sha256."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
            for name in ("graph.edges", "features.csv", "labels.csv", "splits.json")}


class TestSharedBuilder:
    """Both converter paths build through graph.adjacency_from_pairs, the
    loader's builder: self-citations drop, repeated and reversed citations
    collapse. The pinned digests are those of the converter's own builder
    before it was merged into that one."""

    def test_planetoid_self_and_repeated_citations(self, tmp_path):
        raw = tmp_path / "raw"
        write_planetoid(raw)
        with open(raw / "ind.cora.graph", "rb") as fh:
            graph = pickle.load(fh)
        graph[3] = graph[3] + [3]          # self-citation
        graph[1] = graph[1] + [0, 2]       # repeat of 1-0, new edge 1-2
        graph[2] = graph[2] + [1]          # reversed repeat of 1-2
        with open(raw / "ind.cora.graph", "wb") as fh:
            pickle.dump(graph, fh)
        out = tmp_path / "data"
        assert prepare_dataset.main(["planetoid", "--raw-dir", str(raw), "--name", "cora",
                                     "--out", str(out), "--val-size", "2"]) == 0
        assert (out / "graph.edges").read_text().split("\n") == [
            "0 1", "0 2", "1 2", "2 3", "4 5", "6 7", "7 8", "9 10", "10 11", ""]
        assert digests(out) == {
            "graph.edges": "9ddb9d02a9f3b864", "features.csv": "76cdeaddcd146e4c",
            "labels.csv": "14d36131b7e0c2fe", "splits.json": "b28e27802d39e3c6"}

    def test_linqs_self_and_repeated_citations(self, tmp_path, capsys):
        TestLinqs().write_linqs(tmp_path)
        with open(tmp_path / "toy.cites", "a") as fh:
            fh.write("paper_c paper_c\npaper_a paper_b\npaper_f paper_e\n")
        out = tmp_path / "data"
        assert prepare_dataset.main(
            ["linqs", "--content", str(tmp_path / "toy.content"),
             "--cites", str(tmp_path / "toy.cites"), "--out", str(out),
             "--seed", "3", "--val-size", "1", "--test-size", "2"]) == 0
        assert "4 undirected edges" in capsys.readouterr().out
        assert (out / "graph.edges").read_text() == "0 1\n0 2\n3 5\n4 5\n"
        assert digests(out) == {
            "graph.edges": "c9aaedbbd88fbadd", "features.csv": "127746613d300b51",
            "labels.csv": "e55f7a674163c7c4", "splits.json": "9e2c725025ba0e33"}
