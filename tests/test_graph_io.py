"""Dataset files: parsing, validation, round-trips, and the generator."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from dropgcn import (DatasetError, Graph, SparseMatrix, load_graph_dir,
                     save_graph, synthetic_sbm)
from dropgcn.graph import adjacency_from_pairs
from dropgcn.sparsemat import check_adjacency


def write_dataset(d, edges="0 1\n1 2\n", features="1.0,0.5\n0.25,0.0\n-1.5,2.0\n",
                  labels="0\n1\n0\n", splits=None):
    if splits is None:
        splits = {"train": [0], "val": [1], "test": [2]}
    (d / "graph.edges").write_text(edges)
    (d / "features.csv").write_text(features)
    (d / "labels.csv").write_text(labels)
    (d / "splits.json").write_text(json.dumps(splits))
    return d


class TestLoad:
    def test_basic(self, tmp_path):
        g = load_graph_dir(write_dataset(tmp_path))
        assert g.n_nodes == 3
        assert g.adjacency.nnz == 4  # two undirected edges, both directions
        assert g.n_features == 2
        assert g.n_classes == 2
        np.testing.assert_array_equal(g.splits["val"], [1])

    def test_comments_blank_lines_and_duplicates(self, tmp_path):
        edges = "# citation pairs\n\n0 1\n1 0\n0 1\n1 2\n"
        g = load_graph_dir(write_dataset(tmp_path, edges=edges))
        assert g.adjacency.nnz == 4  # duplicates and the reversed repeat collapse

    def test_self_loop_dropped_with_warning(self, tmp_path):
        d = write_dataset(tmp_path, edges="0 0\n0 1\n1 2\n")
        with pytest.warns(UserWarning, match="self-loop"):
            g = load_graph_dir(d)
        assert g.adjacency.nnz == 4
        assert np.all(g.adjacency.diagonal() == 0)

    def test_malformed_edge_line_names_file_and_line(self, tmp_path):
        d = write_dataset(tmp_path, edges="0 1\n1 two\n")
        with pytest.raises(DatasetError, match=r"graph\.edges:2"):
            load_graph_dir(d)

    def test_edge_wrong_arity(self, tmp_path):
        d = write_dataset(tmp_path, edges="0 1 2\n")
        with pytest.raises(DatasetError, match=r"graph\.edges:1"):
            load_graph_dir(d)

    def test_node_id_out_of_range(self, tmp_path):
        d = write_dataset(tmp_path, edges="0 7\n")
        with pytest.raises(DatasetError, match="out of range"):
            load_graph_dir(d)

    def test_bad_feature_row_names_file(self, tmp_path):
        d = write_dataset(tmp_path, features="1.0,0.5\nx,0.0\n-1.5,2.0\n")
        with pytest.raises(DatasetError, match=r"features\.csv"):
            load_graph_dir(d)

    def test_label_count_mismatch(self, tmp_path):
        d = write_dataset(tmp_path, labels="0\n1\n")
        with pytest.raises(DatasetError, match=r"labels\.csv"):
            load_graph_dir(d)

    def test_negative_label_names_labels_file(self, tmp_path):
        d = write_dataset(tmp_path, labels="0\n-1\n0\n")
        with pytest.raises(DatasetError, match=r"labels\.csv: labels must be nonnegative"):
            load_graph_dir(d)

    def test_missing_split_key(self, tmp_path):
        d = write_dataset(tmp_path, splits={"train": [0], "val": [1]})
        with pytest.raises(DatasetError, match="test"):
            load_graph_dir(d)

    def test_overlapping_splits_rejected(self, tmp_path):
        d = write_dataset(tmp_path, splits={"train": [0, 1], "val": [1], "test": [2]})
        with pytest.raises(DatasetError, match="disjoint"):
            load_graph_dir(d)

    def test_split_out_of_range(self, tmp_path):
        d = write_dataset(tmp_path, splits={"train": [0], "val": [1], "test": [9]})
        with pytest.raises(DatasetError, match="out-of-range"):
            load_graph_dir(d)

    @pytest.mark.parametrize("test_ids", [[True], [3, True], [False, 3], [3.0]],
                             ids=["true", "mixed-true", "mixed-false", "float"])
    def test_split_ids_must_be_json_integers(self, tmp_path, test_ids):
        # true and false are not node ids 1 and 0; 3.0 is not node 3.
        d = write_dataset(tmp_path, features="1.0\n2.0\n3.0\n4.0\n",
                          labels="0\n1\n0\n1\n",
                          splits={"train": [0], "val": [2], "test": test_ids})
        with pytest.raises(DatasetError, match=r"splits\.json: split 'test' must be a list "
                                               "of JSON integers"):
            load_graph_dir(d)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_file_and_row(self, tmp_path, bad):
        d = write_dataset(tmp_path, features=f"1.0,0.5\n0.25,0.0\n-1.5,{bad}\n")
        with pytest.raises(DatasetError, match=r"features\.csv: row 3 holds a non-finite"):
            load_graph_dir(d)

    def test_bad_json_names_line(self, tmp_path):
        d = write_dataset(tmp_path)
        (d / "splits.json").write_text('{"train": [0],\n  "val": [1\n}')
        with pytest.raises(DatasetError, match=r"splits\.json"):
            load_graph_dir(d)


def dense_reference(n_nodes, u, v):
    """The adjacency built pair by pair: one unit edge per distinct
    unordered pair, no self-loops."""
    ref = np.zeros((n_nodes, n_nodes))
    for a, b in zip(u, v):
        if a != b:
            ref[a, b] = ref[b, a] = 1.0
    return ref


class TestAdjacencyFromPairs:
    @pytest.mark.parametrize("n_nodes,u,v", [
        (4, [0, 1, 0, 2], [1, 0, 1, 3]),      # a repeat and a reversed repeat
        (3, [0, 1, 2, 1], [0, 2, 2, 1]),      # self-loops only, bar one edge
        (5, [], []),                          # no pairs at all
        (5, [3, 0, 4], [0, 3, 3]),            # node 1 and node 2 isolated
        (3, [2, 2, 1], [1, 1, 2]),            # one edge, three times
    ], ids=["repeats", "self-loops", "empty", "isolated", "one-edge"])
    def test_matches_pair_by_pair_reference(self, n_nodes, u, v):
        a = adjacency_from_pairs(n_nodes, u, v)
        check_adjacency(a)
        assert a.shape == (n_nodes, n_nodes)
        np.testing.assert_array_equal(a.to_dense(), dense_reference(n_nodes, u, v))

    def test_random_pairs(self, rng_factory):
        rng = rng_factory(41)
        for n_nodes in (1, 2, 7, 30):
            u, v = rng.integers(0, n_nodes, size=(2, 3 * n_nodes))
            a = adjacency_from_pairs(n_nodes, u, v)
            check_adjacency(a)
            np.testing.assert_array_equal(a.values, 1.0)
            np.testing.assert_array_equal(a.to_dense(), dense_reference(n_nodes, u, v))

    def test_out_of_range_and_mismatched_ids_rejected(self):
        for u, v in (([0, 3], [1, 1]), ([0, -1], [1, 1])):
            with pytest.raises(ValueError, match="out of range"):
                adjacency_from_pairs(3, u, v)
        with pytest.raises(ValueError):
            adjacency_from_pairs(3, [0, 1], [1])


class TestSaveRoundTrip:
    def test_bit_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        g = synthetic_sbm(n_nodes=40, seed=9,
                          noise=float(rng.uniform(0.5, 1.5)))
        out = save_graph(g, tmp_path / "ds")
        g2 = load_graph_dir(out)
        assert g2.adjacency == g.adjacency
        np.testing.assert_array_equal(g2.features, g.features)
        np.testing.assert_array_equal(g2.labels, g.labels)
        for k in ("train", "val", "test"):
            np.testing.assert_array_equal(g2.splits[k], g.splits[k])
        # And the files themselves are stable under a second save.
        save_graph(g2, tmp_path / "ds2")
        for name in ("graph.edges", "features.csv", "labels.csv", "splits.json"):
            assert (tmp_path / "ds" / name).read_bytes() == \
                (tmp_path / "ds2" / name).read_bytes()

    def test_awkward_floats_survive(self, tmp_path):
        feats = np.array([[1e-17, 0.1], [1 / 3, -2.5000000000000004],
                          [123456789.123456789, 5e300]])
        g = Graph(3, SparseMatrix.from_dense([[0, 1, 0], [1, 0, 1], [0, 1, 0]]),
                  feats, [0, 1, 0], {"train": [0], "val": [1], "test": [2]})
        g2 = load_graph_dir(save_graph(g, tmp_path / "ds"))
        np.testing.assert_array_equal(g2.features, feats)

    def test_weighted_graph_rejected_before_writing(self, tmp_path):
        # graph.edges has no weight column, so a weight of 2.5 cannot survive.
        g = Graph(2, SparseMatrix.from_dense([[0, 2.5], [2.5, 0]]), np.zeros((2, 1)),
                  [0, 1], {"train": [0], "val": [1], "test": []})
        with pytest.raises(ValueError, match="unweighted"):
            save_graph(g, tmp_path / "ds")
        assert not (tmp_path / "ds" / "graph.edges").exists()


class TestGraphValidation:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loops"):
            Graph(2, SparseMatrix.from_dense([[1, 1], [1, 0]]), np.eye(2), [0, 1],
                  {"train": [0], "val": [], "test": [1]})

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(2, SparseMatrix.from_dense([[0, 1], [0, 0]]), np.eye(2), [0, 1],
                  {"train": [0], "val": [], "test": [1]})

    def test_rejects_feature_row_mismatch(self):
        with pytest.raises(ValueError, match="one row per node"):
            Graph(2, SparseMatrix.from_dense([[0, 1], [1, 0]]), np.eye(3), [0, 1],
                  {"train": [0], "val": [], "test": [1]})

    def test_rejects_repeated_split_ids(self):
        with pytest.raises(ValueError, match="repeated"):
            Graph(2, SparseMatrix.from_dense([[0, 1], [1, 0]]), np.eye(2), [0, 1],
                  {"train": [0, 0], "val": [], "test": [1]})

    def test_rejects_non_integer_split_ids(self):
        # A boolean mask over the nodes is not a list of node ids.
        for train_ids in (np.array([True, False]), np.array([0.0])):
            with pytest.raises(ValueError, match="integer node ids"):
                Graph(2, SparseMatrix.from_dense([[0, 1], [1, 0]]), np.eye(2), [0, 1],
                      {"train": train_ids, "val": [], "test": [1]})


class TestFeatureStorage:
    def test_sparse_features_are_kept_once_as_csr(self, monkeypatch):
        words = np.zeros((30, 40))
        words[np.arange(30), np.arange(30) % 40] = 1.0
        g = Graph(30, adjacency_from_pairs(30, [0, 1], [1, 2]), words, np.zeros(30),
                  {"train": [0], "val": [1], "test": [2]})
        assert sp.issparse(g.x) and g.x.format == "csr"
        dense = g.features
        assert dense is not g.features  # rebuilt on each access
        np.testing.assert_array_equal(dense, words)
        assert not dense.flags.writeable
        for arr in (g.x.data, g.x.indices, g.x.indptr):
            assert not arr.flags.writeable
        # The feature count and repr read the stored form only.
        monkeypatch.setattr(sp.csr_matrix, "toarray",
                            lambda self, *a, **k: pytest.fail("densified"))
        assert g.n_features == 40
        assert "C=40" in repr(g)

    def test_dense_features_are_kept_as_given(self):
        feats = np.arange(6, dtype=np.float64).reshape(3, 2) + 1.0
        g = Graph(3, adjacency_from_pairs(3, [0], [1]), feats, [0, 1, 0],
                  {"train": [0], "val": [1], "test": [2]})
        assert g.x is g.features
        np.testing.assert_array_equal(g.features, feats)
        assert not g.features.flags.writeable


class TestSyntheticSBM:
    def test_deterministic(self):
        a = synthetic_sbm(seed=4)
        b = synthetic_sbm(seed=4)
        assert a.adjacency == b.adjacency
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_seed_changes_graph(self):
        a = synthetic_sbm(seed=4)
        b = synthetic_sbm(seed=5)
        assert not (a.adjacency == b.adjacency)

    def test_block_structure_dominates(self):
        g = synthetic_sbm(n_nodes=150, n_blocks=3, p_intra=0.3, p_inter=0.01, seed=6)
        rows, cols, _ = g.adjacency.coo_arrays()
        same = np.mean(g.labels[rows] == g.labels[cols])
        assert same > 0.8

    def test_splits_cover_everything(self):
        g = synthetic_sbm(n_nodes=97, seed=7)
        allidx = np.concatenate([g.splits[k] for k in ("train", "val", "test")])
        assert len(allidx) == 97
        assert len(np.unique(allidx)) == 97

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            synthetic_sbm(split_fractions=(0.5, 0.2, 0.2))
