"""Dataset files: parsing, validation, round-trips, and the generator."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from dropgcn import (DatasetError, Graph, SparseMatrix, graph, load_graph_dir,
                     save_graph, synthetic_sbm)
from dropgcn.graph import adjacency_from_pairs, model_input
from dropgcn.sparsemat import check_adjacency


def write_dataset(d, edges="0 1\n1 2\n", features="1.0,0.5\n0.25,0.0\n-1.5,2.0\n",
                  labels="0\n1\n0\n", splits=None):
    if splits is None:
        splits = {"train": [0], "val": [1], "test": [2]}
    (d / "graph.edges").write_text(edges)
    if features is not None:
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

    @pytest.mark.parametrize("edges,message", [
        ("# c\n0 1\n\n1 9\n1 x\n", r"graph\.edges:4: node id out of range"),
        ("0 1\n1 x\n1 9\n", r"graph\.edges:2: expected two integer node ids, got '1 x'"),
        ("0 1\n  1   2 0 \n", r"graph\.edges:2: expected two integer node ids, got '1   2 0'"),
        ("0 1 2\n2\n", r"graph\.edges:1: expected two integer node ids, got '0 1 2'"),
        ("0 1\n1 99999999999999999999\n", r"graph\.edges:2: node id out of range"),
        ("0 1\n-1 2\n", r"graph\.edges:2: node id out of range"),
    ], ids=["range-before-token", "token-before-range", "arity", "arity-even-total",
            "beyond-int64", "negative"])
    def test_first_bad_edge_line_is_named(self, tmp_path, edges, message):
        with pytest.raises(DatasetError, match=message):
            load_graph_dir(write_dataset(tmp_path, edges=edges))

    def test_self_loop_warnings_count_every_line(self, tmp_path):
        # Comment and blank lines count toward the line numbers; each
        # self-loop line warns once, in file order.
        d = write_dataset(tmp_path, edges="# pairs\n\n2 2\n0 1\r\n 1 1 \n1 2")
        with pytest.warns(UserWarning) as caught:
            g = load_graph_dir(d)
        assert [str(w.message).split(":", 1)[1] for w in caught] == [
            "3: dropping self-loop on node 2", "5: dropping self-loop on node 1"]
        assert g.adjacency.nnz == 4

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


def load_features(d, text):
    """Load a dataset whose features.csv is `text` (bytes) and has no edges;
    return it with np.loadtxt's reading of that file."""
    d.mkdir(exist_ok=True)
    (d / "features.csv").write_bytes(text)
    reference = np.loadtxt(d / "features.csv", delimiter=",", ndmin=2)
    n = len(reference)
    write_dataset(d, edges="", features=None, labels="0\n" * n,
                  splits={"train": list(range(n)), "val": [], "test": []})
    return load_graph_dir(d), reference


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


def assert_matches_loadtxt(g, reference):
    """Graph.x is model_input(np.loadtxt(...)), array for array, and
    Graph.features is its dense form, sign bits included."""
    expected = model_input(reference)
    assert sp.issparse(g.x) == sp.issparse(expected)
    if sp.issparse(expected):
        for name in ("indptr", "indices", "data"):
            assert_same_bits(getattr(g.x, name), getattr(expected, name))
        expected = expected.toarray()
    assert_same_bits(g.features, expected)


def words_csv(rng, n, c, density):
    """A bag-of-words features.csv as save_graph writes one: repr values,
    the literal 0.0 for a zero."""
    rows = []
    for row in rng.random((n, c)) < density:
        scale = 1.0 / max(1, int(row.sum()))
        rows.append(",".join(repr(scale) if hit else "0.0" for hit in row))
    return ("\n".join(rows) + "\n").encode()


@pytest.fixture
def block_paths(monkeypatch):
    """Counts the blocks read on the fast path and the blocks that hand the
    whole file to np.loadtxt (at most one: the reader stops there)."""
    seen = {"plain": 0, "loadtxt": 0}
    plain_tokens = graph._plain_tokens

    def counted(block, n_cols):
        found = plain_tokens(block, n_cols)
        seen["loadtxt" if found is None else "plain"] += 1
        return found

    monkeypatch.setattr(graph, "_plain_tokens", counted)
    return seen


class TestFeatureReader:
    """features.csv gives what model_input(np.loadtxt(path, delimiter=",")) gives."""

    def test_sparse_bag_of_words(self, tmp_path, block_paths):
        g, reference = load_features(tmp_path, words_csv(np.random.default_rng(3), 300, 200,
                                                         0.01))
        assert sp.issparse(g.x)
        assert_matches_loadtxt(g, reference)
        assert block_paths == {"plain": 1, "loadtxt": 0}

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    def test_number_spellings(self, tmp_path, block_paths, monkeypatch, dense):
        # Only the exact token 0.0 skips conversion; the other spellings of
        # zero and the rest of loadtxt's grammar go through loadtxt. The
        # sparse file's blocks hold about three rows, all on the fast path.
        # ('+.5' leaves the plain grammar; see test_layouts_loadtxt_accepts.)
        monkeypatch.setattr(graph, "FEATURE_BLOCK_BYTES", 1 << 20 if dense else 150)
        odd = ["-0.0", "0", "00.0", "5.", "1e-17", "5e300", "0.0e0", ".0", "010", "-.5"]
        rows = [["0.0"] * 12 for _ in range(30)]
        for i, token in enumerate(odd):
            rows[3 * i][i] = token
        if dense:
            rows = [[token if token != "0.0" else "0.75" for token in row] for row in rows]
            rows[4][5] = "-0.0"
        text = "".join(",".join(row) + "\n" for row in rows).encode()
        g, reference = load_features(tmp_path, text)
        assert sp.issparse(g.x) != dense
        assert_matches_loadtxt(g, reference)
        if dense:
            assert np.signbit(g.features[4, 5]) and np.signbit(g.features[0, 0])
            assert block_paths == {"plain": 0, "loadtxt": 1}
        else:
            assert block_paths["plain"] > 1 and block_paths["loadtxt"] == 0

    @pytest.mark.parametrize("text,route", [
        (b"# header\n0.0,1.5,0.0\n\n0.0,0.0,0.0\n", "loadtxt"),
        (b"0.0,1.5,0.0\r\n0.0,0.0,2.0\r\n", "loadtxt"),
        (b"0.0, 1.5 ,0.0\n 0.0,0.0,0.0\t\n", "loadtxt"),
        (b"0.0,1.5,0.0 # trailing comment\n0.0,0.0,2.0\n", "loadtxt"),
        (b"0.0,1.5,0.0\n\n0.0,0.0,2.0\n\n", "loadtxt"),
        ("0.0,1.5,0.0\n0.0,0.0,\u00a02.0\n".encode(), "loadtxt"),
        (b"0.0,+.5,0.0\n0.0,0.0,2.0\n", "loadtxt"),
        (b"0.0,1.5,0.0\n0.0,0.0,2.0", "plain"),
    ], ids=["comment-blank", "crlf", "padded", "inline-comment", "blank-only", "non-ascii",
            "plus-sign", "no-final-newline"])
    def test_layouts_loadtxt_accepts(self, tmp_path, block_paths, text, route):
        # A block that leaves the plain grammar hands the file to np.loadtxt.
        g, reference = load_features(tmp_path, text)
        assert_matches_loadtxt(g, reference)
        assert block_paths == {"plain": 0, "loadtxt": 0, route: 1}

    def test_dense_gaussian(self, tmp_path, block_paths, monkeypatch):
        monkeypatch.setattr(graph, "FEATURE_BLOCK_BYTES", 4096)
        values = np.random.default_rng(5).normal(size=(40, 25))
        values[3, 4] = -0.0
        text = "".join(",".join(map(repr, row)) + "\n" for row in values.tolist()).encode()
        g, reference = load_features(tmp_path, text)
        assert not sp.issparse(g.x)
        assert_matches_loadtxt(g, reference)
        assert block_paths == {"plain": 0, "loadtxt": 1}

    @pytest.mark.parametrize("block_bytes", [1, 7, 50, 333])
    def test_rows_split_across_blocks(self, tmp_path, block_paths, monkeypatch, block_bytes):
        # Blocks of whole lines whatever the read size, all on the fast path.
        monkeypatch.setattr(graph, "FEATURE_BLOCK_BYTES", block_bytes)
        g, reference = load_features(tmp_path, words_csv(np.random.default_rng(7), 40, 30, 0.05))
        assert sp.issparse(g.x)
        assert_matches_loadtxt(g, reference)
        assert block_paths["plain"] > 1 and block_paths["loadtxt"] == 0

    @pytest.mark.parametrize("block_bytes", [7, 333])
    def test_late_comment_hands_file_to_loadtxt(self, tmp_path, block_paths, monkeypatch,
                                                block_bytes):
        # Plain blocks, then a comment: the rows read so far are dropped and
        # np.loadtxt reads the whole file.
        monkeypatch.setattr(graph, "FEATURE_BLOCK_BYTES", block_bytes)
        lines = words_csv(np.random.default_rng(7), 40, 30, 0.05).splitlines(keepends=True)
        g, reference = load_features(tmp_path, b"".join(lines[:20] + [b"# middle\n"] + lines[20:]))
        assert_matches_loadtxt(g, reference)
        assert block_paths["plain"] > 0 and block_paths["loadtxt"] == 1

    def test_dense_file_on_the_fast_path(self, tmp_path, block_paths, monkeypatch):
        # Every row holds 8 values and a -0.0 among 20: plain blocks, but
        # 40 % nonzero, so the file is assembled dense and each -0.0 keeps
        # its sign.
        monkeypatch.setattr(graph, "FEATURE_BLOCK_BYTES", 200)
        rng = np.random.default_rng(9)
        rows = [["0.0"] * 20 for _ in range(20)]
        for i, row in enumerate(rows):
            for j in rng.choice(np.delete(np.arange(20), i), 8, replace=False):
                row[j] = repr(rng.normal())
            row[i] = "-0.0"
        g, reference = load_features(tmp_path, "".join(",".join(r) + "\n" for r in rows).encode())
        assert not sp.issparse(g.x)
        assert_matches_loadtxt(g, reference)
        assert np.signbit(g.features[np.arange(20), np.arange(20)]).all()
        assert block_paths["plain"] > 1 and block_paths["loadtxt"] == 0

    def test_non_finite_value_in_sparse_file_names_row(self, tmp_path, monkeypatch):
        # Two stored values a row, so the 7th row starts at the 13th value.
        monkeypatch.setattr(graph, "FEATURE_BLOCK_BYTES", 300)
        rows = [["0.0"] * 40 for _ in range(12)]
        for row in rows:
            row[3] = row[9] = "0.5"
        rows[6][1] = "inf"
        d = write_dataset(tmp_path, features="".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(DatasetError, match=r"features\.csv: row 7 holds a non-finite"):
            load_graph_dir(d)

    def test_width_change_at_a_block_boundary_named(self, tmp_path, block_paths,
                                                    monkeypatch):
        # Rows of 80 bytes read 399 at a time make blocks of five rows. The
        # third block holds a comment, so np.loadtxt reads the whole file and
        # finds its rows one value short.
        monkeypatch.setattr(graph, "FEATURE_BLOCK_BYTES", 399)
        rows = ["0.0," * 19 + "0.5"] * 10 + ["# narrower\n" + "0.0," * 18 + "0.5"] * 3
        d = write_dataset(tmp_path, features="\n".join(rows) + "\n")
        with pytest.raises(DatasetError, match=r"features\.csv: the number of columns "
                                               r"changed from 20 to 19 at row 11"):
            load_graph_dir(d)
        assert block_paths == {"plain": 2, "loadtxt": 1}

    @pytest.mark.parametrize("block_bytes", [1 << 20, 60])
    def test_ragged_row_named(self, tmp_path, monkeypatch, block_bytes):
        monkeypatch.setattr(graph, "FEATURE_BLOCK_BYTES", block_bytes)
        rows = ["0.0,0.0,0.5"] * 12
        rows[8] = "0.0,0.0,0.5,0.0"
        d = write_dataset(tmp_path, features="\n".join(rows) + "\n")
        with pytest.raises(DatasetError, match=r"features\.csv: the number of columns "
                                               r"changed from 3 to 4 at row 9"):
            load_graph_dir(d)

    @pytest.mark.parametrize("row,token", [("0.0,x,0.0", "'x'"), ("0.0,,0.0", "''"),
                                           ("0.0,0.0,", "''")],
                             ids=["non-numeric", "empty", "trailing-comma"])
    def test_bad_token_names_file(self, tmp_path, row, token):
        rows = ["0.0,0.5,0.0"] * 6
        rows[4] = row
        d = write_dataset(tmp_path, features="\n".join(rows) + "\n")
        with pytest.raises(DatasetError, match=rf"features\.csv: could not convert string "
                                               rf"{token} to float64 at row 4"):
            load_graph_dir(d)

    def test_sparse_file_never_dense(self, tmp_path):
        # 2000 x 1000 at 1 %: the dense array would take 16 MB.
        n, c = 2000, 1000
        d = tmp_path / "big"
        g, reference = load_features(d, words_csv(np.random.default_rng(11), n, c, 0.01))
        assert_matches_loadtxt(g, reference)
        del g, reference
        tracemalloc.start()
        try:
            g = load_graph_dir(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sp.issparse(g.x)
        assert peak < n * c * 8


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

    @pytest.mark.parametrize("kind", ["sparse", "sbm", "awkward"])
    def test_features_csv_bytes_unchanged(self, tmp_path, monkeypatch, kind):
        # The file is what writing repr of every dense entry gives, but a
        # sparse graph.x is written from its stored entries, never densified.
        if kind == "sbm":
            g = synthetic_sbm(n_nodes=40, seed=9)
        else:
            feats = np.zeros((3, 40)) if kind == "sparse" else np.empty((3, 2))
            feats[:, :2] = [[1e-17, 0.1], [1 / 3, -2.5000000000000004],
                            [123456789.123456789, 5e300]]
            g = Graph(3, SparseMatrix.from_dense([[0, 1, 0], [1, 0, 1], [0, 1, 0]]),
                      feats, [0, 1, 0], {"train": [0], "val": [1], "test": [2]})
        expected = "".join(",".join(repr(float(x)) for x in row) + "\n"
                           for row in g.features)
        assert sp.issparse(g.x) == (kind == "sparse")
        monkeypatch.setattr(sp.csr_matrix, "toarray",
                            lambda self, *a, **k: pytest.fail("densified"))
        save_graph(g, tmp_path / "ds")
        assert (tmp_path / "ds" / "features.csv").read_text() == expected

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

    def test_csr_features_give_the_same_graph(self):
        words = np.zeros((30, 40))
        words[np.arange(30), np.arange(30) % 40] = 0.5
        given = sp.csr_matrix(words)
        args = (adjacency_from_pairs(30, [0, 1], [1, 2]),)
        rest = (np.zeros(30), {"train": [0], "val": [1], "test": [2]})
        a, b = Graph(30, *args, words, *rest), Graph(30, *args, given, *rest)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(b.x, name), getattr(a.x, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert given.data.flags.writeable  # the caller's matrix is left alone
        with pytest.raises(ValueError, match="one row per node"):
            Graph(31, adjacency_from_pairs(31, [0], [1]), given, np.zeros(31), rest[1])

    def test_dense_features_are_kept_as_given(self):
        feats = np.arange(6, dtype=np.float64).reshape(3, 2) + 1.0
        g = Graph(3, adjacency_from_pairs(3, [0], [1]), feats, [0, 1, 0],
                  {"train": [0], "val": [1], "test": [2]})
        assert g.x is g.features
        np.testing.assert_array_equal(g.features, feats)
        assert not g.features.flags.writeable

    def test_arrays_in_stored_form_are_kept_and_frozen(self):
        # float64 C-contiguous features and int64 labels and splits are kept
        # as the caller's own arrays, which become read-only.
        ids = np.arange(4, dtype=np.int64)
        feats, labels = np.eye(4), ids % 2
        splits = {"train": ids[:2].copy(), "val": ids[2:3].copy(), "test": ids[3:].copy()}
        g = Graph(4, adjacency_from_pairs(4, [0], [1]), feats, labels, splits)
        assert g.x is feats and g.labels is labels
        for name, idx in splits.items():
            assert g.splits[name] is idx
        for arr in (feats, labels, *splits.values()):
            assert not arr.flags.writeable


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
