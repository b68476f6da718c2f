"""CSR storage invariants, degrees, normalizations, component labeling."""

import numpy as np
import pytest
import scipy.sparse as sp

from dropgcn import (SCHEMES, SparseMatrix, connected_components, degrees,
                     normalize)
from dropgcn.sparsemat import keep_entries
from conftest import random_adjacency


def triangle():
    return SparseMatrix.from_dense([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def two_nodes():
    return SparseMatrix.from_dense([[0, 1], [1, 0]])


def weighted_adjacency(rng, n, p, n_isolated):
    """Symmetric adjacency with weights spread over ten orders of magnitude;
    the last n_isolated nodes have no edges."""
    iu, iv = np.triu_indices(n - n_isolated, k=1)
    keep = rng.random(len(iu)) < p
    u, v = iu[keep], iv[keep]
    w = 10.0 ** rng.uniform(-5, 5, size=len(u))
    return SparseMatrix.from_coo(n, n, np.concatenate([u, v]), np.concatenate([v, u]),
                                 np.concatenate([w, w]))


def normalize_via_coo(a, scheme):
    """The scipy route normalize took before building CSR directly: COO
    triplets with the diagonal appended (twice for BingGeNormAdj), summed
    and canonicalized by from_coo."""
    d = degrees(a)
    n = a.n_rows
    rows, cols, vals = a.coo_arrays()
    diag = np.arange(n)
    if scheme == "FirstOrderGCN":
        with np.errstate(divide="ignore"):
            dis = np.power(d, -0.5)
        dis[np.isinf(dis)] = 0.0
        parts = [(rows, cols, vals * (dis[rows] * dis[cols])), (diag, diag, np.ones(n))]
    elif scheme in ("AugNormAdj", "BingGeNormAdj"):
        dis = np.power(d + 1.0, -0.5)
        parts = [(rows, cols, vals * (dis[rows] * dis[cols])), (diag, diag, 1.0 / (d + 1.0))]
        if scheme == "BingGeNormAdj":
            parts.append((diag, diag, np.ones(n)))
    else:
        dinv = np.power(d + 1.0, -1.0)
        parts = [(rows, cols, vals * dinv[rows]), (diag, diag, dinv)]
    r, c, v = (np.concatenate(x) for x in zip(*parts))
    return SparseMatrix.from_coo(n, n, r, c, v)


class TestStorage:
    def test_round_trip_dense(self):
        dense = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 1.5], [0.0, 1.5, 0.0]])
        m = SparseMatrix.from_dense(dense)
        assert m.nnz == 4
        np.testing.assert_array_equal(m.to_dense(), dense)

    def test_columns_sorted_and_offsets_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_adjacency(rng, 12, 0.4)
            assert a.row_offsets[0] == 0
            assert a.row_offsets[-1] == a.nnz
            assert np.all(np.diff(a.row_offsets) >= 0)
            for lo, hi in zip(a.row_offsets[:-1], a.row_offsets[1:]):
                assert np.all(np.diff(a.col_indices[lo:hi]) > 0)

    def test_no_explicit_zeros_after_construction(self):
        m = SparseMatrix.from_coo(2, 2, [0, 0, 1], [0, 1, 0], [1.0, -1.0, 0.0])
        assert m.nnz == 2  # the explicit zero is pruned
        with pytest.raises(ValueError):
            SparseMatrix(1, 1, [0, 1], [0], [0.0])

    def test_duplicate_coordinates_summed_by_from_coo(self):
        m = SparseMatrix.from_coo(2, 2, [0, 0], [1, 1], [1.0, 2.0])
        assert m.to_dense()[0, 1] == 3.0

    def test_immutability(self):
        m = two_nodes()
        with pytest.raises(ValueError):
            m.values[0] = 5.0

    def test_bad_offsets_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 2, 1], [0, 1, 0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 1], [0], [1.0])

    def test_unsorted_columns_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 3, [0, 2], [2, 0], [1.0, 1.0])

    # 5x4 with row 2 empty: rows hold cols [0,2], [1,3], [], [0,1,3], [2].
    ROWS = [[0, 2], [1, 3], [], [0, 1, 3], [2]]

    @staticmethod
    def _csr(rows):
        offsets = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
        cols = [c for r in rows for c in r]
        return 5, 4, offsets, cols, np.ones(len(cols))

    def test_rows_with_empty_rows_pass(self):
        m = SparseMatrix(*self._csr(self.ROWS))
        assert m.nnz == 8
        assert SparseMatrix(*self._csr([[], [0, 3], [], [], []])).nnz == 2
        assert SparseMatrix(*self._csr([[1, 2], [], [], [], []])).nnz == 2
        assert SparseMatrix(*self._csr([[], [], [], [], [0]])).nnz == 1
        assert SparseMatrix(*self._csr([[]] * 5)).nnz == 0
        # Decreasing across a row boundary is fine: [0,2] then [1,3].
        assert SparseMatrix(*self._csr([[3], [0], [], [3], [0]])).nnz == 4

    @pytest.mark.parametrize("row,cols", [
        (1, [3, 1]),      # middle row, unsorted
        (1, [1, 1]),      # middle row, duplicate
        (3, [1, 0, 3]),   # the row after an empty row, unsorted at its start
        (3, [0, 3, 3]),   # the row after an empty row, duplicate at its end
        (4, [2, 2]),      # last row, duplicate
        (4, [3, 2]),      # last row, unsorted
        (0, [2, 0]),      # first row
    ])
    def test_bad_row_named(self, row, cols):
        rows = [list(r) for r in self.ROWS]
        rows[row] = cols
        with pytest.raises(ValueError, match=rf"^row {row}: column indices not strictly"):
            SparseMatrix(*self._csr(rows))

    def test_column_check_matches_per_row_loop(self):
        # The per-row loop the vectorized check replaced, as the reference.
        def loop_verdict(n_rows, offsets, cols):
            for r in range(n_rows):
                lo, hi = offsets[r], offsets[r + 1]
                if hi - lo > 1 and np.any(np.diff(cols[lo:hi]) <= 0):
                    return f"row {r}: column indices not strictly increasing"
            return None

        rng = np.random.default_rng(17)
        verdicts = set()
        for _ in range(3000):
            n_rows = int(rng.integers(0, 6))
            offsets = np.concatenate(([0], np.cumsum(rng.integers(0, 4, size=n_rows))))
            cols = rng.integers(0, 5, size=offsets[-1])
            for r in range(n_rows):  # sort most rows, so failures name varied rows
                if rng.random() < 0.7:
                    cols[offsets[r]:offsets[r + 1]].sort()
            want = loop_verdict(n_rows, offsets, cols)
            try:
                SparseMatrix(n_rows, 5, offsets, cols, np.ones(len(cols)))
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == want, (offsets, cols)
            verdicts.add(want)
        assert None in verdicts and len(verdicts) == 6

    def test_first_bad_row_named(self):
        rows = [[0, 2], [1, 3], [], [3, 0], [2, 2]]
        with pytest.raises(ValueError, match="^row 3:"):
            SparseMatrix(*self._csr(rows))

    def test_column_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 2, [0, 1], [2], [1.0])

    def test_undirected_edges(self):
        u, v = triangle().undirected_edges()
        assert sorted(zip(u, v)) == [(0, 1), (0, 2), (1, 2)]

    def test_diagonal_matches_scipy(self):
        rng = np.random.default_rng(47)
        for shape in ((6, 6), (4, 7), (7, 4), (0, 3)):
            dense = np.where(rng.random(shape) < 0.4, rng.normal(size=shape), 0.0)
            m = SparseMatrix.from_dense(dense)
            np.testing.assert_array_equal(m.diagonal(), sp.csr_matrix(dense).diagonal())

    def test_equality(self):
        assert triangle() == triangle()
        assert not (triangle() == two_nodes())


class TestTwins:
    def test_pairs_each_entry_with_its_transpose(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            a = weighted_adjacency(rng, 12, 0.3, n_isolated=2)
            twin = a.twins()
            rows, cols = a.row_ids(), a.col_indices
            np.testing.assert_array_equal(rows[twin], cols)
            np.testing.assert_array_equal(cols[twin], rows)
            np.testing.assert_array_equal(a.values[twin], a.values)
            np.testing.assert_array_equal(twin[twin], np.arange(a.nnz))

    def test_diagonal_entry_is_its_own_twin(self):
        a = SparseMatrix.from_dense([[2.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(a.twins(), [0, 2, 1])  # (0,0) (0,1) (1,0)

    def test_none_without_a_twin_for_every_entry(self):
        assert SparseMatrix.from_dense([[0.0, 1.0], [0.0, 0.0]]).twins() is None
        assert SparseMatrix.from_dense([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]).twins() is None

    def test_empty(self):
        assert len(SparseMatrix(3, 3, [0, 0, 0, 0], [], []).twins()) == 0

    def test_sorted_once_and_kept_read_only(self, monkeypatch):
        a = weighted_adjacency(np.random.default_rng(45), 12, 0.3, n_isolated=2)
        lone = SparseMatrix.from_dense([[0.0, 1.0], [0.0, 0.0]])
        sorts = []
        real = np.argsort

        def counted(*args, **kwargs):
            sorts.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        twin = a.twins()
        assert a.twins() is twin and a.is_symmetric()
        assert len(sorts) == 1 and sorts[0] is a.col_indices
        assert not twin.flags.writeable
        with pytest.raises(ValueError):
            twin[0] = 0
        # A matrix without twins also sorts once and keeps its None.
        assert lone.twins() is None and lone.twins() is None and not lone.is_symmetric()
        assert len(sorts) == 2

    @staticmethod
    def masked(a, keep):
        return keep_entries(a.n_rows, a.n_cols, a.row_offsets, a.col_indices, a.values,
                            keep, a.twins())

    def test_pairwise_mask_inherits_twins_without_a_sort(self, monkeypatch):
        rng = np.random.default_rng(46)
        a = weighted_adjacency(rng, 12, 0.4, n_isolated=2)
        keep = rng.random(a.nnz) < 0.5
        keep &= keep[a.twins()]  # both entries of a pair, or neither
        assert 0 < keep.sum() < a.nnz
        monkeypatch.setattr(np, "argsort", lambda *args, **kw: pytest.fail("sorted"))
        out = self.masked(a, keep)
        inherited = out.twins()
        assert out.is_symmetric() and not inherited.flags.writeable
        monkeypatch.undo()
        fresh = SparseMatrix(out.n_rows, out.n_cols, out.row_offsets, out.col_indices,
                             out.values)
        np.testing.assert_array_equal(inherited, fresh.twins())

    def test_mask_splitting_a_pair_inherits_nothing(self):
        keep = np.ones(6, dtype=bool)
        keep[0] = False  # (0, 1) goes, (1, 0) stays
        out = self.masked(triangle(), keep)
        assert out.twins() is None and not out.is_symmetric()

    def test_inherited_twins_still_compare_values(self):
        # Structurally symmetric, but (0, 2) and (2, 0) differ in value.
        a = SparseMatrix.from_dense([[0, 1, 2], [1, 0, 1], [3, 1, 0]])
        keep = np.array([False, True, False, True, True, True])  # drop edge {0, 1}
        out = self.masked(a, keep)
        np.testing.assert_array_equal(out.twins(), [2, 3, 0, 1])
        assert not out.is_symmetric()


class TestIsSymmetric:
    @staticmethod
    def scipy_verdict(m):
        d = m.to_scipy() - m.to_scipy().T
        return d.nnz == 0 or float(np.max(np.abs(d.data))) <= 0.0

    def test_matches_scipy_difference(self):
        rng = np.random.default_rng(43)
        for trial in range(40):
            a = weighted_adjacency(rng, 12, 0.3, n_isolated=2)
            rows, cols, vals = a.coo_arrays()
            if trial % 4 == 1:  # perturb one value: same pattern, asymmetric values
                vals[rng.integers(len(vals))] *= 1.0 + 1e-3
            elif trial % 4 == 2:  # drop one stored direction: asymmetric pattern
                keep = np.arange(len(vals)) != rng.integers(len(vals))
                rows, cols, vals = rows[keep], cols[keep], vals[keep]
            elif trial % 4 == 3:  # add a one-sided entry next to perturbed values
                rows, cols = np.append(rows, 0), np.append(cols, 11)
                vals = np.append(vals * (1.0 + 1e-3 * rng.random(len(vals))), 1e-3)
            m = SparseMatrix.from_coo(12, 12, rows, cols, vals)
            assert m.is_symmetric() == self.scipy_verdict(m), trial

    def test_edge_cases(self):
        assert SparseMatrix(2, 2, [0, 0, 0], [], []).is_symmetric()
        assert not SparseMatrix.from_dense([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]).is_symmetric()
        assert not SparseMatrix.from_dense([[0.0, 1.0], [0.0, 0.0]]).is_symmetric()
        assert SparseMatrix.from_dense([[0.0, 2.0, 1.0], [2.0, 0.0, 0.0],
                                        [1.0, 0.0, 0.0]]).is_symmetric()

    @pytest.mark.parametrize("dense", [
        [[0.0, np.inf], [np.inf, 0.0]],
        [[0.0, np.nan], [np.nan, 0.0]],
        [[0.0, np.inf, 1.0], [np.inf, 0.0, 0.0], [1.0, 0.0, 0.0]],
        [[0.0, np.inf], [0.0, 0.0]],
        [[np.nan, 0.0], [0.0, 0.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
    ])
    def test_inf_and_nan_never_symmetric(self, dense):
        # inf - inf and NaN - NaN are NaN, never 0: no such matrix counts as
        # symmetric, even with a symmetric pattern of equal weights.
        assert not SparseMatrix.from_dense(dense).is_symmetric()


class TestDegrees:
    def test_simple(self):
        np.testing.assert_array_equal(degrees(triangle()), [2.0, 2.0, 2.0])

    def test_isolated_node_zero(self):
        m = SparseMatrix.from_dense([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        np.testing.assert_array_equal(degrees(m), [1.0, 1.0, 0.0])

    def test_weighted(self):
        m = SparseMatrix.from_dense([[0, 0.5, 2.0], [0.5, 0, 0], [2.0, 0, 0]])
        np.testing.assert_array_equal(degrees(m), [2.5, 0.5, 2.0])

    def test_float_without_stored_entries(self):
        # bincount sums no weights here and would give integers.
        d = degrees(SparseMatrix(3, 3, [0, 0, 0, 0], [], []))
        assert d.dtype == np.float64
        np.testing.assert_array_equal(d, [0.0, 0.0, 0.0])

    def test_matches_dense_row_sums(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = random_adjacency(rng, 10, 0.5)
            np.testing.assert_allclose(degrees(a), a.to_dense().sum(axis=1), atol=0)

    def test_no_cancellation_across_rows(self):
        # A prefix-sum difference loses the 0.3 edge behind the 1e17 one:
        # 2e17 + 0.3 rounds to 2e17, so rows 2 and 3 would read degree 0.
        m = SparseMatrix.from_coo(4, 4, [0, 1, 2, 3], [1, 0, 3, 2], [1e17, 1e17, 0.3, 0.3])
        np.testing.assert_array_equal(degrees(m), m.to_dense().sum(axis=1))
        np.testing.assert_array_equal(degrees(m), [1e17, 1e17, 0.3, 0.3])
        assert normalize(m, "AugNormAdj").to_dense()[2, 2] == 1.0 / 1.3


class TestNormalize:
    # Closed forms for the three fixtures, per scheme. Degrees: single node
    # d=0; edge pair d=1 each; triangle d=2 each.
    def test_single_node(self):
        m = SparseMatrix(1, 1, [0, 0], [], [])
        want = {"FirstOrderGCN": [[1.0]], "AugNormAdj": [[1.0]],
                "BingGeNormAdj": [[2.0]], "AugRWalk": [[1.0]]}
        for scheme in SCHEMES:
            np.testing.assert_allclose(normalize(m, scheme).to_dense(), want[scheme],
                                       atol=1e-12)

    def test_two_nodes(self):
        want = {
            "FirstOrderGCN": [[1.0, 1.0], [1.0, 1.0]],
            "AugNormAdj": [[0.5, 0.5], [0.5, 0.5]],
            "BingGeNormAdj": [[1.5, 0.5], [0.5, 1.5]],
            "AugRWalk": [[0.5, 0.5], [0.5, 0.5]],
        }
        for scheme in SCHEMES:
            np.testing.assert_allclose(normalize(two_nodes(), scheme).to_dense(),
                                       want[scheme], atol=1e-12)

    def test_triangle(self):
        third = 1.0 / 3.0
        want = {
            "FirstOrderGCN": [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]],
            "AugNormAdj": [[third] * 3] * 3,
            "BingGeNormAdj": [[1 + third, third, third],
                              [third, 1 + third, third],
                              [third, third, 1 + third]],
            "AugRWalk": [[third] * 3] * 3,
        }
        for scheme in SCHEMES:
            np.testing.assert_allclose(normalize(triangle(), scheme).to_dense(),
                                       want[scheme], atol=1e-12)

    def test_matches_dense_formulas(self):
        # Independent oracle: build each scheme from its dense matrix formula.
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = random_adjacency(rng, 9, 0.45)
            dense = a.to_dense()
            d = dense.sum(axis=1)
            eye = np.eye(9)
            with np.errstate(divide="ignore"):
                dm = np.power(d, -0.5)
            dm[np.isinf(dm)] = 0.0
            da = np.power(d + 1.0, -0.5)
            want = {
                "FirstOrderGCN": eye + np.diag(dm) @ dense @ np.diag(dm),
                "AugNormAdj": np.diag(da) @ (dense + eye) @ np.diag(da),
                "BingGeNormAdj": eye + np.diag(da) @ (dense + eye) @ np.diag(da),
                "AugRWalk": np.diag(np.power(d + 1.0, -1.0)) @ (dense + eye),
            }
            for scheme in SCHEMES:
                np.testing.assert_allclose(normalize(a, scheme).to_dense(),
                                           want[scheme], atol=1e-12)

    def test_symmetric_schemes_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_adjacency(rng, 11, 0.4)
            for scheme in ("FirstOrderGCN", "AugNormAdj", "BingGeNormAdj"):
                out = normalize(a, scheme).to_dense()
                assert np.array_equal(out, out.T)

    def test_augrwalk_rows_sum_to_one(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = random_adjacency(rng, 10, 0.3)
            rows = normalize(a, "AugRWalk").to_dense().sum(axis=1)
            np.testing.assert_allclose(rows, np.ones(10), atol=1e-12)

    def test_augnormadj_spectrum_bounded_with_top_one(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            a = random_adjacency(rng, 12, 0.35)
            w = np.linalg.eigvalsh(normalize(a, "AugNormAdj").to_dense())
            assert w.min() >= -1.0 - 1e-10
            assert abs(w.max() - 1.0) < 1e-10

    def test_isolated_node_conventions(self):
        m = SparseMatrix.from_dense([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        assert normalize(m, "AugNormAdj").to_dense()[2, 2] == 1.0
        np.testing.assert_allclose(normalize(m, "FirstOrderGCN").to_dense()[2],
                                   [0.0, 0.0, 1.0], atol=0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            normalize(SparseMatrix.from_dense([[1.0, 0.0], [0.0, 0.0]]), "AugNormAdj")
        with pytest.raises(ValueError):
            normalize(SparseMatrix.from_dense([[0, -1], [-1, 0]]), "AugNormAdj")
        with pytest.raises(ValueError):
            normalize(SparseMatrix.from_dense([[0, 1], [0, 0]]), "AugNormAdj")
        with pytest.raises(ValueError):
            normalize(two_nodes(), "RandomWalk")

    def test_bit_identical_to_coo_route(self):
        rng = np.random.default_rng(41)
        graphs = [weighted_adjacency(rng, 30, 0.15, n_isolated=4) for _ in range(10)]
        graphs += [random_adjacency(rng, 25, 0.2) for _ in range(5)]
        graphs.append(SparseMatrix(3, 3, [0, 0, 0, 0], [], []))
        # The smallest subnormal weight underflows to 0 once scaled by
        # 1/(d+1) = 1/4 (or 1/3 without augmentation), so both routes must
        # prune the same entries.
        graphs.append(SparseMatrix.from_coo(
            4, 4, [0, 1, 0, 2, 1, 2], [1, 0, 2, 0, 2, 1], [5e-324, 5e-324, 3, 3, 3, 3]))
        for a in graphs:
            for scheme in SCHEMES:
                got, want = normalize(a, scheme), normalize_via_coo(a, scheme)
                assert got == want, (scheme, a)
        assert normalize(graphs[-1], "AugNormAdj").nnz == 4 + 4

    def test_preserves_input(self):
        a = triangle()
        before = a.to_dense().copy()
        normalize(a, "AugNormAdj")
        np.testing.assert_array_equal(a.to_dense(), before)


class TestComponents:
    def test_two_pairs(self):
        m = SparseMatrix.from_dense(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        labels, count = connected_components(m)
        assert count == 2
        np.testing.assert_array_equal(labels, [0, 0, 1, 1])

    def test_isolated_nodes_are_singletons(self):
        m = SparseMatrix(3, 3, [0, 0, 0, 0], [], [])
        labels, count = connected_components(m)
        assert count == 3
        np.testing.assert_array_equal(labels, [0, 1, 2])

    def test_labels_first_seen_order(self):
        m = SparseMatrix.from_dense(
            [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
        labels, count = connected_components(m)
        assert count == 2
        np.testing.assert_array_equal(labels, [0, 1, 0])

    def test_matches_scipy(self):
        import scipy.sparse.csgraph as csgraph
        rng = np.random.default_rng(31)
        for _ in range(25):
            a = random_adjacency(rng, 14, 0.12)
            _, count = connected_components(a)
            want = csgraph.connected_components(a.to_scipy(), directed=False)[0]
            assert count == want
