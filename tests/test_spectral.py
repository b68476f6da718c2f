"""Spectral quantities against independent oracles, and the theory checks."""

import math
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import dropgcn
from dropgcn import (SYMMETRIC_SCHEMES, Graph, ModelConfig, SparseMatrix, Tensor, analyze,
                     build_model, connected_components, degrees, effective_resistance,
                     empirical_smoothing_layer, forward, normalize,
                     relaxed_smoothing_layer, resistance_matrix, sample,
                     subspace_distance, sup_singular_value,
                     theorem1_trajectory, top_eigenspace, verify_resistance_bound)
from dropgcn.models import rescale_filters
from dropgcn.spectral import TOP_CLUSTER_TOL, _component_blocks, _top_cluster, smoothing_probe
from conftest import random_adjacency, random_connected_adjacency


def path3():
    return SparseMatrix.from_dense([[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def triangle():
    return SparseMatrix.from_dense([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def weak_bridge():
    """Two random 20-node blocks joined by one edge of weight 1e-9: one
    component, so dim(M) is 1, with a second eigenvalue of AugNormAdj within
    TOP_CLUSTER_TOL of the top."""
    rng = np.random.default_rng(0)
    dense = scipy.linalg.block_diag(*(random_adjacency(rng, 20, 0.4).to_dense()
                                      for _ in range(2)))
    dense[19, 20] = dense[20, 19] = 1e-9
    return SparseMatrix.from_dense(dense)


def eig_oracle(dense, tol=1e-8):
    """Second implementation of the top-cluster split, via the general
    (QR, complex) eigensolver instead of the symmetric one."""
    w = scipy.linalg.eig(dense)[0]
    assert np.max(np.abs(w.imag)) < 1e-9
    w = np.sort(w.real)
    top = w[-1]
    mult = int(np.sum(w >= top - tol))
    lam = float(np.max(np.abs(w[: len(w) - mult]))) if mult < len(w) else 0.0
    return mult, lam


class TestAnalyze:
    def test_two_node_edge(self):
        a = SparseMatrix.from_dense([[0, 1], [1, 0]])
        rep = analyze(normalize(a, "AugNormAdj"))
        np.testing.assert_allclose(rep.eigenvalues, [0.0, 1.0], atol=1e-12)
        assert rep.top_multiplicity == 1
        assert rep.second_largest == pytest.approx(0.0, abs=1e-12)
        assert rep.component_count == 1
        # M is spanned by the constant direction.
        np.testing.assert_allclose(np.abs(top_eigenspace(a, "AugNormAdj")[:, 0]),
                                   np.full(2, np.sqrt(0.5)), atol=1e-12)

    def test_two_disjoint_edges_multiplicity_two(self):
        a = SparseMatrix.from_dense(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        rep = analyze(normalize(a, "AugNormAdj"))
        assert rep.top_multiplicity == 2
        assert rep.component_count == 2
        assert rep.second_largest == pytest.approx(0.0, abs=1e-12)
        assert top_eigenspace(a, "AugNormAdj").shape == (4, 2)

    def test_triangle_gap(self):
        rep = analyze(normalize(triangle(), "AugNormAdj"))
        assert rep.top_multiplicity == 1
        assert rep.second_largest == pytest.approx(0.0, abs=1e-12)

    def test_path3_second_eigenvalue_is_half(self):
        # The three-node path normalizes to eigenvalues {-1/6, 1/2, 1}.
        rep = analyze(normalize(path3(), "AugNormAdj"))
        np.testing.assert_allclose(rep.eigenvalues, [-1.0 / 6.0, 0.5, 1.0], atol=1e-12)
        assert rep.second_largest == pytest.approx(0.5, abs=1e-12)

    def test_edgeless_graph_cluster_spans_everything(self):
        a = SparseMatrix(3, 3, [0, 0, 0, 0], [], [])
        rep = analyze(normalize(a, "AugNormAdj"))
        assert rep.top_multiplicity == 3
        assert rep.second_largest == 0.0
        assert rep.component_count == 3
        e = top_eigenspace(a, "AugNormAdj")
        np.testing.assert_allclose(e @ e.T, np.eye(3), rtol=0, atol=1e-12)

    def test_multiplicity_equals_components_on_random_graphs(self, rng_factory):
        rng = rng_factory(40)
        for _ in range(30):
            a = random_adjacency(rng, 12, 0.15)
            rep = analyze(normalize(a, "AugNormAdj"))
            assert rep.top_multiplicity == connected_components(a)[1]
            assert rep.top_multiplicity == rep.component_count

    def test_matches_general_eigensolver(self, rng_factory):
        rng = rng_factory(41)
        for _ in range(30):
            a = random_adjacency(rng, 13, rng.uniform(0.15, 0.6))
            a_hat = normalize(a, "AugNormAdj")
            rep = analyze(a_hat)
            mult, lam = eig_oracle(a_hat.to_dense())
            assert rep.top_multiplicity == mult
            assert rep.second_largest == pytest.approx(lam, abs=1e-8)

    def test_basis_orthonormal_and_invariant(self, rng_factory):
        rng = rng_factory(42)
        a = random_connected_adjacency(rng, 10, 0.3)
        a_hat = normalize(a, "AugNormAdj")
        e = top_eigenspace(a, "AugNormAdj")
        assert e.shape[1] == analyze(a_hat).top_multiplicity
        np.testing.assert_allclose(e.T @ e, np.eye(e.shape[1]), atol=1e-10)
        # The cluster eigenspace is (near-)fixed by the matrix.
        np.testing.assert_allclose(a_hat.to_dense() @ e, e, atol=1e-9)

    def test_many_components_match_symmetric_eigensolver(self, rng_factory):
        # A sparse random graph: many components, isolated nodes among them,
        # so the top cluster is large and degenerate.
        rng = rng_factory(43)
        a = random_adjacency(rng, 300, 0.004)
        labels, count = connected_components(a)
        assert count >= 20
        assert np.any(degrees(a) == 0)
        a_hat = normalize(a, "AugNormAdj")
        rep = analyze(a_hat)
        w, v = np.linalg.eigh(a_hat.to_dense())
        np.testing.assert_allclose(rep.eigenvalues, w, rtol=0, atol=1e-12)
        mult = int(np.sum(w >= w[-1] - 1e-8))
        assert rep.top_multiplicity == mult == count == rep.component_count
        assert rep.second_largest == pytest.approx(
            float(np.max(np.abs(w[:-mult]))), abs=1e-12)
        e, oracle = top_eigenspace(a, "AugNormAdj"), v[:, -mult:]
        assert e.shape == (300, mult)
        np.testing.assert_allclose(e.T @ e, np.eye(mult), rtol=0, atol=1e-12)
        np.testing.assert_allclose(e @ e.T, oracle @ oracle.T, rtol=0, atol=1e-10)

    def test_weak_bridge_lambda_is_outside_m(self):
        # The numerical cluster holds two eigenvalues, but M has one
        # dimension: lambda is the second eigenvalue, not the third.
        a_hat = normalize(weak_bridge(), "AugNormAdj")
        rep = analyze(a_hat)
        w = np.linalg.eigvalsh(a_hat.to_dense())
        assert 1 - 1e-8 < w[-2] < 1 - 1e-12
        assert rep.top_multiplicity == 2
        assert abs(rep.second_largest - w[-2]) <= 1e-12

    @pytest.mark.parametrize("scheme", SYMMETRIC_SCHEMES)
    def test_lambda_is_beyond_closed_form_dim_m(self, scheme, rng_factory):
        # Weighted graphs with isolated nodes and one 1e-9 edge between two
        # nodes that have edges, often of two components: lambda skips
        # exactly top_eigenspace's column count of top eigenvalues.
        rng = rng_factory(45)
        for _ in range(40):
            n = int(rng.integers(6, 30))
            dense = weighted_graph_with_singletons(rng, n).to_dense()
            edged = np.flatnonzero(dense.any(axis=1))
            if len(edged) < 2:
                continue
            i, j = rng.choice(edged, size=2, replace=False)
            dense[i, j] = dense[j, i] = 1e-9
            a = SparseMatrix.from_dense(dense)
            a_hat = normalize(a, scheme)
            w = np.linalg.eigvalsh(a_hat.to_dense())
            dim = top_eigenspace(a, scheme).shape[1]
            want = float(np.abs(w[:n - dim]).max(initial=0.0))
            assert abs(analyze(a_hat).second_largest - want) <= 1e-12

    def test_one_by_one(self):
        rep = analyze(SparseMatrix.from_dense([[0.5]]))
        assert rep.eigenvalues.tolist() == [0.5]
        assert rep.top_multiplicity == 1
        assert rep.second_largest == 0.0
        assert rep.component_count == 1

    def test_import_does_not_load_scipy_linalg(self):
        # scipy.linalg costs about 8 MB of resident memory, which every
        # training run would carry without calling it.
        src = Path(dropgcn.__file__).resolve().parents[1]
        code = ("import sys, dropgcn, dropgcn.training; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))")
        out = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]"

    def test_rejects_asymmetric_and_oversize(self):
        # Row normalization of a non-regular graph is not symmetric.
        with pytest.raises(ValueError, match="symmetric"):
            analyze(normalize(path3(), "AugRWalk"))
        with pytest.raises(ValueError, match="capped"):
            analyze(SparseMatrix.from_scipy(scipy.sparse.identity(5001, format="csr")))
        with pytest.raises(ValueError, match="nonempty"):
            analyze(SparseMatrix(0, 0, [0], [], []))


def weighted_graph_with_singletons(rng, n):
    """A random weighted graph on n nodes whose first few random nodes have
    no edge: several components, isolated nodes among them."""
    dense = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.4), 1) * \
        rng.uniform(0.1, 3.0, size=(n, n))
    isolated = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
    dense[isolated, :] = 0.0
    dense[:, isolated] = 0.0
    return SparseMatrix.from_dense(dense + dense.T)


class TestTopEigenspace:
    @pytest.mark.parametrize("scheme", SYMMETRIC_SCHEMES)
    def test_spans_dense_eigh_top_cluster(self, scheme, rng_factory):
        # Oracle: the top-cluster eigenvectors of the dense normalized matrix.
        rng = rng_factory(67)
        for _ in range(30):
            a = weighted_graph_with_singletons(rng, int(rng.integers(4, 25)))
            a_hat = normalize(a, scheme)
            w, v = np.linalg.eigh(a_hat.to_dense())
            mult = int(np.sum(w >= w[-1] - TOP_CLUSTER_TOL))
            e, oracle = top_eigenspace(a, scheme), v[:, -mult:]
            # analyze's numerical multiplicity checks the closed form's size.
            assert e.shape == (a.n_rows, analyze(a_hat).top_multiplicity)
            np.testing.assert_allclose(e.T @ e, np.eye(mult), rtol=0, atol=1e-12)
            np.testing.assert_allclose(e @ e.T, oracle @ oracle.T, rtol=0, atol=1e-10)

    def test_first_order_gcn_leaves_out_isolated_nodes(self):
        # The 3-path at eigenvalue 2, the isolated node 3 at 1.
        a = SparseMatrix.from_dense([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
        e = top_eigenspace(a, "FirstOrderGCN")
        np.testing.assert_allclose(e[:, 0], np.sqrt([1, 2, 1, 0]) / 2, rtol=0, atol=1e-15)
        assert top_eigenspace(a, "AugNormAdj").shape == (4, 2)

    def test_edgeless_graph(self):
        a = SparseMatrix(4, 4, [0] * 5, [], [])
        for scheme in SYMMETRIC_SCHEMES:
            assert np.array_equal(top_eigenspace(a, scheme), np.eye(4))
            assert analyze(normalize(a, scheme)).top_multiplicity == 4

    def test_refuses_other_schemes_and_non_adjacency(self):
        with pytest.raises(ValueError, match="symmetric scheme"):
            top_eigenspace(path3(), "AugRWalk")
        with pytest.raises(ValueError, match="symmetric scheme"):
            top_eigenspace(path3(), "NoSuchScheme")
        with pytest.raises(ValueError, match="zero diagonal"):
            top_eigenspace(normalize(path3(), "AugNormAdj"), "AugNormAdj")
        with pytest.raises(ValueError, match="symmetric"):
            top_eigenspace(SparseMatrix.from_dense([[0, 1], [0, 0]]), "AugNormAdj")


def permuted_component_graph(rng):
    """A weighted graph of interleaved components: 4 singletons, five 2-node
    blocks, a 5-node and a 12-node connected block, nodes in random order."""
    sizes = [1] * 4 + [2] * 5 + [5, 12]
    perm = rng.permutation(sum(sizes))
    rows, cols = [], []
    first = 0
    for k in sizes:
        u, v = np.nonzero(np.triu(random_connected_adjacency(rng, k, 0.4).to_dense()))
        rows.append(perm[first + u])
        cols.append(perm[first + v])
        first += k
    u, v = np.concatenate(rows), np.concatenate(cols)
    w = rng.uniform(0.1, 3.0, size=len(u))
    n = len(perm)
    return SparseMatrix.from_coo(n, n, np.concatenate([u, v]), np.concatenate([v, u]),
                                 np.concatenate([w, w])), len(sizes)


class TestComponentBlocks:
    def test_interleaved_components_match_whole_matrix_eigh(self, rng_factory):
        rng = rng_factory(63)
        for _ in range(5):
            a, count = permuted_component_graph(rng)
            labels, _ = connected_components(a)
            assert np.any(np.diff(labels) < 0)  # the components interleave
            a_hat = normalize(a, "AugNormAdj")
            rep = analyze(a_hat)
            w, v = np.linalg.eigh(a_hat.to_dense())
            np.testing.assert_allclose(rep.eigenvalues, w, rtol=0, atol=1e-12)
            assert rep.top_multiplicity == count == rep.component_count
            assert rep.second_largest == pytest.approx(
                float(np.max(np.abs(w[:-count]))), abs=1e-12)
            e, oracle = top_eigenspace(a, "AugNormAdj"), v[:, -count:]
            np.testing.assert_allclose(e.T @ e, np.eye(count), rtol=0, atol=1e-12)
            np.testing.assert_allclose(a_hat.to_dense() @ e, e, rtol=0, atol=1e-12)
            np.testing.assert_allclose(e @ e.T, oracle @ oracle.T, rtol=0, atol=1e-10)

    def test_repeated_top_eigenvalue_in_one_block(self):
        # -(K4 adjacency) is connected, with eigenvalues {-3, 1, 1, 1}.
        dense = np.eye(4) - np.ones((4, 4))
        rep = analyze(SparseMatrix.from_dense(dense))
        w = np.sort(scipy.linalg.eig(dense)[0].real)
        np.testing.assert_allclose(rep.eigenvalues, w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rep.eigenvalues, [-3, 1, 1, 1], rtol=0, atol=1e-12)
        assert rep.top_multiplicity == 3 and rep.component_count == 1
        assert rep.second_largest == pytest.approx(3.0, abs=1e-12)

    def test_blocks_are_the_dense_submatrices(self, rng_factory):
        # Oracle: index the dense matrix with each component's nodes.
        rng = rng_factory(64)
        for _ in range(3):
            a, _ = permuted_component_graph(rng)
            labels, count = connected_components(a)
            dense = a.to_dense()
            got = list(_component_blocks(a, labels))
            # Label order, singletons skipped: 4 of the 11 components.
            want = [np.flatnonzero(labels == c) for c in range(count)]
            want = [nodes for nodes in want if len(nodes) > 1]
            assert len(got) == len(want) == count - 4
            for (nodes, block), want_nodes in zip(got, want):
                assert np.array_equal(nodes, want_nodes)
                assert np.all(np.diff(nodes) > 0)
                assert np.array_equal(block, dense[np.ix_(nodes, nodes)])


def test_top_cluster_split_per_row():
    # The multiplicity counts each row's eigenvalues within TOP_CLUSTER_TOL
    # of its largest; second_largest is the largest magnitude beyond the
    # row's top dims[i], a negative eigenvalue's included, in any order.
    w = np.array([[1.0, 0.2, 1.0 - 5e-9, 1.0 - 1e-6],
                  [-0.995, 0.5, 0.99, 1.0],
                  [2.0, 2.0, 2.0, 2.0],
                  [0.3, 1.0, -0.1, 1.0]])
    multiplicity, second = _top_cluster(w, [1, 2, 4, 1])
    assert multiplicity.tolist() == [2, 1, 4, 2]
    assert second.tolist() == [1.0 - 5e-9, 0.995, 0.0, 1.0]
    assert _top_cluster(w[:1], [2])[1].tolist() == [1.0 - 1e-6]


def traced_peak(fn, *args):
    """Peak bytes tracemalloc sees during fn(*args): numpy's and f2py's
    buffers included. A first untraced call loads whatever fn imports."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFootprint:
    def test_analyze_holds_one_dense_matrix(self, rng_factory):
        # Many components, isolated nodes among them.
        rng = rng_factory(61)
        a = random_adjacency(rng, 400, 0.004)
        assert connected_components(a)[1] >= 40
        a_hat = normalize(a, "AugNormAdj")
        n = a_hat.n_rows
        assert traced_peak(analyze, a_hat) <= 1.25 * n * n * 8 + 2**20

    def test_analyze_holds_no_array_beyond_one_block(self, rng_factory):
        # 50 components of 40 nodes: one n x n array would be 32 MB, an
        # n x 50 basis of M 0.8 MB and a block 12.8 kB.
        rng = rng_factory(65)
        blocks = [random_connected_adjacency(rng, 40, 0.15).to_scipy() for _ in range(50)]
        a_hat = normalize(SparseMatrix.from_scipy(scipy.sparse.block_diag(blocks)),
                          "AugNormAdj")
        assert analyze(a_hat).top_multiplicity == len(blocks)
        assert traced_peak(analyze, a_hat) <= 2 * 2**20

    @pytest.mark.parametrize("fn", [resistance_matrix, verify_resistance_bound],
                             ids=["resistance_matrix", "verify_resistance_bound"])
    def test_resistance_stays_within_three_dense_matrices(self, fn, rng_factory):
        rng = rng_factory(62)
        a = random_connected_adjacency(rng, 300, 0.03)
        n = a.n_rows
        assert traced_peak(fn, a) <= 3 * n * n * 8

    def test_effective_resistance_builds_only_its_component(self, rng_factory):
        # s and t in a 3-node path beside a 300-node component, whose block
        # alone would take 720 kB.
        big = random_connected_adjacency(rng_factory(66), 300, 0.03).to_scipy()
        a = SparseMatrix.from_scipy(scipy.sparse.block_diag([big, path3().to_scipy()]))
        assert effective_resistance(a, 300, 302) == pytest.approx(2.0, abs=1e-10)
        assert traced_peak(effective_resistance, a, 300, 302) <= 300 * 300 * 8 / 4


class TestSubspaceDistance:
    def test_zero_inside_span(self, rng_factory):
        rng = rng_factory(44)
        a = random_connected_adjacency(rng, 8, 0.4)
        e = top_eigenspace(a, "AugNormAdj")
        h = e @ rng.normal(size=(e.shape[1], 5))
        assert subspace_distance(h, e) == pytest.approx(0.0, abs=1e-12)

    def test_pythagoras_split(self, rng_factory):
        rng = rng_factory(45)
        a = random_connected_adjacency(rng, 9, 0.4)
        e = top_eigenspace(a, "AugNormAdj")
        inside = e @ rng.normal(size=(e.shape[1], 4))
        raw = rng.normal(size=(9, 4))
        perp = raw - e @ (e.T @ raw)
        assert subspace_distance(inside + perp, e) == pytest.approx(
            float(np.linalg.norm(perp)), rel=1e-10)

    def test_matches_least_squares_oracle(self, rng_factory):
        rng = rng_factory(46)
        for _ in range(25):
            a = random_adjacency(rng, 11, 0.3)
            e = top_eigenspace(a, "AugNormAdj")
            h = rng.normal(size=(11, 6))
            # Oracle: residual of the best coefficient fit min_C ||H - E C||.
            c, *_ = np.linalg.lstsq(e, h, rcond=None)
            want = float(np.linalg.norm(h - e @ c))
            assert subspace_distance(h, e) == pytest.approx(want, rel=1e-9)

    def test_accepts_tensor(self, rng_factory):
        rng = rng_factory(47)
        e = np.linalg.qr(rng.normal(size=(6, 2)))[0]
        h = rng.normal(size=(6, 3))
        assert subspace_distance(Tensor(h), e) == subspace_distance(h, e)


class TestRelaxedSmoothingLayer:
    def test_known_value(self):
        # 0.5^6 = 0.0156 > 0.01, 0.5^7 = 0.0078 < 0.01
        assert relaxed_smoothing_layer(0.01, 1.0, 1.0, 0.5) == 7

    @pytest.mark.parametrize("epsilon,d0,want", [(0.25, 1.0, 2), (0.125, 1.0, 3),
                                                 (0.5, 2.0, 2)])
    def test_bound_that_lands_on_epsilon_counts(self, epsilon, d0, want):
        # d0 * 0.5^want equals epsilon exactly: the relaxed layer stops at
        # <=, as epsilon >= d0 gives 0, where l_star needs a strict <.
        assert d0 * 0.5 ** want == epsilon
        assert relaxed_smoothing_layer(epsilon, d0, 1.0, 0.5) == want

    def test_iterative_oracle(self, rng_factory):
        rng = rng_factory(48)
        for _ in range(200):
            d0 = float(rng.uniform(0.1, 50.0))
            eps = float(rng.uniform(1e-6, 0.05))
            factor = float(rng.uniform(0.05, 0.999))
            want, d = 0, d0
            while d >= eps:
                d *= factor
                want += 1
            got = relaxed_smoothing_layer(eps, d0, 1.0, factor)
            # Repeated multiplication and the log-ratio can disagree by one
            # step when d0 * factor^l sits within rounding of eps.
            assert abs(got - want) <= 1

    def test_edge_cases(self):
        assert relaxed_smoothing_layer(2.0, 1.0, 1.0, 0.9) == 0  # already inside
        assert relaxed_smoothing_layer(0.5, 1.0, 1.0, 0.0) == 1  # lands exactly
        assert relaxed_smoothing_layer(0.5, 1.0, 0.0, 0.7) == 1
        assert relaxed_smoothing_layer(0.5, 1.0, 1.0, 1.0) == math.inf
        assert relaxed_smoothing_layer(0.5, 1.0, 1.5, 0.8) == math.inf

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            relaxed_smoothing_layer(0.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            relaxed_smoothing_layer(0.1, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            relaxed_smoothing_layer(0.1, 1.0, -1.0, 0.5)


    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_epsilon_and_d0_must_be_finite_and_positive(self, value):
        # nan used to fail deep inside with "cannot convert float NaN to integer".
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            relaxed_smoothing_layer(value, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="d0 must be finite and positive"):
            relaxed_smoothing_layer(0.1, value, 1.0, 0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_s_and_lam_must_be_finite_and_nonnegative(self, value):
        # nan used to pass `s < 0` and fail with "cannot convert float NaN to integer".
        with pytest.raises(ValueError, match="^s must be finite and nonnegative"):
            relaxed_smoothing_layer(0.1, 1.0, value, 0.5)
        with pytest.raises(ValueError, match="^lam must be finite and nonnegative"):
            relaxed_smoothing_layer(0.1, 1.0, 0.5, value)

    def test_infinite_s_times_zero_lam(self):
        # inf * 0 is nan, which used to reach the integer conversion.
        with pytest.raises(ValueError, match="^s must be finite"):
            relaxed_smoothing_layer(0.1, 1.0, math.inf, 0.0)


class TestNonFiniteTolerances:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_resistance_bound_tol(self, tol, monkeypatch):
        # With tol=nan, `margin < -tol` never holds, so every graph would
        # pass; the check comes before the eigendecomposition.
        def refuse(*args, **kw):
            raise AssertionError("analyzed before checking tol")

        monkeypatch.setattr(dropgcn.spectral, "analyze", refuse)
        with pytest.raises(ValueError, match="tol must be finite"):
            verify_resistance_bound(path3(), tol=tol)


def refuse_eigensolve(*args, **kw):
    raise AssertionError("eigensolved before the arguments were checked")


class TestEmpiricalSmoothingLayer:
    def test_first_crossing(self, rng_factory):
        rng = rng_factory(49)
        e = np.linalg.qr(rng.normal(size=(5, 1)))[0]
        perp = rng.normal(size=(5, 2))
        perp -= e @ (e.T @ perp)
        perp /= np.linalg.norm(perp)
        states = [Tensor(s * perp) for s in (0.5, 0.05, 0.005)]
        assert empirical_smoothing_layer(states, e, 0.01) == 3
        assert empirical_smoothing_layer(states, e, 1e-9) is None
        assert empirical_smoothing_layer(states, e, 0.6) == 1

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        # No distance is < nan, so nan used to report "never smoothed" even
        # for a state on the subspace.
        e = np.ones((4, 1)) / 2.0
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            empirical_smoothing_layer([e], e, epsilon)


class TestEffectiveResistance:
    def test_single_edge(self):
        a = SparseMatrix.from_dense([[0, 1], [1, 0]])
        assert effective_resistance(a, 0, 1) == pytest.approx(1.0, abs=1e-10)

    def test_series_path(self):
        assert effective_resistance(path3(), 0, 2) == pytest.approx(2.0, abs=1e-10)

    def test_parallel_triangle(self):
        # One direct unit edge in parallel with a two-edge path: 1*2/(1+2).
        assert effective_resistance(triangle(), 0, 1) == pytest.approx(2.0 / 3.0,
                                                                       abs=1e-10)

    def test_four_cycle(self):
        c4 = SparseMatrix.from_dense(
            [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
        assert effective_resistance(c4, 0, 1) == pytest.approx(0.75, abs=1e-10)
        assert effective_resistance(c4, 0, 2) == pytest.approx(1.0, abs=1e-10)

    def test_same_node_zero_and_disconnected_inf(self):
        a = SparseMatrix.from_dense(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        assert effective_resistance(a, 0, 0) == 0.0
        assert effective_resistance(a, 0, 2) == math.inf

    def test_matches_grounded_solve_oracle(self, rng_factory):
        # Oracle: ground t (delete its row/column), solve L x = e_s, read x_s.
        rng = rng_factory(50)
        for _ in range(20):
            a = random_connected_adjacency(rng, 9, 0.35)
            dense = a.to_dense()
            lap = np.diag(dense.sum(axis=1)) - dense
            s, t = rng.choice(9, size=2, replace=False)
            keep = [i for i in range(9) if i != t]
            grounded = lap[np.ix_(keep, keep)]
            rhs = np.zeros(8)
            rhs[keep.index(s)] = 1.0
            x = np.linalg.solve(grounded, rhs)
            want = float(x[keep.index(s)])
            assert effective_resistance(a, int(s), int(t)) == pytest.approx(
                want, rel=1e-9)

    def test_resistance_matrix_consistent(self, rng_factory):
        rng = rng_factory(51)
        a = random_adjacency(rng, 8, 0.3)
        mat = resistance_matrix(a)
        for s in range(8):
            for t in range(8):
                single = effective_resistance(a, s, t)
                if math.isinf(single):
                    assert math.isinf(mat[s, t])
                else:
                    assert mat[s, t] == pytest.approx(single, abs=1e-9)

    def test_node_out_of_range(self):
        with pytest.raises(ValueError):
            effective_resistance(triangle(), 0, 5)

    @pytest.mark.parametrize("s, t, bad", [(True, 2, "s"), (1.5, 0, "s"), (0, 2.0, "t"),
                                           (0, np.float64(1), "t"), (None, 1, "s")])
    def test_node_ids_must_be_integers(self, s, t, bad):
        # True used to raise numpy's "truth value of an array is ambiguous",
        # and 1.5 an IndexError.
        with pytest.raises(ValueError, match=f"^node id {bad} must be an integer"):
            effective_resistance(triangle(), s, t)

    def test_numpy_integer_node_ids(self):
        assert effective_resistance(path3(), np.int64(0), np.int32(2)) == pytest.approx(2.0)

    def test_weights_too_wide_for_the_inverse(self):
        # A 1e-300 conductance leaves L + J/k singular in float64. The
        # pseudoinverse used to report 0.25 for a resistance near 1e300.
        a = SparseMatrix.from_coo(3, 3, [0, 1, 1, 2], [1, 0, 2, 1],
                                  [1.0, 1.0, 1e-300, 1e-300])
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            resistance_matrix(a)
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            effective_resistance(a, 0, 2)

    def test_matches_pinv_oracle_on_weighted_components(self, rng_factory):
        # A singleton, a 2-node and a 3-node component and a 12-node one,
        # with weights in [0.2, 5], their nodes interleaved by a permutation.
        rng = rng_factory(63)
        sizes = [1, 2, 3, 12]
        n = sum(sizes)
        dense = np.zeros((n, n))
        start = 0
        for k in sizes:
            if k > 1:
                block = random_connected_adjacency(rng, k, 0.4).to_dense()
                block *= np.triu(rng.uniform(0.2, 5.0, size=(k, k)), 1)
                dense[start:start + k, start:start + k] = block + block.T
            start += k
        perm = rng.permutation(n)
        dense = dense[np.ix_(perm, perm)]
        a = SparseMatrix.from_dense(dense)
        labels, count = connected_components(a)
        assert count == len(sizes)
        # Oracle: the Laplacian pseudoinverse, one component at a time.
        want = np.full((n, n), math.inf)
        for c in range(count):
            nodes = np.flatnonzero(labels == c)
            sub = dense[np.ix_(nodes, nodes)]
            lp = np.linalg.pinv(np.diag(sub.sum(axis=1)) - sub)
            diag = np.diag(lp)
            want[np.ix_(nodes, nodes)] = diag[:, None] + diag[None, :] - 2.0 * lp
        np.fill_diagonal(want, 0.0)
        got = resistance_matrix(a)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
        # One pair at a time: one Cholesky factor and one solve.
        for s in range(n):
            for t in range(n):
                got_st = effective_resistance(a, s, t)
                if math.isinf(want[s, t]):
                    assert got_st == math.inf
                else:
                    assert got_st == pytest.approx(want[s, t], rel=1e-10, abs=0)


# Adjacencies that normalize rejects; the last field says whether the fault
# is structural, which the edge sampler must reject as well.
INVALID_ADJACENCIES = [
    ("asymmetric values", [[0, 1, 0], [2, 0, 1], [0, 1, 0]], False),
    ("one-sided entry", [[0, 1, 0], [0, 0, 1], [1, 1, 0]], True),
    ("stored diagonal entry", [[1, 1, 0], [1, 0, 1], [0, 1, 0]], True),
    ("negative weight", [[0, -1, 0], [-1, 0, 1], [0, 1, 0]], False),
    ("infinite weight", [[0, np.inf, 0], [np.inf, 0, 1], [0, 1, 0]], False),
    ("NaN weight", [[0, np.nan, 0], [np.nan, 0, 1], [0, 1, 0]], False),
]


@pytest.mark.parametrize("weight", [np.inf, np.nan])
def test_non_finite_weight_named_as_such(weight):
    a = SparseMatrix.from_dense([[0, weight], [weight, 0]])
    with pytest.raises(ValueError, match="finite"):
        Graph(2, a, np.zeros((2, 1)), [0, 1], {"train": [0], "val": [1], "test": []})


@pytest.mark.parametrize("name, dense, structural", INVALID_ADJACENCIES,
                         ids=[case[0] for case in INVALID_ADJACENCIES])
def test_every_adjacency_entry_point_rejects(name, dense, structural):
    a = SparseMatrix.from_dense(dense)
    entry_points = {
        "Graph": lambda: Graph(3, a, np.zeros((3, 2)), [0, 1, 0],
                               {"train": [0], "val": [1], "test": [2]}),
        "normalize": lambda: normalize(a, "AugNormAdj"),
        "effective_resistance": lambda: effective_resistance(a, 0, 2),
        "resistance_matrix": lambda: resistance_matrix(a),
        "verify_resistance_bound": lambda: verify_resistance_bound(a),
        "theorem1_trajectory": lambda: theorem1_trajectory(a, 0),
    }
    if structural:
        entry_points["sample"] = lambda: sample(a, 0.5, np.random.default_rng(0))
    for entry, call in entry_points.items():
        try:
            call()
        except ValueError:
            continue
        pytest.fail(f"{entry} accepted the adjacency with: {name}")


class TestResistanceBound:
    def test_two_node_graph(self):
        rep = verify_resistance_bound(SparseMatrix.from_dense([[0, 1], [1, 0]]))
        assert rep.holds
        assert rep.n_pairs == 1
        # lambda = 0, bound = 1 - (1/1)(1 + 1) = -1: margin 1.
        assert rep.worst_margin == pytest.approx(1.0, abs=1e-9)

    def test_random_graphs_never_violate(self, rng_factory):
        rng = rng_factory(52)
        for _ in range(40):
            a = random_adjacency(rng, int(rng.integers(4, 13)), rng.uniform(0.2, 0.7))
            if a.nnz == 0:
                continue
            rep = verify_resistance_bound(a)
            assert rep.holds, (rep.worst_margin, rep.worst_pair)

    def test_isolated_nodes_skipped(self):
        a = SparseMatrix.from_dense(
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        rep = verify_resistance_bound(a)
        assert rep.n_pairs == 1

    def test_computes_no_eigenvectors(self, rng_factory, monkeypatch):
        # lambda is read from analyze's eigenvalues alone, and here equals its
        # second_largest: every eigensolver call asks for eigenvalues only.
        a = random_adjacency(rng_factory(54), 20, 0.2)
        rep = verify_resistance_bound(a)
        assert rep.second_largest == analyze(normalize(a, "AugNormAdj")).second_largest
        calls, real_eigh = [], scipy.linalg.eigh

        def eigh_spy(*args, **kw):
            calls.append(kw.get("eigvals_only"))
            return real_eigh(*args, **kw)

        monkeypatch.setattr(scipy.linalg, "eigh", eigh_spy)
        assert verify_resistance_bound(a) == rep
        assert calls and all(calls)

    def test_weak_bridge_keeps_lambda_outside_m_only(self):
        # Two blocks joined by one edge of weight 1e-9 form one component, so
        # dim(M) is 1, but the second eigenvalue lies within TOP_CLUSTER_TOL of
        # the top and analyze's cluster holds two. Theorem 1's lambda is that
        # second eigenvalue; read outside the cluster, it was 0.6034, and
        # 400 pairs across the bridge were reported as violations.
        rng = np.random.default_rng(0)
        blocks = [random_adjacency(rng, 20, 0.4).to_dense() for _ in range(2)]
        dense = scipy.linalg.block_diag(*blocks)
        dense[19, 20] = dense[20, 19] = 1e-9
        a = SparseMatrix.from_dense(dense)
        assert connected_components(a)[1] == 1
        a_hat = normalize(a, "AugNormAdj")
        assert analyze(a_hat).top_multiplicity == 2
        rep = verify_resistance_bound(a)
        assert rep.holds, (rep.worst_margin, len(rep.violations))
        w = np.linalg.eigvalsh(a_hat.to_dense())
        assert abs(rep.second_largest - w[-2]) <= 1e-12


def resistance_bound_reference(a, tol):
    """The pair-by-pair double loop verify_resistance_bound vectorizes."""
    lam = analyze(normalize(a, "AugNormAdj")).second_largest
    d = degrees(a)
    r = resistance_matrix(a)
    labels, count = connected_components(a)
    worst_margin, worst_pair, n_pairs, violations = math.inf, None, 0, []
    for c in range(count):
        nodes = np.flatnonzero(labels == c)
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                s, t = int(nodes[i]), int(nodes[j])
                margin = lam - (1.0 - (1.0 / r[s, t]) * (1.0 / d[s] + 1.0 / d[t]))
                n_pairs += 1
                if margin < worst_margin:
                    worst_margin, worst_pair = margin, (s, t)
                if margin < -tol:
                    violations.append((s, t, margin))
    return n_pairs, worst_margin, worst_pair, violations


class TestResistanceBoundVectorized:
    def test_matches_double_loop(self, rng_factory):
        rng = rng_factory(53)
        a = random_adjacency(rng, 40, 0.05)
        assert connected_components(a)[1] > 1
        # A negative tol turns the lower half of the margins into violations,
        # so their content and order are compared too.
        _, _, _, all_pairs = resistance_bound_reference(a, -math.inf)
        tol = -float(np.median([m for _, _, m in all_pairs]))
        n_pairs, worst_margin, worst_pair, violations = resistance_bound_reference(a, tol)
        assert 0 < len(violations) < n_pairs
        rep = verify_resistance_bound(a, tol=tol)
        assert rep.n_pairs == n_pairs
        assert rep.worst_pair == worst_pair
        assert rep.worst_margin == worst_margin
        assert rep.violations == violations

    def test_worst_pair_is_first_minimum(self):
        # The 4-cycle's two opposite pairs, (0, 2) and (1, 3), tie for the
        # worst margin; the tie goes to the first in (i, j) order, as with
        # the loop's strict <.
        cycle = SparseMatrix.from_dense(
            [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
        n_pairs, worst_margin, worst_pair, _ = resistance_bound_reference(cycle, 1e-8)
        rep = verify_resistance_bound(cycle)
        assert worst_pair == (0, 2)
        assert (rep.n_pairs, rep.worst_margin, rep.worst_pair) == (
            n_pairs, worst_margin, worst_pair)


class TestContraction:
    def _check_instance(self, rng, relu_model, n=8, depth=4):
        a = random_connected_adjacency(rng, n, 0.45)
        a_hat = normalize(a, "AugNormAdj")
        rep, basis = analyze(a_hat), top_eigenspace(a, "AugNormAdj")
        cfg = ModelConfig(backbone="gcn", n_layers=depth, hidden_dim=6,
                          bias=False, dropout=0.0)
        model = build_model(cfg, 5, 4, rng)
        svals = rescale_filters(model, target=float(rng.uniform(0.5, 1.0)))
        if not relu_model:
            for layer in model.gcls:
                layer.activation = False
        x = rng.normal(size=(n, 5)) * rng.uniform(0.5, 3.0)
        _, hidden = forward(model, [a_hat] * model.n_gcls, x, training=False)
        dists = [subspace_distance(x, basis)] + \
            [subspace_distance(h, basis) for h in hidden]
        lam = rep.second_largest
        for l in range(1, len(dists)):
            assert dists[l] <= svals[l - 1] * lam * dists[l - 1] + 1e-9, (
                relu_model, l, dists[l], svals[l - 1] * lam * dists[l - 1])
        return model, rep, hidden, dists

    def test_linear_model_contracts(self, rng_factory):
        rng = rng_factory(53)
        for _ in range(30):
            self._check_instance(rng, relu_model=False)

    def test_relu_model_contracts(self, rng_factory):
        rng = rng_factory(54)
        for _ in range(30):
            self._check_instance(rng, relu_model=True)

    def test_empirical_crossing_within_relaxed_bound(self, rng_factory):
        # Whenever the distances actually dip under epsilon, the layer where
        # they first do so is at most the bound's layer count.
        rng = rng_factory(55)
        reached = 0
        for _ in range(30):
            a = random_connected_adjacency(rng, 8, 0.6)
            a_hat = normalize(a, "AugNormAdj")
            rep, basis = analyze(a_hat), top_eigenspace(a, "AugNormAdj")
            cfg = ModelConfig(backbone="gcn", n_layers=12, hidden_dim=6,
                              bias=False, dropout=0.0)
            model = build_model(cfg, 5, 4, rng)
            rescale_filters(model, target=0.9)
            x = rng.normal(size=(8, 5))
            _, hidden = forward(model, [a_hat] * model.n_gcls, x, training=False)
            d0 = subspace_distance(x, basis)
            eps = 1e-3 * d0
            s = sup_singular_value(model)
            l_hat = relaxed_smoothing_layer(eps, d0, s, rep.second_largest)
            l_star = empirical_smoothing_layer(hidden, basis, eps)
            if l_star is not None:
                reached += 1
                assert l_star <= l_hat
        assert reached >= 10  # the check must not be vacuous

    def test_probe_bundle(self, rng_factory):
        rng = rng_factory(56)
        a = random_connected_adjacency(rng, 8, 0.5)
        a_hat = normalize(a, "AugNormAdj")
        basis, lam = top_eigenspace(a, "AugNormAdj"), analyze(a_hat).second_largest
        cfg = ModelConfig(backbone="gcn", n_layers=6, hidden_dim=5, bias=False)
        model = build_model(cfg, 4, 3, rng)
        rescale_filters(model, target=0.8)
        x = rng.normal(size=(8, 4))
        _, hidden = forward(model, [a_hat] * 6, x, training=False)
        probe = smoothing_probe(hidden, basis, lam, sup_singular_value(model), 1e-4)
        assert list(probe) == ["subspace_distance", "l_hat", "l_star", "s"]
        distances = probe["subspace_distance"]
        assert len(distances) == 6
        assert probe["s"] <= 0.8 + 1e-12
        if probe["l_star"] is not None:
            assert distances[probe["l_star"] - 1] < 1e-4
        # l_star, read off the distances, agrees with the layer-by-layer scan.
        for eps in (1e-4, distances[3], 2.0 * distances[0]):
            got = smoothing_probe(hidden, basis, lam, probe["s"], eps)["l_star"]
            assert got == empirical_smoothing_layer(hidden, basis, eps)

    @pytest.mark.parametrize("lam,s", [(0.5, 1.0), (0.999, 1.01)])
    def test_probe_on_the_subspace_needs_no_layer(self, lam, s):
        # A state already on M is within epsilon from the start: l_hat is 0,
        # whether or not s * lam contracts.
        basis = np.full((4, 1), 0.5)
        probe = smoothing_probe([np.zeros((4, 3))] * 2, basis, lam, s, 1e-3)
        assert probe["subspace_distance"] == [0.0, 0.0]
        assert (probe["l_hat"], probe["l_star"]) == (0, 1)

    def test_probe_never_contracting_has_no_l_hat(self):
        basis = np.full((4, 1), 0.5)
        h = np.eye(4)[:, :2]
        assert smoothing_probe([h], basis, 0.999, 1.01, 1e-3)["l_hat"] is None

    def test_probe_rejects_no_hidden_state(self):
        with pytest.raises(ValueError, match="at least one hidden state"):
            smoothing_probe([], np.full((4, 1), 0.5), 0.5, 1.0, 1e-3)

    def test_probe_rejects_nan_model(self, rng_factory):
        rng = rng_factory(57)
        a = random_connected_adjacency(rng, 8, 0.5)
        a_hat = normalize(a, "AugNormAdj")
        basis, lam = top_eigenspace(a, "AugNormAdj"), analyze(a_hat).second_largest
        cfg = ModelConfig(backbone="gcn", n_layers=3, hidden_dim=5, bias=False)
        model = build_model(cfg, 4, 3, rng)
        x = rng.normal(size=(8, 4))
        _, hidden = forward(model, [a_hat] * 3, x, training=False)
        # Finite states, but a nan filter norm: named as s.
        with pytest.raises(ValueError, match="^s must be finite"):
            smoothing_probe(hidden, basis, lam, math.nan, 1e-3)
        for w in model.filter_weights():
            w.data[...] = math.nan
        _, hidden = forward(model, [a_hat] * 3, x, training=False)
        # nan states: d0 is nan and is named before s.
        with pytest.raises(ValueError, match="^d0 must be finite"):
            smoothing_probe(hidden, basis, lam, math.nan, 1e-3)


class TestTrajectory:
    def test_triangle_to_path_gap_jump(self):
        # Removing one triangle edge leaves the 3-path: lambda 0 -> 1/2, and
        # the relaxed layer bound rises accordingly.
        rep = theorem1_trajectory(triangle(), seed=3)
        first = rep.steps[1]
        assert first.n_components == 1
        assert first.second_largest == pytest.approx(0.5, abs=1e-12)
        assert rep.steps[0].second_largest == pytest.approx(0.0, abs=1e-12)
        assert rep.steps[0].l_hat == 1
        assert first.l_hat == 10  # ceil(log 1e-3 / log 0.5)
        assert rep.multiplicity_tracks_components
        assert rep.disjunction_holds

    def test_weak_bridge_step_lambda_is_outside_m(self):
        # Step 0 is the intact graph: one component, so its lambda is the
        # second eigenvalue, which the numerical cluster also holds.
        a = weak_bridge()
        w = np.linalg.eigvalsh(normalize(a, "AugNormAdj").to_dense())
        start = theorem1_trajectory(a, seed=0).steps[0]
        assert (start.n_components, start.top_multiplicity) == (1, 2)
        assert abs(start.second_largest - w[-2]) <= 1e-12

    def test_star_disconnects_every_step(self):
        star = SparseMatrix.from_dense(
            [[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
        rep = theorem1_trajectory(star, seed=0)
        assert rep.disconnect_steps == [1, 2, 3]
        mults = [s.top_multiplicity for s in rep.steps]
        assert mults == [1, 2, 3, 4]
        assert rep.multiplicity_tracks_components
        assert rep.disjunction_holds

    def test_ends_edgeless_with_full_multiplicity(self, rng_factory):
        rng = rng_factory(57)
        a = random_connected_adjacency(rng, 7, 0.4)
        rep = theorem1_trajectory(a, seed=11)
        last = rep.steps[-1]
        assert last.top_multiplicity == 7
        assert last.n_components == 7
        assert last.second_largest == 0.0
        assert len(rep.steps) == 1 + len(a.undirected_edges()[0])

    def test_multiplicity_steps_by_one_at_disconnections(self, rng_factory):
        rng = rng_factory(58)
        for seed in range(5):
            a = random_connected_adjacency(rng, 9, 0.3)
            rep = theorem1_trajectory(a, seed=seed)
            for k in rep.disconnect_steps:
                assert (rep.steps[k].top_multiplicity
                        == rep.steps[k - 1].top_multiplicity + 1)
            assert rep.multiplicity_tracks_components
            assert rep.disjunction_holds

    def test_resistance_monotone_under_removal(self, rng_factory):
        # Replay a trajectory's removals and watch all finite resistances
        # grow (or leave the component, which reads as inf).
        rng = rng_factory(59)
        a = random_connected_adjacency(rng, 8, 0.4)
        rep = theorem1_trajectory(a, seed=21)
        graphs = replayed(a, rep.steps)
        prev = resistance_matrix(next(graphs))
        for current in graphs:
            nxt = resistance_matrix(current)
            assert np.all(nxt >= prev - 1e-9)
            prev = nxt

    def test_steps_match_analyze_on_replayed_matrices(self, rng_factory):
        rng = rng_factory(61)
        a = random_connected_adjacency(rng, 14, 0.35)
        rep = theorem1_trajectory(a, seed=4)
        # The pick rule: the seed's stream picks uniformly among the edges
        # still present, in their undirected_edges() order.
        picks = np.random.default_rng(4)
        current = a
        for step in rep.steps:
            if step.removed_edge is not None:
                u, v = current.undirected_edges()
                pick = int(picks.integers(len(u)))
                assert step.removed_edge == (int(u[pick]), int(v[pick]))
                u, v = step.removed_edge
                rows, cols, vals = current.coo_arrays()
                keep = ~(((rows == u) & (cols == v)) | ((rows == v) & (cols == u)))
                current = SparseMatrix.from_coo(14, 14, rows[keep], cols[keep], vals[keep])
            full = analyze(normalize(current, "AugNormAdj"))
            assert step.top_multiplicity == full.top_multiplicity
            assert step.n_components == full.component_count
            assert step.second_largest == pytest.approx(full.second_largest, abs=1e-12)
        assert current.nnz == 0

    def test_sorts_no_columns(self, rng_factory, monkeypatch):
        # Every removal a trajectory masks inherits the start graph's twins,
        # and nothing asks a normalization for its own, so no matrix sorts
        # its columns.
        a = random_connected_adjacency(rng_factory(63), 12, 0.4)
        a.twins()
        sort = SparseMatrix.twins

        def kept(self):
            assert hasattr(self, "_twins"), "sorted the columns of a matrix"
            return sort(self)

        monkeypatch.setattr(SparseMatrix, "twins", kept)
        assert theorem1_trajectory(a, seed=1).multiplicity_tracks_components

    def test_requires_connected_start(self, monkeypatch):
        a = SparseMatrix.from_dense(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse_eigensolve)
        with pytest.raises(ValueError, match="connected"):
            theorem1_trajectory(a, seed=0)

    @pytest.mark.parametrize("seed, message", [
        (None, "seed must be an integer"), (True, "seed must be an integer"),
        (1.0, "seed must be an integer"), (-1, "seed must be nonnegative")])
    def test_seed_checked_before_any_work(self, seed, message, monkeypatch):
        # None used to draw fresh OS entropy, so the run could not be
        # repeated; True ran as seed 1.
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse_eigensolve)
        with pytest.raises(ValueError, match=message):
            theorem1_trajectory(triangle(), seed=seed)

    def test_numpy_integer_seed(self):
        steps = theorem1_trajectory(triangle(), seed=np.int64(3)).steps
        assert steps == theorem1_trajectory(triangle(), seed=3).steps

    def test_deterministic_by_seed(self, rng_factory):
        rng = rng_factory(60)
        a = random_connected_adjacency(rng, 8, 0.5)
        r1 = theorem1_trajectory(a, seed=9)
        r2 = theorem1_trajectory(a, seed=9)
        assert [s.removed_edge for s in r1.steps] == [s.removed_edge for s in r2.steps]


def replayed(a, steps):
    """The adjacency after each step, each step's edge deleted by value
    from the one before."""
    current = a
    yield current
    for step in steps[1:]:
        u, v = step.removed_edge
        rows, cols, vals = current.coo_arrays()
        keep = ~(((rows == u) & (cols == v)) | ((rows == v) & (cols == u)))
        current = SparseMatrix.from_coo(a.n_rows, a.n_cols, rows[keep], cols[keep], vals[keep])
        yield current


def path_with_chords(rng, n, n_chords):
    """A connected graph: a path through the nodes in random order, plus
    n_chords random extra edges."""
    order = rng.permutation(n)
    u = np.concatenate([order[:-1], rng.integers(0, n, size=n_chords)])
    v = np.concatenate([order[1:], rng.integers(0, n, size=n_chords)])
    keep = u != v
    u, v = u[keep], v[keep]
    pattern = scipy.sparse.coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    return SparseMatrix.from_scipy((pattern + pattern.T).sign())


class TestTrajectoryStacks:
    """The steps are eigensolved in stacks on two threads."""

    def test_stacks_match_replayed_analyze_and_bfs(self, rng_factory, monkeypatch):
        # Stacks of 4 steps while every node keeps an edge, longer later, so
        # nodes lose their last edge inside a stack and stay in its block.
        a = random_connected_adjacency(rng_factory(67), 16, 0.3)
        monkeypatch.setattr(dropgcn.spectral, "STACK_BYTES", 4 * 8 * (16 * 16 + 16))
        stacks = []
        real = dropgcn.spectral._step_stack

        def spy(*args):
            stacks.append(args[-2:])
            return real(*args)

        monkeypatch.setattr(dropgcn.spectral, "_step_stack", spy)
        rep = theorem1_trajectory(a, seed=5)
        firsts = {first for first, _ in stacks}
        assert len(stacks) >= 4
        assert sorted(stacks)[-1][1] == len(rep.steps)
        edgeless_inside = 0
        for step, current in zip(rep.steps, replayed(a, rep.steps)):
            full = analyze(normalize(current, "AugNormAdj"))
            assert step.top_multiplicity == full.top_multiplicity
            assert step.second_largest == pytest.approx(full.second_largest, abs=1e-12)
            assert step.n_components == connected_components(current)[1]
            if step.removed_edge is not None and step.step not in firsts:
                edgeless_inside += int(np.sum(degrees(current)[list(step.removed_edge)] == 0))
        assert edgeless_inside >= 2
        assert current.nnz == 0

    @staticmethod
    def bits(rep):
        return [repr(astuple(step)) for step in rep.steps]

    def test_steps_bit_identical_across_calls_and_thread_counts(self, rng_factory,
                                                               monkeypatch):
        a = random_connected_adjacency(rng_factory(68), 40, 0.15)
        monkeypatch.setattr(dropgcn.spectral, "STACK_BYTES", 3 * 8 * (40 * 40 + 40))
        first = self.bits(theorem1_trajectory(a, seed=8))
        assert self.bits(theorem1_trajectory(a, seed=8)) == first
        monkeypatch.setattr(dropgcn.spectral, "ThreadPoolExecutor",
                            lambda max_workers: ThreadPoolExecutor(max_workers=1))
        assert self.bits(theorem1_trajectory(a, seed=8)) == first

    def test_leaves_no_thread_alive(self, rng_factory, monkeypatch):
        # Stacks of 2 steps, so the trajectory has dozens of them.
        a = random_connected_adjacency(rng_factory(69), 30, 0.2)
        monkeypatch.setattr(dropgcn.spectral, "STACK_BYTES", 2 * 8 * (30 * 30 + 30))
        built = []
        real = dropgcn.spectral._step_stack
        monkeypatch.setattr(dropgcn.spectral, "_step_stack",
                            lambda *args: built.append(args[-2:]) or real(*args))
        before = set(threading.enumerate())
        theorem1_trajectory(a, seed=2)
        assert set(threading.enumerate()) == before
        assert len(built) >= 20
        built.clear()
        solvers = []

        def failing(stack):
            solvers.append(threading.current_thread())
            time.sleep(0.01)  # lets the calling thread see the failure
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            theorem1_trajectory(a, seed=2)
        assert set(threading.enumerate()) == before
        assert solvers and threading.main_thread() not in solvers
        # The first failure cancels every stack not yet started: a few are
        # built, each by the worker that solves it.
        assert len(built) == len(solvers) <= 6

    @staticmethod
    def count_stacks(monkeypatch):
        """Spy on the stacks a trajectory maps: their shapes, in the order
        made, and the most alive at once. The maps are out of tracemalloc's
        sight."""
        real = dropgcn.spectral._mapped_zeros
        shapes, live, most = [], [0], [0]

        def counted(shape):
            out = real(shape)
            shapes.append(shape)
            live[0] += 1
            most[0] = max(most[0], live[0])
            weakref.finalize(out, lambda: live.__setitem__(0, live[0] - 1))
            return out

        monkeypatch.setattr(dropgcn.spectral, "_mapped_zeros", counted)
        return shapes, most

    def test_footprint(self, rng_factory, monkeypatch):
        # 200 nodes, about 300 edges. One dense matrix takes 320 kB, every
        # step's n eigenvalues at once 475 kB. At most one stack per worker
        # is alive at a time, each within STACK_BYTES.
        a = path_with_chords(rng_factory(70), 200, 100)
        n, n_steps = a.n_rows, a.nnz // 2 + 1
        shapes, most = self.count_stacks(monkeypatch)
        assert traced_peak(theorem1_trajectory, a, 0) <= 2 * n * n * 8
        assert most[0] <= 2
        assert len(shapes) >= 2 * 10  # traced_peak calls twice
        assert all(c * (k * k + n) * 8 <= dropgcn.spectral.STACK_BYTES for c, k, _ in shapes)
        assert sum(c for c, _, _ in shapes) == 2 * n_steps

    def test_one_thread_when_one_step_exceeds_the_cap(self, rng_factory, monkeypatch):
        # Each step on all n nodes then gets a stack of its own, and one
        # stack is alive at a time: one dense matrix and eigvalsh's copy.
        a = random_connected_adjacency(rng_factory(71), 30, 0.2)
        n = a.n_rows
        monkeypatch.setattr(dropgcn.spectral, "STACK_BYTES", 8 * (n * n + n) - 1)
        shapes, most = self.count_stacks(monkeypatch)
        solvers = set()
        real = np.linalg.eigvalsh

        def solve(stack):
            solvers.add(threading.current_thread())
            return real(stack)

        monkeypatch.setattr(np.linalg, "eigvalsh", solve)
        rep = theorem1_trajectory(a, seed=3)
        assert shapes[0] == (1, n, n) and all(c == 1 for c, k, _ in shapes if k == n)
        assert sum(c for c, _, _ in shapes) == len(rep.steps)
        assert most[0] == 1 and len(solvers) == 1
