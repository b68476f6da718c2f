"""Spectral quantities against independent oracles, and the theory checks."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import dropgcn
from dropgcn import (ModelConfig, SparseMatrix, Tensor, analyze, build_model,
                     connected_components, degrees, effective_resistance,
                     empirical_smoothing_layer, forward, normalize,
                     relaxed_smoothing_layer, resistance_matrix,
                     subspace_distance, sup_singular_value,
                     theorem1_trajectory, verify_resistance_bound)
from dropgcn.models import rescale_filters
from dropgcn.spectral import _without_edge, smoothing_probe
from conftest import random_adjacency, random_connected_adjacency


def path3():
    return SparseMatrix.from_dense([[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def triangle():
    return SparseMatrix.from_dense([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


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
        rep = analyze(normalize(SparseMatrix.from_dense([[0, 1], [1, 0]]), "AugNormAdj"))
        np.testing.assert_allclose(rep.eigenvalues, [0.0, 1.0], atol=1e-12)
        assert rep.top_multiplicity == 1
        assert rep.second_largest == pytest.approx(0.0, abs=1e-12)
        assert rep.component_count == 1
        # Basis spans the constant direction.
        np.testing.assert_allclose(np.abs(rep.basis[:, 0]), np.full(2, np.sqrt(0.5)),
                                   atol=1e-12)

    def test_two_disjoint_edges_multiplicity_two(self):
        a = SparseMatrix.from_dense(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        rep = analyze(normalize(a, "AugNormAdj"))
        assert rep.top_multiplicity == 2
        assert rep.component_count == 2
        assert rep.second_largest == pytest.approx(0.0, abs=1e-12)
        assert rep.basis.shape == (4, 2)

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
        np.testing.assert_allclose(rep.basis @ rep.basis.T, np.eye(3), rtol=0, atol=1e-12)

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
        rep = analyze(a_hat)
        e = rep.basis
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
        e, oracle = rep.basis, v[:, -mult:]
        assert e.shape == (300, mult)
        np.testing.assert_allclose(e.T @ e, np.eye(mult), rtol=0, atol=1e-12)
        np.testing.assert_allclose(e @ e.T, oracle @ oracle.T, rtol=0, atol=1e-10)

    def test_one_by_one(self):
        rep = analyze(SparseMatrix.from_dense([[0.5]]))
        assert rep.eigenvalues.tolist() == [0.5]
        assert rep.top_multiplicity == 1
        assert rep.second_largest == 0.0
        np.testing.assert_allclose(np.abs(rep.basis), [[1.0]], rtol=0, atol=1e-15)
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
            analyze(SparseMatrix.identity(5001))
        with pytest.raises(ValueError, match="nonempty"):
            analyze(SparseMatrix(0, 0, [0], [], []))


class TestSubspaceDistance:
    def test_zero_inside_span(self, rng_factory):
        rng = rng_factory(44)
        a = random_connected_adjacency(rng, 8, 0.4)
        e = analyze(normalize(a, "AugNormAdj")).basis
        h = e @ rng.normal(size=(e.shape[1], 5))
        assert subspace_distance(h, e) == pytest.approx(0.0, abs=1e-12)

    def test_pythagoras_split(self, rng_factory):
        rng = rng_factory(45)
        a = random_connected_adjacency(rng, 9, 0.4)
        e = analyze(normalize(a, "AugNormAdj")).basis
        inside = e @ rng.normal(size=(e.shape[1], 4))
        raw = rng.normal(size=(9, 4))
        perp = raw - e @ (e.T @ raw)
        assert subspace_distance(inside + perp, e) == pytest.approx(
            float(np.linalg.norm(perp)), rel=1e-10)

    def test_matches_least_squares_oracle(self, rng_factory):
        rng = rng_factory(46)
        for _ in range(25):
            a = random_adjacency(rng, 11, 0.3)
            e = analyze(normalize(a, "AugNormAdj")).basis
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
        rep = analyze(a_hat)
        cfg = ModelConfig(backbone="gcn", n_layers=depth, hidden_dim=6,
                          bias=False, dropout=0.0)
        model = build_model(cfg, 5, 4, rng)
        svals = rescale_filters(model, target=float(rng.uniform(0.5, 1.0)))
        if not relu_model:
            for layer in model.gcls:
                layer.activation = False
        x = rng.normal(size=(n, 5)) * rng.uniform(0.5, 3.0)
        _, hidden = forward(model, [a_hat] * model.n_gcls, x, training=False)
        dists = [subspace_distance(x, rep.basis)] + \
            [subspace_distance(h, rep.basis) for h in hidden]
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
            rep = analyze(a_hat)
            cfg = ModelConfig(backbone="gcn", n_layers=12, hidden_dim=6,
                              bias=False, dropout=0.0)
            model = build_model(cfg, 5, 4, rng)
            rescale_filters(model, target=0.9)
            x = rng.normal(size=(8, 5))
            _, hidden = forward(model, [a_hat] * model.n_gcls, x, training=False)
            d0 = subspace_distance(x, rep.basis)
            eps = 1e-3 * d0
            s = sup_singular_value(model)
            l_hat = relaxed_smoothing_layer(eps, d0, s, rep.second_largest)
            l_star = empirical_smoothing_layer(hidden, rep.basis, eps)
            if l_star is not None:
                reached += 1
                assert l_star <= l_hat
        assert reached >= 10  # the check must not be vacuous

    def test_probe_bundle(self, rng_factory):
        rng = rng_factory(56)
        a = random_connected_adjacency(rng, 8, 0.5)
        a_hat = normalize(a, "AugNormAdj")
        rep = analyze(a_hat)
        cfg = ModelConfig(backbone="gcn", n_layers=6, hidden_dim=5, bias=False)
        model = build_model(cfg, 4, 3, rng)
        rescale_filters(model, target=0.8)
        x = rng.normal(size=(8, 4))
        _, hidden = forward(model, [a_hat] * 6, x, training=False)
        probe = smoothing_probe(hidden, rep, sup_singular_value(model), 1e-4)
        assert len(probe.distances) == 6
        assert probe.s <= 0.8 + 1e-12
        if probe.l_star is not None:
            assert probe.distances[probe.l_star - 1] < 1e-4


class TestTrajectory:
    def test_triangle_to_path_gap_jump(self):
        # Removing one triangle edge leaves the 3-path: lambda 0 -> 1/2, and
        # the relaxed layer bound rises accordingly.
        rep = theorem1_trajectory(triangle(), seed=3, epsilon=1e-3, d0=1.0)
        first = rep.steps[1]
        assert first.n_components == 1
        assert first.second_largest == pytest.approx(0.5, abs=1e-12)
        assert rep.steps[0].second_largest == pytest.approx(0.0, abs=1e-12)
        assert rep.steps[0].l_hat == 1
        assert first.l_hat == 10  # ceil(log 1e-3 / log 0.5)
        assert rep.multiplicity_tracks_components
        assert rep.disjunction_holds

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
        current = a
        prev = resistance_matrix(current)
        for step in rep.steps[1:]:
            u, v = step.removed_edge
            rows, cols, vals = current.coo_arrays()
            keep = ~(((rows == u) & (cols == v)) | ((rows == v) & (cols == u)))
            current = SparseMatrix.from_coo(8, 8, rows[keep], cols[keep], vals[keep])
            nxt = resistance_matrix(current)
            assert np.all(nxt >= prev - 1e-9)
            prev = nxt

    def test_steps_match_analyze_on_replayed_matrices(self, rng_factory):
        rng = rng_factory(61)
        a = random_connected_adjacency(rng, 14, 0.35)
        rep = theorem1_trajectory(a, seed=4)
        current = a
        for step in rep.steps:
            if step.removed_edge is not None:
                u, v = step.removed_edge
                rows, cols, vals = current.coo_arrays()
                keep = ~(((rows == u) & (cols == v)) | ((rows == v) & (cols == u)))
                replayed = SparseMatrix.from_coo(14, 14, rows[keep], cols[keep], vals[keep])
                assert _without_edge(current, u, v) == replayed
                current = replayed
            full = analyze(normalize(current, "AugNormAdj"))
            assert step.top_multiplicity == full.top_multiplicity
            assert step.n_components == full.component_count
            assert step.second_largest == pytest.approx(full.second_largest, abs=1e-12)
        assert current.nnz == 0

    def test_requires_connected_start(self):
        a = SparseMatrix.from_dense(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        with pytest.raises(ValueError, match="connected"):
            theorem1_trajectory(a, seed=0)

    def test_deterministic_by_seed(self, rng_factory):
        rng = rng_factory(60)
        a = random_connected_adjacency(rng, 8, 0.5)
        r1 = theorem1_trajectory(a, seed=9)
        r2 = theorem1_trajectory(a, seed=9)
        assert [s.removed_edge for s in r1.steps] == [s.removed_edge for s in r2.steps]
