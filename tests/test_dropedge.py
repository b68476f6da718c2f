"""Sampler exactness, unbiasedness, granularity, and the propagation path."""

import numpy as np
import pytest

from dropgcn import (DropEdgeConfig, ModelConfig, SparseMatrix, dropedge, normalize,
                     propagation_matrices, sample, sample_layerwise)
from dropgcn.dropedge import drop_count
from conftest import random_adjacency


def triangle():
    return SparseMatrix.from_dense([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def reference_sample(a, p, rng):
    """The sampler before it masked the CSR arrays: encode each entry as an
    undirected (min, max) key, find the dropped keys with np.isin, and
    rebuild through from_coo."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"drop rate p must lie in [0, 1], got {p}")
    u, v = a.undirected_edges()
    n_edges = len(u)
    n_drop = int(np.floor(n_edges * p))
    if n_drop == 0:
        return SparseMatrix(a.n_rows, a.n_cols, a.row_offsets, a.col_indices, a.values)
    chosen = rng.choice(n_edges, size=n_drop, replace=False)
    dropped = np.zeros(n_edges, dtype=bool)
    dropped[chosen] = True
    key_drop = u[dropped] * a.n_cols + v[dropped]
    rows, cols, vals = a.coo_arrays()
    keys = np.minimum(rows, cols) * a.n_cols + np.maximum(rows, cols)
    keep = ~np.isin(keys, key_drop)
    return SparseMatrix.from_coo(a.n_rows, a.n_cols, rows[keep], cols[keep], vals[keep])


def weighted_with_isolated(rng, n, p, n_isolated):
    """Symmetric adjacency with non-unit weights; the last n_isolated nodes
    have no edges."""
    iu, iv = np.triu_indices(n - n_isolated, k=1)
    keep = rng.random(len(iu)) < p
    u, v = iu[keep], iv[keep]
    w = rng.uniform(0.1, 5.0, size=len(u))
    return SparseMatrix.from_coo(n, n, np.concatenate([u, v]), np.concatenate([v, u]),
                                 np.concatenate([w, w]))


# Graphs for the reference comparisons: unit weights with isolated nodes
# (sparse Erdos-Renyi), non-unit weights with isolated nodes, and an edgeless one.
REFERENCE_GRAPHS = {
    "sparse-unit": lambda: random_adjacency(np.random.default_rng(31), 40, 0.04),
    "weighted": lambda: weighted_with_isolated(np.random.default_rng(32), 30, 0.3, 4),
    "edgeless": lambda: SparseMatrix(5, 5, np.zeros(6, dtype=np.int64),
                                     np.empty(0, dtype=np.int64), np.empty(0)),
}
REFERENCE_RATES = (0.0, 0.17, 0.5, 1.0)


class TestSample:
    def test_p_zero_is_identity_draw(self, rng_factory):
        a = triangle()
        out = sample(a, 0.0, rng_factory(0))
        assert out is a  # immutable, so the no-draw path hands it back

    def test_p_one_empties_the_graph(self, rng_factory):
        out = sample(triangle(), 1.0, rng_factory(0))
        assert out.nnz == 0

    def test_two_node_p_one_renormalizes_to_identity(self, rng_factory):
        a = SparseMatrix.from_dense([[0, 1], [1, 0]])
        dropped = sample(a, 1.0, rng_factory(3))
        np.testing.assert_array_equal(normalize(dropped, "AugNormAdj").to_dense(),
                                      np.eye(2))

    def test_exact_count_and_symmetry(self, rng_factory):
        rng = rng_factory(13)
        a = random_adjacency(rng, 20, 0.3)
        n_edges = len(a.undirected_edges()[0])
        for p in (0.1, 0.35, 0.5, 0.77):
            out = sample(a, p, rng)
            assert out.nnz == a.nnz - 2 * int(np.floor(n_edges * p))
            assert out.is_symmetric()
            assert np.all(out.diagonal() == 0)

    def test_floor_semantics(self, rng_factory):
        # Triangle with p=0.5: floor(3 * 0.5) = 1 edge removed.
        out = sample(triangle(), 0.5, rng_factory(1))
        assert out.nnz == 4

    def test_subset_of_original(self, rng_factory):
        rng = rng_factory(19)
        a = random_adjacency(rng, 15, 0.4)
        dense = a.to_dense()
        out = sample(a, 0.6, rng)
        kept = out.to_dense()
        assert np.all(dense[kept > 0] == kept[kept > 0])
        assert np.all(kept[dense == 0] == 0)

    def test_determinism_same_seed(self, rng_factory):
        a = random_adjacency(np.random.default_rng(2), 12, 0.5)
        seq1 = [sample(a, 0.4, rng_factory(42)) for _ in range(1)]
        seq2 = [sample(a, 0.4, rng_factory(42)) for _ in range(1)]
        r1, r2 = np.random.default_rng(99), np.random.default_rng(99)
        seq1 += [sample(a, 0.4, r1) for _ in range(5)]
        seq2 += [sample(a, 0.4, r2) for _ in range(5)]
        for m1, m2 in zip(seq1, seq2):
            assert m1 == m2

    def test_rejects_bad_rate(self, rng_factory):
        with pytest.raises(ValueError):
            sample(triangle(), -0.1, rng_factory(0))
        with pytest.raises(ValueError):
            sample(triangle(), 1.5, rng_factory(0))
        with pytest.raises(ValueError):
            DropEdgeConfig(p=1.2)

    @pytest.mark.parametrize("p", [True, False, "0.5", None])
    def test_rate_must_be_a_real_number(self, rng_factory, p):
        # As in DropEdgeConfig: a bool is not a rate (True would compare as
        # 1 and drop every edge), nor is a string.
        with pytest.raises(ValueError, match="p must be a real number"):
            sample(triangle(), p, rng_factory(0))

    def test_numpy_rates_accepted(self, rng_factory):
        a = random_adjacency(np.random.default_rng(2), 12, 0.5)
        for p in (np.float64(0.4), np.float32(0.4)):
            assert sample(a, p, rng_factory(3)) == sample(a, float(p), rng_factory(3))
        assert sample(a, np.int64(0), rng_factory(3)) is a

    def test_triangle_each_edge_equally_likely(self, rng_factory):
        # p=1/3 drops exactly one of the three edges; over many draws each
        # edge should be hit about a third of the time.
        rng = rng_factory(101)
        a = triangle()
        counts = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
        n = 3000
        for _ in range(n):
            out = sample(a, 1.0 / 3.0, rng)
            kept = set(zip(*out.undirected_edges()))
            (gone,) = set(counts) - kept
            counts[gone] += 1
        for c in counts.values():
            assert abs(c / n - 1.0 / 3.0) < 0.03

    def test_per_edge_frequency_unbiased(self, rng_factory):
        # Every undirected edge is dropped with probability floor(V p)/V.
        rng = rng_factory(7)
        a = random_adjacency(rng, 12, 0.4)
        u, v = a.undirected_edges()
        n_edges = len(u)
        p = 0.45
        p_eff = np.floor(n_edges * p) / n_edges
        draws = 4000
        dropped = np.zeros(n_edges)
        for _ in range(draws):
            out = sample(a, p, rng)
            kept = set(zip(*out.undirected_edges()))
            for i, edge in enumerate(zip(u, v)):
                if edge not in kept:
                    dropped[i] += 1
        sigma = np.sqrt(p_eff * (1 - p_eff) / draws)
        assert np.all(np.abs(dropped / draws - p_eff) < 4 * sigma)


class TestAgainstReference:
    """The masked sampler gives the reference sampler's matrices and leaves
    the generator in the same state."""

    @pytest.mark.parametrize("graph", sorted(REFERENCE_GRAPHS))
    @pytest.mark.parametrize("p", REFERENCE_RATES)
    def test_sample(self, graph, p):
        a = REFERENCE_GRAPHS[graph]()
        if graph == "sparse-unit":
            assert np.any(np.diff(a.row_offsets) == 0)  # has isolated nodes
        got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(4):
            assert sample(a, p, got_rng) == reference_sample(a, p, want_rng)
        assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)

    @pytest.mark.parametrize("p", REFERENCE_RATES)
    def test_sample_layerwise(self, p):
        a = REFERENCE_GRAPHS["weighted"]()
        got_rng, want_rng = np.random.default_rng(8), np.random.default_rng(8)
        got = sample_layerwise(a, p, 5, got_rng)
        want = [reference_sample(a, p, want_rng) for _ in range(5)]
        assert got == want
        assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)

    @pytest.mark.parametrize("layer_wise", [False, True])
    @pytest.mark.parametrize("p", REFERENCE_RATES)
    def test_propagation_matrices(self, p, layer_wise):
        a = REFERENCE_GRAPHS["sparse-unit"]()
        cfg = ModelConfig(scheme="AugNormAdj",
                          dropedge=DropEdgeConfig(p=p, layer_wise=layer_wise))
        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = propagation_matrices(a, cfg, 3, got_rng, full=normalize(a, "AugNormAdj"))
        if p == 0.0:
            want = [normalize(a, "AugNormAdj")] * 3
        elif layer_wise:
            want = [normalize(reference_sample(a, p, want_rng), "AugNormAdj")
                    for _ in range(3)]
        else:
            want = [normalize(reference_sample(a, p, want_rng), "AugNormAdj")] * 3
        assert got == want
        assert got_rng.integers(1 << 30) == want_rng.integers(1 << 30)

    def test_rejects_structurally_asymmetric(self, rng_factory):
        a = SparseMatrix.from_dense([[0, 1, 1], [1, 0, 0], [0, 1, 0]])
        for p in (0.0, 0.5):
            with pytest.raises(ValueError, match="symmetric"):
                sample(a, p, rng_factory(0))

    def test_rejects_stored_diagonal(self, rng_factory):
        a = SparseMatrix.from_dense([[0, 1, 0], [1, 2, 1], [0, 1, 0]])
        for p in (0.0, 0.5):
            with pytest.raises(ValueError, match="diagonal"):
                sample(a, p, rng_factory(0))


class TestLayerwise:
    def test_independent_draws(self, rng_factory):
        a = random_adjacency(np.random.default_rng(3), 14, 0.5)
        mats = sample_layerwise(a, 0.5, 6, rng_factory(5))
        assert len(mats) == 6
        distinct = sum(1 for i in range(5) if not (mats[i] == mats[i + 1]))
        assert distinct >= 3  # same draw six times in a row would be absurd

    def test_matches_sequential_sampling(self, rng_factory):
        a = random_adjacency(np.random.default_rng(3), 14, 0.5)
        mats = sample_layerwise(a, 0.5, 4, rng_factory(8))
        rng = rng_factory(8)
        for m in mats:
            assert m == sample(a, 0.5, rng)


class TestDrawsInheritTwins:
    """A draw drops both entries of an edge together, so it takes its
    transpose twins from the adjacency: neither the draw nor its
    normalization sorts."""

    @pytest.mark.parametrize("layer_wise", [False, True], ids=["oneshot", "layerwise"])
    def test_inherited_twins_equal_a_fresh_sort(self, rng_factory, monkeypatch, layer_wise):
        a = weighted_with_isolated(np.random.default_rng(33), 30, 0.3, 4)
        a.twins()
        sorts = []
        real = np.argsort

        def counted(*args, **kwargs):
            sorts.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        rng = rng_factory(6)
        draws = sample_layerwise(a, 0.4, 3, rng) if layer_wise else [sample(a, 0.4, rng)]
        for draw in draws:
            normalize(draw, "AugNormAdj")
        assert sorts == []
        for draw in draws:
            fresh = SparseMatrix(draw.n_rows, draw.n_cols, draw.row_offsets,
                                 draw.col_indices, draw.values)
            np.testing.assert_array_equal(draw.twins(), fresh.twins())
            assert not draw.twins().flags.writeable


class TestPropagationMatrices:
    def test_p_zero_training_same_as_eval(self, rng_factory):
        a = triangle()
        cfg = ModelConfig(scheme="AugNormAdj", dropedge=DropEdgeConfig(p=0.0))
        full = normalize(a, "AugNormAdj")
        mats = propagation_matrices(a, cfg, 3, rng_factory(0), full=full)
        assert all(m is full for m in mats)

    def test_given_full_normalization_is_reused(self, rng_factory, monkeypatch):
        a = triangle()
        full = normalize(a, "AugNormAdj")
        # Only drawn matrices are normalized here, never the full graph.
        inputs = []
        real = dropedge.normalize
        monkeypatch.setattr(dropedge, "normalize",
                            lambda m, scheme: inputs.append(m) or real(m, scheme))
        cfg = ModelConfig(scheme="AugNormAdj", dropedge=DropEdgeConfig(p=0.0))
        rng = rng_factory(0)
        mats = propagation_matrices(a, cfg, 3, rng, full=full)
        assert all(m is full for m in mats)
        assert rng.integers(1 << 30) == rng_factory(0).integers(1 << 30)
        # With p > 0 the draw ignores it.
        cfg = ModelConfig(scheme="AugNormAdj", dropedge=DropEdgeConfig(p=0.5))
        mats = propagation_matrices(a, cfg, 2, rng_factory(0), full=full)
        assert mats[0] is not full
        assert len(inputs) == 1 and inputs[0] is not a

    def test_one_shot_shares_one_draw(self, rng_factory):
        a = random_adjacency(np.random.default_rng(6), 16, 0.4)
        cfg = ModelConfig(scheme="AugNormAdj", dropedge=DropEdgeConfig(p=0.5))
        mats = propagation_matrices(a, cfg, 5, rng_factory(2), full=normalize(a, "AugNormAdj"))
        assert all(m is mats[0] for m in mats)
        # Matches drop-then-normalize done by hand from the same stream.
        want = normalize(sample(a, 0.5, rng_factory(2)), "AugNormAdj")
        assert mats[0] == want

    def test_layerwise_distinct_objects(self, rng_factory):
        a = random_adjacency(np.random.default_rng(6), 16, 0.4)
        cfg = ModelConfig(scheme="AugNormAdj", dropedge=DropEdgeConfig(p=0.5, layer_wise=True))
        mats = propagation_matrices(a, cfg, 4, rng_factory(2), full=normalize(a, "AugNormAdj"))
        assert len({id(m) for m in mats}) == 4

    def test_degrees_renormalized_after_dropping(self, rng_factory):
        # The dropped graph's normalization must use the dropped degrees:
        # every row of the AugRWalk form still sums to one.
        a = random_adjacency(np.random.default_rng(9), 12, 0.6)
        cfg = ModelConfig(scheme="AugRWalk", dropedge=DropEdgeConfig(p=0.5))
        mats = propagation_matrices(a, cfg, 2, rng_factory(4), full=normalize(a, "AugRWalk"))
        np.testing.assert_allclose(mats[0].to_dense().sum(axis=1), np.ones(12),
                                   atol=1e-12)

    def test_model_scheme_normalizes_every_matrix(self, rng_factory):
        a = random_adjacency(np.random.default_rng(10), 14, 0.5)
        for p in (0.0, 0.5):
            cfg = ModelConfig(scheme="BingGeNormAdj",
                              dropedge=DropEdgeConfig(p=p, layer_wise=True))
            got = propagation_matrices(a, cfg, 3, rng_factory(5),
                                       full=normalize(a, "BingGeNormAdj"))
            rng = rng_factory(5)
            draws = sample_layerwise(a, p, 3, rng) if p > 0 else [a] * 3
            assert got == [normalize(m, "BingGeNormAdj") for m in draws]


class TestDropCount:
    """floor(V * p) edges per draw, V the undirected edge count. A rate
    below 1/V drops nothing, so it behaves as p=0 everywhere."""

    def test_rate_below_one_edge_draws_nothing(self, rng_factory):
        a = random_adjacency(np.random.default_rng(12), 30, 0.2)
        p = 0.9 / (a.nnz // 2)
        assert drop_count(a, p) == 0
        rng = rng_factory(4)
        assert sample(a, p, rng) == a
        full = normalize(a, "AugNormAdj")
        for layer_wise in (False, True):
            cfg = ModelConfig(scheme="AugNormAdj",
                              dropedge=DropEdgeConfig(p=p, layer_wise=layer_wise))
            mats = propagation_matrices(a, cfg, 3, rng, full=full)
            assert all(m is full for m in mats)
        # Nothing was drawn from the stream.
        assert rng.integers(1 << 30) == rng_factory(4).integers(1 << 30)
