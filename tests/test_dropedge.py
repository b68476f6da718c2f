"""Sampler exactness, unbiasedness, granularity, and the propagation path."""

import numpy as np
import pytest

from dropgcn import (DropEdgeConfig, SparseMatrix, normalize,
                     propagation_matrices, sample, sample_layerwise)
from conftest import random_adjacency


def triangle():
    return SparseMatrix.from_dense([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


class TestSample:
    def test_p_zero_is_identity_draw(self, rng_factory):
        a = triangle()
        out = sample(a, 0.0, rng_factory(0))
        assert out == a
        assert out is not a  # fresh object, input untouched

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


class TestPropagationMatrices:
    def test_eval_mode_shares_plain_normalization(self, rng_factory):
        a = triangle()
        cfg = DropEdgeConfig(p=0.9, scheme="AugNormAdj")
        rng = rng_factory(0)
        mats = propagation_matrices(a, cfg, 4, rng, training=False)
        assert len(mats) == 4
        assert all(m is mats[0] for m in mats)
        assert mats[0] == normalize(a, "AugNormAdj")
        # The sampler stream was not consumed.
        assert rng.integers(1 << 30) == rng_factory(0).integers(1 << 30)

    def test_p_zero_training_same_as_eval(self, rng_factory):
        a = triangle()
        cfg = DropEdgeConfig(p=0.0)
        mats = propagation_matrices(a, cfg, 3, rng_factory(0), training=True)
        assert all(m is mats[0] for m in mats)
        assert mats[0] == normalize(a, "AugNormAdj")

    def test_given_full_normalization_is_reused(self, rng_factory):
        a = triangle()
        full = normalize(a, "AugNormAdj")
        for cfg, training in ((DropEdgeConfig(p=0.0), True), (DropEdgeConfig(p=0.5), False)):
            rng = rng_factory(0)
            mats = propagation_matrices(a, cfg, 3, rng, training=training, full=full)
            assert all(m is full for m in mats)
            assert rng.integers(1 << 30) == rng_factory(0).integers(1 << 30)
        # With p > 0 during training the draw ignores it.
        mats = propagation_matrices(a, DropEdgeConfig(p=0.5), 2, rng_factory(0),
                                    training=True, full=full)
        assert mats[0] is not full

    def test_one_shot_shares_one_draw(self, rng_factory):
        a = random_adjacency(np.random.default_rng(6), 16, 0.4)
        cfg = DropEdgeConfig(p=0.5)
        mats = propagation_matrices(a, cfg, 5, rng_factory(2), training=True)
        assert all(m is mats[0] for m in mats)
        # Matches drop-then-normalize done by hand from the same stream.
        want = normalize(sample(a, 0.5, rng_factory(2)), "AugNormAdj")
        assert mats[0] == want

    def test_layerwise_distinct_objects(self, rng_factory):
        a = random_adjacency(np.random.default_rng(6), 16, 0.4)
        cfg = DropEdgeConfig(p=0.5, layer_wise=True)
        mats = propagation_matrices(a, cfg, 4, rng_factory(2), training=True)
        assert len({id(m) for m in mats}) == 4

    def test_degrees_renormalized_after_dropping(self, rng_factory):
        # The dropped graph's normalization must use the dropped degrees:
        # every row of the AugRWalk form still sums to one.
        a = random_adjacency(np.random.default_rng(9), 12, 0.6)
        cfg = DropEdgeConfig(p=0.5, scheme="AugRWalk")
        mats = propagation_matrices(a, cfg, 2, rng_factory(4), training=True)
        np.testing.assert_allclose(mats[0].to_dense().sum(axis=1), np.ones(12),
                                   atol=1e-12)
