"""Backbone wiring, GCL semantics, equivariance, end-to-end gradients,
activation memory."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from dropgcn import (DropEdgeConfig, GCLParams, ModelConfig, SparseMatrix,
                     Tensor, accuracy, backward, build_model, clear_grads,
                     forward, gcl_forward, normalize, predictions,
                     softmax_cross_entropy, sup_singular_value, synthetic_sbm)
from dropgcn.models import (SPARSE_INPUT_DENSITY, copy_model, load_model, model_input,
                            save_model)
from conftest import (bag_of_words, finite_difference_grad, random_adjacency,
                      relative_error)


def prop_for(model, a, scheme="AugNormAdj"):
    return [normalize(a, scheme)] * model.n_gcls


class TestGCL:
    def test_identity_propagation_is_dense_layer(self, rng_factory):
        rng = rng_factory(0)
        h = Tensor(rng.normal(size=(5, 3)))
        w = Tensor(rng.normal(size=(3, 2)))
        layer = GCLParams(w, activation=True)
        out = gcl_forward(SparseMatrix.identity(5), h, layer, training=False)
        np.testing.assert_allclose(out.data, np.maximum(h.data @ w.data, 0.0),
                                   atol=1e-12)

    def test_averaging_two_nodes(self):
        # Propagation [[.5,.5],[.5,.5]] averages the two rows before the filter.
        a_hat = SparseMatrix.from_dense([[0.5, 0.5], [0.5, 0.5]])
        h = Tensor([[1.0], [3.0]])
        layer = GCLParams(Tensor([[1.0]]), activation=False)
        out = gcl_forward(a_hat, h, layer, training=False)
        np.testing.assert_allclose(out.data, [[2.0], [2.0]], atol=1e-15)

    def test_self_feature_path(self, rng_factory):
        rng = rng_factory(1)
        h = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(3, 2)))
        w_self = Tensor(rng.normal(size=(3, 2)))
        a_hat = SparseMatrix.from_dense(np.full((4, 4), 0.25))
        layer = GCLParams(w, self_weight=w_self, activation=False)
        out = gcl_forward(a_hat, h, layer, training=False)
        want = a_hat.to_dense() @ h.data @ w.data + h.data @ w_self.data
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    @pytest.mark.parametrize("n_in,n_out", [(12, 3), (3, 12), (5, 5)])
    def test_product_order_matches_propagate_then_filter(self, n_in, n_out, rng_factory):
        # Narrow-first order A(HW) when W narrows, (AH)W otherwise; both must
        # match the explicit (A H) W reference.
        rng = rng_factory(20)
        a_hat = normalize(random_adjacency(rng, 10, 0.4), "FirstOrderGCN")
        h = Tensor(rng.normal(size=(10, n_in)))
        w = Tensor(rng.normal(size=(n_in, n_out)))
        w_self = Tensor(rng.normal(size=(n_in, n_out)))
        b = Tensor(rng.normal(size=(1, n_out)))
        layer = GCLParams(w, bias=b, self_weight=w_self, activation=True)
        out = gcl_forward(a_hat, h, layer, training=False)
        want = np.maximum((a_hat.to_dense() @ h.data) @ w.data + h.data @ w_self.data
                          + b.data, 0.0)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)

    def test_sparse_input_gradients(self, rng_factory):
        # A sparse first-layer input: W and W_self get X^T g through the tape.
        rng = rng_factory(21)
        a_hat = normalize(random_adjacency(rng, 9, 0.4), "AugNormAdj")
        x = model_input(bag_of_words(rng, 9, 40, density=0.03))
        assert sp.issparse(x)
        w = Tensor(rng.normal(size=(40, 3)), requires_grad=True)
        w_self = Tensor(rng.normal(size=(40, 3)), requires_grad=True)
        layer = GCLParams(w, self_weight=w_self, activation=True)
        labels = rng.integers(0, 3, size=9)

        def build_loss():
            return softmax_cross_entropy(gcl_forward(a_hat, x, layer, training=True),
                                         labels, np.arange(9))

        backward(build_loss())
        got = {"w": w.grad.copy(), "w_self": w_self.grad.copy()}
        clear_grads([w, w_self])
        for name, p in (("w", w), ("w_self", w_self)):
            fd = finite_difference_grad(lambda: build_loss().item(), p.data)
            assert relative_error(got[name], fd) < 1e-6, name

    def test_linearity_without_activation(self, rng_factory):
        # Bias-free, activation-free GCLs are linear in H.
        rng = rng_factory(2)
        a_hat = normalize(random_adjacency(rng, 6, 0.5), "AugNormAdj")
        layer = GCLParams(Tensor(rng.normal(size=(3, 3))), activation=False)
        h1 = Tensor(rng.normal(size=(6, 3)))
        h2 = Tensor(rng.normal(size=(6, 3)))
        both = gcl_forward(a_hat, Tensor(h1.data + h2.data), layer, training=False)
        split = (gcl_forward(a_hat, h1, layer, training=False).data
                 + gcl_forward(a_hat, h2, layer, training=False).data)
        np.testing.assert_allclose(both.data, split, atol=1e-10)


class TestConfig:
    def test_depth_floors(self):
        ModelConfig(backbone="gcn", n_layers=2)
        for bb in ("resgcn", "jknet", "incepgcn"):
            ModelConfig(backbone=bb, n_layers=3)
            with pytest.raises(ValueError):
                ModelConfig(backbone=bb, n_layers=2)
        with pytest.raises(ValueError):
            ModelConfig(backbone="gcn", n_layers=1)

    def test_unknown_backbone_and_scheme(self):
        with pytest.raises(ValueError):
            ModelConfig(backbone="gat")
        with pytest.raises(ValueError):
            ModelConfig(scheme="Laplacian")

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            ModelConfig(dropout=1.0)

    def test_sampler_scheme_echo_must_match(self):
        with pytest.raises(ValueError, match="BingGeNormAdj.*AugNormAdj"):
            ModelConfig(scheme="AugNormAdj", dropedge=DropEdgeConfig(scheme="BingGeNormAdj"))
        cfg = ModelConfig(scheme="FirstOrderGCN",
                          dropedge=DropEdgeConfig(p=0.3, scheme="FirstOrderGCN"))
        assert cfg.dropedge.scheme == "FirstOrderGCN"
        assert ModelConfig().dropedge.scheme is None


class TestBuild:
    def test_gcn_shapes(self, rng_factory):
        cfg = ModelConfig(backbone="gcn", n_layers=3, hidden_dim=8)
        m = build_model(cfg, 5, 4, rng_factory(0))
        assert [l.weight.shape for l in m.gcls] == [(5, 8), (8, 8), (8, 4)]
        assert m.n_gcls == 3
        assert m.gcls[-1].activation is False
        assert all(l.activation for l in m.gcls[:-1])

    def test_jknet_head_width(self, rng_factory):
        cfg = ModelConfig(backbone="jknet", n_layers=4, hidden_dim=128)
        m = build_model(cfg, 10, 3, rng_factory(0))
        assert m.n_gcls == 3
        assert m.head.weight.shape == (3 * 128, 3)

    def test_incep_gcl_count_and_output_width(self, rng_factory):
        cfg = ModelConfig(backbone="incepgcn", n_layers=4, hidden_dim=8)
        m = build_model(cfg, 5, 3, rng_factory(0))
        # stem + branches of depth 1 and 2 + output layer
        assert m.branch_sizes == [1, 2]
        assert m.n_gcls == 5
        assert m.gcls[-1].weight.shape == (2 * 8, 3)

    def test_bias_and_loop_toggles(self, rng_factory):
        cfg = ModelConfig(backbone="gcn", n_layers=2, bias=False, withloop=True)
        m = build_model(cfg, 4, 2, rng_factory(0))
        assert all(l.bias is None for l in m.gcls)
        assert all(l.self_weight is not None for l in m.gcls)

    def test_bn_on_hidden_layers_only(self, rng_factory):
        cfg = ModelConfig(backbone="gcn", n_layers=3, withbn=True)
        m = build_model(cfg, 4, 2, rng_factory(0))
        assert m.gcls[0].bn is not None and m.gcls[1].bn is not None
        assert m.gcls[-1].bn is None

    def test_seed_pins_parameters(self, rng_factory):
        cfg = ModelConfig(backbone="jknet", n_layers=4, hidden_dim=6)
        m1 = build_model(cfg, 5, 3, rng_factory(42))
        m2 = build_model(cfg, 5, 3, rng_factory(42))
        for p1, p2 in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_decay_flags_cover_weights_not_biases(self, rng_factory):
        cfg = ModelConfig(backbone="jknet", n_layers=3, withloop=True, withbn=True)
        m = build_model(cfg, 4, 2, rng_factory(0))
        params, flags = m.parameters(), m.decay_flags()
        assert len(params) == len(flags)
        # Weights are 2-D with both dims > 1 here; biases/bn are rows.
        for p, f in zip(params, flags):
            if f:
                assert p.shape[0] > 1
            else:
                assert p.shape[0] == 1


class TestForward:
    @pytest.mark.parametrize("backbone,n_layers", [
        ("gcn", 2), ("gcn", 4), ("resgcn", 4), ("jknet", 4), ("incepgcn", 4)])
    def test_hidden_states_one_per_gcl(self, backbone, n_layers, rng_factory):
        rng = rng_factory(3)
        a = random_adjacency(rng, 8, 0.5)
        cfg = ModelConfig(backbone=backbone, n_layers=n_layers, hidden_dim=6)
        m = build_model(cfg, 4, 3, rng)
        x = rng.normal(size=(8, 4))
        logits, hidden = forward(m, prop_for(m, a), x, training=False)
        assert len(hidden) == m.n_gcls
        assert logits.shape == (8, 3)

    def test_logits_are_raw(self, rng_factory):
        # No terminal activation: negative logits must be possible.
        rng = rng_factory(4)
        a = random_adjacency(rng, 10, 0.5)
        m = build_model(ModelConfig(backbone="gcn", n_layers=2, hidden_dim=8), 6, 4, rng)
        logits, _ = forward(m, prop_for(m, a), rng.normal(size=(10, 6)), training=False)
        assert (logits.data < 0).any()

    def test_resgcn_body_adds_identity_skip(self, rng_factory):
        rng = rng_factory(5)
        a = random_adjacency(rng, 7, 0.6)
        cfg = ModelConfig(backbone="resgcn", n_layers=3, hidden_dim=5)
        m = build_model(cfg, 4, 2, rng)
        x = rng.normal(size=(7, 4))
        mats = prop_for(m, a)
        _, hidden = forward(m, mats, x, training=False)
        # Recompute the body layer by hand: its output is gcl(h1) + h1.
        h1 = hidden[0]
        body = gcl_forward(mats[1], h1, m.gcls[1], training=False)
        np.testing.assert_allclose(hidden[1].data, body.data + h1.data, atol=1e-12)

    def test_jknet_concatenates_all_gcl_outputs(self, rng_factory):
        rng = rng_factory(6)
        a = random_adjacency(rng, 6, 0.6)
        cfg = ModelConfig(backbone="jknet", n_layers=4, hidden_dim=5, bias=False)
        m = build_model(cfg, 4, 2, rng)
        x = rng.normal(size=(6, 4))
        logits, hidden = forward(m, prop_for(m, a), x, training=False)
        cat = np.hstack([h.data for h in hidden])
        np.testing.assert_allclose(logits.data, cat @ m.head.weight.data, atol=1e-12)

    def test_incep_branches_share_stem(self, rng_factory):
        rng = rng_factory(7)
        a = random_adjacency(rng, 6, 0.6)
        cfg = ModelConfig(backbone="incepgcn", n_layers=4, hidden_dim=5)
        m = build_model(cfg, 4, 2, rng)
        x = rng.normal(size=(6, 4))
        mats = prop_for(m, a)
        logits, hidden = forward(m, mats, x, training=False)
        stem = hidden[0]
        b1 = gcl_forward(mats[1], stem, m.gcls[1], training=False)
        b2 = gcl_forward(mats[3], gcl_forward(mats[2], stem, m.gcls[2], training=False),
                         m.gcls[3], training=False)
        np.testing.assert_allclose(hidden[1].data, b1.data, atol=1e-12)
        np.testing.assert_allclose(hidden[4].data, logits.data, atol=1e-12)
        cat = Tensor(np.hstack([b1.data, b2.data]))
        out = gcl_forward(mats[4], cat, m.gcls[4], training=False)
        np.testing.assert_allclose(logits.data, out.data, atol=1e-12)

    def test_too_few_propagation_matrices_rejected(self, rng_factory):
        rng = rng_factory(8)
        a = random_adjacency(rng, 6, 0.5)
        m = build_model(ModelConfig(backbone="incepgcn", n_layers=4, hidden_dim=4), 3, 2, rng)
        with pytest.raises(ValueError, match="propagation matrices"):
            forward(m, prop_for(m, a)[:3], rng.normal(size=(6, 3)))

    def test_eval_forward_deterministic_and_rng_free(self, rng_factory):
        rng = rng_factory(9)
        a = random_adjacency(rng, 8, 0.5)
        cfg = ModelConfig(backbone="gcn", n_layers=3, hidden_dim=6, dropout=0.7)
        m = build_model(cfg, 4, 3, rng)
        x = rng.normal(size=(8, 4))
        out1, _ = forward(m, prop_for(m, a), x, training=False)  # no rng passed
        out2, _ = forward(m, prop_for(m, a), x, training=False)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_training_dropout_consumes_rng(self, rng_factory):
        rng = rng_factory(10)
        a = random_adjacency(rng, 8, 0.5)
        cfg = ModelConfig(backbone="gcn", n_layers=2, hidden_dim=6, dropout=0.5)
        m = build_model(cfg, 4, 3, rng)
        x = rng.normal(size=(8, 4))
        r1, r2 = rng_factory(5), rng_factory(5)
        out1, _ = forward(m, prop_for(m, a), x, training=True, rng=r1)
        out2, _ = forward(m, prop_for(m, a), x, training=True, rng=r2)
        np.testing.assert_array_equal(out1.data, out2.data)
        out3, _ = forward(m, prop_for(m, a), x, training=True, rng=r1)
        assert not np.array_equal(out1.data, out3.data)

    @pytest.mark.parametrize("withloop", [False, True])
    @pytest.mark.parametrize("backbone,n_layers", [
        ("gcn", 3), ("resgcn", 4), ("jknet", 4), ("incepgcn", 4)])
    def test_sparse_input_matches_dense(self, backbone, n_layers, withloop, rng_factory):
        rng = rng_factory(14)
        a = random_adjacency(rng, 12, 0.4)
        cfg = ModelConfig(backbone=backbone, n_layers=n_layers, hidden_dim=5,
                          withloop=withloop, withbn=True)
        m = build_model(cfg, 30, 3, rng)
        dense = bag_of_words(rng, 12, 30)
        x = model_input(dense)
        assert sp.issparse(x)
        want, want_hidden = forward(m, prop_for(m, a), dense, training=False)
        got, got_hidden = forward(m, prop_for(m, a), x, training=False)
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)
        for g, w in zip(got_hidden, want_hidden):
            np.testing.assert_allclose(g.data, w.data, rtol=0, atol=1e-12)

    def test_model_input_density_threshold(self, rng_factory):
        rng = rng_factory(15)
        sparse_in = model_input(bag_of_words(rng, 40, 50, density=0.05))
        assert sp.issparse(sparse_in) and sparse_in.format == "csr"
        dense = rng.normal(size=(40, 50))
        assert model_input(dense) is dense
        # At the threshold exactly: sparse; one entry above it: dense.
        edge = np.zeros((10, 10))
        edge.flat[:int(SPARSE_INPUT_DENSITY * 100)] = 1.0
        assert sp.issparse(model_input(edge))
        edge.flat[int(SPARSE_INPUT_DENSITY * 100)] = 1.0
        assert not sp.issparse(model_input(edge))

    def test_permutation_equivariance(self, rng_factory):
        rng = rng_factory(11)
        a = random_adjacency(rng, 9, 0.5)
        cfg = ModelConfig(backbone="gcn", n_layers=3, hidden_dim=7,
                          withloop=True, bias=True)
        m = build_model(cfg, 5, 3, rng)
        x = rng.normal(size=(9, 5))
        logits, _ = forward(m, prop_for(m, a), x, training=False)

        perm = rng.permutation(9)
        p_mat = np.zeros((9, 9))
        p_mat[np.arange(9), perm] = 1.0  # row i of permuted = row perm[i] of original
        a_perm = SparseMatrix.from_dense(p_mat @ a.to_dense() @ p_mat.T)
        logits_perm, _ = forward(m, prop_for(m, a_perm), x[perm], training=False)
        np.testing.assert_allclose(logits_perm.data, logits.data[perm], atol=1e-10)


class TestKeepHidden:
    @pytest.mark.parametrize("backbone,n_layers", [
        ("gcn", 4), ("resgcn", 4), ("jknet", 4), ("incepgcn", 4)])
    def test_same_logits_and_grads_without_hidden(self, backbone, n_layers, rng_factory):
        rng = rng_factory(50)
        a = random_adjacency(rng, 12, 0.4)
        cfg = ModelConfig(backbone=backbone, n_layers=n_layers, hidden_dim=6, dropout=0.3,
                          withbn=True, withloop=True)
        m = build_model(cfg, 5, 3, rng)
        x = rng.normal(size=(12, 5))
        labels = rng.integers(0, 3, size=12)
        results = []
        for keep in (True, False):
            logits, hidden = forward(m, prop_for(m, a), x, training=True,
                                     rng=rng_factory(51), keep_hidden=keep)
            assert (hidden is None) == (not keep)
            backward(softmax_cross_entropy(logits, labels, np.arange(12)))
            results.append((logits.data, [p.grad for p in m.parameters()]))
            clear_grads(m.parameters())
        (want, want_grads), (got, got_grads) = results
        np.testing.assert_array_equal(got, want)
        for g_got, g_want in zip(got_grads, want_grads):
            np.testing.assert_array_equal(g_got, g_want)


class TestActivationMemory:
    def test_training_step_peak_in_activation_sizes(self):
        # One forward+backward of an 8-layer gcn as training runs it. The
        # tape keeps per hidden layer the propagated input (for dW) and the
        # relu mask, about 1.1 activations, so about 8 at the end of the
        # forward pass plus a few in flight: 12 measured. Keeping every op
        # output, input and gradient until backward() ends measured 52.
        g = synthetic_sbm(n_nodes=400, n_blocks=4, p_intra=0.05, p_inter=0.005,
                          n_features=32, seed=3)
        cfg = ModelConfig(backbone="gcn", n_layers=8, hidden_dim=64)
        rng = np.random.default_rng(0)
        m = build_model(cfg, g.n_features, g.n_classes, rng)
        mats = prop_for(m, g.adjacency)
        activation = g.n_nodes * cfg.hidden_dim * 8

        def step():
            logits, _ = forward(m, mats, g.features, training=True, rng=rng,
                                keep_hidden=False)
            backward(softmax_cross_entropy(logits, g.labels, g.splits["train"]))
            clear_grads(m.parameters())

        step()  # first-call allocations stay out of the measurement
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / activation < 16


class TestEndToEndGradients:
    @pytest.mark.parametrize("backbone,n_layers", [
        ("gcn", 3), ("resgcn", 4), ("jknet", 4), ("incepgcn", 4)])
    def test_full_model_matches_finite_differences(self, backbone, n_layers, rng_factory):
        rng = rng_factory(12)
        a = random_adjacency(rng, 8, 0.5)
        cfg = ModelConfig(backbone=backbone, n_layers=n_layers, hidden_dim=4,
                          withloop=True, bias=True, dropout=0.0)
        m = build_model(cfg, 3, 2, rng)
        x = rng.normal(size=(8, 3))
        labels = rng.integers(0, 2, size=8)
        mask = np.arange(8)
        mats = prop_for(m, a)

        def build_loss():
            logits, _ = forward(m, mats, x, training=True)
            return softmax_cross_entropy(logits, labels, mask)

        loss = build_loss()
        backward(loss)
        grads = [p.grad.copy() for p in m.parameters()]
        clear_grads(m.parameters())
        for p, g in zip(m.parameters(), grads):
            fd = finite_difference_grad(lambda: build_loss().item(), p.data)
            assert relative_error(g, fd) < 1e-5


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng_factory):
        rng = rng_factory(13)
        cfg = ModelConfig(backbone="jknet", n_layers=4, hidden_dim=6,
                          withloop=True, withbn=True,
                          dropedge=DropEdgeConfig(p=0.3, layer_wise=True))
        m = build_model(cfg, 7, 3, rng)
        # Dirty the running stats so they are not the init values.
        a = random_adjacency(rng, 10, 0.5)
        forward(m, prop_for(m, a), rng.normal(size=(10, 7)), training=True,
                rng=rng_factory(0))
        path = tmp_path / "model.npz"
        save_model(m, path)
        m2 = load_model(path)
        assert m2.config == cfg
        from dropgcn.models import _state_arrays
        for (n1, a1), (n2, a2) in zip(_state_arrays(m), _state_arrays(m2)):
            assert n1 == n2
            np.testing.assert_array_equal(a1, a2)
        x = rng.normal(size=(10, 7))
        out1, _ = forward(m, prop_for(m, a), x, training=False)
        out2, _ = forward(m2, prop_for(m2, a), x, training=False)
        np.testing.assert_array_equal(out1.data, out2.data)

    @staticmethod
    def _rewrite_dropedge(path, dropedge):
        """Rewrite a checkpoint's stored sampler settings in place, as an
        older layout stored them."""
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays.pop("__meta__")).decode())
        meta["config"]["dropedge"] = dropedge
        with open(path, "wb") as fh:
            np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                     **arrays)

    def test_old_layout_with_seed_loads(self, tmp_path, rng_factory):
        cfg = ModelConfig(backbone="gcn", n_layers=3, hidden_dim=5, scheme="BingGeNormAdj",
                          dropedge=DropEdgeConfig(p=0.4))
        m = build_model(cfg, 4, 3, rng_factory(16))
        path = tmp_path / "old.npz"
        save_model(m, path)
        self._rewrite_dropedge(path, {"p": 0.4, "layer_wise": False,
                                      "scheme": "BingGeNormAdj", "seed": 7})
        m2 = load_model(path)
        assert m2.config.scheme == "BingGeNormAdj"
        assert m2.config.dropedge == DropEdgeConfig(p=0.4, scheme="BingGeNormAdj")
        from dropgcn.models import _state_arrays
        for (n1, a1), (n2, a2) in zip(_state_arrays(m), _state_arrays(m2)):
            assert n1 == n2
            np.testing.assert_array_equal(a1, a2)

    def test_old_layout_with_other_sampler_scheme_rejected(self, tmp_path, rng_factory):
        m = build_model(ModelConfig(scheme="AugNormAdj"), 4, 3, rng_factory(17))
        path = tmp_path / "old.npz"
        save_model(m, path)
        self._rewrite_dropedge(path, {"p": 0.0, "layer_wise": False,
                                      "scheme": "AugRWalk", "seed": 0})
        with pytest.raises(ValueError, match="AugRWalk.*AugNormAdj"):
            load_model(path)

    def test_copy_model_is_independent(self, rng_factory):
        rng = rng_factory(14)
        m = build_model(ModelConfig(backbone="gcn", n_layers=2, hidden_dim=4), 3, 2, rng)
        c = copy_model(m)
        c.gcls[0].weight.data[0, 0] += 1.0
        assert m.gcls[0].weight.data[0, 0] != c.gcls[0].weight.data[0, 0]


class TestHelpers:
    def test_predictions_and_accuracy(self):
        logits = np.array([[0.2, 0.8], [0.9, 0.1], [0.4, 0.6]])
        np.testing.assert_array_equal(predictions(logits), [1, 0, 1])
        assert accuracy(logits, [1, 0, 0], np.arange(3)) == pytest.approx(2 / 3)

    def test_sup_singular_value(self, rng_factory):
        rng = rng_factory(15)
        m = build_model(ModelConfig(backbone="gcn", n_layers=3, hidden_dim=5), 4, 2, rng)
        want = max(np.linalg.norm(l.weight.data, ord=2) for l in m.gcls)
        assert sup_singular_value(m) == pytest.approx(want, rel=1e-12)
