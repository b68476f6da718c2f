"""Every op against central finite differences, plus tape semantics."""

import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from dropgcn import (BatchNormState, Tensor, add, add_bias, backward,
                     batch_norm, clear_grads, concat_cols, dropout, matmul,
                     model_input, no_grad, normalize, relu,
                     softmax_cross_entropy, spmm, sum_all)
from dropgcn.optim import AdamState, adam_step, glorot_init
from conftest import (bag_of_words, finite_difference_grad, random_adjacency,
                      relative_error)

TOL = 1e-6  # central differences with eps=1e-6 land far below this


def check_against_fd(build_loss, params, tol=TOL):
    """backward() grads versus finite differences for each named param.

    build_loss must be a pure function of the param tensors (any randomness
    fixed outside), so repeated evaluation under perturbation is meaningful.
    """
    loss = build_loss()
    backward(loss)
    got = {name: p.grad.copy() for name, p in params.items()}
    clear_grads(params.values())
    for name, p in params.items():
        fd = finite_difference_grad(lambda: build_loss().item(), p.data)
        err = relative_error(got[name], fd)
        assert err < tol, f"{name}: relative error {err}"


class TestTensor:
    def test_scalar_and_row_promotion(self):
        assert Tensor(3.0).shape == (1, 1)
        assert Tensor([1.0, 2.0]).shape == (1, 2)
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2)))

    def test_item_requires_single_element(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2))).item()


class TestTapeSemantics:
    def test_backward_needs_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = relu(x)
        with pytest.raises(ValueError, match="scalar"):
            backward(y)

    def test_backward_needs_history(self):
        with no_grad():
            x = Tensor(np.ones((2, 2)), requires_grad=True)
            s = sum_all(relu(x))
        with pytest.raises(ValueError, match="history"):
            backward(s)

    def test_sum_of_weight_grad_is_ones(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(sum_all(w))
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_grads_accumulate_across_shared_use(self):
        x = Tensor([[2.0]], requires_grad=True)
        backward(sum_all(add(x, x)))
        np.testing.assert_array_equal(x.grad, [[2.0]])

    def test_tape_consumed_once(self):
        x = Tensor([[1.0]], requires_grad=True)
        backward(sum_all(relu(x)))
        # The op above is gone from the tape; a fresh forward accumulates
        # onto the cleared grad exactly once.
        x.grad = None
        backward(sum_all(relu(x)))
        np.testing.assert_array_equal(x.grad, [[1.0]])

    def test_no_grad_records_nothing(self):
        from dropgcn.autodiff import active_tape
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        before = len(active_tape().entries)
        with no_grad():
            relu(matmul(x, x))
        assert len(active_tape().entries) == before

    def test_constant_inputs_record_nothing(self):
        from dropgcn.autodiff import active_tape
        x = Tensor(np.ones((2, 2)))
        before = len(active_tape().entries)
        relu(matmul(x, x))
        assert len(active_tape().entries) == before

    def test_unrelated_branch_untouched(self):
        x = Tensor([[1.0]], requires_grad=True)
        y = Tensor([[1.0]], requires_grad=True)
        keep = sum_all(x)
        _side = sum_all(y)  # recorded, but not part of the loss
        backward(keep)
        assert x.grad is not None
        assert y.grad is None

    def test_forward_values_deterministic(self, rng_factory):
        rng = rng_factory(0)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        out1 = relu(matmul(a, a)).data.copy()
        out2 = relu(matmul(a, a)).data.copy()
        np.testing.assert_array_equal(out1, out2)


class TestTapeLifetime:
    """The tape holds no op outputs and no intermediate inputs: only what
    each gradient needs, by node index, freed as backward() consumes it."""

    def test_dropped_intermediate_freed_before_backward(self, rng_factory):
        rng = rng_factory(40)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        h = matmul(Tensor(rng.normal(size=(5, 4))), w)
        gone = weakref.ref(h)
        z = relu(add_bias(h, Tensor(np.zeros((1, 3)), requires_grad=True)))
        del h
        assert gone() is None  # freed during the forward pass
        backward(sum_all(z))
        assert w.grad is not None

    @pytest.mark.parametrize("op", [
        "matmul_left", "matmul_right", "spmm", "add", "add_bias", "relu", "dropout",
        "concat_cols", "sum_all", "batch_norm_train", "batch_norm_eval", "cross_entropy"])
    def test_no_op_keeps_its_input_tensor(self, op, rng_factory):
        rng = rng_factory(45)
        w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        h = matmul(Tensor(rng.normal(size=(6, 6))), w)  # an intermediate
        other = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        make = {
            "matmul_left": lambda: matmul(h, other),
            "matmul_right": lambda: matmul(other, h),
            "spmm": lambda: spmm(random_adjacency(rng, 6, 0.5), h),
            "add": lambda: add(h, other),
            "add_bias": lambda: add_bias(h, Tensor(np.ones((1, 6)), requires_grad=True)),
            "relu": lambda: relu(h),
            "dropout": lambda: dropout(h, 0.5, rng, training=True),
            "concat_cols": lambda: concat_cols([h, other]),
            "sum_all": lambda: sum_all(h),
            "batch_norm_train": lambda: batch_norm(h, BatchNormState(6), training=True),
            "batch_norm_eval": lambda: batch_norm(h, BatchNormState(6), training=False),
            "cross_entropy": lambda: softmax_cross_entropy(h, np.arange(6) % 3, np.arange(6)),
        }[op]
        out = make()
        gone = weakref.ref(h)
        del h, make
        assert gone() is None
        backward(sum_all(out) if out.shape != (1, 1) else out)
        assert w.grad is not None

    def test_saved_array_lives_until_its_node_is_consumed(self, rng_factory):
        rng = rng_factory(44)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        v = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        h = relu(matmul(Tensor(rng.normal(size=(5, 4))), w))
        saved = weakref.ref(h.data)  # v's gradient is h^T @ g
        y = matmul(h, v)
        del h
        assert saved() is not None
        backward(sum_all(y))
        assert saved() is None

    def test_held_intermediate_gets_grad(self, rng_factory):
        rng = rng_factory(41)
        x = Tensor(rng.normal(size=(5, 4)))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        y = matmul(x, w)
        z = relu(y)
        loss = sum_all(add(z, z))
        backward(loss)
        np.testing.assert_array_equal(z.grad, np.full((5, 3), 2.0))
        np.testing.assert_array_equal(y.grad, 2.0 * (y.data > 0))
        np.testing.assert_array_equal(loss.grad, [[1.0]])
        np.testing.assert_array_equal(w.grad, x.data.T @ (2.0 * (y.data > 0)))

    def test_surviving_tensors_do_not_reach_consumed_tape(self, rng_factory):
        from dropgcn.autodiff import active_tape
        rng = rng_factory(42)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        y = relu(matmul(Tensor(rng.normal(size=(5, 4))), w))
        loss = sum_all(y)
        tape = weakref.ref(active_tape())
        assert len(tape().entries) == 3
        backward(loss)
        # y, loss and w are all alive; none of them holds the tape.
        assert tape() is None
        assert active_tape().entries == []

    def test_stale_node_after_cleared_tape_acts_as_leaf(self, rng_factory):
        # An aborted pass whose records were cleared (as a failed run does)
        # leaves tensors naming node indices that new records then reuse.
        from dropgcn.autodiff import active_tape
        rng = rng_factory(43)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        stale = relu(matmul(Tensor(rng.normal(size=(2, 3))), w))
        active_tape().entries.clear()
        v = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        fresh = matmul(Tensor(np.ones((2, 3))), v)  # takes node 0 again
        backward(sum_all(add(fresh, stale)))
        np.testing.assert_array_equal(stale.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(v.grad, np.full((3, 3), 2.0))
        assert w.grad is None  # its records were cleared before backward


class TestOpGradients:
    def test_matmul(self, rng_factory):
        rng = rng_factory(1)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        check_against_fd(lambda: sum_all(relu(matmul(a, b))), {"a": a, "b": b})

    def test_spmm(self, rng_factory):
        rng = rng_factory(2)
        m = random_adjacency(rng, 6, 0.5)
        h = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)))
        check_against_fd(lambda: sum_all(relu(matmul(spmm(m, h), w))), {"h": h})

    def test_spmm_value_matches_dense(self, rng_factory):
        rng = rng_factory(21)
        m = random_adjacency(rng, 7, 0.4)
        h = Tensor(rng.normal(size=(7, 4)))
        np.testing.assert_allclose(spmm(m, h).data, m.to_dense() @ h.data,
                                   atol=1e-12)

    def test_spmm_sparse_features_weights(self, rng_factory):
        # The first layer's two uses of a sparse input: X @ W into the
        # propagation and X @ W_self on the self-loop path.
        rng = rng_factory(22)
        x = sp.csr_matrix(bag_of_words(rng, 9, 6))
        m = random_adjacency(rng, 9, 0.4)
        w = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        w_self = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        check_against_fd(
            lambda: sum_all(relu(add(spmm(m, spmm(x, w)), spmm(x, w_self)))),
            {"w": w, "w_self": w_self})

    def test_spmm_sparse_features_value_matches_dense(self, rng_factory):
        rng = rng_factory(23)
        dense = bag_of_words(rng, 9, 6)
        w = Tensor(rng.normal(size=(6, 4)))
        np.testing.assert_allclose(spmm(sp.csr_matrix(dense), w).data, dense @ w.data,
                                   atol=1e-12)

    @pytest.mark.parametrize("constant", ["AugNormAdj", "AugRWalk", "features"])
    def test_spmm_backward_equals_explicit_transpose(self, constant, rng_factory):
        # The vjp multiplies by scipy's transposed view; an explicit CSR
        # transpose must give the same gradient bit for bit.
        rng = rng_factory(24)
        if constant == "features":
            a = model_input(bag_of_words(rng, 40, 30))
            assert sp.issparse(a)
            h = Tensor(rng.normal(size=(30, 5)), requires_grad=True)
            explicit = a.T.tocsr()
        else:
            a = normalize(random_adjacency(rng, 40, 0.15), constant)
            h = Tensor(rng.normal(size=(40, 5)), requires_grad=True)
            explicit = a.to_scipy().T.tocsr()
        out = spmm(a, h)
        logits = matmul(out, Tensor(rng.normal(size=(5, 3))))
        backward(softmax_cross_entropy(logits, rng.integers(3, size=40), np.arange(40)))
        np.testing.assert_array_equal(h.grad, explicit @ out.grad)

    def test_add_and_bias(self, rng_factory):
        rng = rng_factory(3)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        y = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        mixer = Tensor(rng.normal(size=(4, 2)))
        check_against_fd(
            lambda: sum_all(relu(matmul(add_bias(add(x, y), b), mixer))),
            {"x": x, "y": y, "b": b})

    def test_bias_gradient_is_column_sum(self, rng_factory):
        rng = rng_factory(31)
        x = Tensor(rng.normal(size=(6, 3)))
        b = Tensor(np.zeros((1, 3)), requires_grad=True)
        backward(sum_all(add_bias(x, b)))
        np.testing.assert_allclose(b.grad, np.full((1, 3), 6.0), atol=0)

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor([[-1.0, 0.0, 2.0]], requires_grad=True)
        backward(sum_all(relu(x)))
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])

    def test_concat_cols(self, rng_factory):
        rng = rng_factory(4)
        xs = {f"x{i}": Tensor(rng.normal(size=(3, w)), requires_grad=True)
              for i, w in enumerate((2, 3, 1))}
        mixer = Tensor(rng.normal(size=(6, 2)))
        check_against_fd(
            lambda: sum_all(relu(matmul(concat_cols(list(xs.values())), mixer))), xs)

    def test_dropout_gradient_through_fixed_mask(self):
        x = Tensor(np.linspace(-1, 1, 12).reshape(3, 4), requires_grad=True)

        def build():
            # Same seed every call: the mask is part of the fixed function.
            return sum_all(dropout(x, 0.5, np.random.default_rng(77), training=True))

        check_against_fd(build, {"x": x})

    def test_batch_norm_training(self, rng_factory):
        rng = rng_factory(5)
        x = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        state = BatchNormState(3)
        state.scale.data[...] = rng.normal(size=(1, 3))
        state.shift.data[...] = rng.normal(size=(1, 3))
        mixer = Tensor(rng.normal(size=(3, 2)))
        check_against_fd(
            lambda: sum_all(relu(matmul(batch_norm(x, state, training=True), mixer))),
            {"x": x, "scale": state.scale, "shift": state.shift})

    def test_batch_norm_eval(self, rng_factory):
        rng = rng_factory(6)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        state = BatchNormState(3)
        state.running_mean[...] = rng.normal(size=3)
        state.running_var[...] = rng.uniform(0.5, 2.0, size=3)
        check_against_fd(
            lambda: sum_all(relu(batch_norm(x, state, training=False))),
            {"x": x, "scale": state.scale, "shift": state.shift})

    def test_softmax_cross_entropy(self, rng_factory):
        rng = rng_factory(7)
        logits = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        labels = rng.integers(0, 4, size=6)
        mask = np.array([0, 2, 3, 5])
        check_against_fd(lambda: softmax_cross_entropy(logits, labels, mask),
                         {"logits": logits}, tol=1e-5)


class TestOpSemantics:
    def test_dropout_eval_and_zero_rate_are_identity(self, rng_factory):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        assert dropout(x, 0.5, rng_factory(0), training=False) is x
        assert dropout(x, 0.0, rng_factory(0), training=True) is x

    def test_dropout_rate_one_rejected(self, rng_factory):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones((2, 2))), 1.0, rng_factory(0), training=True)

    def test_dropout_preserves_expectation(self, rng_factory):
        rng = rng_factory(12)
        x = Tensor(np.full((50, 50), 2.0))
        out = dropout(x, 0.3, rng, training=True)
        kept = out.data != 0
        # Survivors are scaled to 2 / 0.7 and about 70% survive.
        np.testing.assert_allclose(out.data[kept], 2.0 / 0.7)
        assert abs(kept.mean() - 0.7) < 0.03
        assert abs(out.data.mean() - 2.0) < 0.1

    def test_sparse_dropout_keeps_zeros_and_keep_rate(self, rng_factory):
        rng = rng_factory(13)
        dense = bag_of_words(rng, 200, 150)
        x = sp.csr_matrix(dense)
        rate, trials = 0.3, 20
        kept = np.zeros(x.nnz)
        for _ in range(trials):
            out = dropout(x, rate, rng, training=True)
            got = out.toarray()
            assert np.all(got[dense == 0] == 0)
            survived = got[dense != 0] != 0
            np.testing.assert_allclose(got[dense != 0][survived],
                                       dense[dense != 0][survived] / (1 - rate))
            kept += survived
        # Row-major order of dense nonzeros is CSR order, so kept lines up
        # with x's stored entries; the keep frequency is Binomial(n, 1 - rate).
        n = trials * x.nnz
        sigma = np.sqrt(n * rate * (1 - rate))
        assert abs(kept.sum() - n * (1 - rate)) < 3 * sigma

    def test_sparse_dropout_draws_one_uniform_per_stored_entry(self, rng_factory):
        x = sp.csr_matrix(bag_of_words(rng_factory(14), 30, 40))
        rng = rng_factory(15)
        out = dropout(x, 0.5, rng, training=True)
        keep = rng_factory(15).random(x.nnz) >= 0.5
        np.testing.assert_array_equal(out.data, x.data[keep] * 2.0)
        # The stream moved past exactly nnz draws.
        ref = rng_factory(15)
        ref.random(x.nnz)
        assert rng.random() == ref.random()

    def test_sparse_dropout_eval_and_zero_rate_consume_nothing(self, rng_factory):
        x = sp.csr_matrix(bag_of_words(rng_factory(16), 10, 12))
        rng = rng_factory(0)
        state = rng.bit_generator.state
        assert dropout(x, 0.5, rng, training=False) is x
        assert dropout(x, 0.0, rng, training=True) is x
        assert rng.bit_generator.state == state

    def test_batch_norm_constant_column_goes_to_shift(self):
        state = BatchNormState(2)
        x = Tensor(np.full((5, 2), 3.7))
        out = batch_norm(x, state, training=True)
        np.testing.assert_allclose(out.data, np.zeros((5, 2)), atol=1e-12)

    def test_batch_norm_identity_on_standardized_input(self, rng_factory):
        rng = rng_factory(13)
        raw = rng.normal(size=(40, 3))
        std = (raw - raw.mean(axis=0)) / np.sqrt(raw.var(axis=0))
        out = batch_norm(Tensor(std), BatchNormState(3), training=True)
        np.testing.assert_allclose(out.data, std, atol=1e-4)

    def test_batch_norm_running_stats_momentum(self):
        state = BatchNormState(1)
        x = Tensor(np.array([[1.0], [3.0]]))  # mean 2, biased var 1
        batch_norm(x, state, training=True)
        np.testing.assert_allclose(state.running_mean, [0.9 * 0.0 + 0.1 * 2.0])
        np.testing.assert_allclose(state.running_var, [0.9 * 1.0 + 0.1 * 1.0])
        # Eval mode leaves them alone.
        batch_norm(x, state, training=False)
        np.testing.assert_allclose(state.running_mean, [0.2])

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((3, 4)), requires_grad=True)
        loss = softmax_cross_entropy(logits, [0, 1, 2], np.arange(3))
        np.testing.assert_allclose(loss.item(), np.log(4.0), atol=1e-12)

    def test_cross_entropy_shift_invariant_and_stable(self):
        base = np.array([[2.0, -1.0, 0.5], [0.0, 1.0, -2.0]])
        labels = [0, 1]
        mask = np.arange(2)
        a = softmax_cross_entropy(Tensor(base), labels, mask).item()
        b = softmax_cross_entropy(Tensor(base + 1000.0), labels, mask).item()
        np.testing.assert_allclose(a, b, atol=1e-9)
        huge = softmax_cross_entropy(Tensor(base * 1e4), labels, mask).item()
        assert np.isfinite(huge)

    def test_cross_entropy_gradient_form(self):
        logits = Tensor(np.array([[1.0, 2.0], [0.5, -0.5], [3.0, 3.0]]),
                        requires_grad=True)
        labels = [1, 0, 0]
        mask = np.array([0, 2])
        backward(softmax_cross_entropy(logits, labels, mask))
        z = logits.data
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        want = np.zeros_like(z)
        want[0] = (probs[0] - [0.0, 1.0]) / 2
        want[2] = (probs[2] - [1.0, 0.0]) / 2
        np.testing.assert_allclose(logits.grad, want, atol=1e-12)
        assert np.all(logits.grad[1] == 0)  # unmasked row takes no gradient

    def test_cross_entropy_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor(np.zeros((2, 2))), [0, 1], [])

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ValueError):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
        with pytest.raises(ValueError):
            add_bias(Tensor(np.ones((2, 3))), Tensor(np.ones((1, 2))))
        with pytest.raises(ValueError):
            concat_cols([Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2)))])


class TestOptim:
    def test_glorot_bounds_and_determinism(self, rng_factory):
        w1 = glorot_init(300, 200, rng_factory(9))
        w2 = glorot_init(300, 200, rng_factory(9))
        bound = np.sqrt(6.0 / 500)
        assert w1.requires_grad
        assert np.all(np.abs(w1.data) <= bound)
        assert w1.data.std() > 0.4 * bound  # actually spread out, not degenerate
        np.testing.assert_array_equal(w1.data, w2.data)

    def test_adam_first_step_magnitude(self, rng_factory):
        # Bias correction makes the first step lr-sized regardless of the
        # gradient scale.
        for scale in (1e-4, 1.0, 1e4):
            p = Tensor(np.zeros((2, 2)), requires_grad=True)
            p.grad = np.full((2, 2), scale)
            state = AdamState([p], lr=0.05)
            adam_step(state)
            np.testing.assert_allclose(np.abs(p.data), 0.05, rtol=1e-3)

    def test_adam_descends_a_quadratic(self):
        p = Tensor(np.array([[4.0, -3.0]]), requires_grad=True)
        state = AdamState([p], lr=0.1)
        for _ in range(400):
            p.grad = 2.0 * p.data
            adam_step(state)
        np.testing.assert_allclose(p.data, np.zeros((1, 2)), atol=1e-3)

    def test_weight_decay_only_flagged_params(self):
        w = Tensor(np.full((1, 1), 10.0), requires_grad=True)
        b = Tensor(np.full((1, 1), 10.0), requires_grad=True)
        state = AdamState([w, b], lr=0.01, weight_decay=1.0, decay=[True, False])
        w.grad = np.zeros((1, 1))
        b.grad = np.zeros((1, 1))
        adam_step(state)
        assert w.data[0, 0] < 10.0  # decay pulled it down
        assert b.data[0, 0] == 10.0  # zero grad, no decay: untouched

    def test_none_grads_skipped(self):
        p = Tensor(np.ones((1, 1)), requires_grad=True)
        state = AdamState([p], lr=0.1, weight_decay=1.0)
        adam_step(state)
        assert p.data[0, 0] == 1.0
