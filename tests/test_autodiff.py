"""Every op against central finite differences, plus tape semantics."""

import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest
import scipy.sparse as sp

from dropgcn import (BACKBONES, BatchNormState, Graph, ModelConfig, Tape, Tensor, add,
                     add_bias, backward, batch_norm, build_model, clear_grads,
                     concat_cols, dropout, forward, matmul, model_input, normalize,
                     relu, softmax_cross_entropy, spmm, sum_all, synthetic_sbm)
from dropgcn.autodiff import SPLIT_MIN_ELEMENTS, active_tape
from dropgcn.optim import BETA1, BETA2, CHUNK_LEN, EPS, AdamState, adam_step, glorot_init
from dropgcn.sparsemat import keep_entries
from conftest import (bag_of_words, finite_difference_grad, random_adjacency,
                      relative_error)

TOL = 1e-6  # central differences with eps=1e-6 land far below this


def check_against_fd(build_loss, params, tol=TOL):
    """backward() grads versus finite differences for each named param.

    build_loss must be a pure function of the param tensors (any randomness
    fixed outside), so repeated evaluation under perturbation is meaningful.
    """
    with Tape():
        backward(build_loss())
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
        with Tape():
            y = relu(x)
            with pytest.raises(ValueError, match="scalar"):
                backward(y)

    def test_backward_needs_history(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        s = sum_all(relu(x))  # built outside a tape: a constant
        assert not s.requires_grad
        with Tape():
            with pytest.raises(ValueError, match="history"):
                backward(s)

    def test_sum_of_weight_grad_is_ones(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape():
            backward(sum_all(w))
        np.testing.assert_array_equal(w.grad, np.ones((2, 3)))

    def test_grads_accumulate_across_shared_use(self):
        x = Tensor([[2.0]], requires_grad=True)
        with Tape():
            backward(sum_all(add(x, x)))
        np.testing.assert_array_equal(x.grad, [[2.0]])

    def test_tape_consumed_once(self):
        x = Tensor([[1.0]], requires_grad=True)
        with Tape() as tape:
            backward(sum_all(relu(x)))
            assert tape.entries == []
            # A fresh forward on the same tape accumulates onto the
            # cleared grad exactly once.
            x.grad = None
            backward(sum_all(relu(x)))
        np.testing.assert_array_equal(x.grad, [[1.0]])

    def test_ops_outside_a_tape_record_nothing(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        out = relu(matmul(x, x))
        assert not out.requires_grad
        assert active_tape().entries == []

    def test_constant_inputs_record_nothing(self):
        x = Tensor(np.ones((2, 2)))
        with Tape() as tape:
            out = relu(matmul(x, x))
            assert tape.entries == []
        assert not out.requires_grad

    def test_tapes_do_not_nest(self):
        with Tape() as outer:
            with pytest.raises(RuntimeError, match="nest"):
                with Tape():
                    pass
            assert active_tape() is outer
        assert active_tape() is not outer

    def test_closing_clears_the_record_on_error(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ZeroDivisionError):
            with Tape() as tape:
                relu(x)
                assert len(tape.entries) == 1
                1 / 0
        assert tape.entries == []
        assert active_tape() is not tape
        with Tape():  # no tape was left open
            pass

    def test_backward_on_a_closed_tape_raises(self):
        x = Tensor([[1.0]], requires_grad=True)
        with Tape():
            loss = sum_all(relu(x))
        with pytest.raises(ValueError, match="open tape"):
            backward(loss)
        with Tape():
            with pytest.raises(ValueError, match="open tape"):
                backward(loss)
        assert x.grad is None and loss.grad is None

    def test_unrelated_branch_untouched(self):
        x = Tensor([[1.0]], requires_grad=True)
        y = Tensor([[1.0]], requires_grad=True)
        with Tape():
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
        with Tape():
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
        x = Tensor(rng.normal(size=(6, 6)))
        other = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        with Tape():
            h = matmul(x, w)  # an intermediate
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
                "cross_entropy": lambda: softmax_cross_entropy(h, np.arange(6) % 3,
                                                               np.arange(6)),
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
        with Tape():
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
        with Tape():
            y = matmul(x, w)
            z = relu(y)
            loss = sum_all(add(z, z))
            backward(loss)
        np.testing.assert_array_equal(z.grad, np.full((5, 3), 2.0))
        np.testing.assert_array_equal(y.grad, 2.0 * (y.data > 0))
        np.testing.assert_array_equal(loss.grad, [[1.0]])
        np.testing.assert_array_equal(w.grad, x.data.T @ (2.0 * (y.data > 0)))

    def test_surviving_tensors_do_not_reach_consumed_tape(self, rng_factory):
        rng = rng_factory(42)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with Tape() as tape:
            y = relu(matmul(Tensor(rng.normal(size=(5, 4))), w))
            loss = sum_all(y)
            assert len(tape.entries) == 3
            backward(loss)
            assert tape.entries == []
        gone = weakref.ref(tape)
        del tape
        # y, loss and w are all alive; none of them holds the tape.
        assert gone() is None
        assert active_tape().entries == []

    def test_stale_node_after_cleared_tape_acts_as_leaf(self, rng_factory):
        # An aborted pass leaves tensors naming node indices of its closed
        # tape, which the next tape's records then reuse.
        rng = rng_factory(43)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        with Tape():
            stale = relu(matmul(Tensor(rng.normal(size=(2, 3))), w))
        v = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        with Tape():
            fresh = matmul(Tensor(np.ones((2, 3))), v)  # takes node 0 again
            backward(sum_all(add(fresh, stale)))
        np.testing.assert_array_equal(stale.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(v.grad, np.full((3, 3), 2.0))
        assert w.grad is None  # its records closed with their tape


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
        with Tape():
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
        with Tape():
            backward(sum_all(add_bias(x, b)))
        np.testing.assert_allclose(b.grad, np.full((1, 3), 6.0), atol=0)

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor([[-1.0, 0.0, 2.0]], requires_grad=True)
        with Tape():
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

    @pytest.mark.parametrize("rate", [0.1, 0.5, 0.9])
    def test_sparse_dropout_matches_the_masked_sparse_matrix(self, rng_factory, rate):
        # The CSR dropout builds is, array for array and dtype for dtype,
        # the one a SparseMatrix of the kept entries converts back to.
        x = model_input(bag_of_words(rng_factory(17), 80, 120))
        out = dropout(x, rate, rng_factory(18), training=True)
        keep = rng_factory(18).random(x.nnz) >= rate
        want = keep_entries(*x.shape, x.indptr, x.indices, x.data * (1.0 / (1.0 - rate)),
                            keep).to_scipy()
        assert out.shape == want.shape
        for name in ("data", "indices", "indptr"):
            got, ref = getattr(out, name), getattr(want, name)
            assert got.dtype == ref.dtype, name
            np.testing.assert_array_equal(got, ref)

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

    def test_batch_norm_training_binds_new_running_stats(self):
        # models.model_view keeps running statistics by reference: a
        # training pass must bind new arrays, never write into the old ones.
        state = BatchNormState(2)
        state.running_mean, state.running_var = np.array([0.5, -1.0]), np.array([2.0, 3.0])
        old = (state.running_mean, state.running_var)
        kept = tuple(arr.copy() for arr in old)
        batch_norm(Tensor(np.array([[1.0, 4.0], [3.0, 0.0]])), state, training=True)
        for arr, was in zip(old, kept):
            np.testing.assert_array_equal(arr, was)
        assert state.running_mean is not old[0] and state.running_var is not old[1]

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
        with Tape():
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

    def test_cross_entropy_rejects_non_integer_masks(self):
        # Cast to int64, the boolean mask would read rows 0, 0, 1, 1 and the
        # float one rows 2, 3.
        logits = Tensor(np.array([[2.0, 0.0], [2.0, 0.0], [0.0, 2.0], [0.0, 2.0]]))
        labels = [0, 0, 1, 1]
        for mask in (np.array([False, False, True, True]), np.array([2.7, 3.2])):
            with pytest.raises(ValueError, match="integer row ids"):
                softmax_cross_entropy(logits, labels, mask)
        rows = softmax_cross_entropy(logits, labels, np.array([2, 3], dtype=np.uint8))
        assert rows.item() == softmax_cross_entropy(logits, labels, [2, 3]).item()

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

    @pytest.mark.parametrize("lr,weight_decay", [
        (np.nan, 0.0), (np.inf, 0.0), (0.0, 0.0), (0.01, np.nan), (0.01, np.inf),
        (0.01, -1.0)])
    def test_adam_rejects_bad_rates(self, lr, weight_decay):
        p = Tensor(np.ones((1, 1)), requires_grad=True)
        with pytest.raises(ValueError, match="learning rate|weight decay"):
            AdamState([p], lr=lr, weight_decay=weight_decay)

    def test_adam_binds_new_arrays(self, rng_factory):
        # models.model_view shares parameter arrays: a step must bind each
        # parameter a new array and leave the old one as it was.
        rng = rng_factory(21)
        params = [Tensor(rng.normal(size=(3, 2)), requires_grad=True) for _ in range(2)]
        state = AdamState(params, lr=0.1, weight_decay=0.5)
        for _ in range(3):
            old = [p.data for p in params]
            kept = [arr.copy() for arr in old]
            for p in params:
                p.grad = rng.normal(size=p.shape)
            adam_step(state)
            for p, arr, was in zip(params, old, kept):
                assert p.data is not arr
                np.testing.assert_array_equal(arr, was)

    def test_none_grads_skipped(self):
        p = Tensor(np.ones((1, 1)), requires_grad=True)
        state = AdamState([p], lr=0.1, weight_decay=1.0)
        adam_step(state)
        assert p.data[0, 0] == 1.0


def reference_adam_step(state):
    """Adam as whole-array expressions: the update adam_step's chunks must
    reproduce bit for bit."""
    state.t += 1
    c1 = 1.0 - BETA1 ** state.t
    c2 = 1.0 - BETA2 ** state.t
    for i, p in enumerate(state.params):
        if p.grad is None:
            continue
        g = p.grad
        if state.decay[i] and state.weight_decay:
            g = g + state.weight_decay * p.data
        state.m[i] = BETA1 * state.m[i] + (1.0 - BETA1) * g
        state.v[i] = BETA2 * state.v[i] + (1.0 - BETA2) * (g * g)
        m_hat = state.m[i] / c1
        v_hat = state.v[i] / c2
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + EPS)


class TestChunkedAdam:
    """adam_step updates in CHUNK_LEN pieces, one half of every parameter
    on each thread when given a pool, and must give the whole-array
    expressions' bytes."""

    # Parameter element counts around the chunk boundary, odd counts and a
    # 1-element parameter; each parameter is halved at (n + 1) // 2, so
    # halves start and end off chunk boundaries, and those of the
    # 2 x (CHUNK_LEN + 1) parameter span two chunks each.
    SIZES = [(1, CHUNK_LEN - 1), (1, CHUNK_LEN), (1, CHUNK_LEN + 1), (3, 7),
             (2, CHUNK_LEN + 1), (1, 1)]

    @staticmethod
    def states(rng, sizes, weight_decay):
        """Two AdamStates over equal, separate parameters."""
        values = [rng.normal(size=shape) for shape in sizes]
        decay = [i % 2 == 0 for i in range(len(sizes))]
        out = []
        for _ in range(2):
            params = [Tensor(v.copy(), requires_grad=True) for v in values]
            out.append(AdamState(params, lr=0.01, weight_decay=weight_decay, decay=decay))
        return out

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pool"])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_same_bytes_as_whole_array_expressions(self, rng_factory, weight_decay, pooled):
        rng = rng_factory(60)
        ref, got = self.states(rng, self.SIZES, weight_decay)
        with ThreadPoolExecutor(max_workers=1) as pool:
            for step in range(4):
                for a, b in zip(ref.params, got.params):
                    # A gradient that skips a step leaves its parameter
                    # and moments as they were.
                    a.grad = None if step == 2 and a is ref.params[3] else rng.normal(size=a.shape)
                    b.grad = None if a.grad is None else a.grad.copy()
                reference_adam_step(ref)
                adam_step(got, pool if pooled else None)
                for name in ("m", "v"):
                    for x, y in zip(getattr(ref, name), getattr(got, name)):
                        assert x.tobytes() == y.tobytes()
                assert [p.data.tobytes() for p in ref.params] == [
                    p.data.tobytes() for p in got.params]

    def test_moments_in_place_and_every_parameter_a_new_array(self, rng_factory):
        rng = rng_factory(61)
        _, state = self.states(rng, self.SIZES, 5e-4)
        moments = [id(x) for x in state.m + state.v]
        with ThreadPoolExecutor(max_workers=1) as pool:
            for _ in range(2):
                old = [p.data for p in state.params]
                kept = [a.copy() for a in old]
                for p in state.params[1:]:
                    p.grad = rng.normal(size=p.shape)
                adam_step(state, pool)
                assert state.params[0].data is old[0]  # grad None: skipped
                for p, a, was in zip(state.params[1:], old[1:], kept[1:]):
                    assert p.data is not a and p.data.flags.c_contiguous
                    np.testing.assert_array_equal(a, was)
        assert [id(x) for x in state.m + state.v] == moments
        assert not state.m[0].any() and not state.v[0].any()


class TestPooledBackward:
    """backward(loss, pool) computes leaf products on the pool's worker and
    must give the .grad bytes of an inline pass."""

    @staticmethod
    def loss_of(out):
        """A scalar whose gradient reaches `out` as a dense, uneven g."""
        if out.shape == (1, 1):
            return out
        rows, width = out.shape
        mix = Tensor(np.random.default_rng(7).normal(size=(width, 3)))
        return softmax_cross_entropy(matmul(out, mix), np.arange(rows) % 3, np.arange(rows))

    def grad_bytes(self, make, leaves, pooled):
        clear_grads(leaves)
        with ThreadPoolExecutor(max_workers=1) as pool, Tape():
            backward(self.loss_of(make()), pool if pooled else None)
        return [t.grad.tobytes() for t in leaves]

    @pytest.mark.parametrize("op", [
        "matmul", "spmm", "spmm_features", "add", "add_bias", "relu", "dropout",
        "concat_cols", "sum_all", "batch_norm_train", "batch_norm_eval",
        "cross_entropy", "leaf_read_twice", "leaf_read_by_one_op_twice"])
    def test_each_op_gives_the_inline_bytes(self, op, rng_factory):
        rng = rng_factory(50)
        a, b, c = (Tensor(rng.normal(size=(6, 6)), requires_grad=True) for _ in range(3))
        bias = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
        adj = normalize(random_adjacency(rng, 6, 0.5), "AugNormAdj")
        words = sp.csr_matrix(np.where(rng.random((6, 6)) < 0.3, rng.random((6, 6)), 0.0))
        state = BatchNormState(6)
        state.scale.data = rng.normal(size=(1, 6))
        state.running_mean, state.running_var = rng.normal(size=6), rng.random(6) + 0.5
        make, leaves = {
            "matmul": (lambda: matmul(a, b), [a, b]),
            "spmm": (lambda: spmm(adj, a), [a]),
            "spmm_features": (lambda: spmm(words, a), [a]),
            "add": (lambda: add(a, b), [a, b]),
            "add_bias": (lambda: add_bias(a, bias), [a, bias]),
            "relu": (lambda: relu(a), [a]),
            "dropout": (lambda: dropout(a, 0.5, np.random.default_rng(3), training=True),
                        [a]),
            "concat_cols": (lambda: concat_cols([a, b, c]), [a, b, c]),
            "sum_all": (lambda: sum_all(matmul(a, b)), [a, b]),
            "batch_norm_train": (lambda: batch_norm(a, state, training=True),
                                 [a, state.scale, state.shift]),
            "batch_norm_eval": (lambda: batch_norm(a, state, training=False),
                                [a, state.scale, state.shift]),
            "cross_entropy": (lambda: softmax_cross_entropy(a, np.arange(6) % 3,
                                                            np.arange(0, 6, 2)), [a]),
            # One leaf accumulates from several nodes; its sum must keep the
            # inline order.
            "leaf_read_twice": (lambda: add(matmul(relu(matmul(a, b)), b),
                                            matmul(c, b)), [a, b, c]),
            "leaf_read_by_one_op_twice": (lambda: add(matmul(a, a), a), [a]),
        }[op]
        inline = self.grad_bytes(make, leaves, pooled=False)
        assert self.grad_bytes(make, leaves, pooled=True) == inline

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pool"])
    def test_leaf_gradients_add_in_walk_order(self, pooled):
        # w's three contributions reach it as 1, 1e16, -1e16 in walk order
        # (the last recorded node first): (1 + 1e16) - 1e16 is 0 in
        # float64, any other order gives 1 or 2.
        w = Tensor(np.ones((1, 1)), requires_grad=True)
        scales = [Tensor([[s]]) for s in (-1e16, 1e16, 1.0)]
        make = lambda: add(add(matmul(scales[0], w), matmul(scales[1], w)),  # noqa: E731
                           matmul(scales[2], w))
        assert self.grad_bytes(lambda: sum_all(make()), [w], pooled) == [
            np.zeros((1, 1)).tobytes()]

    @pytest.mark.parametrize("features", ["dense", "sparse"])
    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_each_backbone_gives_the_inline_bytes(self, backbone, features, rng_factory):
        g = synthetic_sbm(n_nodes=40, n_blocks=3, p_intra=0.4, p_inter=0.05,
                          n_features=30, seed=2)
        if features == "sparse":
            words = bag_of_words(rng_factory(53), g.n_nodes, 30)
            g = Graph(g.n_nodes, g.adjacency, words, g.labels, g.splits)
        assert sp.issparse(g.x) == (features == "sparse")
        cfg = ModelConfig(backbone=backbone, n_layers=4, hidden_dim=8, dropout=0.5,
                          withbn=True, withloop=True)
        model = build_model(cfg, g.n_features, g.n_classes, np.random.default_rng(0))
        mats = [normalize(g.adjacency, cfg.scheme)] * model.n_gcls

        def make():
            logits, _ = forward(model, mats, g.x, training=True,
                                rng=np.random.default_rng(1), keep_hidden=False)
            return softmax_cross_entropy(logits, g.labels, g.splits["train"])

        params = model.parameters()
        inline = self.grad_bytes(make, params, pooled=False)
        assert self.grad_bytes(make, params, pooled=True) == inline

    class FinishEach:
        """A one-worker pool whose submit returns once the worker has run
        the call, so every leaf product is done before the walk goes on."""

        def __init__(self, pool):
            self.pool = pool

        def submit(self, fn, *args):
            future = self.pool.submit(fn, *args)
            wait([future])
            return future

    @staticmethod
    def spy_products(tape, threads):
        """Wrap every vjp on `tape` to record, under (kind, node, input),
        the thread that runs it; kind is "leaf" or "chain"."""
        def spied(key, vjp):
            def run(g):
                threads[key] = threading.current_thread()
                return vjp(g)
            return run

        for i, (out_ref, inputs, vjps) in enumerate(tape.entries):
            tape.entries[i] = (out_ref, inputs, tuple(
                None if f is None else
                spied(("leaf" if isinstance(src, Tensor) else "chain", i, k), f)
                for k, (src, f) in enumerate(zip(inputs, vjps))))

    def small_net(self, rng_factory):
        rng = rng_factory(51)
        x = Tensor(rng.normal(size=(5, 4)))
        w1, w2 = (Tensor(rng.normal(size=(4, 4)), requires_grad=True) for _ in range(2))
        bias = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
        return (lambda: sum_all(relu(add_bias(matmul(relu(matmul(x, w1)), w2), bias))),
                [w1, w2, bias])

    # Nodes 0-5: matmul(x, w1), relu, matmul(., w2), add_bias, relu, sum_all;
    # x is a constant and takes no product.
    CHAIN = [("chain", 1, 0), ("chain", 2, 0), ("chain", 3, 0), ("chain", 4, 0),
             ("chain", 5, 0)]
    LEAVES = [("leaf", 0, 1), ("leaf", 2, 1), ("leaf", 3, 1)]  # w1, w2, bias

    def test_leaf_products_run_on_the_worker(self, rng_factory):
        make, params = self.small_net(rng_factory)
        threads = {}
        with ThreadPoolExecutor(max_workers=1) as pool, Tape() as tape:
            loss = make()
            self.spy_products(tape, threads)
            backward(loss, self.FinishEach(pool))
        assert sorted(threads) == self.CHAIN + self.LEAVES
        main = threading.main_thread()
        assert all((t is main) == (k[0] == "chain") for k, t in threads.items())

    def test_unstarted_products_are_taken_back(self, rng_factory):
        # The worker is busy for the whole walk, so it starts no product:
        # the main thread runs them all once the walk ends, instead of
        # waiting, and the bytes are the inline ones.
        make, params = self.small_net(rng_factory)
        inline = self.grad_bytes(make, params, pooled=False)
        clear_grads(params)
        threads = {}
        release = threading.Event()
        with ThreadPoolExecutor(max_workers=1) as pool:
            busy = pool.submit(release.wait, 30)
            try:
                with Tape() as tape:
                    loss = make()
                    self.spy_products(tape, threads)
                    backward(loss, pool)
                assert not busy.done()
            finally:
                release.set()
        assert sorted(threads) == self.CHAIN + self.LEAVES
        assert all(t is threading.main_thread() for t in threads.values())
        assert [t.grad.tobytes() for t in params] == inline

    @pytest.mark.parametrize("where", ["worker", "taken-back"])
    def test_leaf_product_error_reraises(self, rng_factory, where):
        rng = rng_factory(52)
        x = Tensor(rng.normal(size=(5, 4)))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        ran_on = []

        def boom(g):
            ran_on.append(threading.current_thread())
            raise RuntimeError("leaf product failed")

        before = set(threading.enumerate())
        release = threading.Event()
        with ThreadPoolExecutor(max_workers=1) as pool:
            if where == "taken-back":
                pool.submit(release.wait, 30)
            try:
                with Tape() as tape:
                    loss = sum_all(matmul(x, w))
                    out_ref, inputs, vjps = tape.entries[0]
                    assert vjps[0] is None and vjps[1] is not None
                    tape.entries[0] = (out_ref, inputs, (None, boom))
                    with pytest.raises(RuntimeError, match="leaf product failed"):
                        backward(loss, pool if where == "taken-back" else self.FinishEach(pool))
                    assert tape.entries == []
            finally:
                release.set()
        assert (ran_on[0] is threading.main_thread()) == (where == "taken-back")
        assert set(threading.enumerate()) == before
        assert w.grad is None and active_tape().entries == []


class TestRowSplitOps:
    """matmul, add, add_bias and relu given a pool split a large output by
    rows between the calling thread and the worker, with the bytes of the
    unsplit op."""

    class Counting:
        """A pool that counts the calls submitted to it."""

        def __init__(self, pool):
            self.pool, self.calls = pool, 0

        def submit(self, fn, *args):
            self.calls += 1
            return self.pool.submit(fn, *args)

    @staticmethod
    def make(op, rows, cols, rng):
        """A call of `op` on fresh tensors whose output is rows x cols."""
        def t(*shape):
            return Tensor(rng.normal(size=shape), requires_grad=True)

        x = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
        if op == "relu":
            # Exact zeros of both signs meet relu's scalar 0.0.
            x.data[::7] = 0.0
            x.data[3::7] = -0.0
            return lambda pool: relu(x, pool=pool)
        if op == "add":
            y = t(rows, cols)
            return lambda pool: add(x, y, pool=pool)
        if op == "add_bias":
            b = t(1, cols)
            return lambda pool: add_bias(x, b, pool=pool)
        a = t(rows, 64)
        # matmul_t multiplies by a transposed view, as g @ W.T does.
        w = t(64, cols) if op == "matmul" else Tensor(rng.normal(size=(cols, 64)).T)
        return lambda pool: matmul(a, w, pool=pool)

    OPS = ["matmul", "matmul_t", "add", "add_bias", "relu"]
    # Odd row counts just under and over the threshold, and a wide odd one.
    SHAPES = [(SPLIT_MIN_ELEMENTS // 256 - 1, 256), (SPLIT_MIN_ELEMENTS // 256 + 1, 256),
              (2 * SPLIT_MIN_ELEMENTS // 97 + 1, 97)]

    @pytest.mark.parametrize("shape", SHAPES, ids=["below", "above", "odd-cols"])
    @pytest.mark.parametrize("op", OPS)
    def test_same_bytes_as_the_unsplit_op(self, op, shape, rng_factory):
        call = self.make(op, *shape, rng_factory(70))
        unsplit = call(None).data
        with ThreadPoolExecutor(max_workers=1) as pool:
            counting = self.Counting(pool)
            split = call(counting).data
        assert counting.calls == (unsplit.size >= SPLIT_MIN_ELEMENTS)
        assert np.array_equal(split, unsplit)
        assert split.tobytes() == unsplit.tobytes()

    def test_one_column_product_is_not_split(self, rng_factory):
        # BLAS computes it as a matrix-vector product, whose row blocks do
        # not reproduce the whole product's bits.
        rng = rng_factory(73)
        a = Tensor(rng.normal(size=(SPLIT_MIN_ELEMENTS + 1, 16)))
        w = Tensor(rng.normal(size=(16, 1)))
        with ThreadPoolExecutor(max_workers=1) as pool:
            counting = self.Counting(pool)
            out = matmul(a, w, pool=counting).data
        assert counting.calls == 0
        assert out.tobytes() == (a.data @ w.data).tobytes()

    @pytest.mark.parametrize("op", OPS)
    def test_busy_worker_leaves_both_halves_here(self, op, rng_factory):
        # The worker is held for the whole op, so the bottom half is taken
        # back: the op returns without waiting and gives the same bytes.
        call = self.make(op, *self.SHAPES[1], rng_factory(71))
        unsplit = call(None).data
        release = threading.Event()
        with ThreadPoolExecutor(max_workers=1) as pool:
            busy = pool.submit(release.wait, 30)
            try:
                split = call(pool).data
                assert not busy.done()
            finally:
                release.set()
        assert split.tobytes() == unsplit.tobytes()

    @pytest.mark.parametrize("op", OPS)
    def test_worker_error_reraises_from_the_op(self, op, rng_factory):
        call = self.make(op, *self.SHAPES[1], rng_factory(72))

        class Failing(TestPooledBackward.FinishEach):
            """Runs a failing call in place of each submitted one, to the end."""

            def submit(self, fn, *args):
                def boom(*_):
                    raise RuntimeError("worker half failed")
                return super().submit(boom, *args)

        before = set(threading.enumerate())
        with ThreadPoolExecutor(max_workers=1) as pool, Tape() as tape:
            with pytest.raises(RuntimeError, match="worker half failed"):
                call(Failing(pool))
            assert tape.entries == []
        assert set(threading.enumerate()) == before
