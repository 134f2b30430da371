import ast
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qmatch.tensor
from qmatch.model import EncoderConfig, encoder_forward, init_params
from qmatch.tensor import (
    EPS_LOG,
    UPDATE_BLOCK,
    ParameterError,
    ShapeError,
    Tensor,
    add,
    backward,
    batch_norm_eval,
    batch_norm_train,
    bce_with_logits,
    cross_entropy_rows,
    finite_difference_check,
    info_nce_rows,
    l2_normalize_rows,
    matmul,
    maxout_rows,
    mul,
    no_grad,
    queue_cross_entropy_rows,
    relu,
    softmax_rows,
    sub,
    update_blocks,
)


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4]])

    def test_projection(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 0.0]]), Tensor([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5], [0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self):
        a = Tensor(rand((3, 4), 1), requires_grad=True)
        b = Tensor(rand((4, 2), 2), requires_grad=True)
        err = finite_difference_check(lambda: (a @ b).sum(), [a, b], step=1e-6)
        assert err <= 1e-6


class TestL2Normalize:
    def test_three_four_five(self):
        out = l2_normalize_rows(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]])

    def test_zero_row_preserved(self):
        out = l2_normalize_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_random_rows_unit_norm(self):
        out = l2_normalize_rows(Tensor(rand((5, 7), 3)))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)

    def test_gradient(self):
        z = Tensor(rand((4, 5), 4), requires_grad=True)
        w = rand((4, 5), 5)
        err = finite_difference_check(
            lambda: (l2_normalize_rows(z) * Tensor(w)).sum(), [z])
        assert err <= 1e-6


class TestSoftmax:
    def test_uniform_logits(self):
        for temp in (0.04, 1.0, 7.0):
            out = softmax_rows(Tensor([[2.5, 2.5, 2.5]]), temperature=temp)
            np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])

    def test_saturation_no_overflow(self):
        out = softmax_rows(Tensor([[500.0, -500.0]]), temperature=1.0)
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-200)
        assert np.all(np.isfinite(out.data))

    def test_sharpening_increases_max_probability(self):
        logits = Tensor([[0.3, -0.1, 0.8, 0.2]])
        sharp = softmax_rows(logits, temperature=0.04).data.max()
        soft = softmax_rows(logits, temperature=1.0).data.max()
        assert sharp > soft

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ParameterError):
            softmax_rows(Tensor([[1.0, 2.0]]), temperature=0.0)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, (3, 5), elements=st.floats(-1e3, 1e3)))
    def test_rows_sum_to_one(self, logits):
        out = softmax_rows(Tensor(logits), temperature=0.7)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, (2, 6), elements=st.floats(-50, 50)))
    def test_l2_rows_unit_or_zero(self, z):
        out = l2_normalize_rows(Tensor(z)).data
        norms = np.linalg.norm(out, axis=1)
        zero_rows = np.linalg.norm(z, axis=1) <= 1e-12
        assert np.all((np.abs(norms - 1.0) <= 1e-9) | zero_rows)


class TestCrossEntropy:
    def test_one_hot_minimum(self):
        p = Tensor([[0.0, 1.0, 0.0]])
        out = cross_entropy_rows(p, p)
        assert abs(out.data) < 1e-10

    def test_self_entropy(self):
        p = np.array([[0.2, 0.5, 0.3]])
        out = cross_entropy_rows(Tensor(p), Tensor(p))
        expected = -(p * np.log(p)).sum()
        np.testing.assert_allclose(out.data, expected, rtol=1e-9)

    def test_gibbs_inequality_sweep(self):
        rng = np.random.default_rng(7)
        target = rng.dirichlet(np.ones(6), size=4)
        base = float(cross_entropy_rows(Tensor(target), Tensor(target)).data)
        for _ in range(100):
            pred = rng.dirichlet(np.ones(6), size=4)
            assert float(cross_entropy_rows(Tensor(target), Tensor(pred)).data) >= base - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_gibbs_property(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(5), size=3)
        q = rng.dirichlet(np.ones(5), size=3)
        ce_pq = float(cross_entropy_rows(Tensor(p), Tensor(q)).data)
        ce_pp = float(cross_entropy_rows(Tensor(p), Tensor(p)).data)
        assert ce_pq >= ce_pp - 1e-12


class TestBackward:
    def test_sum_gradient(self):
        w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward(w.sum())
        np.testing.assert_array_equal(w.grad, [1.0, 1.0, 1.0])

    def test_quadratic_gradient(self):
        w = Tensor([1.5, -2.0, 0.5], requires_grad=True)
        backward((w * w).sum() * 0.5)
        np.testing.assert_allclose(w.grad, w.data)

    def test_non_scalar_rejected(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(w + w)

    def test_tape_cleared_after_backward(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss = (w * w).sum()
        backward(loss)
        assert loss._parents == () and loss._backward is None

    def test_reused_node_accumulates(self):
        # f(w) = w*w + 3*w, f'(w) = 2w + 3
        w = Tensor([2.0], requires_grad=True)
        backward((w * w + w * 3.0).sum())
        np.testing.assert_allclose(w.grad, [7.0])

    def test_determinism(self):
        w = Tensor(rand((4, 4), 9), requires_grad=True)
        grads = []
        for _ in range(2):
            w.zero_grad()
            backward(softmax_rows(w, temperature=0.3).sum())
            grads.append(w.grad.copy())
        np.testing.assert_array_equal(grads[0], grads[1])

    def test_backward_frees_activations_as_it_goes(self):
        params = init_params(EncoderConfig(input_dim=32, layer_widths=(128,) * 4,
                                           maxout_k=4), seed=1)
        x = Tensor(rand((32, 32), 2))
        tracemalloc.start()
        try:
            loss = encoder_forward(params, x).sum()  # only the loss keeps the graph alive
            activations, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grads = sum(t.grad.nbytes for t in params.tensors.values() if t.grad is not None)
        # keeping the whole graph to the end holds every activation, every
        # intermediate gradient and every parameter gradient at once
        assert peak < activations + grads

    def test_first_gradient_kept_without_a_copy(self):
        w = Tensor(rand((256, 512), 3), requires_grad=True)
        x = Tensor(rand((4, 256), 4))
        loss = (x @ w).sum()
        tracemalloc.start()
        try:
            backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * w.grad.nbytes

    def test_shared_first_gradient_is_never_written_through(self):
        a = Tensor(rand((3, 4), 5), requires_grad=True)
        b = Tensor(rand((3, 4), 6), requires_grad=True)
        c = Tensor(rand((3, 4), 7))
        backward(((a + b) * c).sum())  # add hands both operands the same gradient
        b_first = b.grad.copy()
        backward((a * a).sum())  # accumulates into a only
        np.testing.assert_array_equal(b.grad, b_first)
        np.testing.assert_allclose(a.grad, c.data + 2 * a.data)

    def test_leaf_reached_through_add_and_a_second_path(self):
        a = Tensor(rand((3, 4), 8), requires_grad=True)
        b = Tensor(rand((3, 4), 9), requires_grad=True)
        c = Tensor(rand((3, 4), 10))
        f = lambda: ((a + b) * c).sum() + (softmax_rows(a * b, temperature=0.5) * c).sum()
        assert finite_difference_check(f, [a, b]) <= 1e-6


class TestLeafDone:
    """backward hands each leaf to `leaf_done` once its last consumer has run."""

    def test_chain_updates_the_last_layer_before_the_first(self):
        x = Tensor(rand((4, 3), 60))
        w1 = Tensor(rand((3, 5), 61), requires_grad=True)
        w2 = Tensor(rand((5, 2), 62), requires_grad=True)
        seen = []

        def leaf_done(leaf):
            # when w2 is complete, w1's only consumer has not run yet
            seen.append((leaf, w1.grad is None))
        backward(((x @ w1) @ w2).sum(), leaf_done)
        assert seen == [(w2, True), (w1, False)]

    def test_leaf_shared_by_two_branches_is_called_once_after_both(self):
        # as in infonce: both views go through the same weight
        w = Tensor(rand((3, 4), 63), requires_grad=True)
        x1, x2 = Tensor(rand((5, 3), 64)), Tensor(rand((5, 3), 65))
        loss = lambda: (softmax_rows(x1 @ w, 0.5) * Tensor(rand((5, 4), 66))).sum() \
            + ((x2 @ w) * (x2 @ w)).sum()
        backward(loss())
        want = w.grad.copy()
        w.zero_grad()
        seen = []
        backward(loss(), lambda leaf: seen.append((leaf, leaf.grad.copy())))
        assert len(seen) == 1 and seen[0][0] is w
        assert same_bits(seen[0][1], want)

    def test_leaf_feeding_a_transpose_is_called(self):
        # the dino prototypes enter the logits as prototypes.T
        protos = Tensor(rand((6, 4), 67), requires_grad=True)
        z = Tensor(rand((5, 4), 68), requires_grad=True)
        seen = []
        backward(softmax_rows(z @ protos.T, 0.1).sum() * 2.0, seen.append)
        assert sorted(map(id, seen)) == sorted([id(protos), id(z)])

    def test_only_leaves_that_take_a_gradient(self):
        w = Tensor(rand((3, 2), 69), requires_grad=True)
        frozen = Tensor(rand((3, 2), 70))
        seen = []
        backward((w * frozen).sum(), seen.append)
        assert seen == [w]


class TestInPlace:
    """In-place add, relu, softmax and batch norm match the out-of-place ops to
    the byte."""

    @staticmethod
    def run(op_in_place, op, *arrays):
        results = []
        for f in (op, op_in_place):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            out = f(*leaves)
            g = rand(out.shape, 72)
            data = out.data.copy()
            backward((out * Tensor(g)).sum())
            results.append((data, [t.grad for t in leaves], leaves[0].data))
        return results

    def test_add_matches_out_of_place(self):
        h, b = rand((6, 5), 73), rand((5,), 74)
        (want, want_g, _), (got, got_g, buffer) = self.run(
            lambda a, c: add(a, c, in_place=True), add, h, b)
        assert same_bits(got, want) and same_bits(buffer, want)  # written into a's buffer
        assert all(same_bits(x, y) for x, y in zip(got_g, want_g))

    def test_relu_matches_out_of_place(self):
        h = rand((6, 5), 75)
        h[0, :2] = 0.0, -0.0
        (want, want_g, _), (got, got_g, buffer) = self.run(
            lambda a: relu(a, in_place=True), relu, h)
        assert same_bits(got, want) and same_bits(buffer, want)
        assert same_bits(got_g[0], want_g[0])

    @pytest.mark.parametrize("temperature", [1.0, 0.07])
    def test_softmax_matches_out_of_place(self, temperature):
        h = rand((6, 9), 78) * 5
        (want, want_g, _), (got, got_g, buffer) = self.run(
            lambda a: softmax_rows(a, temperature, in_place=True),
            lambda a: softmax_rows(a, temperature), h)
        assert same_bits(got, want) and same_bits(buffer, want)  # written into the logits
        assert same_bits(got_g[0], want_g[0])

    def test_batch_norm_matches_out_of_place(self):
        h, gamma, beta = rand((16, 5), 79) * 3 + 1, rand((5,), 80), rand((5,), 81)
        (want, want_g, _), (got, got_g, buffer) = self.run(
            lambda *t: batch_norm_train(*t, in_place=True)[0],
            lambda *t: batch_norm_train(*t)[0], h, gamma, beta)
        assert same_bits(got, want)
        xhat = (h - h.mean(axis=0)) / np.sqrt(h.var(axis=0) + 1e-5)
        assert same_bits(buffer, xhat)  # x's buffer holds xhat
        assert all(same_bits(x, y) for x, y in zip(got_g, want_g))

    @pytest.mark.parametrize("recorded", [False, True], ids=["unrecorded", "recorded"])
    @pytest.mark.parametrize("dtype, stats_dtype, gamma_dtype", [
        (np.float64, np.float64, np.float64), (np.float32, np.float32, np.float32),
        (np.float32, np.float64, np.float32), (np.float32, np.float32, np.float64),
    ], ids=["f64", "f32", "f32_with_f64_stats", "f32_with_f64_gamma"])
    def test_batch_norm_eval_writes_into_x_where_it_keeps_the_dtype(
            self, dtype, stats_dtype, gamma_dtype, recorded):
        data = (rand((9, 5), 82) * 3 + 1).astype(dtype)
        mean, var = rand(5, 83).astype(stats_dtype), (rand(5, 84) ** 2).astype(stats_dtype)
        gamma = Tensor(rand(5, 85).astype(gamma_dtype), requires_grad=recorded)
        beta = Tensor(rand(5, 86).astype(gamma_dtype))
        xhat = (data - mean) / np.sqrt(var + 1e-5)

        x = Tensor(data.copy())
        out = batch_norm_eval(x, gamma, beta, mean, var)
        want = xhat * gamma.data + beta.data
        assert same_bits(out.data, want)
        if want.dtype != dtype:  # never narrowed into x
            assert same_bits(x.data, data)
        elif recorded:  # the backward reads xhat, so the output gets its own buffer
            assert same_bits(x.data, xhat) and not np.shares_memory(out.data, x.data)
        else:
            assert out.data is x.data

    @pytest.mark.parametrize("a_dtype, b_shape", [
        (np.float32, (5,)),    # the sum would widen to float64
        (np.float64, (6, 5)),  # the sum would be larger than a
    ], ids=["wider_dtype", "wider_shape"])
    def test_add_leaves_a_that_cannot_hold_the_sum(self, a_dtype, b_shape):
        a = Tensor(rand((1, 5), 76).astype(a_dtype))
        b = Tensor(rand(b_shape, 77))
        before = a.data.copy()
        out = add(a, b, in_place=True)
        assert same_bits(out.data, a.data.astype(np.float64) + b.data)
        assert same_bits(a.data, before)


class TestNoGrad:
    @staticmethod
    def forward(w, x):
        return softmax_rows(l2_normalize_rows(maxout_rows(x @ w, 2)), temperature=0.3)

    def test_records_nothing_and_computes_the_same(self):
        w = Tensor(rand((4, 6), 11), requires_grad=True)
        x = Tensor(rand((5, 4), 12))
        recorded = self.forward(w, x)
        with no_grad():
            plain = self.forward(w, x)
        assert recorded._parents and recorded.requires_grad
        assert plain._parents == () and plain._backward is None and not plain.requires_grad
        np.testing.assert_array_equal(plain.data, recorded.data)

    def test_info_nce_rows_records_nothing_and_computes_the_same(self):
        sims, positives = info_nce_inputs(4)
        recorded = info_nce_rows(Tensor(sims, requires_grad=True), positives, 0.2)
        with no_grad():
            plain = info_nce_rows(Tensor(sims, requires_grad=True), positives, 0.2)
        assert recorded._parents and recorded.requires_grad
        assert plain._parents == () and plain._backward is None and not plain.requires_grad
        assert same_bits(plain.data, recorded.data)

    def test_state_restored_after_exception_and_nesting(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_grad():
                with no_grad():
                    pass
                assert (w * w)._parents == ()  # still off after the inner block
                raise RuntimeError("inside no_grad")
        assert (w * w)._parents == (w, w)


class TestFiniteDifference:
    def test_linear(self):
        w = Tensor(rand(4, 0), requires_grad=True)
        c = Tensor(rand(4, 1))
        assert finite_difference_check(lambda: (w * c).sum(), [w]) <= 1e-10

    def test_softmax_cross_entropy(self):
        logits = Tensor(rand((3, 5), 2), requires_grad=True)
        target = Tensor(np.random.default_rng(3).dirichlet(np.ones(5), size=3))
        err = finite_difference_check(
            lambda: cross_entropy_rows(target, softmax_rows(logits, 0.5)), [logits])
        assert err <= 1e-6

    def test_batch_norm_train(self):
        x = Tensor(rand((6, 4), 5), requires_grad=True)
        gamma = Tensor(np.ones(4) + 0.1 * rand(4, 6), requires_grad=True)
        beta = Tensor(0.1 * rand(4, 7), requires_grad=True)
        w = rand((6, 4), 8)

        def f():
            out, _, _ = batch_norm_train(x, gamma, beta)
            return (out * Tensor(w)).sum()

        assert finite_difference_check(f, [x, gamma, beta]) <= 1e-5


class TestMaxout:
    def test_group_max(self):
        out = maxout_rows(Tensor([[1.0, -2.0, 3.0, 0.0]]), k=4)
        np.testing.assert_array_equal(out.data, [[3.0]])

    def test_gradient_routes_to_argmax_lowest_index_on_ties(self):
        x = Tensor([[2.0, 2.0, 1.0, 0.0]], requires_grad=True)
        backward(maxout_rows(x, k=4).sum())
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0, 0.0, 0.0]])

    def test_bad_group_size(self):
        with pytest.raises(ShapeError):
            maxout_rows(Tensor(np.zeros((2, 5))), k=4)

    @pytest.mark.parametrize("k", [1, 2, 4, 5])
    def test_forward_bit_identical_to_group_reduction(self, k):
        x = rand((6, 20 * k), 16)
        x[0, :k] = 1.5  # a fully tied group
        out = maxout_rows(Tensor(x), k)
        expected = x.reshape(6, 20, k).max(axis=2)
        np.testing.assert_array_equal(out.data.view(np.uint64), expected.view(np.uint64))

    def test_gradient_on_exact_ties_per_group(self):
        x = Tensor([[1.0, 3.0, 3.0, 0.0, 5.0, 5.0, 5.0, 5.0],
                    [-1.0, -2.0, -1.0, -1.0, 0.0, 2.0, 1.0, 2.0]], requires_grad=True)
        backward(maxout_rows(x, k=4).sum())
        np.testing.assert_array_equal(x.grad, [[0, 1, 0, 0, 1, 0, 0, 0],
                                               [1, 0, 0, 0, 0, 1, 0, 0]])

    def test_nan_propagates_within_its_group(self):
        x = Tensor([[1.0, np.nan, 3.0, 2.0, 4.0, 0.0, 1.0, 2.0]], requires_grad=True)
        out = maxout_rows(x, k=4)
        assert np.isnan(out.data[0, 0])
        assert out.data[0, 1] == 4.0
        backward(out.sum())
        np.testing.assert_array_equal(x.grad, [[0, 1, 0, 0, 1, 0, 0, 0]])

    def test_gradient(self):
        x = Tensor(rand((3, 8), 11), requires_grad=True)
        w = rand((3, 2), 12)
        err = finite_difference_check(
            lambda: (maxout_rows(x, 4) * Tensor(w)).sum(), [x])
        assert err <= 1e-6


class TestUpdateBlocks:
    def test_blocks_are_aligned_views_covering_the_arrays(self):
        a = np.zeros((3, UPDATE_BLOCK // 2 + 1))
        b = np.arange(a.size, dtype=float).reshape(a.shape)
        sizes = []
        for x, y in update_blocks(a, b):
            sizes.append(x.size)
            np.add(x, y, out=x)
        assert sizes == [UPDATE_BLOCK, a.size - UPDATE_BLOCK]
        np.testing.assert_array_equal(a, b)

    def test_arrays_of_one_block_come_back_whole(self):
        a, b = np.zeros((3, UPDATE_BLOCK // 3)), np.ones((3, UPDATE_BLOCK // 3))
        blocks = list(update_blocks(a, b))
        assert len(blocks) == 1 and blocks[0][0] is a and blocks[0][1] is b

    def test_rejects_non_contiguous_and_mismatched(self):
        with pytest.raises(ValueError, match="contiguous"):
            next(update_blocks(np.zeros((4, 3)).T))
        with pytest.raises(ShapeError):
            next(update_blocks(np.zeros(4), np.zeros(5)))


class TestBCE:
    def test_matches_naive_formula(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 3))
        t = (rng.random((4, 3)) < 0.5).astype(float)
        sig = 1 / (1 + np.exp(-x))
        naive = -(t * np.log(sig) + (1 - t) * np.log(1 - sig)).mean()
        out = bce_with_logits(Tensor(x), Tensor(t))
        np.testing.assert_allclose(out.data, naive, rtol=1e-10)

    def test_gradient(self):
        x = Tensor(rand((3, 4), 14), requires_grad=True)
        t = Tensor((rand((3, 4), 15) > 0).astype(float))
        assert finite_difference_check(lambda: bce_with_logits(x, t), [x]) <= 1e-6

    def test_refuses_targets_that_take_a_gradient(self):
        x = Tensor(rand((3, 4), 16), requires_grad=True)
        t = Tensor((rand((3, 4), 17) > 0).astype(float), requires_grad=True)
        with pytest.raises(ValueError, match="no gradient to its targets"):
            bce_with_logits(x, t)
        with no_grad():  # nothing is recorded, so no gradient could reach them
            value = bce_with_logits(x, t).data
        assert same_bits(value, bce_with_logits(x, t.detach()).data)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values, dtype and bytes, so signed zeros count."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def run_backward(out: Tensor, g: np.ndarray):
    """Hand `out`'s backward the gradient g, and check that it leaves g as it was."""
    before = g.copy()
    out._backward(g)
    assert same_bits(g, before)


class TestKernelsMatchTextbook:
    """The in-place kernels against the out-of-place expressions they replace,
    kept here as the reference: forward and backward agree to the bit."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("temperature", [1.0, 0.07])
    def test_softmax_rows(self, temperature, order):
        x = Tensor(rand((6, 9), 20) * 5, requires_grad=True)
        g = np.asarray(rand((6, 9), 21), order=order)
        scaled = x.data / temperature
        scaled = scaled - scaled.max(axis=1, keepdims=True)
        e = np.exp(scaled)
        probs = e / e.sum(axis=1, keepdims=True)
        inner = (g * probs).sum(axis=1, keepdims=True)
        ref_grad = probs * (g - inner) / temperature

        out = softmax_rows(x, temperature)
        assert same_bits(out.data, probs)
        run_backward(out, g)
        assert same_bits(x.grad, ref_grad)

    @pytest.mark.parametrize("b, d, pred_dtype", [
        (5, 7, np.float64), (300, 257, np.float64), (5, 7, np.float32),
    ], ids=["small", "row_blocks",  # blocks of 127, 127, 46 rows
            "narrower_pred"])  # the f64 product cannot go into the f32 log table
    def test_cross_entropy_rows(self, b, d, pred_dtype):
        rng = np.random.default_rng(22)
        target = Tensor(rng.dirichlet(np.ones(d), size=b))
        pred = Tensor(rng.dirichlet(np.ones(d), size=b).astype(pred_dtype), requires_grad=True)
        g = np.asarray(0.37)
        ref_loss = np.asarray(-(target.data * np.log(pred.data + EPS_LOG)).sum() / b)
        ref_pred_grad = (-(g / b) * target.data / (pred.data + EPS_LOG)).astype(pred_dtype)

        out = cross_entropy_rows(target, pred)
        assert same_bits(out.data, ref_loss)
        run_backward(out, g)
        assert same_bits(pred.grad, ref_pred_grad)
        assert target.grad is None

    def test_cross_entropy_refuses_a_target_that_takes_a_gradient(self):
        rng = np.random.default_rng(27)
        target = Tensor(rng.dirichlet(np.ones(6), size=4), requires_grad=True)
        pred = Tensor(rng.dirichlet(np.ones(6), size=4), requires_grad=True)
        with pytest.raises(ValueError, match="no gradient to its target"):
            cross_entropy_rows(target, pred)
        with no_grad():  # nothing is recorded, so no gradient could reach it
            value = cross_entropy_rows(target, pred).data
        assert same_bits(value, cross_entropy_rows(target.detach(), pred).data)

    def test_cross_entropy_keeps_no_log_table(self):
        rng = np.random.default_rng(27)
        target = Tensor(rng.dirichlet(np.ones(256), size=512))
        pred = Tensor(rng.dirichlet(np.ones(256), size=512), requires_grad=True)
        tracemalloc.start()
        try:
            out = cross_entropy_rows(target, pred)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert kept < 0.1 * pred.data.nbytes

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_batch_norm_train(self, order):
        x = Tensor(rand((16, 5), 23) * 3 + 1, requires_grad=True)
        gamma = Tensor(rand(5, 24), requires_grad=True)
        beta = Tensor(rand(5, 25), requires_grad=True)
        g = np.asarray(rand((16, 5), 26), order=order)
        eps = 1e-5
        mu = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        std = np.sqrt(var + eps)
        xhat = (x.data - mu) / std
        ref_out = xhat * gamma.data + beta.data
        dxhat = g * gamma.data
        ref_x_grad = (dxhat - dxhat.mean(axis=0) - xhat * (dxhat * xhat).mean(axis=0)) / std

        out, out_mu, out_var = batch_norm_train(x, gamma, beta, eps=eps)
        assert same_bits(out.data, ref_out)
        assert same_bits(out_mu, mu) and same_bits(out_var, var)
        run_backward(out, g)
        assert same_bits(x.grad, ref_x_grad)
        assert same_bits(gamma.grad, (g * xhat).sum(axis=0))
        assert same_bits(beta.grad, g.sum(axis=0))

    @pytest.mark.parametrize("tau", [0.04, 0.2])
    @pytest.mark.parametrize("n", [2, 8, 1024])
    def test_info_nce_rows(self, n, tau):
        # the dense graph the op replaced: 0/1 selector masks for the negatives
        # (all but the anchor) and the positive, applied by elementwise products
        sims, positives = info_nce_inputs(n // 2)
        g = np.asarray(0.37)
        e = np.exp(sims * np.asarray(1.0 / tau))
        mask = np.ones((n, n))
        np.fill_diagonal(mask, 0.0)
        pick = np.zeros((n, n))
        pick[np.arange(n), positives] = 1.0
        denom, s_pos = (e * mask).sum(axis=1), (e * pick).sum(axis=1)
        ref_loss = np.asarray((np.log(denom) - np.log(s_pos)).mean())
        g_rows = np.broadcast_to(g / n, (n,)).copy()
        g_den, g_pos = g_rows / denom, -g_rows / s_pos
        g_e = (np.broadcast_to(g_den[:, None], (n, n)).copy() * mask
               + np.broadcast_to(g_pos[:, None], (n, n)).copy() * pick)
        ref_grad = g_e * e * np.asarray(1.0 / tau)

        x = Tensor(sims, requires_grad=True)
        out = info_nce_rows(x, positives, tau)
        assert same_bits(out.data, ref_loss)
        run_backward(out, g)
        assert same_bits(x.grad, ref_grad)

    @pytest.mark.parametrize("in_place", [False, True], ids=["out_of_place", "in_place"])
    @pytest.mark.parametrize("dtype, gamma_dtype", [
        (np.float64, np.float64), (np.float32, np.float32), (np.float32, np.float64),
    ], ids=["f64", "f32", "f32_with_f64_gamma"])
    def test_batch_norm_train_statistics(self, dtype, gamma_dtype, in_place):
        data = (rand((37, 6), 28) * 3 + 1).astype(dtype)
        gamma = Tensor(rand(6, 29).astype(gamma_dtype), requires_grad=True)
        beta = Tensor(rand(6, 30).astype(gamma_dtype), requires_grad=True)
        mu, var = data.mean(axis=0), data.var(axis=0)
        xhat = (data - mu) / np.sqrt(var + 1e-5)
        ref_out = xhat * gamma.data + beta.data

        x = Tensor(data.copy(), requires_grad=True)
        out, out_mu, out_var = batch_norm_train(x, gamma, beta, in_place=in_place)
        assert same_bits(out_mu, mu) and same_bits(out_var, var)
        assert same_bits(out.data, ref_out)  # in the dtype xhat * gamma takes
        assert same_bits(x.data, xhat if in_place else data)


def info_nce_inputs(b: int, seed: int = 31):
    """Similarities of 2b unit rows and each row's positive, the other view of
    its sample, as in_batch_info_nce forms them."""
    z = rand((2 * b, 16), seed)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z @ z.T, np.concatenate([np.arange(b) + b, np.arange(b)])


def test_info_nce_rows_rejects_bad_shapes():
    sims, positives = info_nce_inputs(3)
    with pytest.raises(ShapeError):
        info_nce_rows(Tensor(sims[:5]), positives, 0.1)
    with pytest.raises(ShapeError):
        info_nce_rows(Tensor(sims), positives[:5], 0.1)


def queue_inputs(b: int, q: int, requires_grad=(True, False, False), seed: int = 60):
    """Unit student and teacher rows and a unit queue, transposed, as
    qmatch_loss hands them to queue_cross_entropy_rows."""
    arrays = [rand(shape, seed + i) for i, shape in enumerate(((b, 8), (b, 8), (q, 8)))]
    for a in arrays:
        a /= np.linalg.norm(a, axis=1, keepdims=True)
    arrays[2] = arrays[2].T.copy()
    return [Tensor(a, requires_grad=r) for a, r in zip(arrays, requires_grad)]


class TestQueueCrossEntropy:
    @pytest.mark.parametrize("b, q", [(37, 2048), (3, UPDATE_BLOCK + 1), (37, 1)],
                             ids=["ragged_last_block", "one_row_per_block", "one_slot"])
    def test_equals_composition(self, b, q):
        z_s, z_t, queue = queue_inputs(b, q)
        ref = cross_entropy_rows(softmax_rows(z_t @ queue, 0.04), softmax_rows(z_s @ queue, 0.1))
        backward(ref)
        ref_grad, z_s.grad = z_s.grad, None

        out = queue_cross_entropy_rows(z_s, z_t, queue, 0.1, 0.04)
        assert float(out.data).hex() == float(ref.data).hex()
        backward(out)
        assert same_bits(z_s.grad, ref_grad)

    def test_gradient_reaches_only_the_student(self):
        z_s, z_t, queue = queue_inputs(5, 16, requires_grad=(True, True, True))
        backward(queue_cross_entropy_rows(z_s, z_t, queue, 0.1, 0.04))
        assert z_s.grad.shape == (5, 8) and np.any(z_s.grad)
        assert z_t.grad is None and queue.grad is None

    def test_value_under_no_grad(self):
        inputs = queue_inputs(37, 64)
        with no_grad():
            quiet = queue_cross_entropy_rows(*inputs, 0.1, 0.04)
        assert not quiet.requires_grad and quiet._backward is None
        assert same_bits(quiet.data, queue_cross_entropy_rows(*inputs, 0.1, 0.04).data)

    @pytest.mark.parametrize("shapes", [((4, 8), (3, 8), (8, 5)), ((4, 8), (4, 7), (8, 5)),
                                        ((4, 8), (4, 8), (7, 5)), ((4, 8), (4, 8), (8,))],
                             ids=["rows", "teacher_dim", "queue_dim", "queue_1d"])
    def test_rejects_bad_shapes(self, shapes):
        with pytest.raises(ShapeError, match="queue cross-entropy"):
            queue_cross_entropy_rows(*(Tensor(np.ones(s)) for s in shapes), 0.1, 0.04)

    @pytest.mark.parametrize("taus", [(0.0, 0.04), (0.1, -1.0)])
    def test_rejects_non_positive_temperature(self, taus):
        with pytest.raises(ParameterError):
            queue_cross_entropy_rows(*queue_inputs(2, 3), *taus)


def traced_peak(fn) -> int:
    """Peak bytes that numpy allocates while fn() runs, beyond what was live before."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel, forward_arrays, backward_arrays", [
    ("softmax_rows", 1, 1), ("softmax_rows_in_place", 0, 1),
    ("cross_entropy_rows", 1, 1),
    ("queue_cross_entropy_rows", 2, 1),  # the backward forms the teacher rows again
    ("batch_norm_train", 2, 2), ("batch_norm_train_in_place", 1, 2),
    ("info_nce_rows", 1, 0),  # the backward writes into the forward's exp table
    ("batch_norm_eval", 1, 2), ("batch_norm_eval_unrecorded", 0, None),
])
def test_kernel_allocates_at_most(kernel, forward_arrays, backward_arrays):
    """Full-size arrays each kernel allocates (output and, for the backward, the
    gradients it hands on included); row and column vectors are negligible."""
    rng = np.random.default_rng(47)
    x = Tensor(rng.dirichlet(np.ones(256), size=512), requires_grad=True)
    gamma, beta = Tensor(rand(256, 48), requires_grad=True), Tensor(rand(256, 49))
    target = Tensor(rng.dirichlet(np.ones(256), size=512))
    stats = rand(256, 50), rand(256, 54) ** 2
    # products of x's size: (512, 16) @ (16, 256)
    z_s, z_t, q = (Tensor(rand(shape, seed), requires_grad=True)
                   for shape, seed in (((512, 16), 55), ((512, 16), 56), ((16, 256), 57)))
    if kernel == "info_nce_rows":  # the bounds count arrays of the sims' size
        sims, positives = info_nce_inputs(256)
        x = Tensor(sims, requires_grad=True)
    ops = {
        "softmax_rows": lambda: softmax_rows(x, 0.1),
        "softmax_rows_in_place": lambda: softmax_rows(x, 0.1, in_place=True),
        "cross_entropy_rows": lambda: cross_entropy_rows(target, x),
        "queue_cross_entropy_rows": lambda: queue_cross_entropy_rows(z_s, z_t, q, 0.1, 0.04),
        "batch_norm_train": lambda: batch_norm_train(x, gamma, beta)[0],
        "batch_norm_train_in_place": lambda: batch_norm_train(x, gamma, beta, in_place=True)[0],
        "info_nce_rows": lambda: info_nce_rows(x, positives, 0.1),
        "batch_norm_eval": lambda: batch_norm_eval(x, gamma, beta, *stats),
        "batch_norm_eval_unrecorded": lambda: batch_norm_eval(
            Tensor(x.data), Tensor(gamma.data), beta, *stats),
    }
    g = np.ones(()) if kernel.startswith(("cross_entropy", "queue_cross", "info_nce")) \
        else rand((512, 256), 51)
    out = []
    assert traced_peak(lambda: out.append(ops[kernel]())) < (forward_arrays + 0.5) * x.data.nbytes
    if backward_arrays is not None:  # None: nothing recorded, so there is no backward
        assert traced_peak(lambda: out[0]._backward(g)) < (backward_arrays + 0.5) * x.data.nbytes


class TestNoUnusedGradients:
    """An operand with requires_grad=False gets no gradient, and its product is
    never formed."""

    @pytest.mark.parametrize("frozen", [0, 1])
    @pytest.mark.parametrize("op", [add, sub, mul])
    def test_elementwise_op_skips_frozen_operand(self, monkeypatch, op, frozen):
        shapes = ((3, 4), (1, 4))  # the operands' gradients differ in shape

        def grads(requires):
            a = Tensor(rand(shapes[0], 52), requires_grad=requires[0])
            b = Tensor(rand(shapes[1], 53), requires_grad=requires[1])
            backward(op(a, b).sum())
            return a.grad, b.grad
        both = grads((True, True))
        formed, unbroadcast = [], qmatch.tensor._unbroadcast

        def spy(g, shape):
            formed.append(shape)
            return unbroadcast(g, shape)
        monkeypatch.setattr(qmatch.tensor, "_unbroadcast", spy)
        one = grads((frozen != 0, frozen != 1))
        assert formed == [shapes[1 - frozen]]
        assert one[frozen] is None
        assert same_bits(one[1 - frozen], both[1 - frozen])

    def test_matmul_frozen_left_operand(self):
        x = Tensor(rand((256, 512), 40))  # g @ w.T would be this size
        w = Tensor(rand((512, 4), 41), requires_grad=True)
        peak = traced_peak(lambda: backward((x @ w).sum()))
        assert x.grad is None and w.grad.shape == (512, 4)
        assert peak < x.data.nbytes / 4

    def test_matmul_frozen_right_operand(self):
        h = Tensor(rand((4, 512), 42), requires_grad=True)
        q = Tensor(rand((512, 256), 43))  # h.T @ g would be this size
        peak = traced_peak(lambda: backward((h @ q).sum()))
        assert q.grad is None and h.grad.shape == (4, 512)
        assert peak < q.data.nbytes / 4

    def test_cross_entropy_frozen_target(self):
        rng = np.random.default_rng(44)
        target = Tensor(rng.dirichlet(np.ones(6), size=4))
        pred = Tensor(rng.dirichlet(np.ones(6), size=4), requires_grad=True)
        backward(cross_entropy_rows(target, pred))
        assert target.grad is None and pred.grad.shape == (4, 6)

    def test_bce_frozen_targets(self):
        x = Tensor(rand((3, 4), 45), requires_grad=True)
        t = Tensor((rand((3, 4), 46) > 0).astype(float))
        backward(bce_with_logits(x, t))
        assert t.grad is None and x.grad.shape == (3, 4)


def test_float32_selectable():
    t = Tensor(np.array([1.0, 2.0], dtype=np.float32))
    assert t.data.dtype == np.float32


def test_autograd_internals_stay_in_tensor_module():
    """No package module but tensor.py imports a private name from it."""
    src = Path(__file__).resolve().parents[1] / "src" / "qmatch"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("tensor", "qmatch.tensor")):
                offenders += [f"{path.name}:{node.lineno} {a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert not offenders, offenders


def test_package_imports_are_used():
    """No package module imports a name it never references, unless the import
    line carries `# noqa: F401`."""
    src = Path(__file__).resolve().parents[1] / "src" / "qmatch"
    offenders = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                    offenders.append(f"{path.name}:{alias.lineno} {name}")
    assert not offenders, offenders


PACKAGE_SRC = Path(__file__).resolve().parents[1] / "src"


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter that imports qmatch from this checkout."""
    path = os.pathsep.join(filter(None, [str(PACKAGE_SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": path})


def test_package_import_loads_no_module():
    """`import qmatch` runs the package docstring alone: names are imported
    from the module that defines them, so the package re-exports nothing."""
    r = _run_fresh("import sys, qmatch\n"
                   "print(sorted(m for m in sys.modules if m.startswith('qmatch.')))")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


@pytest.mark.parametrize("module", sorted(
    p.stem for p in (PACKAGE_SRC / "qmatch").glob("*.py") if p.stem != "__init__"))
def test_module_imports_alone(module):
    """Each module imports in a new interpreter, so an import cycle or a name
    another module had to load first shows here."""
    r = _run_fresh(f"import qmatch.{module}")
    assert r.returncode == 0, r.stderr


def test_runtime_dependencies_are_numpy_alone():
    """The non-stdlib modules that src/qmatch imports are exactly pyproject.toml's
    runtime dependencies, and those are numpy alone."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in sorted((root / "src" / "qmatch").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"qmatch"}
    with open(root / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group() for d in declared}
    assert third_party == names == {"numpy"}


# Public names that keep no caller in src/qmatch or bench/, each with its reason.
UNCALLED_PUBLIC_NAMES = {
    "finite_difference_check": "the gradient oracle the tests use",
    "collision_probability": "the paper's published collision probability",
    "teacher_entropy": "the loss lower bound for the per-epoch run log (ROADMAP [run-log])",
    "EmbeddingQueue.mean_pairwise_cosine": "the collapse signal for the run log (ROADMAP [run-log])",
    "AdamW.state_arrays": "the optimizer state of an exact resume (ROADMAP [resume])",
    "EmbeddingQueue.ordered": "the FIFO order the queue tests compare",
    "save_csv": "the fixture writer, and the other half of the load_csv round trip",
}


def _referenced_names(tree: ast.AST) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_public_names_have_a_caller():
    """Every public module-level function or class, and every public method,
    in src/qmatch is referenced somewhere in src/qmatch or bench/ outside its
    own definition, or is listed in UNCALLED_PUBLIC_NAMES.  String constants in
    bench/ count, since bench/layers.py names the functions it traces."""
    root = Path(__file__).resolve().parents[1]
    refs: Counter = Counter()
    defined = []  # (qualified name, name, references inside its own definition)
    for path in sorted((root / "src" / "qmatch").glob("*.py")):
        tree = ast.parse(path.read_text())
        refs += _referenced_names(tree)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found = [(node, node.name)]
            if isinstance(node, ast.ClassDef):
                found += [(m, f"{node.name}.{m.name}") for m in node.body
                          if isinstance(m, ast.FunctionDef)]
            defined += [(qualified, item.name, _referenced_names(item)[item.name])
                        for item, qualified in found if not item.name.startswith("_")]
    for path in sorted((root / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        refs += _referenced_names(tree)
        refs.update(n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str))
    uncalled = sorted(qualified for qualified, name, own in defined
                      if refs[name] == own and qualified not in UNCALLED_PUBLIC_NAMES)
    assert not uncalled, uncalled
