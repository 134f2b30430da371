import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmatch.augment import CorruptionConfig
from qmatch.distill import (
    EmbeddingQueue,
    QMatchConfig,
    qmatch_loss,
    queue_init,
    teacher_entropy,
    training_step,
)
from qmatch.model import EmaParams, EncoderConfig, init_params
from qmatch.tensor import Tensor, backward
from qmatch.train import AdamW


def unit_rows(rng, n, d):
    z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


class TestQueueInit:
    def test_unit_norm_rows(self, rng):
        q = queue_init(512, 128, rng)
        np.testing.assert_allclose(np.linalg.norm(q.storage, axis=1), 1.0, atol=1e-12)
        assert q.capacity == 512

    def test_deterministic(self):
        a = queue_init(32, 8, np.random.default_rng(3))
        b = queue_init(32, 8, np.random.default_rng(3))
        np.testing.assert_array_equal(a.storage, b.storage)

    def test_initial_similarities_near_zero(self, rng):
        q = queue_init(512, 128, rng)
        assert abs(q.mean_pairwise_cosine()) < 0.05

    def test_pairwise_cosine_needs_two_rows(self, rng):
        with pytest.raises(ValueError, match="pairwise mean needs two rows"):
            queue_init(1, 4, rng).mean_pairwise_cosine()
        assert queue_init(2, 4, rng).mean_pairwise_cosine() <= 1.0

    def test_pairwise_cosine_equals_the_mean_of_the_gram_off_diagonal(self, rng):
        q = EmbeddingQueue(unit_rows(rng, 300, 16))
        sims = q.storage @ q.storage.T
        expected = (sims.sum() - np.trace(sims)) / (300 * 299)
        assert abs(q.mean_pairwise_cosine() - expected) < 1e-12

    def test_pairwise_cosine_forms_no_queue_by_queue_array(self, rng):
        q = EmbeddingQueue(unit_rows(rng, 4096, 8))
        tracemalloc.start()
        try:
            q.mean_pairwise_cosine()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096 * 4096 * 8

    def test_capacity_validation(self, rng):
        with pytest.raises(ValueError):
            queue_init(0, 8, rng)

    def test_capacity_and_dim_follow_storage_shape(self, rng):
        storage = unit_rows(rng, 6, 3)
        q = EmbeddingQueue(storage)
        assert (q.capacity, q.dim, q.cursor) == (6, 3, 0) and q.storage is storage
        q = queue_init(5, 2, rng)
        assert (q.capacity, q.dim) == q.storage.shape == (5, 2)

    @pytest.mark.parametrize("shape", [(0, 3), (3,), (2, 3, 1)], ids=str)
    def test_storage_without_rows_of_a_2d_array_is_refused(self, shape):
        with pytest.raises(ValueError, match="2-D with at least one row"):
            EmbeddingQueue(np.zeros(shape))


class TestQueuePush:
    def test_full_replacement_when_batch_equals_capacity(self, rng):
        q = queue_init(8, 4, rng)
        batch = unit_rows(rng, 8, 4)
        q.push(batch)
        np.testing.assert_array_equal(q.ordered(), batch)

    def test_fifo_keeps_last_two_batches(self, rng):
        q = queue_init(8, 4, rng)
        a, b, c = (unit_rows(rng, 4, 4) for _ in range(3))
        for batch in (a, b, c):
            q.push(batch)
        np.testing.assert_array_equal(q.ordered(), np.concatenate([b, c]))

    def test_queue_equals_concatenation_of_last_batches(self, rng):
        q = queue_init(12, 3, rng)
        batches = [unit_rows(rng, 4, 3) for _ in range(7)]
        for batch in batches:
            q.push(batch)
        np.testing.assert_array_equal(q.ordered(), np.concatenate(batches[-3:]))

    def test_oversize_push_rejected(self, rng):
        q = queue_init(4, 3, rng)
        with pytest.raises(ValueError):
            q.push(unit_rows(rng, 5, 3))

    @settings(max_examples=1000, deadline=None)
    @given(st.data())
    def test_fifo_properties_random_sequences(self, data):
        capacity = data.draw(st.integers(1, 16))
        dim = data.draw(st.integers(1, 6))
        seed = data.draw(st.integers(0, 2 ** 31))
        rng = np.random.default_rng(seed)
        q = queue_init(capacity, dim, rng)
        pushed = list(q.ordered())
        for _ in range(data.draw(st.integers(0, 6))):
            b = data.draw(st.integers(1, capacity))
            batch = unit_rows(rng, b, dim)
            q.push(batch)
            pushed.extend(batch)
            # constant capacity, unit norms, exact FIFO window
            assert q.storage.shape == (capacity, dim)
            np.testing.assert_allclose(
                np.linalg.norm(q.storage, axis=1), 1.0, atol=1e-9)
            np.testing.assert_array_equal(q.ordered(),
                                          np.asarray(pushed[-capacity:]))


class TestQMatchLoss:
    def test_capacity_one_queue_gives_zero_loss(self, rng):
        q = queue_init(1, 8, rng)
        z = unit_rows(rng, 4, 8)
        cfg = QMatchConfig(queue_capacity=1)
        loss = qmatch_loss(Tensor(z, requires_grad=True), z, q, cfg)
        assert abs(float(loss.data)) < 1e-9

    def test_equal_views_equal_temps_gives_entropy(self, rng):
        q = queue_init(16, 8, rng)
        z = unit_rows(rng, 5, 8)
        cfg = QMatchConfig(tau_student=0.1, tau_teacher=0.1)
        loss = float(qmatch_loss(Tensor(z, requires_grad=True), z, q, cfg).data)
        ent = teacher_entropy(z, q, 0.1)
        np.testing.assert_allclose(loss, ent, rtol=1e-8)

    def test_gibbs_lower_bound_100_draws(self, rng):
        q = queue_init(16, 8, rng)
        cfg = QMatchConfig(tau_student=0.1, tau_teacher=0.04)
        for _ in range(100):
            z_s = Tensor(unit_rows(rng, 4, 8), requires_grad=True)
            z_t = unit_rows(rng, 4, 8)
            loss = float(qmatch_loss(z_s, z_t, q, cfg).data)
            assert loss >= teacher_entropy(z_t, q, cfg.tau_teacher) - 1e-9

    def test_gradient_only_through_student(self, rng):
        q = queue_init(16, 8, rng)
        cfg = QMatchConfig()
        z_s = Tensor(unit_rows(rng, 4, 8), requires_grad=True)
        z_t = Tensor(unit_rows(rng, 4, 8), requires_grad=True)
        backward(qmatch_loss(z_s, z_t, q, cfg))
        assert z_s.grad is not None and np.any(z_s.grad != 0)
        assert z_t.grad is None

    def test_loss_peaks_below_four_batch_by_queue_arrays(self, rng):
        # logits, probabilities and log table on both sides would be six
        b, d, capacity = 512, 128, 2048
        q = queue_init(capacity, d, rng)
        z_s = Tensor(unit_rows(rng, b, d), requires_grad=True)
        z_t = unit_rows(rng, b, d)
        tracemalloc.start()
        try:
            backward(qmatch_loss(z_s, z_t, q, QMatchConfig(queue_capacity=capacity)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * b * capacity * np.dtype(np.float64).itemsize
        assert z_s.grad.shape == (b, d)

    def test_loss_peaks_below_two_and_a_half_batch_by_queue_arrays(self, rng):
        # the two products, then the teacher's formed again beside the student's
        b, d, capacity = 512, 128, 2048
        q = queue_init(capacity, d, rng)
        z_s = Tensor(unit_rows(rng, b, d), requires_grad=True)
        z_t = unit_rows(rng, b, d)
        tracemalloc.start()
        try:
            backward(qmatch_loss(z_s, z_t, q, QMatchConfig(queue_capacity=capacity)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * b * capacity * np.dtype(np.float64).itemsize
        assert z_s.grad.shape == (b, d)

    def test_dim_mismatch(self, rng):
        q = queue_init(16, 8, rng)
        with pytest.raises(ValueError):
            qmatch_loss(Tensor(unit_rows(rng, 4, 7)), unit_rows(rng, 4, 7), q,
                        QMatchConfig())

    def test_sharpening_monotonicity(self, rng):
        # smaller teacher temperature => strictly lower teacher entropy
        q = queue_init(16, 8, rng)
        z = unit_rows(rng, 6, 8)
        ents = [teacher_entropy(z, q, tau) for tau in (0.04, 0.1, 0.5, 1.0)]
        assert all(a < b for a, b in zip(ents, ents[1:]))


def tiny_setup(rng, queue_capacity=16):
    cfg = EncoderConfig(input_dim=6, layer_widths=(8, 8), maxout_k=4, projector_dim=4)
    params = init_params(cfg, 0)
    ema = EmaParams(params.copy(requires_grad=False), decay=0.9)
    queue = queue_init(queue_capacity, 4, rng)
    opt = AdamW(params.trainable(), lr=1e-3)
    return params, ema, queue, opt


class TestTrainingStep:
    def test_stop_gradient_on_teacher_path(self, rng):
        params, ema, queue, opt = tiny_setup(rng)
        x = rng.normal(size=(8, 6))
        training_step(x, x, params, ema, queue,
                      CorruptionConfig(p_student=0.3), QMatchConfig(queue_capacity=16),
                      opt, rng)
        for t in ema.params.tensors.values():
            assert t.grad is None or not np.any(t.grad)

    def test_ema_moves_with_student(self, rng):
        params, ema, queue, opt = tiny_setup(rng)
        before = {k: t.data.copy() for k, t in ema.params.tensors.items()}
        x = rng.normal(size=(8, 6))
        training_step(x, x, params, ema, queue,
                      CorruptionConfig(p_student=0.3), QMatchConfig(queue_capacity=16),
                      opt, rng)
        changed = any(not np.array_equal(t.data, before[k])
                      for k, t in ema.params.tensors.items())
        assert changed

    def test_queue_receives_teacher_batch(self, rng):
        params, ema, queue, opt = tiny_setup(rng)
        snapshot = queue.snapshot()
        x = rng.normal(size=(8, 6))
        training_step(x, x, params, ema, queue,
                      CorruptionConfig(p_student=0.3), QMatchConfig(queue_capacity=16),
                      opt, rng)
        assert not np.array_equal(queue.snapshot(), snapshot)
        np.testing.assert_allclose(np.linalg.norm(queue.storage, axis=1), 1.0,
                                   atol=1e-9)

    def test_deterministic_losses_over_ten_steps(self):
        losses = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            params, ema, queue, opt = tiny_setup(rng)
            x_rng = np.random.default_rng(1)
            run = [training_step(x_rng.normal(size=(8, 6)), x_rng.normal(size=(30, 6)),
                                 params, ema, queue,
                                 CorruptionConfig(p_student=0.3),
                                 QMatchConfig(queue_capacity=16), opt, rng)
                   for _ in range(10)]
            losses.append(run)
        np.testing.assert_array_equal(losses[0], losses[1])


def test_config_validation():
    with pytest.raises(ValueError):
        QMatchConfig(tau_student=0.0)
    with pytest.raises(ValueError):
        QMatchConfig(queue_capacity=0)


@pytest.mark.parametrize("field, value", [
    ("tau_student", float("nan")), ("tau_teacher", float("inf")),
    ("tau_ema", 1.0), ("tau_ema", -0.1), ("tau_ema", float("nan")),
])
def test_config_rejects_non_finite_and_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        QMatchConfig(**{field: value})
    QMatchConfig(tau_ema=0.0)
