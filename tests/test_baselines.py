import numpy as np
import pytest

from qmatch.baselines import (
    BaselineConfig,
    PrototypeBank,
    collision_probability,
    dino_proto_loss,
    in_batch_info_nce,
    mse_align_loss,
    tabnet_recon_loss,
    vime_pretext_loss,
)
from qmatch.tensor import Tensor, backward, finite_difference_check


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def unit_rows(rng, n, d):
    z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


class TestInfoNCE:
    def test_matches_per_anchor_loop(self, rng):
        # anchor i of the 2B views: positive is the other view of its sample,
        # the denominator sums over every view but itself
        b, tau = 4, 0.2
        z1, z2 = unit_rows(rng, b, 5), unit_rows(rng, b, 5)
        views = np.concatenate([z1, z2])
        expected = []
        for i in range(2 * b):
            sims = np.exp(views @ views[i] / tau)
            s_pos = sims[(i + b) % (2 * b)]
            expected.append(-np.log(s_pos / (sims.sum() - sims[i])))
        loss = float(in_batch_info_nce(Tensor(z1), Tensor(z2), tau).data)
        np.testing.assert_allclose(loss, np.mean(expected), rtol=1e-12)

    def test_single_sample_has_zero_loss(self, rng):
        # with B = 1 each view's only other view is its positive
        z1, z2 = Tensor(unit_rows(rng, 1, 4)), Tensor(unit_rows(rng, 1, 4))
        assert float(in_batch_info_nce(z1, z2, 0.1).data) == 0.0

    def test_symmetric_and_permutation_invariant(self, rng):
        z1, z2 = unit_rows(rng, 5, 6), unit_rows(rng, 5, 6)
        base = float(in_batch_info_nce(Tensor(z1), Tensor(z2), 0.15).data)
        swapped = float(in_batch_info_nce(Tensor(z2), Tensor(z1), 0.15).data)
        perm = rng.permutation(5)
        permuted = float(in_batch_info_nce(Tensor(z1[perm]), Tensor(z2[perm]), 0.15).data)
        np.testing.assert_allclose([swapped, permuted], base, rtol=1e-12)

    def test_nonnegative(self, rng):
        # the positive is one of the denominator's terms, so the ratio is <= 1
        for _ in range(20):
            loss = float(in_batch_info_nce(Tensor(unit_rows(rng, 4, 8)),
                                           Tensor(unit_rows(rng, 4, 8)), 0.1).data)
            assert loss >= 0.0

    def test_no_overflow_at_smallest_grid_temperature(self, rng):
        # unit rows bound every logit by 1 / tau = 25
        z = unit_rows(rng, 8, 4)
        with np.errstate(over="raise"):
            loss = float(in_batch_info_nce(Tensor(z), Tensor(z), 0.04).data)
        assert np.isfinite(loss)

    def test_in_batch_variant_gradient(self, rng):
        z1 = Tensor(unit_rows(rng, 4, 5), requires_grad=True)
        z2 = Tensor(unit_rows(rng, 4, 5), requires_grad=True)
        err = finite_difference_check(
            lambda: in_batch_info_nce(z1, z2, 0.2), [z1, z2])
        assert err <= 1e-4


class TestMseAlign:
    def test_perfect_alignment(self):
        z = Tensor([[1.0, 0.0]], requires_grad=True)
        assert float(mse_align_loss(z, np.array([[1.0, 0.0]])).data) == -1.0

    def test_orthogonal(self):
        z = Tensor([[1.0, 0.0]])
        assert float(mse_align_loss(z, np.array([[0.0, 1.0]])).data) == 0.0

    def test_antipodal(self):
        z = Tensor([[1.0, 0.0]])
        assert float(mse_align_loss(z, np.array([[-1.0, 0.0]])).data) == 1.0

    def test_range_bounds(self, rng):
        for _ in range(50):
            loss = float(mse_align_loss(Tensor(unit_rows(rng, 5, 4)),
                                        unit_rows(rng, 5, 4)).data)
            assert -1.0 - 1e-12 <= loss <= 1.0 + 1e-12

    def test_stop_gradient_on_positive(self, rng):
        z = Tensor(unit_rows(rng, 3, 4), requires_grad=True)
        z_pos = Tensor(unit_rows(rng, 3, 4), requires_grad=True)
        backward(mse_align_loss(z, z_pos))
        assert z.grad is not None
        assert z_pos.grad is None

    def test_gradient(self, rng):
        z = Tensor(unit_rows(rng, 3, 4), requires_grad=True)
        z_pos = unit_rows(rng, 3, 4)
        assert finite_difference_check(lambda: mse_align_loss(z, z_pos), [z]) <= 1e-4


class TestDino:
    def test_single_prototype_zero_loss(self, rng):
        bank = PrototypeBank(1, 4, rng)
        z = unit_rows(rng, 3, 4)
        loss = dino_proto_loss(Tensor(z, requires_grad=True), z, bank, 0.1, 0.04,
                               update_center=False)
        assert abs(float(loss.data)) < 1e-9

    def test_equal_views_equal_temps_gives_teacher_entropy(self, rng):
        bank = PrototypeBank(8, 4, rng)
        z = unit_rows(rng, 5, 4)
        loss = float(dino_proto_loss(Tensor(z), z, bank, 0.1, 0.1,
                                     update_center=False).data)
        logits = z @ bank.prototypes.data.T / 0.1
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        ent = -(p * np.log(p + 1e-12)).sum(axis=1).mean()
        np.testing.assert_allclose(loss, ent, rtol=1e-8)

    def test_teacher_collapses_to_argmax_as_tau_shrinks(self, rng):
        bank = PrototypeBank(6, 4, rng)
        bank.center[...] = 0.0
        z = np.tile(unit([0.2, -0.5, 0.3, 1.0]), (3, 1))
        maxps = []
        for tau_t in (1.0, 0.1, 0.01):
            logits = (z @ bank.prototypes.data.T) / tau_t
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
            maxps.append(p.max())
        assert maxps[0] < maxps[1] < maxps[2]
        assert maxps[2] > 1 - 1e-6

    def test_center_ema_update(self, rng):
        bank = PrototypeBank(4, 3, rng)
        z = unit_rows(rng, 10, 3)
        dino_proto_loss(Tensor(z), z, bank, 0.1, 0.04)
        logits = z @ bank.prototypes.data.T
        np.testing.assert_allclose(bank.center, 0.1 * logits.mean(axis=0))

    def test_gradient_flows_to_student_and_prototypes(self, rng):
        # The teacher branch is stop-gradient, so finite differences are only
        # valid for the student embeddings; prototypes receive a gradient from
        # the student branch alone.
        bank = PrototypeBank(5, 4, rng)
        z_s = Tensor(unit_rows(rng, 3, 4), requires_grad=True)
        z_t = unit_rows(rng, 3, 4)
        err = finite_difference_check(
            lambda: dino_proto_loss(z_s, z_t, bank, 0.1, 0.04, update_center=False),
            [z_s])
        assert err <= 1e-4
        backward(dino_proto_loss(z_s, z_t, bank, 0.1, 0.04, update_center=False))
        assert bank.prototypes.grad is not None
        assert np.any(bank.prototypes.grad != 0.0)


class TestVime:
    def test_zero_corruption_bce_minimized_by_negative_logits(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        mask = np.zeros((4, 3))
        recon = Tensor(x.data.copy())
        low = float(vime_pretext_loss(x, mask, Tensor(np.full((4, 3), -20.0)), recon).data)
        high = float(vime_pretext_loss(x, mask, Tensor(np.zeros((4, 3))), recon).data)
        assert low < high and low < 1e-6

    def test_perfect_reconstruction_zeroes_mse_term(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        mask = (rng.random((4, 3)) < 0.5).astype(float)
        loss_with = float(vime_pretext_loss(x, mask, Tensor(np.zeros((4, 3))),
                                            Tensor(x.data.copy()), alpha_mask=0.0).data)
        assert loss_with == 0.0

    def test_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        mask = (rng.random((3, 4)) < 0.4).astype(float)
        mask_logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        recon = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        err = finite_difference_check(
            lambda: vime_pretext_loss(x, mask, mask_logits, recon),
            [mask_logits, recon])
        assert err <= 1e-4


class TestTabnetRecon:
    def test_all_zero_mask_returns_zero_with_warning(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        recon = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with pytest.warns(UserWarning):
            loss = tabnet_recon_loss(x, np.zeros((3, 4)), recon)
        assert float(loss.data) == 0.0

    def test_restriction_to_masked_cells(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        mask = np.zeros((3, 4))
        mask[0, 0] = 1.0
        recon_data = rng.normal(size=(3, 4)) * 100  # garbage off-mask
        recon_data[0, 0] = x.data[0, 0]
        loss = tabnet_recon_loss(x, mask, Tensor(recon_data))
        assert abs(float(loss.data)) < 1e-20

    def test_equals_full_mse_when_mask_all_ones(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        recon = Tensor(rng.normal(size=(3, 4)))
        loss = float(tabnet_recon_loss(x, np.ones((3, 4)), recon).data)
        np.testing.assert_allclose(loss, ((recon.data - x.data) ** 2).mean(), rtol=1e-12)

    def test_gradient(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        mask = (rng.random((3, 4)) < 0.5).astype(float)
        mask[0, 0] = 1.0
        recon = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert finite_difference_check(
            lambda: tabnet_recon_loss(x, mask, recon), [recon]) <= 1e-4


class TestCollisionProbability:
    def test_published_value_1000_classes(self):
        assert abs(collision_probability(1000, 512) - 0.40) <= 0.01

    def test_single_class(self):
        for b in (1, 2, 512):
            expected = 0.0 if b == 1 else 1.0
            assert collision_probability(1, b) == expected

    def test_ten_classes_near_one(self):
        p = collision_probability(10, 512)
        np.testing.assert_allclose(p, 1 - 0.9 ** 511, rtol=1e-15)
        assert p > 0.9999

    def test_monotonicity(self):
        assert collision_probability(100, 256) < collision_probability(100, 512)
        assert collision_probability(1000, 256) < collision_probability(100, 256)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            collision_probability(0, 4)


class TestBaselineConfig:
    def test_defaults(self):
        assert BaselineConfig() == BaselineConfig(tau=0.1, num_prototypes=64,
                                                  alpha_mask=1.0, alpha_recon=1.0)
        BaselineConfig(alpha_mask=0.0, alpha_recon=0.0)

    @pytest.mark.parametrize("field, value", [
        ("tau", 0.0), ("tau", float("nan")), ("tau", float("inf")),
        ("num_prototypes", 0), ("alpha_mask", -1.0), ("alpha_mask", float("nan")),
        ("alpha_recon", float("inf")),
    ])
    def test_rules(self, field, value):
        with pytest.raises(ValueError, match=field):
            BaselineConfig(**{field: value})
