import numpy as np
import pytest

from qmatch.augment import CorruptionConfig, corrupt, make_views


class TestCorrupt:
    def test_p_zero_identity(self, rng):
        x = rng.normal(size=(20, 5))
        out, mask = corrupt(x, x, 0.0, "resample", rng)
        np.testing.assert_array_equal(out, x)
        assert not mask.any()

    def test_p_one_zero_mode(self, rng):
        x = rng.normal(size=(20, 5))
        out, mask = corrupt(x, None, 1.0, "zero", rng)
        np.testing.assert_array_equal(out, 0.0)
        assert mask.all()

    def test_empty_pool_rejected(self, rng):
        with pytest.raises(ValueError, match="pool"):
            corrupt(np.ones((2, 3)), np.empty((0, 3)), 0.5, "resample", rng)

    def test_resample_values_come_from_pool(self, rng):
        pool = rng.integers(0, 5, size=(30, 4)).astype(float)
        x = np.full((50, 4), 99.0)
        out, mask = corrupt(x, pool, 0.5, "resample", rng)
        for j in range(4):
            changed = out[:, j][mask[:, j]]
            assert np.isin(changed, pool[:, j]).all()
        np.testing.assert_array_equal(out[~mask], 99.0)

    def test_resample_change_rate_matches_monte_carlo_oracle(self):
        # expected changed-cell fraction is p * (1 - delta_same) where
        # delta_same is the exact probability a uniformly resampled pool
        # value equals the original cell value
        rng = np.random.default_rng(42)
        pool = rng.integers(0, 4, size=(200, 3)).astype(float)
        n = 4000
        x = pool[rng.integers(0, len(pool), size=n)]
        p = 0.3
        delta_same = 0.0
        for j in range(3):
            values, counts = np.unique(pool[:, j], return_counts=True)
            freq = counts / len(pool)
            x_freq = np.array([freq[values == v][0] if v in values else 0.0
                               for v in x[:, j]])
            delta_same += x_freq.mean()
        delta_same /= 3
        out, _ = corrupt(x, pool, p, "resample", rng)
        changed = (out != x).mean()
        assert abs(changed - p * (1 - delta_same)) < 0.02

    def test_shape_preserved(self, rng):
        x = rng.normal(size=(7, 3))
        out, mask = corrupt(x, x, 0.4, "resample", rng)
        assert out.shape == x.shape and mask.shape == x.shape

    def test_deterministic_given_rng_state(self):
        x = np.random.default_rng(1).normal(size=(10, 4))
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            out, _ = corrupt(x, x, 0.5, "resample", rng)
            outs.append(out)
        np.testing.assert_array_equal(outs[0], outs[1])


class TestMakeViews:
    def test_teacher_uncorrupted_by_default(self, rng):
        x = rng.normal(size=(10, 4))
        cfg = CorruptionConfig(p_student=0.3, p_teacher=0.0)
        _, teacher = make_views(x, x, cfg, rng)
        np.testing.assert_array_equal(teacher, x)

    def test_both_zero_identity(self, rng):
        x = rng.normal(size=(10, 4))
        cfg = CorruptionConfig(p_student=0.0, p_teacher=0.0)
        student, teacher = make_views(x, x, cfg, rng)
        np.testing.assert_array_equal(student, x)
        np.testing.assert_array_equal(teacher, x)

    def test_reproducible_with_fixed_seed(self):
        x = np.random.default_rng(5).normal(size=(10, 4))
        cfg = CorruptionConfig(p_student=0.5, p_teacher=0.2)
        a = make_views(x, x, cfg, np.random.default_rng(9))
        b = make_views(x, x, cfg, np.random.default_rng(9))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_views_independent(self, rng):
        x = np.zeros((50, 10))
        pool = np.ones((20, 10))
        cfg = CorruptionConfig(p_student=0.5, p_teacher=0.5)
        student, teacher = make_views(x, pool, cfg, rng)
        assert not np.array_equal(student, teacher)


def test_invalid_probability_rejected():
    with pytest.raises(ValueError):
        CorruptionConfig(p_student=1.5)
    with pytest.raises(ValueError):
        CorruptionConfig(mode="swap")
