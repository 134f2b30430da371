"""View generation by feature corruption.

Corruption operates on raw feature matrices (categorical columns hold integer
codes, before one-hot encoding), so a corrupted categorical cell swaps its
whole category.  Each cell is masked by an independent Bernoulli(p) draw;
masked cells are either zeroed or resampled from the same column of a pool
of pretext rows (a fresh pool row per cell).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import check_fields


@dataclass
class CorruptionConfig:
    mode: str = "resample"  # "resample" (VIME) or "zero" (TabNet)
    p_student: float = 0.3
    p_teacher: float = 0.0

    def __post_init__(self):
        check_fields(self, "'resample' or 'zero'", lambda m: m in ("resample", "zero"), "mode")
        check_fields(self, "in [0, 1]", lambda p: 0 <= p <= 1, "p_student", "p_teacher")


def corrupt(x: np.ndarray, pool: np.ndarray | None, p: float, mode: str,
            rng: np.random.Generator):
    """Return (corrupted copy of x, boolean mask of corrupted cells); `p` is
    a CorruptionConfig probability, checked there."""
    b, f = x.shape
    mask = rng.random((b, f)) < p
    out = x.copy()
    if p == 0.0 or not mask.any():
        return out, mask
    if mode == "zero":
        out[mask] = 0.0
    elif mode == "resample":
        if pool is None or len(pool) == 0:
            raise ValueError("resample corruption requires a nonempty pool")
        if pool.shape[1] != f:
            raise ValueError(f"pool has {pool.shape[1]} features, batch has {f}")
        donors = rng.integers(0, len(pool), size=(b, f))
        out[mask] = pool[donors, np.arange(f)[None, :].repeat(b, axis=0)][mask]
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return out, mask


def make_views(x: np.ndarray, pool: np.ndarray | None, config: CorruptionConfig,
               rng: np.random.Generator):
    """Two independent corruptions of x: (student_view, teacher_view)."""
    student, _ = corrupt(x, pool, config.p_student, config.mode, rng)
    teacher, _ = corrupt(x, pool, config.p_teacher, config.mode, rng)
    return student, teacher
