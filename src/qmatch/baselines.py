"""Comparison pretext losses and the class-collision probability utility.

Covers the in-batch contrastive loss, plain embedding alignment, prototype
distillation with centering, and the two reconstruction pretext losses
(mask + value prediction, and masked-value-only prediction).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import check_fields
from .tensor import (
    Tensor,
    bce_with_logits,
    concat_rows,
    cross_entropy_rows,
    exp,
    log,
    softmax_rows,
    tsum,
)


CENTER_MOMENTUM = 0.9  # EMA momentum of PrototypeBank.center


@dataclass
class BaselineConfig:
    """Settings of the comparison losses: a run config's `extra` section."""
    tau: float = 0.1  # in_batch_info_nce temperature (infonce)
    num_prototypes: int = 64  # PrototypeBank size (dino)
    alpha_mask: float = 1.0  # vime_pretext_loss weights
    alpha_recon: float = 1.0

    def __post_init__(self):
        check_fields(self, "positive and finite", lambda t: 0 < t < np.inf, "tau")
        check_fields(self, ">= 1", lambda n: n >= 1, "num_prototypes")
        check_fields(self, ">= 0 and finite", lambda a: 0 <= a < np.inf,
                     "alpha_mask", "alpha_recon")


class PrototypeBank:
    """Learnable prototype matrix with an EMA center over teacher logits."""

    def __init__(self, num_prototypes: int, dim: int, rng: np.random.Generator):
        self.prototypes = Tensor(rng.normal(0.0, 1.0 / np.sqrt(dim),
                                            size=(num_prototypes, dim)),
                                 requires_grad=True)
        self.center = np.zeros(num_prototypes)

    def update_center(self, teacher_logits: np.ndarray):
        m = CENTER_MOMENTUM
        self.center = m * self.center + (1 - m) * teacher_logits.mean(axis=0)


def in_batch_info_nce(z1: Tensor, z2: Tensor, tau: float) -> Tensor:
    """SimCLR-style pairing over two view batches: each view is an anchor, its
    positive is the other view of the same sample, and its negatives are all
    other views in the batch."""
    b = z1.shape[0]
    allz = concat_rows([z1, z2])  # 2B x D
    sims = allz @ allz.T
    e = exp(sims * (1.0 / tau))
    mask = np.ones((2 * b, 2 * b))
    np.fill_diagonal(mask, 0.0)  # an anchor is excluded from its own sets
    denom = tsum(e * Tensor(mask), axis=1)
    pos_idx = np.concatenate([np.arange(b) + b, np.arange(b)])
    pick = np.zeros((2 * b, 2 * b))
    pick[np.arange(2 * b), pos_idx] = 1.0
    s_pos = tsum(e * Tensor(pick), axis=1)
    return (log(denom) - log(s_pos)).mean()


def mse_align_loss(z: Tensor, z_positive) -> Tensor:
    """Mean of -z . z+ per row, with stop-gradient on the positive side."""
    z_pos = z_positive.detach() if isinstance(z_positive, Tensor) else Tensor(z_positive)
    return -tsum(z * z_pos, axis=1).mean()


def dino_proto_loss(z_student: Tensor, z_teacher, bank: PrototypeBank,
                    tau_s: float, tau_t: float, update_center: bool = True) -> Tensor:
    """Cross-entropy between prototype distributions of a positive pair.

    Teacher logits are centered by the bank's EMA center and sharpened by
    tau_t; the teacher side and the prototypes it sees are stop-gradient.
    """
    z_t = z_teacher.detach() if isinstance(z_teacher, Tensor) else Tensor(z_teacher)
    proto_t = bank.prototypes.detach()
    t_logits = (z_t @ proto_t.T).data
    p_t = Tensor(_softmax_np((t_logits - bank.center) / tau_t))
    # into the logits' buffer: matmul's backward reads its operands, not its product
    p_s = softmax_rows(z_student @ bank.prototypes.T, temperature=tau_s, in_place=True)
    loss = cross_entropy_rows(p_t, p_s)
    if update_center:
        bank.update_center(t_logits)
    return loss


def _softmax_np(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def vime_pretext_loss(x_original: Tensor, mask: np.ndarray,
                      mask_logits: Tensor, reconstruction: Tensor,
                      alpha_mask: float = 1.0, alpha_recon: float = 1.0) -> Tensor:
    """Mask-prediction BCE plus full-input reconstruction MSE."""
    bce = bce_with_logits(mask_logits, Tensor(mask.astype(float)))
    diff = reconstruction - x_original.detach()
    mse = (diff * diff).mean()
    return bce * alpha_mask + mse * alpha_recon


def tabnet_recon_loss(x_original: Tensor, mask: np.ndarray,
                      reconstruction: Tensor) -> Tensor:
    """Reconstruction MSE restricted to the corrupted cells."""
    count = float(mask.sum())
    if count == 0:
        warnings.warn("tabnet_recon_loss called with an all-zero mask; loss is 0")
        return (reconstruction * 0.0).sum()
    diff = (reconstruction - x_original.detach()) * Tensor(mask.astype(float))
    return (diff * diff).sum() * (1.0 / count)


def collision_probability(num_classes: int, batch_size: int) -> float:
    """Probability that a batch of uniformly-classed negatives contains at
    least one sample sharing the anchor's class: 1 - ((N-1)/N)^(B-1)."""
    if num_classes < 1 or batch_size < 1:
        raise ValueError("num_classes and batch_size must be >= 1")
    return 1.0 - ((num_classes - 1) / num_classes) ** (batch_size - 1)
