"""Queue-based student-teacher distribution matching.

The queue holds the most recent unit-norm teacher embeddings.  Student and
teacher embeddings are each multiplied against the queue to produce logits;
the temperatured softmaxes of those logits are the two distributions, and the
loss is the mean cross-entropy from the (stop-gradient) teacher distribution
to the student distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import CorruptionConfig, make_views
from .model import (EmaParams, ModelParams, check_fields, ema_update, encoder_forward,
                    projector_forward)
from .tensor import (
    EPS_LOG,
    Tensor,
    backward,
    l2_normalize_rows,
    queue_cross_entropy_rows,
    softmax_rows,
)

# Unused here, but bench/layers.py traces it as an attribute of this module.
from .tensor import cross_entropy_rows  # noqa: F401


@dataclass
class QMatchConfig:
    tau_student: float = 0.1
    tau_teacher: float = 0.04
    tau_ema: float = 0.9
    queue_capacity: int = 512

    def __post_init__(self):
        check_fields(self, "positive and finite", lambda t: 0 < t < np.inf,
                     "tau_student", "tau_teacher")
        check_fields(self, "in [0, 1)", lambda t: 0 <= t < 1, "tau_ema")
        check_fields(self, ">= 1", lambda n: n >= 1, "queue_capacity")


class EmbeddingQueue:
    """Fixed-capacity FIFO of L2-normalized embeddings, backed by a ring buffer.

    `storage` holds one row per slot, so `capacity` and `dim` are its shape.  The
    cursor, the next write position (the oldest row once warm), starts at 0.
    """

    def __init__(self, storage: np.ndarray):
        if storage.ndim != 2 or len(storage) < 1:
            raise ValueError(f"queue storage must be 2-D with at least one row, "
                             f"got shape {storage.shape}")
        self.storage = storage
        self.capacity, self.dim = storage.shape
        self.cursor = 0

    def push(self, batch: np.ndarray):
        """Overwrite the oldest rows with the batch, preserving FIFO order."""
        b = len(batch)
        if b > self.capacity:
            raise ValueError(f"batch of {b} exceeds queue capacity {self.capacity}")
        if batch.shape[1] != self.dim:
            raise ValueError(f"batch dim {batch.shape[1]} != queue dim {self.dim}")
        self.storage[(self.cursor + np.arange(b)) % self.capacity] = batch
        self.cursor = (self.cursor + b) % self.capacity

    def ordered(self) -> np.ndarray:
        """Rows oldest first."""
        return np.concatenate([self.storage[self.cursor:], self.storage[:self.cursor]])

    def snapshot(self) -> np.ndarray:
        return self.storage.copy()

    def mean_pairwise_cosine(self) -> float:
        m = self.capacity
        if m < 2:
            raise ValueError(f"a pairwise mean needs two rows, the queue holds {m}")
        # the sum over all ordered pairs of rows, less each row with itself, in O(Q*D)
        total = self.storage.sum(axis=0)
        return float((total @ total - np.vdot(self.storage, self.storage)) / (m * (m - 1)))


def queue_init(capacity: int, dim: int, rng: np.random.Generator) -> EmbeddingQueue:
    """Queue pre-filled with random unit vectors so the loss is defined at step 0."""
    rows = rng.normal(size=(capacity, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddingQueue(rows)


def qmatch_loss(z_student: Tensor, z_teacher, queue: EmbeddingQueue,
                config: QMatchConfig) -> Tensor:
    """Mean cross-entropy H(p_teacher, p_student) over the batch.

    Inputs must already be L2-normalized; gradients flow only through z_student.
    One op forms both softmaxes over the queue and the loss: a step holds at
    most two batch x queue arrays, and the backward forms the teacher's again.
    """
    if z_student.shape[1] != queue.dim:
        raise ValueError(f"embedding dim {z_student.shape[1]} != queue dim {queue.dim}")
    # a contiguous copy: a product with the transposed view has other bits
    q_t = Tensor(queue.storage.T.copy())
    return queue_cross_entropy_rows(z_student, Tensor(z_teacher), q_t,
                                    config.tau_student, config.tau_teacher)


def teacher_entropy(z_teacher: np.ndarray, queue: EmbeddingQueue,
                    tau_teacher: float) -> float:
    """Mean row entropy of the teacher distribution (loss lower bound)."""
    p = softmax_rows(Tensor(z_teacher @ queue.storage.T), temperature=tau_teacher,
                     in_place=True).data
    return float(-(p * np.log(p + EPS_LOG)).sum(axis=1).mean())


def embed(params: ModelParams, x: np.ndarray, mode: str) -> Tensor:
    """Encoder -> projector -> row L2-normalization of a model-input batch."""
    h = encoder_forward(params, Tensor(x), mode=mode)
    return l2_normalize_rows(projector_forward(params, h))


def student_teacher(x: np.ndarray, pool: np.ndarray | None, student: ModelParams,
                    ema: EmaParams, corruption: CorruptionConfig,
                    rng: np.random.Generator, preprocess=None,
                    mode: str = "train") -> tuple[Tensor, Tensor]:
    """Two corrupted views of x, embedded by the student (batch norm in `mode`)
    and by the EMA teacher (always eval); the teacher side is detached.

    `preprocess` maps a raw view to the model-input representation (identity
    when None).
    """
    student_view, teacher_view = make_views(x, pool, corruption, rng)
    if preprocess is not None:
        student_view = preprocess(student_view)
        teacher_view = preprocess(teacher_view)
    z_t = embed(ema.params, teacher_view, "eval").detach()
    z_s = embed(student, student_view, mode)
    return z_s, z_t


def training_step(x: np.ndarray, pool: np.ndarray | None,
                  student: ModelParams, ema: EmaParams, queue: EmbeddingQueue,
                  corruption: CorruptionConfig, config: QMatchConfig,
                  optimizer, rng: np.random.Generator,
                  preprocess=None) -> float:
    """One full update: views -> forwards -> loss -> step -> EMA -> queue push.

    The loss uses the pre-push queue, so a sample's own teacher embedding is
    never part of the support during its step.
    """
    z_s, z_t = student_teacher(x, pool, student, ema, corruption, rng, preprocess)
    loss = qmatch_loss(z_s, z_t, queue, config)
    student.zero_grad()
    backward(loss)
    optimizer.step()
    ema_update(ema, student)
    queue.push(z_t.data)
    return float(loss.data)
