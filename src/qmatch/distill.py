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
    cross_entropy_rows,
    l2_normalize_rows,
    softmax_rows,
)


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
    """Fixed-capacity FIFO of L2-normalized embeddings, backed by a ring buffer."""

    def __init__(self, capacity: int, dim: int, storage: np.ndarray | None = None,
                 cursor: int = 0):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dim = dim
        if storage is None:
            storage = np.zeros((capacity, dim))
        if storage.shape != (capacity, dim):
            raise ValueError(f"storage shape {storage.shape} != ({capacity}, {dim})")
        self.storage = storage
        self.cursor = cursor  # next write position == oldest row once warm

    def push(self, batch: np.ndarray):
        """Overwrite the oldest rows with the batch, preserving FIFO order."""
        b = len(batch)
        if b > self.capacity:
            raise ValueError(f"batch of {b} exceeds queue capacity {self.capacity}")
        if batch.shape[1] != self.dim:
            raise ValueError(f"batch dim {batch.shape[1]} != queue dim {self.dim}")
        end = self.cursor + b
        if end <= self.capacity:
            self.storage[self.cursor:end] = batch
        else:
            split = self.capacity - self.cursor
            self.storage[self.cursor:] = batch[:split]
            self.storage[:end - self.capacity] = batch[split:]
        self.cursor = end % self.capacity

    def ordered(self) -> np.ndarray:
        """Rows oldest first."""
        return np.concatenate([self.storage[self.cursor:], self.storage[:self.cursor]])

    def snapshot(self) -> np.ndarray:
        return self.storage.copy()

    def mean_pairwise_cosine(self) -> float:
        sims = self.storage @ self.storage.T
        m = self.capacity
        return float((sims.sum() - np.trace(sims)) / (m * (m - 1)))


def queue_init(capacity: int, dim: int, rng: np.random.Generator) -> EmbeddingQueue:
    """Queue pre-filled with random unit vectors so the loss is defined at step 0."""
    rows = rng.normal(size=(capacity, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddingQueue(capacity, dim, storage=rows)


def qmatch_loss(z_student: Tensor, z_teacher, queue: EmbeddingQueue,
                config: QMatchConfig) -> Tensor:
    """Mean cross-entropy H(p_teacher, p_student) over the batch.

    Inputs must already be L2-normalized; the teacher side is detached so
    gradients flow only through z_student.
    """
    z_t = z_teacher.detach() if isinstance(z_teacher, Tensor) else Tensor(z_teacher)
    if z_student.shape[1] != queue.dim:
        raise ValueError(f"embedding dim {z_student.shape[1]} != queue dim {queue.dim}")
    q_t = Tensor(queue.storage.T.copy())  # detached history: no gradient into Q
    # into the logits' buffers: matmul's backward reads its operands, not its product
    p_s = softmax_rows(z_student @ q_t, temperature=config.tau_student, in_place=True)
    p_t = softmax_rows(z_t @ q_t, temperature=config.tau_teacher, in_place=True)
    return cross_entropy_rows(p_t, p_s)


def teacher_entropy(z_teacher: np.ndarray, queue: EmbeddingQueue,
                    tau_teacher: float) -> float:
    """Mean row entropy of the teacher distribution (loss lower bound)."""
    logits = (z_teacher @ queue.storage.T) / tau_teacher
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    p = e / e.sum(axis=1, keepdims=True)
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
