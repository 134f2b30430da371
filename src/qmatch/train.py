"""Optimization loops: pretext training, downstream evaluation, grid search.

Pretext training runs up to a fixed epoch budget with early stopping on the
pretext validation loss and returns the best-epoch parameters.  Downstream
training (linear evaluation or fine-tuning) early-stops on validation
accuracy.  `run_cells` pretrains once per distinct pretext setting and seed;
grid search runs a Cartesian product of hyperparameters through it.
"""

from __future__ import annotations

import itertools
import json
import numbers
import tempfile
import time
from dataclasses import asdict, astuple, dataclass, replace

import numpy as np

from . import baselines
from .augment import CorruptionConfig, corrupt, make_views
from .data import PreprocessState, TabularDataset, apply_preprocess, expand_mask
from .distill import (
    EmbeddingQueue,
    QMatchConfig,
    embed,
    qmatch_loss,
    queue_init,
    student_teacher,
)
from .model import (
    ConfigError,
    EmaParams,
    EncoderConfig,
    ModelParams,
    _checked,
    _checkpoint_arrays,
    _field_types,
    _has_json_type,
    _read_container_into,
    _write_container,
    check_fields,
    ema_update,
    encoder_forward,
    init_params,
)
from .tensor import (
    UPDATE_BLOCK,
    Tensor,
    backward,
    cross_entropy_rows,
    no_grad,
    softmax_rows,
    update_blocks,
)

# Unused here, but bench/layers.py traces them as attributes of this module.
from .distill import training_step  # noqa: F401
from .model import projector_forward  # noqa: F401
from .tensor import l2_normalize_rows  # noqa: F401

PRETEXT_ALGORITHMS = ("qmatch", "vime", "tabnet", "infonce", "mse_align", "dino")
ALGORITHMS = PRETEXT_ALGORITHMS + ("supervised",)


class TrainingError(RuntimeError):
    """Divergence or invalid optimizer input."""


@dataclass
class TrainLoopConfig:
    batch_size: int = 512
    max_epochs: int = 200
    downstream_max_epochs: int = 500
    patience: int = 32
    learning_rate: float = 1e-3
    pretext_learning_rate: float = 1e-3
    weight_decay: float = 1e-1  # downstream; pretext always uses 0

    def __post_init__(self):
        check_fields(self, ">= 1", lambda n: n >= 1,
                     "batch_size", "max_epochs", "downstream_max_epochs")
        # patience 0 stops after the first epoch, which only a 1-epoch budget means
        check_fields(self, f">= 1 and below max_epochs {self.max_epochs} (0 if that is 1)",
                     lambda p: 1 <= p < self.max_epochs or (p, self.max_epochs) == (0, 1),
                     "patience")
        check_fields(self, "positive and finite", lambda r: 0 < r < np.inf,
                     "learning_rate", "pretext_learning_rate")
        check_fields(self, ">= 0 and finite", lambda w: 0 <= w < np.inf, "weight_decay")


@dataclass
class TrialResult:
    algorithm: str
    dataset: str
    task: str  # linear | finetune
    hyperparameters: dict
    seed: int
    val_accuracy: float
    test_accuracy: float
    wall_time: float

    def __post_init__(self):
        for a in (self.val_accuracy, self.test_accuracy):
            if not 0.0 <= a <= 100.0:
                raise ValueError(f"accuracy {a} outside [0, 100]")
        check_fields(self, "'linear' or 'finetune'", lambda t: t in ("linear", "finetune"),
                     "task")
        check_fields(self, ">= 0 and finite", lambda w: 0 <= w < np.inf, "wall_time")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TrialResult":
        """The result a JSON line holds, each field of its annotated JSON type."""
        return cls(**_checked(json.loads(line), cls.__name__, _field_types(cls)))


# Hyperparameter spaces mirroring the experiment protocol.
# Each algorithm's grid names only the keys it reads: supervised never pretrains.
_SUPERVISED_GRID = {"learning_rate": [1e-5, 1e-4, 1e-3, 1e-2]}
_PRETEXT_GRID = {**_SUPERVISED_GRID, "pretext_learning_rate": [1e-5, 1e-4, 1e-3],
                 "corruption_probability": [0.3, 0.4, 0.5]}
DEFAULT_GRIDS: dict[str, dict[str, list]] = {
    "qmatch": {**_PRETEXT_GRID, "tau_student": [0.05, 0.1, 0.2], "queue_size": [2 ** 9, 2 ** 11]},
    "infonce": {**_PRETEXT_GRID, "tau": [0.04, 0.10, 0.15, 0.20, 0.30]},
    "vime": _PRETEXT_GRID,
    "tabnet": _PRETEXT_GRID,
    "mse_align": _PRETEXT_GRID,
    "dino": _PRETEXT_GRID,
    "supervised": _SUPERVISED_GRID,
}


class AdamW:
    """Adam with bias correction and decoupled weight decay.

    Weight decay is applied after the adaptive step and skips biases and
    batch-norm parameters; with weight_decay=0 this is exactly Adam.  The
    update runs in place, block by block (see update_blocks), into two scratch
    buffers per dtype;
    each element sees the same operations in the same order as the textbook
    out-of-place formulas, so results are bit-identical to them.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        # np.zeros, unlike zeros_like, leaves large moments to pages the kernel zeroes
        self.m = {k: np.zeros(t.shape, t.data.dtype) for k, t in params.items()}
        self.v = {k: np.zeros(t.shape, t.data.dtype) for k, t in params.items()}
        self._scratch = {t.data.dtype: (np.empty(UPDATE_BLOCK, t.data.dtype),
                                        np.empty(UPDATE_BLOCK, t.data.dtype))
                         for t in params.values()}

    @staticmethod
    def _decayed(name: str) -> bool:
        return not (name.endswith("bias") or ".bn_" in name)

    def step(self, loss: Tensor | None = None):
        """One update.  Given `loss`, run its backward and update each parameter
        as soon as its gradient is complete, then drop that gradient, so no
        gradient outlives its update; without one, apply the gradients the
        parameters hold."""
        self.step_count += 1
        if loss is None:
            for name, p in self.params.items():
                if p.grad is not None:
                    self._update(name, p)
            return
        names = {}
        for name, p in self.params.items():
            p.zero_grad()
            names[id(p)] = name

        def apply(leaf: Tensor):
            if id(leaf) in names:
                self._update(names[id(leaf)], leaf)
                leaf.grad = None
        backward(loss, apply)

    def _update(self, name: str, p: Tensor):
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        g = np.ascontiguousarray(p.grad)
        # the whole gradient is checked before any of the parameter changes
        if not all(np.isfinite(gb).all() for (gb,) in update_blocks(g)):
            raise TrainingError(
                f"non-finite gradient in {name!r} at step {t} "
                f"(|g|_max={np.abs(g[np.isfinite(g)]).max() if np.any(np.isfinite(g)) else 'n/a'})")
        decay = self.weight_decay and self._decayed(name)
        lr_wd = lr * self.weight_decay
        scratch_a, scratch_b = self._scratch[p.data.dtype]
        for pb, gb, mb, vb in update_blocks(p.data, g, self.m[name], self.v[name]):
            a = scratch_a[:pb.size].reshape(pb.shape)
            b = scratch_b[:pb.size].reshape(pb.shape)
            # m = b1*m + (1-b1)*g
            np.multiply(mb, b1, out=mb)
            np.multiply(gb, 1 - b1, out=a)
            np.add(mb, a, out=mb)
            # v = b2*v + ((1-b2)*g)*g
            np.multiply(vb, b2, out=vb)
            np.multiply(gb, 1 - b2, out=a)
            np.multiply(a, gb, out=a)
            np.add(vb, a, out=vb)
            # p -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
            np.divide(mb, bc1, out=a)
            np.multiply(a, lr, out=a)
            np.divide(vb, bc2, out=b)
            np.sqrt(b, out=b)
            np.add(b, eps, out=b)
            np.divide(a, b, out=a)
            np.subtract(pb, a, out=pb)
            if decay:
                np.multiply(pb, lr_wd, out=a)
                np.subtract(pb, a, out=pb)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Copies of the step count and moments (the live moments change in place)."""
        out = {"step_count": np.asarray([self.step_count], dtype=np.float64)}
        for k in self.params:
            out[f"m/{k}"] = self.m[k].copy()
            out[f"v/{k}"] = self.v[k].copy()
        return out


def _early_stopped(max_epochs: int, patience: int, mode: str, run_epoch, live_arrays):
    """Run `run_epoch(epoch) -> validation metric` until the budget ends or
    `patience` epochs pass without improvement, and leave the live state at its
    best epoch.  An epoch improves when its metric is strictly below ("min"
    `mode`) or above ("max") the best so far; the first epoch always does, a
    NaN never does.  Returns (the checkpoint header read back, or None if the
    last epoch run is the best; the best epoch; metric history).

    `live_arrays()` returns the checkpoint header and the named arrays of the
    live state, the arrays themselves.  The best epoch waits in an unnamed
    temporary file, written only when another epoch is about to change it, and
    is read back in place after the last epoch; a run whose last epoch is its
    best opens no file."""
    history: list[float] = []
    best = stale = 0
    spill = None
    try:
        for epoch in range(max_epochs):
            if epoch and stale == 0:  # the previous epoch improved
                if spill is None:
                    spill = tempfile.TemporaryFile()
                spill.seek(0)
                _write_container(spill, *live_arrays())
                spill.truncate()
            metric = run_epoch(epoch)
            history.append(metric)
            if not epoch or (metric < history[best] if mode == "min" else metric > history[best]):
                best, stale = epoch, 0
            else:
                stale += 1
            if stale >= patience:
                break
        header = _read_container_into(spill, live_arrays()[1]) if stale else None
    finally:
        if spill is not None:
            spill.close()
    return header, best, history


def check_pretext_batch(algorithm: str, loop: TrainLoopConfig, qm: QMatchConfig,
                        splits: dict[str, np.ndarray]):
    """Both pretext splits hold rows; full batches only, so a larger batch would
    leave the encoder untrained; and a qmatch batch is pushed into the queue whole,
    so it must fit in it."""
    _check_splits(splits, PRETEXT_SPLITS)
    if loop.batch_size > len(splits["pretext_train"]):
        raise ConfigError(f"batch_size {loop.batch_size} exceeds the "
                          f"{len(splits['pretext_train'])} pretext_train rows")
    if algorithm == "qmatch" and loop.batch_size > qm.queue_capacity:
        raise ConfigError(f"batch_size {loop.batch_size} exceeds the queue_capacity "
                          f"{qm.queue_capacity} of the qmatch queue")


# split -> what a run that reads it lacks when it holds no rows
SPLIT_USES = {"pretext_train": "no epoch has a training batch",
              "pretext_val": "no epoch has a validation loss",
              "down_train": "the classifier has no training batch",
              "down_val": "no epoch has a validation accuracy",
              "test": "there is no test accuracy"}
PRETEXT_SPLITS = ("pretext_train", "pretext_val")
DOWNSTREAM_SPLITS = ("down_train", "down_val", "test")


def _check_splits(splits: dict[str, np.ndarray], names: tuple, where: str = ""):
    """Each of the `names` splits, which a run reads, holds a row.  A refusal's
    message begins with `where`."""
    for name in names:
        if not len(splits[name]):
            raise ConfigError(f"{where}{name} holds no rows, so {SPLIT_USES[name]}")


def _batches(n: int, batch_size: int, rng: np.random.Generator | None,
             drop_last: bool):
    order = rng.permutation(n) if rng is not None else np.arange(n)
    end = (n // batch_size) * batch_size if drop_last else n
    for start in range(0, end, batch_size):
        yield order[start:start + batch_size]


def _head(rng: np.random.Generator, fan_in: int, fan_out: int, prefix: str):
    return {
        f"{prefix}.weight": Tensor(rng.normal(0.0, np.sqrt(2.0 / fan_in),
                                              size=(fan_in, fan_out)), requires_grad=True),
        f"{prefix}.bias": Tensor(np.zeros(fan_out), requires_grad=True),
    }


@dataclass
class PretrainResult:
    params: ModelParams
    ema: EmaParams | None
    queue: EmbeddingQueue | None
    heads: dict[str, Tensor]
    best_epoch: int
    val_history: list[float]


def pretrain(algorithm: str, dataset: TabularDataset, splits: dict[str, np.ndarray],
             state: PreprocessState, encoder_config: EncoderConfig,
             loop: TrainLoopConfig, seed: int,
             qm_config: QMatchConfig | None = None,
             corruption: CorruptionConfig | None = None,
             extra: baselines.BaselineConfig | None = None) -> PretrainResult:
    """Train the encoder on the chosen pretext task and keep the best-epoch
    parameters (early stopping on pretext validation loss).  While later epochs
    run, the best state waits in an unnamed temporary file, not in a second copy
    in memory, and is then read back into the live arrays."""
    if algorithm not in PRETEXT_ALGORITHMS:
        raise ValueError(f"unknown pretext algorithm {algorithm!r}")
    extra = extra or baselines.BaselineConfig()
    qm_config = qm_config or QMatchConfig()
    check_pretext_batch(algorithm, loop, qm_config, splits)
    corruption = corruption or CorruptionConfig()
    # infonce and mse_align corrupt both views alike
    symmetric = replace(corruption, p_teacher=corruption.p_student)
    rng = np.random.default_rng(seed)

    params = init_params(encoder_config, seed)
    pre = lambda raw: apply_preprocess(state, raw)
    val_idx = splits["pretext_val"]
    pool = dataset.features[splits["pretext_train"]]
    raw_dim = dataset.num_features

    heads: dict[str, Tensor] = {}
    bank = None
    ema = None
    queue = None
    if algorithm in ("qmatch", "dino"):
        ema = EmaParams(params.copy(requires_grad=False), decay=qm_config.tau_ema)
    if algorithm == "qmatch":
        queue = queue_init(qm_config.queue_capacity, encoder_config.projector_dim, rng)
    if algorithm == "vime":
        heads.update(_head(rng, encoder_config.embed_dim, raw_dim, "mask_head"))
        heads.update(_head(rng, encoder_config.embed_dim, state.output_dim, "recon_head"))
    if algorithm == "tabnet":
        heads.update(_head(rng, encoder_config.embed_dim, state.output_dim, "recon_head"))
    if algorithm == "dino":
        bank = baselines.PrototypeBank(extra.num_prototypes, encoder_config.projector_dim, rng)
        heads["prototypes"] = bank.prototypes

    trainable = dict(params.trainable())
    trainable.update(heads)
    optimizer = AdamW(trainable, lr=loop.pretext_learning_rate, weight_decay=0.0)

    def step_loss(raw: np.ndarray, step_rng: np.random.Generator, update: bool) -> float:
        """Forward one batch, in train mode with `update` (then descend and run the
        EMA/queue hooks), else in eval mode."""
        bn_mode = "train" if update else "eval"
        if algorithm in ("qmatch", "dino"):
            z_s, z_t = student_teacher(raw, pool, params, ema, corruption, step_rng,
                                       preprocess=pre, mode=bn_mode)
            if algorithm == "qmatch":
                loss = qmatch_loss(z_s, z_t, queue, qm_config)
            else:
                loss = baselines.dino_proto_loss(z_s, z_t, bank,
                                                 tau_s=qm_config.tau_student,
                                                 tau_t=qm_config.tau_teacher,
                                                 update_center=update)
        elif algorithm in ("infonce", "mse_align"):
            c1, c2 = make_views(raw, pool, symmetric, step_rng)
            z1 = embed(params, pre(c1), bn_mode)
            z2 = embed(params, pre(c2), bn_mode)
            if algorithm == "infonce":
                loss = baselines.in_batch_info_nce(z1, z2, extra.tau)
            else:
                loss = baselines.mse_align_loss(z1, z2.detach())
        else:  # vime, tabnet
            corrupted, mask = corrupt(raw, pool, corruption.p_student,
                                      corruption.mode, step_rng)
            emb = encoder_forward(params, Tensor(pre(corrupted)), mode=bn_mode)
            x_orig = Tensor(pre(raw))
            recon = emb @ heads["recon_head.weight"] + heads["recon_head.bias"]
            if algorithm == "vime":
                mask_logits = emb @ heads["mask_head.weight"] + heads["mask_head.bias"]
                loss = baselines.vime_pretext_loss(x_orig, mask, mask_logits, recon,
                                                   alpha_mask=extra.alpha_mask,
                                                   alpha_recon=extra.alpha_recon)
            else:
                loss = baselines.tabnet_recon_loss(x_orig, expand_mask(state, mask), recon)

        if update:
            optimizer.step(loss)
            if ema is not None:
                ema_update(ema, params)
            if queue is not None:
                # after the loss: a sample's own teacher embedding is never its support
                queue.push(z_t.data)
        return float(loss.data)

    def run_epoch(epoch: int) -> float:
        for batch_idx in _batches(len(pool), loop.batch_size, rng, drop_last=True):
            loss_val = step_loss(pool[batch_idx], rng, update=True)
            if not np.isfinite(loss_val):
                raise TrainingError(f"non-finite pretext loss at epoch {epoch}")
        # validation with a per-epoch deterministic corruption stream
        val_rng = np.random.default_rng([seed, epoch, 0x5EED])
        with no_grad():
            val_losses = [step_loss(dataset.features[val_idx[b]], val_rng, update=False)
                          for b in _batches(len(val_idx), loop.batch_size, None, False)]
        return float(np.mean(val_losses))

    def live_arrays() -> tuple[dict, dict]:
        storage = queue.storage if queue is not None else None
        header, arrays = _checkpoint_arrays(params, ema, queue_storage=storage)
        header["metadata"] = {"queue_cursor": queue.cursor} if queue is not None else {}
        arrays.update({f"heads/{k}": t.data for k, t in heads.items()})
        return header, arrays

    header, best_epoch, val_history = _early_stopped(loop.max_epochs, loop.patience, "min",
                                                     run_epoch, live_arrays)
    if header is not None and queue is not None:
        queue.cursor = header["metadata"]["queue_cursor"]
    return PretrainResult(params, ema, queue, heads, best_epoch, val_history)


@dataclass
class Cell:
    """A downstream setting for `run_cells`: reported hyperparameters, configs, splits."""
    hyperparameters: dict
    loop: TrainLoopConfig
    qm: QMatchConfig
    corr: CorruptionConfig
    extra: baselines.BaselineConfig
    splits: dict[str, np.ndarray]

    def pretext_key(self) -> tuple:
        """All of the cell that `pretrain` reads: with the same algorithm, data,
        encoder and seed, cells with equal keys pretrain to the same bits."""
        loop = self.loop
        return ((loop.batch_size, loop.max_epochs, loop.patience, loop.pretext_learning_rate),
                astuple(self.qm), astuple(self.corr), astuple(self.extra),
                self.splits["pretext_train"].tobytes(), self.splits["pretext_val"].tobytes())


# -- downstream -----------------------------------------------------------------

def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


# rows per eval forward of _embed_all
EMBED_BATCH = 2048


def _embed_all(params: ModelParams, x: np.ndarray) -> np.ndarray:
    with no_grad():
        outs = [encoder_forward(params, Tensor(x[i:i + EMBED_BATCH]), mode="eval").data
                for i in range(0, len(x), EMBED_BATCH)]
    return np.concatenate(outs, axis=0)


def _downstream(params: ModelParams, dataset: TabularDataset,
                splits: dict[str, np.ndarray], state: PreprocessState,
                loop: TrainLoopConfig, seed: int, frozen: bool,
                algorithm: str, hyperparameters: dict | None) -> TrialResult:
    """Train a fresh affine classifier with early stopping on validation
    accuracy: on embeddings of the encoder computed once when `frozen`,
    otherwise through a copy of the encoder that trains with it."""
    _check_splits(splits, DOWNSTREAM_SPLITS)
    start = time.monotonic()
    task = "linear" if frozen else "finetune"
    rng = np.random.default_rng(seed)
    num_classes = dataset.num_classes
    missing = np.setdiff1d(np.arange(num_classes), dataset.labels[splits["down_train"]])
    if missing.size:
        raise TrainingError(f"classes {missing.tolist()} absent from downstream train labels")

    model = params if frozen else params.copy()
    head = _head(rng, params.config.embed_dim, num_classes, "classifier")
    trainable = {} if frozen else dict(model.trainable())
    trainable.update(head)
    optimizer = AdamW(trainable, lr=loop.learning_rate, weight_decay=loop.weight_decay)

    data, labels = {}, {}
    for split in ("down_train", "down_val", "test"):
        x = apply_preprocess(state, dataset.features[splits[split]])
        data[split] = _embed_all(params, x) if frozen else x
        labels[split] = dataset.labels[splits[split]]

    def accuracy(split: str) -> float:
        emb = data[split] if frozen else _embed_all(model, data[split])
        logits = emb @ head["classifier.weight"].data + head["classifier.bias"].data
        return 100.0 * float((logits.argmax(axis=1) == labels[split]).mean())

    x_train, y_train = data["down_train"], labels["down_train"]

    def run_epoch(epoch: int) -> float:
        for batch_idx in _batches(len(x_train), loop.batch_size, rng, drop_last=False):
            emb = Tensor(x_train[batch_idx])
            if not frozen:
                emb = encoder_forward(model, emb, mode="train")
            logits = emb @ head["classifier.weight"] + head["classifier.bias"]
            target = Tensor(_one_hot(y_train[batch_idx], num_classes))
            optimizer.step(cross_entropy_rows(target, softmax_rows(logits, temperature=1.0)))
        return accuracy("down_val")

    def live_arrays() -> tuple[dict, dict]:
        header, arrays = _checkpoint_arrays(model)
        if frozen:  # only the head trains
            arrays.clear()
        arrays.update({f"heads/{k}": t.data for k, t in head.items()})
        return header, arrays

    _, best, history = _early_stopped(loop.downstream_max_epochs, loop.patience, "max",
                                      run_epoch, live_arrays)
    optimizer = None  # its moments die before scoring

    return TrialResult(algorithm=algorithm or task, dataset=dataset.name, task=task,
                       hyperparameters=hyperparameters or {}, seed=seed,
                       val_accuracy=history[best], test_accuracy=accuracy("test"),
                       wall_time=time.monotonic() - start)


def linear_eval(params: ModelParams, dataset: TabularDataset,
                splits: dict[str, np.ndarray], state: PreprocessState,
                loop: TrainLoopConfig, seed: int,
                algorithm: str = "", hyperparameters: dict | None = None) -> TrialResult:
    """Train an affine classifier on frozen encoder embeddings."""
    return _downstream(params, dataset, splits, state, loop, seed, True,
                       algorithm, hyperparameters)


def finetune(params: ModelParams, dataset: TabularDataset,
             splits: dict[str, np.ndarray], state: PreprocessState,
             loop: TrainLoopConfig, seed: int,
             algorithm: str = "", hyperparameters: dict | None = None) -> TrialResult:
    """Train the whole encoder plus a fresh classifier head on the labels."""
    return _downstream(params, dataset, splits, state, loop, seed, False,
                       algorithm, hyperparameters)


def run_cells(algorithm: str, task: str, dataset: TabularDataset, state: PreprocessState,
              encoder_config: EncoderConfig, cells: list[Cell], seeds: list[int],
              failures: tuple = ()) -> list[list]:
    """Run every cell at every seed; returns results[cell][seed].  Cells with
    equal `pretext_key`s share one pretrain per seed, whose encoder is freed
    once they have run (`linear_eval` and `finetune` leave it as it is);
    `supervised` cells all start from one `init_params` per seed, which reads
    none of the key, and always fine-tune.  An exception of a `failures` type
    becomes the result of the cells it stops."""
    downstream = finetune if task == "finetune" or algorithm == "supervised" else linear_eval
    groups: dict[tuple, list[tuple[int, Cell]]] = {}
    for i, cell in enumerate(cells):  # every cell is checked before the first pretrain
        _check_splits(cell.splits, DOWNSTREAM_SPLITS)
        if algorithm != "supervised":
            check_pretext_batch(algorithm, cell.loop, cell.qm, cell.splits)
        key = () if algorithm == "supervised" else cell.pretext_key()
        groups.setdefault(key, []).append((i, cell))
    results = [[None] * len(seeds) for _ in cells]
    for members in groups.values():
        _, first = members[0]
        for j, seed in enumerate(seeds):
            try:
                params = init_params(encoder_config, seed) if algorithm == "supervised" else \
                    pretrain(algorithm, dataset, first.splits, state, encoder_config, first.loop,
                             seed, qm_config=first.qm, corruption=first.corr,
                             extra=first.extra).params
            except failures as e:
                for i, _ in members:
                    results[i][j] = e
                continue
            for i, c in members:
                try:
                    results[i][j] = downstream(params, dataset, c.splits, state, c.loop, seed,
                                               algorithm=algorithm,
                                               hyperparameters=c.hyperparameters)
                except failures as e:
                    results[i][j] = e
            del params
    return results


# -- grid search -------------------------------------------------------------------

# grid key -> the config field it sets; among points of equal validation
# accuracy, grid_search keeps the smallest value of the first key here that differs
GRID_KEYS = {"learning_rate": "learning_rate", "pretext_learning_rate": "pretext_learning_rate",
             "queue_size": "queue_capacity", "tau_student": "tau_student", "tau": "tau",
             "corruption_probability": "p_student", "num_prototypes": "num_prototypes",
             "p_teacher": "p_teacher"}


def _point_configs(point: dict, loop: TrainLoopConfig, qm: QMatchConfig | None,
                   corr: CorruptionConfig | None, extra: baselines.BaselineConfig | None):
    """Override the base configs with the keys a grid point sets; an unknown key
    or a value a config rejects is a ConfigError."""
    unknown = sorted(set(point) - set(GRID_KEYS))
    if unknown:
        raise ConfigError(f"unknown grid keys {unknown}; known: {sorted(GRID_KEYS)}")

    values = {GRID_KEYS[k]: v for k, v in point.items()}
    configs = (loop, qm or QMatchConfig(), corr or CorruptionConfig(),
               extra or baselines.BaselineConfig())
    types = {f: t for c in configs for f, t in _field_types(type(c)).items()}
    try:
        if "queue_capacity" in values:  # a grid file may write 512.0, but not 64.7 or true
            q = values["queue_capacity"]
            if isinstance(q, bool) or not isinstance(q, numbers.Real) \
                    or not float(q).is_integer():
                raise ValueError(f"queue_size must be a whole number, got {q!r}")
            values["queue_capacity"] = int(q)
        for key, value in point.items():  # as in a run config: its field's JSON type
            field = GRID_KEYS[key]
            if not _has_json_type(values[field], types[field]):
                raise ValueError(f"{key} must be {types[field]}, got {value!r}")
        return tuple(replace(c, **{f: v for f, v in values.items() if hasattr(c, f)})
                     for c in configs)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"grid point {point}: {e}") from None


def grid_search(algorithm: str, grid: dict[str, list], task: str,
                dataset: TabularDataset, splits: dict[str, np.ndarray],
                state: PreprocessState, encoder_config: EncoderConfig,
                loop: TrainLoopConfig, seeds: list[int],
                qm_config: QMatchConfig | None = None,
                corruption: CorruptionConfig | None = None,
                extra: baselines.BaselineConfig | None = None):
    """Evaluate the Cartesian product of `grid` at the first seed, select by
    downstream validation accuracy (ties broken in `GRID_KEYS` order), then
    rerun the winner at the other seeds.  Each point overrides only the settings
    it names; the rest come from `loop`, `qm_config`, `corruption` and `extra`.
    Every point's configs are built, and so checked, before the first pretrain.

    Returns (best_point, results_at_best, all_point_outcomes).
    """
    grid = grid or {"learning_rate": [loop.learning_rate]}
    keys = sorted(grid)
    if not all(grid.values()):
        raise ConfigError(f"grid keys {[k for k in keys if not grid[k]]} have no values")
    points = [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]
    cells = [Cell(point, *_point_configs(point, loop, qm_config, corruption, extra), splits)
             for point in points]
    # a point that diverges ends in its one recorded error, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        first = run_cells(algorithm, task, dataset, state, encoder_config, cells, seeds[:1],
                          failures=(TrainingError,))
    outcomes = [{"point": p, "result": r, "failed": False} if isinstance(r, TrialResult)
                else {"point": p, "result": None, "failed": True, "error": str(r)}
                for p, (r,) in zip(points, first)]
    valid = [i for i, o in enumerate(outcomes) if not o["failed"]]
    if not valid:
        raise TrainingError("every grid point failed")
    best = min(valid, key=lambda i: (-outcomes[i]["result"].val_accuracy,
                                     [points[i].get(k, 0) for k in GRID_KEYS]))
    rest = run_cells(algorithm, task, dataset, state, encoder_config, [cells[best]], seeds[1:])
    return points[best], [outcomes[best]["result"]] + rest[0], outcomes


# -- aggregation --------------------------------------------------------------------

def mean_std(values) -> tuple[float, float]:
    """The mean of `values` and their sample standard deviation (0.0 for one value)."""
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), (float(arr.std(ddof=1)) if len(arr) > 1 else 0.0)


def aggregate(results: list[TrialResult]) -> dict:
    """Mean +/- sample std per (algorithm, dataset), per-dataset rank by mean,
    and average rank per algorithm.  A cell never averages a linear and a
    fine-tune accuracy together; different cells may hold different tasks
    (a supervised row is always fine-tuned beside linear-evaluated rows)."""
    if not results:
        raise ValueError("no results to aggregate")
    cells: dict[tuple[str, str], list[float]] = {}
    tasks: dict[tuple[str, str], str] = {}
    for r in results:
        key = (r.algorithm, r.dataset)
        task = tasks.setdefault(key, r.task)
        if task != r.task:
            raise ConfigError(f"the {r.algorithm} results on {r.dataset} mix the "
                              f"tasks {' and '.join(sorted((task, r.task)))}; "
                              f"report each task's results on their own")
        cells.setdefault(key, []).append(r.test_accuracy)
    stats = {}
    for key, vals in cells.items():
        mean, std = mean_std(vals)
        stats[key] = {"mean": mean, "std": std, "n": len(vals)}
    datasets = sorted({d for _, d in cells})
    algorithms = sorted({a for a, _ in cells})
    ranks: dict[tuple[str, str], int] = {}
    for d in datasets:
        col = sorted((a for a in algorithms if (a, d) in stats),
                     key=lambda a: -stats[(a, d)]["mean"])
        for rank, a in enumerate(col, start=1):
            ranks[(a, d)] = rank
    avg_rank = {}
    for a in algorithms:
        rs = [ranks[(a, d)] for d in datasets if (a, d) in ranks]
        avg_rank[a] = float(np.mean(rs)) if rs else float("nan")
    return {"stats": stats, "ranks": ranks, "avg_rank": avg_rank,
            "datasets": datasets, "algorithms": algorithms}


def format_rank(value: float) -> str:
    """Round half up to one decimal (so 1.25 -> '1.3')."""
    from decimal import Decimal, ROUND_HALF_UP
    return str(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))
