"""Per-layer instrumentation of the qmatch modules and tensor-op microbenchmarks.

Layers are the modules under ``src/qmatch``: data, augment, model, tensor,
distill, baselines and train.  :func:`instrument` wraps each public function
at every module attribute a caller looks it up through, so a traced run sees
the calls the package makes internally without any change to the package.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

import qmatch.augment
import qmatch.baselines
import qmatch.data
import qmatch.distill
import qmatch.model
import qmatch.tensor
import qmatch.train
from qmatch.tensor import Tensor, backward

from tracing import Tracer

# Coverage the children of train.pretrain must reach for the trace to locate
# a saving; the remainder is loop glue reported as train.pretrain_self_s.
MIN_PRETRAIN_COVERAGE = 0.8


def _nbytes(params) -> int:
    return (sum(t.data.nbytes for t in params.tensors.values())
            + sum(v.nbytes for v in params.buffers.values()))


def _adamw_bytes(args, kwargs, result):
    # param, grad and both moments are read and written once per update
    opt = args[0]
    return {"train.adamw_bytes": 4 * sum(p.data.nbytes for p in opt.params.values()
                                         if p.grad is not None),
            "train.adamw_step_calls": 1}


def _matmul_flops(args, kwargs, result):
    a, b = args
    return {"tensor.matmul_flops": 2 * a.shape[0] * a.shape[1] * b.shape[1]}


def instrument(tracer: Tracer):
    """Wrap every traced qmatch function; undo with ``tracer.restore()``."""
    data, augment, model = qmatch.data, qmatch.augment, qmatch.model
    tensor, distill, baselines, train = (qmatch.tensor, qmatch.distill,
                                         qmatch.baselines, qmatch.train)

    def patch_all(owners, attr, name, count=None):
        for owner in owners:
            tracer.patch(owner, attr, name, count)

    tracer.patch(data, "load_csv", "data.load_csv",
                 lambda a, k, ds: {"data.load_csv_cells": len(ds) * len(a[1])})
    tracer.patch(data, "make_splits", "data.make_splits")
    tracer.patch(data, "fit_preprocess", "data.fit_preprocess",
                 lambda a, k, st: {"data.fit_preprocess_rows": st.count})
    tracer.patch(train, "apply_preprocess", "data.apply_preprocess",
                 lambda a, k, out: {"data.apply_preprocess_rows": len(out)})
    tracer.patch(train, "expand_mask", "data.expand_mask")

    patch_all((augment, train), "corrupt", "augment.corrupt",
              lambda a, k, res: {"augment.cells_corrupted": int(res[1].sum())})

    patch_all((model, train), "init_params", "model.init_params")
    patch_all((train, distill), "encoder_forward",
              lambda a, k: f"model.encoder_forward.{k.get('mode', a[2] if len(a) > 2 else 'train')}",
              lambda a, k, out: {"model.encoder_forward_rows": out.shape[0]})
    patch_all((train, distill), "projector_forward", "model.projector_forward")
    patch_all((train, distill), "ema_update", "model.ema_update",
              lambda a, k, _: {"model.ema_update_bytes": _nbytes(a[0].params)})
    tracer.patch(model.ModelParams, "copy", "model.params_copy",
                 lambda a, k, _: {"model.params_copy_bytes": _nbytes(a[0])})
    tracer.patch(model, "save_checkpoint", "model.save_checkpoint",
                 lambda a, k, _: {"model.checkpoint_bytes": os.path.getsize(a[0])})
    tracer.patch(model, "load_checkpoint", "model.load_checkpoint")

    patch_all((train, distill), "backward", "tensor.backward",
              lambda a, k, _: {"tensor.backward_calls": 1})
    tracer.patch(tensor, "matmul", "tensor.matmul", _matmul_flops)
    for op in ("maxout_rows", "batch_norm_train", "batch_norm_eval"):
        tracer.patch(model, op, f"tensor.{op}")
    for op in ("softmax_rows", "cross_entropy_rows"):
        patch_all((train, distill, baselines), op, f"tensor.{op}")
    patch_all((train, distill), "l2_normalize_rows", "tensor.l2_normalize_rows")

    tracer.patch(train, "training_step", "distill.training_step",
                 lambda a, k, _: {"distill.training_step_calls": 1})
    patch_all((train, distill), "qmatch_loss", "distill.qmatch_loss")
    patch_all((train, distill), "queue_init", "distill.queue_init")
    tracer.patch(distill.EmbeddingQueue, "push", "distill.queue_push",
                 lambda a, k, _: {"distill.queue_rows_pushed": len(a[1])})
    patch_all((train, distill), "make_views", "augment.make_views")

    for loss in ("in_batch_info_nce", "mse_align_loss", "dino_proto_loss",
                 "vime_pretext_loss", "tabnet_recon_loss"):
        tracer.patch(baselines, loss, f"baselines.{loss}")

    tracer.patch(train.AdamW, "step", "train.adamw_step", _adamw_bytes)
    for fn in ("pretrain", "linear_eval", "finetune"):
        tracer.patch(train, fn, f"train.{fn}")


TIMED_SPANS = (
    "data.load_csv", "data.fit_preprocess", "data.apply_preprocess",
    "augment.corrupt",
    "model.init_params", "model.encoder_forward.train", "model.encoder_forward.eval",
    "model.ema_update", "model.params_copy", "model.save_checkpoint",
    "model.load_checkpoint",
    "tensor.backward", "tensor.matmul", "tensor.maxout_rows", "tensor.softmax_rows",
    "tensor.cross_entropy_rows", "tensor.l2_normalize_rows", "tensor.batch_norm_train",
    "tensor.batch_norm_eval",
    "distill.training_step", "distill.qmatch_loss", "distill.queue_push",
    "baselines.in_batch_info_nce", "baselines.mse_align_loss", "baselines.dino_proto_loss",
    "baselines.vime_pretext_loss", "baselines.tabnet_recon_loss",
    "train.adamw_step", "train.pretrain", "train.linear_eval", "train.finetune",
)
COUNTERS = (
    "data.load_csv_cells", "data.fit_preprocess_rows", "data.apply_preprocess_rows",
    "augment.cells_corrupted", "model.encoder_forward_rows", "model.ema_update_bytes",
    "model.params_copy_bytes", "model.checkpoint_bytes", "tensor.backward_calls",
    "tensor.matmul_flops", "distill.training_step_calls", "distill.queue_rows_pushed",
    "train.adamw_step_calls", "train.adamw_bytes",
)
COUNTER_UNITS = {"model.ema_update_bytes": "bytes", "model.params_copy_bytes": "bytes",
                 "model.checkpoint_bytes": "bytes", "train.adamw_bytes": "bytes",
                 "tensor.matmul_flops": "flop"}


def layer_metrics(tracer: Tracer) -> tuple[dict[str, tuple[float, str]], float]:
    """Busy time and counters per layer, plus train.pretrain self time.

    Returns the metrics and the share of train.pretrain wall time its child
    spans cover.
    """
    busy = tracer.busy()
    out = {f"{name}_s": (busy.get(name, 0.0), "s") for name in TIMED_SPANS}
    for name in COUNTERS:
        out[name] = (tracer.counts.get(name, 0), COUNTER_UNITS.get(name, "count"))
    pretrain_s = busy.get("train.pretrain", 0.0)
    self_s = tracer.self_time().get("train.pretrain", 0.0)
    covered = 1.0 - self_s / pretrain_s if pretrain_s > 0 else 0.0
    out["train.pretrain_self_s"] = (self_s, "s")
    out["train.pretrain_covered_share"] = (covered, "ratio")
    out["train.pretrain_steps"] = (tracer.count_within("train.adamw_step", "train.pretrain"),
                                   "count")
    return out, covered


# -- tensor-op microbenchmarks ---------------------------------------------------

def _time_op(op, inputs: list[np.ndarray], reps: int) -> tuple[float, float]:
    """Median forward and backward milliseconds of ``op`` on fresh leaves.

    Backward is ``tensor.backward`` from ``op(...).sum()``, so it includes the
    ones-seed broadcast of the output's shape.
    """
    fwd, bwd = [], []
    for _ in range(reps):
        leaves = [Tensor(x, requires_grad=True) for x in inputs]
        t0 = time.perf_counter()
        out = op(*leaves)
        t1 = time.perf_counter()
        loss = out.sum()
        t2 = time.perf_counter()
        backward(loss)
        t3 = time.perf_counter()
        fwd.append(1e3 * (t1 - t0))
        bwd.append(1e3 * (t3 - t2))
    return statistics.median(fwd), statistics.median(bwd)


def tensor_microbench(seed: int) -> dict[str, tuple[float, str]]:
    """Forward/backward time of each fused op at the shapes the workloads use."""
    t = qmatch.tensor
    rng = np.random.default_rng([seed, 0x7E5])
    b = 512
    cases = {
        "matmul": (t.matmul, [rng.normal(size=(b, 4096)), rng.normal(size=(4096, 8192))], 3),
        "maxout": (lambda x: t.maxout_rows(x, 4), [rng.normal(size=(b, 8192))], 7),
        "softmax": (lambda x: t.softmax_rows(x, 0.1), [rng.normal(size=(b, 2048))], 7),
        "l2_norm": (t.l2_normalize_rows, [rng.normal(size=(b, 128))], 15),
        "batch_norm": (lambda x, g, s: t.batch_norm_train(x, g, s)[0],
                       [rng.normal(size=(b, 512)), np.ones(512), np.zeros(512)], 15),
    }
    out = {}
    for name, (op, inputs, reps) in cases.items():
        fwd, bwd = _time_op(op, inputs, reps)
        out[f"tensor.{name}.fwd_ms"] = (fwd, "ms")
        out[f"tensor.{name}.bwd_ms"] = (bwd, "ms")
    return out
