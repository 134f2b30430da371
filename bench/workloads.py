"""The benchmark's workloads and the procedure that runs one of them.

A run makes its table from the seed, then walks the same public calls the
``qmatch`` CLI makes: ``load_csv`` -> ``make_splits`` -> ``fit_preprocess`` ->
``pretrain`` -> ``save_checkpoint`` / ``load_checkpoint`` -> ``linear_eval``
and ``finetune``.  Set-up and evaluation are repeated and reported as medians; pretraining is
repeated in rounds until the requested seconds have passed (at least
``min_rounds``), and every repeat must reproduce the first bit for bit.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qmatch.data
import qmatch.distill
import qmatch.model
import qmatch.train
from qmatch.augment import CorruptionConfig
from qmatch.distill import QMatchConfig
from qmatch.model import EncoderConfig

import datagen
import layers
from tracing import Tracer

PAPER_WIDTHS = (2048, 2048, 4096, 4096, 8192)
REDUCED_WIDTHS = (256, 256, 512, 512, 1024)
BATCH = 512


@dataclass(frozen=True)
class Workload:
    table: str                    # "adult" or "higgs"
    preset: str                   # split preset
    quantile: bool
    widths: tuple[int, ...]
    algorithms: tuple[str, ...]
    eval_algorithm: str           # whose encoder and val loss are reported
    queue: int
    pretext_rows: int             # prefix of the preset's pretext_train split
    val_rows: int | None          # prefix of its pretext_val split (None: all)
    epochs: int
    linear_epochs: int
    finetune_epochs: int
    test_rows: int | None         # prefix of the test split used by eval (None: all)
    setup_repeats: int
    min_rounds: int
    eval_repeats: int


# Why each workload exists is recorded next to its name in BENCHMARK.json.  The
# pretext and downstream budgets are cut so one untraced run stays under a
# minute; patience never ends a loop early, so every run does the same work.
WORKLOADS = {
    "qmatch_paper": Workload(
        table="adult", preset="adult1pct", quantile=True, widths=PAPER_WIDTHS,
        algorithms=("qmatch",), eval_algorithm="qmatch", queue=512,
        pretext_rows=2 * BATCH, val_rows=None, epochs=1, linear_epochs=50,
        finetune_epochs=1, test_rows=1024, setup_repeats=3, min_rounds=2, eval_repeats=1),
    "qmatch_small": Workload(
        table="adult", preset="adult1pct", quantile=True, widths=REDUCED_WIDTHS,
        algorithms=("qmatch",), eval_algorithm="qmatch", queue=2048,
        pretext_rows=4 * BATCH, val_rows=None, epochs=3, linear_epochs=20,
        finetune_epochs=20, test_rows=4096, setup_repeats=7, min_rounds=4, eval_repeats=3),
    "baselines_higgs": Workload(
        table="higgs", preset="higgs5k", quantile=False, widths=REDUCED_WIDTHS,
        algorithms=("infonce", "mse_align", "dino", "vime", "tabnet"),
        eval_algorithm="infonce", queue=512,
        pretext_rows=2 * BATCH, val_rows=2 * BATCH, epochs=2, linear_epochs=100,
        finetune_epochs=2, test_rows=5000, setup_repeats=4, min_rounds=2, eval_repeats=2),
}


class Checks:
    """Counts operations and failed correctness checks for error_rate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, what: str, failures: list[str]):
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(f"{what}: {f}" for f in failures)


def _fmt(values: list[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _params_equal(a, b) -> bool:
    return (a.tensors.keys() == b.tensors.keys() and a.buffers.keys() == b.buffers.keys()
            and all(_same_bits(t.data, b.tensors[k].data) for k, t in a.tensors.items())
            and all(_same_bits(v, b.buffers[k]) for k, v in a.buffers.items()))


class Run:
    def __init__(self, name: str, seed: int, seconds: float, work: Path):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.checks = Checks()
        self.reference_loss: dict[str, list[float]] = {}
        self.reference_accuracy: dict[str, tuple[float, float]] = {}
        write = datagen.write_adult if self.w.table == "adult" else datagen.write_higgs
        self.csv, self.schema_path = write(work, seed)

    # -- phases ------------------------------------------------------------------

    def setup(self):
        """load_csv -> make_splits -> fit_preprocess -> init_params (+ EMA copy and
        queue for qmatch): everything before the first training step."""
        w = self.w
        data = qmatch.data
        t0 = time.perf_counter()
        schema = data.load_schema(self.schema_path)
        ds = data.load_csv(self.csv, schema, name=w.table)
        splits = data.make_splits(ds, data.preset_split(w.preset, seed=self.seed))
        state = data.fit_preprocess(ds, rows=splits["pretext_train"], quantile=w.quantile)
        encoder = EncoderConfig(input_dim=state.output_dim, layer_widths=w.widths)
        params = qmatch.model.init_params(encoder, self.seed)
        if "qmatch" in w.algorithms:
            params.copy(requires_grad=False)
            qmatch.distill.queue_init(w.queue, encoder.projector_dim,
                                      np.random.default_rng(self.seed))
        elapsed = time.perf_counter() - t0
        self.dataset, self.state, self.encoder = ds, state, encoder
        self.pretext_splits = dict(splits, pretext_train=splits["pretext_train"][:w.pretext_rows],
                                   pretext_val=splits["pretext_val"][:w.val_rows])
        self.eval_splits = dict(splits, test=splits["test"][:w.test_rows])
        return elapsed

    def pretrain(self, algorithm: str):
        """One pretrain() call; returns (result, wall seconds, rows consumed)."""
        w = self.w
        loop = qmatch.train.TrainLoopConfig(batch_size=BATCH, max_epochs=w.epochs,
                                            patience=w.epochs - 1)
        t0 = time.perf_counter()
        result = qmatch.train.pretrain(
            algorithm, self.dataset, self.pretext_splits, self.state, self.encoder, loop,
            self.seed, qm_config=QMatchConfig(queue_capacity=w.queue),
            corruption=CorruptionConfig())
        elapsed = time.perf_counter() - t0
        history = result.val_history
        failures = []
        if not all(np.isfinite(history)):
            failures.append(f"non-finite validation loss {history}")
        if result.queue is not None:
            norms = np.linalg.norm(result.queue.storage, axis=1)
            if np.max(np.abs(norms - 1.0)) > 1e-9:
                failures.append("queue rows are not unit-norm")
        ref = self.reference_loss.setdefault(algorithm, history)
        if ref != history:
            failures.append(f"same-seed rerun changed the val loss: {ref} vs {history}")
        self.checks.op(f"pretrain[{algorithm}]", failures)
        rows = len(history) * (w.pretext_rows // BATCH) * BATCH
        return result, elapsed, rows

    def checkpoint_round_trip(self, result):
        """save_checkpoint -> load_checkpoint; must reproduce params, EMA and queue."""
        path = self.work / "pretrained.qmc"
        queue = result.queue.snapshot() if result.queue is not None else None
        qmatch.model.save_checkpoint(path, result.params, ema=result.ema,
                                     metadata={"seed": self.seed}, queue_storage=queue)
        loaded = qmatch.model.load_checkpoint(path, expected_config=self.encoder)
        path.unlink()
        failures = []
        if not _params_equal(result.params, loaded["params"]):
            failures.append("params differ after reload")
        if (result.ema is None) != (loaded["ema"] is None) or (
                result.ema is not None and not _params_equal(result.ema.params,
                                                             loaded["ema"].params)):
            failures.append("EMA differs after reload")
        if (queue is None) != (loaded["queue_storage"] is None) or (
                queue is not None and not _same_bits(queue, loaded["queue_storage"])):
            failures.append("queue storage differs after reload")
        self.checks.op("checkpoint", failures)
        return loaded["params"]

    def evaluate(self, params):
        """linear_eval + finetune on the reloaded encoder; returns (seconds, test acc)."""
        w = self.w
        t0 = time.perf_counter()
        lin = qmatch.train.linear_eval(
            params, self.dataset, self.eval_splits, self.state,
            self._downstream_loop(w.linear_epochs), self.seed)
        t1 = time.perf_counter()
        fin = qmatch.train.finetune(
            params, self.dataset, self.eval_splits, self.state,
            self._downstream_loop(w.finetune_epochs), self.seed)
        t2 = time.perf_counter()
        for task, res in (("linear_eval", lin), ("finetune", fin)):
            accs = (res.val_accuracy, res.test_accuracy)
            ref = self.reference_accuracy.setdefault(task, accs)
            failures = [] if all(0.0 <= a <= 100.0 for a in accs) else [
                f"accuracy outside [0, 100]: {accs}"]
            if ref != accs:
                failures.append(f"same-seed rerun changed the accuracies: {ref} vs {accs}")
            self.checks.op(task, failures)
        return t2 - t0, lin.test_accuracy

    @staticmethod
    def _downstream_loop(epochs: int):
        # patience beyond the budget: every run trains exactly `epochs` epochs
        return qmatch.train.TrainLoopConfig(batch_size=BATCH, max_epochs=epochs + 2,
                                            patience=epochs + 1,
                                            downstream_max_epochs=epochs)

    def pretrain_round(self):
        """Every algorithm once; returns (wall seconds, rows, eval algorithm's result)."""
        wall, rows, kept = 0.0, 0, None
        for algorithm in self.w.algorithms:
            result, elapsed, n = self.pretrain(algorithm)
            wall += elapsed
            rows += n
            if algorithm == self.w.eval_algorithm:
                kept = result
            del result
        return wall, rows, kept

    # -- the whole workload ------------------------------------------------------------

    def measure(self) -> dict:
        w = self.w
        setups = [self.setup() for _ in range(w.setup_repeats)]
        rates, walls = [], []
        start = time.perf_counter()
        while len(rates) < w.min_rounds or time.perf_counter() - start < self.seconds:
            kept = None  # free the previous round's encoder before the next one
            wall, rows, kept = self.pretrain_round()
            rates.append(rows / wall)
            walls.append(wall)
        params = self.checkpoint_round_trip(kept)
        del kept
        evals = [self.evaluate(params) for _ in range(w.eval_repeats)]
        eval_walls = [e for e, _ in evals]
        final = {a: h[-1] for a, h in self.reference_loss.items()}
        print(f"samples: setup_s {_fmt(setups)}; pretrain round s {_fmt(walls)}; "
              f"eval_s {_fmt(eval_walls)}; final val loss {final}")
        return {
            "setup_s": statistics.median(setups),
            "pretrain_rows_per_s": statistics.median(rates),
            "eval_s": statistics.median(eval_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pretext_val_loss": final[w.eval_algorithm],
            "test_accuracy": evals[0][1],
            "_setups": setups, "_pretrain_walls": walls, "_evals": eval_walls,
        }

    def trace(self, untraced: dict, trace_path: Path) -> dict[str, tuple[float, str]]:
        """One traced round of the workload, then the op microbenchmarks."""
        tracer = Tracer()
        layers.instrument(tracer)
        try:
            setup_s = self.setup()
            pretrain_wall, _, kept = self.pretrain_round()
            params = self.checkpoint_round_trip(kept)
            del kept
            eval_s, _ = self.evaluate(params)
        finally:
            tracer.restore()
        tracer.write(trace_path)
        metrics, covered = layers.layer_metrics(tracer)
        self.checks.op("trace coverage", [] if covered >= layers.MIN_PRETRAIN_COVERAGE else [
            f"children of train.pretrain cover {covered:.1%} of its wall time, "
            f"below {layers.MIN_PRETRAIN_COVERAGE:.0%}"])
        metrics["trace.setup_overhead_s"] = (setup_s - min(untraced["_setups"]), "s")
        metrics["trace.pretrain_overhead_s"] = (
            pretrain_wall - min(untraced["_pretrain_walls"]), "s")
        metrics["trace.eval_overhead_s"] = (eval_s - min(untraced["_evals"]), "s")
        metrics.update(layers.tensor_microbench(self.seed))
        return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 trace_path: Path):
    """Returns (metrics or None, Checks).  Metrics map name -> (value, unit)."""
    run = None
    try:
        run = Run(name, seed, seconds, work)
        measured = run.measure()
        if trace:
            return run.trace(measured, trace_path), run.checks
        units = {"setup_s": "s", "pretrain_rows_per_s": "rows/s", "eval_s": "s",
                 "peak_rss_mb": "MB", "pretext_val_loss": "nats", "test_accuracy": "%"}
        return {k: (measured[k], u) for k, u in units.items()}, run.checks
    except Exception:  # report the failed operation instead of a bare crash
        traceback.print_exc(file=sys.stderr)
        checks = run.checks if run is not None else Checks()
        checks.op("workload", ["raised an exception"])
        return None, checks
