"""Command-line pipeline: prepare-data, pretrain, evaluation, sweeps, reports.

All commands are deterministic given a config and seeds, and every output is
a plain file (JSON manifest, checkpoint container, JSONL results, CSV grids).
Exit codes: 0 success, 2 config error, 3 runtime/training error.
"""

from __future__ import annotations

import argparse
import csv as csvmod
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import data as datamod
from .augment import CorruptionConfig
from .baselines import BaselineConfig
from .data import (
    DataError,
    SplitSpec,
    fit_preprocess,
    load_csv,
    load_manifest,
    load_schema,
    make_splits,
    preset_split,
    read_json,
    save_manifest,
)
from .distill import QMatchConfig
from .model import (
    CheckpointError,
    ConfigError,
    EncoderConfig,
    _checked,
    _field_types,
    check_seed,
    load_checkpoint,
    save_checkpoint,
)
from .train import (
    ALGORITHMS,
    DEFAULT_GRIDS,
    DOWNSTREAM_SPLITS,
    PRETEXT_ALGORITHMS,
    PRETEXT_SPLITS,
    Cell,
    TrainLoopConfig,
    TrainingError,
    TrialResult,
    _check_splits,
    _point_configs,
    aggregate,
    check_pretext_batch,
    finetune,
    format_rank,
    grid_search,
    linear_eval,
    mean_std,
    pretrain,
    run_cells,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# run-config section -> its config dataclass and the fields a run config cannot set
RUN_CONFIG_SECTIONS = {"encoder": (EncoderConfig, "input_dim"),
                       "loop": (TrainLoopConfig,), "qmatch": (QMatchConfig,),
                       "corruption": (CorruptionConfig,), "extra": (BaselineConfig,)}


def data_root() -> Path:
    return Path(os.environ.get("QMATCH_DATA_DIR", "."))


def _output_path(path: str, directory: bool = False) -> Path:
    """An output path checked before any work starts: a file's may not be a
    directory, a directory's may not be anything else, and neither may lie
    under a file."""
    out = Path(path)
    if not directory and out.is_dir():
        raise ConfigError(f"{out}: is a directory, not a file")
    if directory and out.exists() and not out.is_dir():
        raise ConfigError(f"{out}: exists and is not a directory")
    for parent in out.parents:
        if parent.exists() and not parent.is_dir():
            raise ConfigError(f"{out}: {parent} is not a directory")
    return out


def _resolve(path: str) -> Path:
    p = Path(path)
    return p if p.is_absolute() else data_root() / p


def load_run_config(path) -> dict:
    cfg = _checked(read_json(path), str(path), {
        "algorithm": "str", "seed": "int", **dict.fromkeys(RUN_CONFIG_SECTIONS, "dict")})
    for name, (cls, *skip) in RUN_CONFIG_SECTIONS.items():
        _checked(cfg.get(name, {}), f"{path}: {name}", _field_types(cls, *skip))
    check_seed(cfg.get("seed", 0), f"{path}: ")
    return cfg


# the files of a workspace, which prepare-data writes into its --out directory
WORKSPACE_FILES = ("meta.json", "splits.json")
# meta.json key -> its JSON type; Workspace reads every key but preset and seed
WORKSPACE_META = {"csv": "str", "schema": "str", "name": "str", "preset": "str | None",
                  "seed": "int", "quantile": "bool"}


class Workspace:
    """A prepared-data directory: meta and manifest, on whose pretext_train rows the
    state is fit.  A file that breaks its rules is a DataError or ConfigError naming it."""

    def __init__(self, directory: Path):
        self.dir = Path(directory)
        meta, manifest = (self.dir / name for name in WORKSPACE_FILES)
        self.manifest = manifest
        self.meta = _checked(read_json(meta), str(meta), WORKSPACE_META,
                             required=("csv", "schema", "name", "quantile"))
        self.schema = _resolve(self.meta["schema"])
        self.dataset = load_csv(_resolve(self.meta["csv"]), load_schema(self.schema),
                                name=self.meta["name"])
        self.splits = load_manifest(manifest)
        for name in _field_types(SplitSpec, "label_fraction", "seed"):  # the five splits
            if name not in self.splits:
                raise DataError(f"{manifest}: split {name!r} is missing")
        rows = len(self.dataset)
        for name, idx in self.splits.items():  # -1 would pick the last row unnoticed
            if idx.size and not 0 <= idx.min() <= idx.max() < rows:
                raise DataError(f"{manifest}: split {name!r} holds a row index outside "
                                f"[0, {rows})")
        if not len(self.splits["pretext_train"]):
            raise DataError(f"{manifest}: pretext_train holds no rows to fit the state on")
        self.state = fit_preprocess(self.dataset, rows=self.splits["pretext_train"],
                                    quantile=self.meta["quantile"])

    def check_downstream(self):
        """A downstream run reads labels and rows of the three downstream splits."""
        if self.dataset.labels is None:
            raise DataError(f"{self.schema}: declares no label column, so there is nothing "
                            f"to train a classifier on")
        _check_splits(self.splits, DOWNSTREAM_SPLITS, f"{self.manifest}: ")


def cmd_prepare_data(args) -> int:
    out = _output_path(args.out, directory=True)
    for name in WORKSPACE_FILES:
        _output_path(out / name)
    # meta.json records the paths as given, and Workspace reads them through
    # _resolve, so they are read here the same way
    schema = load_schema(_resolve(args.schema))
    dataset = load_csv(_resolve(args.csv), schema, name=args.name or Path(args.csv).stem)
    quantile = args.quantile
    if args.preset:
        spec = preset_split(args.preset, seed=args.seed)
        if quantile is None:
            quantile = datamod.PRESETS[args.preset].get("quantile", False)
    else:
        spec_fields = _checked(read_json(args.split_spec), args.split_spec,
                               _field_types(SplitSpec, "seed"))  # its seed is --seed
        spec = _config(SplitSpec, **spec_fields, seed=args.seed)
    try:
        if not spec.pretext_train:  # every command fits the preprocessing state on them
            raise DataError("pretext_train holds 0 rows to fit the state on")
        splits = make_splits(dataset, spec)
    except DataError as e:  # the spec asks for rows or classes the table lacks
        raise DataError(f"{args.split_spec or f'preset {args.preset}'}: {e}") from None

    out.mkdir(parents=True, exist_ok=True)
    save_manifest(splits, out / "splits.json",
                  metadata={"seed": args.seed, "preset": args.preset,
                            "dataset": dataset.name})
    with open(out / "meta.json", "w") as fh:
        json.dump({"csv": str(args.csv), "schema": str(args.schema),
                   "name": dataset.name, "preset": args.preset,
                   "seed": args.seed, "quantile": bool(quantile)},
                  fh, sort_keys=True, separators=(",", ":"))
    sizes = {k: len(v) for k, v in splits.items()}
    print(f"prepared {dataset.name}: " +
          ", ".join(f"{k}={v}" for k, v in sorted(sizes.items())))
    return EXIT_OK


def _config(build, *args, **values):
    """Build a config object; a value or field it rejects is the user's config error."""
    try:
        return build(*args, **values)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from None


def _overlay(cls, section: dict, **flags):
    """Build `cls` from its dataclass defaults, overridden by the run-config
    `section`, then by every flag that is not None."""
    return _config(cls, **{**section, **{k: v for k, v in flags.items() if v is not None}})


def _build_configs(args, algorithms: tuple, downstream: bool = True):
    """The run's workspace, algorithm (one of `algorithms`, or None), configs and
    seed; the run config is checked before the workspace's data is read.  Every
    algorithm but supervised pretrains, so it needs rows in both pretext splits,
    and a `downstream` command needs what `Workspace.check_downstream` asks; the
    refusal names the manifest, which may leave a split empty for a run that does
    not read it."""
    cfg = load_run_config(args.config) if args.config else {}
    ws = Workspace(Path(args.data))
    encoder = _overlay(EncoderConfig, cfg.get("encoder", {}),
                       input_dim=ws.state.output_dim, layer_widths=args.widths)
    loop = _overlay(TrainLoopConfig, cfg.get("loop", {}),
                    batch_size=args.batch_size, max_epochs=args.max_epochs,
                    patience=args.patience, learning_rate=args.lr,
                    pretext_learning_rate=args.pretext_lr)
    qm = _overlay(QMatchConfig, cfg.get("qmatch", {}),
                  tau_student=args.tau_student, queue_capacity=args.queue_size)
    corr = _overlay(CorruptionConfig, cfg.get("corruption", {}),
                    p_student=args.p_student, p_teacher=args.p_teacher)
    extra = _overlay(BaselineConfig, cfg.get("extra", {}))
    algorithm = args.algorithm or cfg.get("algorithm")
    if algorithm is not None and algorithm not in algorithms:
        raise ConfigError(f"unknown algorithm {algorithm!r}, expected one of "
                          f"{', '.join(algorithms)}")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    if algorithm != "supervised":
        _check_splits(ws.splits, PRETEXT_SPLITS, f"{ws.manifest}: ")
    if downstream:
        ws.check_downstream()
    return ws, algorithm, encoder, loop, qm, corr, extra, seed


def _resolved_config_dict(algorithm, encoder, loop, qm, corr, extra, seed) -> dict:
    return {"algorithm": algorithm, "seed": seed,
            "encoder": asdict(encoder), "loop": asdict(loop),
            "qmatch": asdict(qm), "corruption": asdict(corr), "extra": asdict(extra)}


def cmd_pretrain(args) -> int:
    out = _output_path(args.out)
    ws, algorithm, encoder, loop, qm, corr, extra, seed = _build_configs(
        args, PRETEXT_ALGORITHMS, downstream=False)
    if algorithm is None:
        raise ConfigError("no algorithm given (flag --algorithm or config file)")
    check_pretext_batch(algorithm, loop, qm, ws.splits)
    resolved = _resolved_config_dict(algorithm, encoder, loop, qm, corr, extra, seed)
    if args.dry_run:
        print(json.dumps(resolved, indent=2, sort_keys=True))
        return EXIT_OK
    result = pretrain(algorithm, ws.dataset, ws.splits, ws.state, encoder, loop, seed,
                      qm_config=qm, corruption=corr, extra=extra)
    out.parent.mkdir(parents=True, exist_ok=True)
    metadata = {"algorithm": algorithm, "seed": seed, "best_epoch": result.best_epoch,
                "data": args.data,
                "config": resolved}
    if result.queue is not None:  # the ring buffer's rows are in order from its cursor
        metadata["queue_cursor"] = result.queue.cursor
    save_checkpoint(out, result.params, ema=result.ema, metadata=metadata,
                    queue_storage=result.queue.storage if result.queue else None)
    print(f"best_epoch={result.best_epoch} "
          f"best_val_loss={min(result.val_history):.6f} "
          f"epochs_run={len(result.val_history)} checkpoint={out}")
    return EXIT_OK


def _append_result(path, result: TrialResult):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(result.to_json() + "\n")


def cmd_eval(args) -> int:
    out = _output_path(args.out)
    ckpt_path = Path(args.checkpoint)
    if not ckpt_path.is_file():  # missing, a directory, or under a file
        raise ConfigError(f"{ckpt_path}: no checkpoint file at this path")
    ws = Workspace(Path(args.data))
    ws.check_downstream()
    # --patience stops the downstream loop, so TrainLoopConfig checks it against
    # that budget as max_epochs; the pretext budget plays no part here and, with
    # no --patience, only has to admit the default one
    budget = args.max_epochs if args.max_epochs is not None else \
        TrainLoopConfig.downstream_max_epochs
    loop = _overlay(TrainLoopConfig, {}, learning_rate=args.lr,
                    downstream_max_epochs=args.max_epochs, patience=args.patience,
                    batch_size=args.batch_size,
                    max_epochs=budget if args.patience is not None else
                    max(budget, TrainLoopConfig.max_epochs))
    ckpt = load_checkpoint(ckpt_path)
    # only the params train: the EMA teacher and the queue go before training starts
    config, metadata, params = ckpt["config"], ckpt["metadata"], ckpt["params"]
    del ckpt
    if config.input_dim != ws.state.output_dim:
        raise CheckpointError(f"{ckpt_path}: the encoder takes {config.input_dim} "
                              f"input columns, the prepared data has {ws.state.output_dim}")
    algorithm = metadata.get("algorithm", "unknown")
    if not isinstance(algorithm, str):  # it names the result's row in a report
        raise CheckpointError(f"{ckpt_path}: metadata algorithm must be a string, "
                              f"got {algorithm!r}")
    fn = linear_eval if args.task == "linear" else finetune
    result = fn(params, ws.dataset, ws.splits, ws.state, loop,
                args.seed if args.seed is not None else 0,
                algorithm=algorithm)
    _append_result(out, result)
    print(f"{args.task} val_accuracy={result.val_accuracy:.2f} "
          f"test_accuracy={result.test_accuracy:.2f}")
    return EXIT_OK


def cmd_grid(args) -> int:
    out = _output_path(args.out, directory=True)
    ws, algorithm, encoder, loop, qm, corr, extra, seed = _build_configs(args, ALGORITHMS)
    if algorithm is None:
        raise ConfigError("no algorithm given")
    seeds = args.seeds or [seed]  # --seed and a run config's seed are in `seed`
    if args.grid:
        grid = read_json(args.grid)
        if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
            raise ConfigError(f"{args.grid}: a grid file is a JSON object of value lists")
    else:
        grid = DEFAULT_GRIDS[algorithm]
    best_point, results, outcomes = grid_search(
        algorithm, grid, args.task, ws.dataset, ws.splits, ws.state,
        encoder, loop, seeds, qm_config=qm, corruption=corr, extra=extra)
    out.mkdir(parents=True, exist_ok=True)
    for r in results:
        _append_result(out / "results.jsonl", r)
    summary = {"best_point": best_point,
               "points": [{"point": o["point"], "failed": o["failed"],
                           "val_accuracy": (o["result"].val_accuracy
                                            if o["result"] else None)}
                          for o in outcomes]}
    with open(out / "grid.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    mean, std = mean_std([r.test_accuracy for r in results])
    print(f"best_point={json.dumps(best_point, sort_keys=True)} "
          f"test_accuracy={mean:.2f}+/-{std:.2f}")
    return EXIT_OK


SWEEP_KINDS = ("corruption-heatmap", "queue-size", "label-fraction", "pretext-size")


def cmd_sweep(args) -> int:
    out = _output_path(args.out)
    ws, algorithm, encoder, loop, qm, corr, extra, seed = _build_configs(args, ALGORITHMS)
    algorithm = algorithm or "qmatch"
    seeds = args.seeds or [seed]  # --seed and a run config's seed are in `seed`

    def cell(axes: dict, point: dict, **splits) -> Cell:
        """The cell of a CSV row's `axes`, set by the grid keys of `point`."""
        return Cell(axes, *_point_configs(point, loop, qm, corr, extra), {**ws.splits, **splits})

    def fractions(default: list) -> list:
        """--values or `default`, each checked by SplitSpec's label_fraction rule."""
        return [SplitSpec(0, 0, 0, 0, 0, label_fraction=f).label_fraction
                for f in args.values or default]

    if args.kind == "corruption-heatmap":
        ps = args.values or [0.0, 0.3, 0.5]
        cells = [cell({"p_student": p_s, "p_teacher": p_t},
                      {"corruption_probability": p_s, "p_teacher": p_t})
                 for p_s in ps for p_t in args.teacher_values or ps]
    elif args.kind == "queue-size":
        cells = [cell({}, {"queue_size": m}) for m in args.values or [2 ** 9, 2 ** 11]]
        cells = [replace(c, hyperparameters={"queue_size": c.qm.queue_capacity}) for c in cells]
    elif args.kind == "label-fraction":
        down, rng = ws.splits["down_train"], np.random.default_rng(seed)
        cells = [cell({"label_fraction": frac}, {}, down_train=datamod._stratified_take(
            down, ws.dataset.labels,
            min(max(ws.dataset.num_classes, round(frac * len(down))), len(down)), rng))
            for frac in fractions([0.01, 0.1, 1.0])]
    else:  # pretext-size, the last of SWEEP_KINDS, which the parser enforces
        pretext = ws.splits["pretext_train"]
        sizes = [min(max(loop.batch_size, round(frac * len(pretext))), len(pretext))
                 for frac in fractions([0.25, 0.5, 1.0])]
        cells = [cell({"pretext_size": k}, {}, pretext_train=pretext[:k]) for k in sizes]

    rows: list[dict] = []
    for c, results in zip(cells, run_cells(algorithm, args.task, ws.dataset, ws.state,
                                           encoder, cells, seeds)):
        accs = [r.test_accuracy for r in results]
        mean, std = mean_std(accs)
        rows += [{**c.hyperparameters, "seed": s, "accuracy": a,
                  "mean_accuracy": mean, "std_accuracy": std}
                 for s, a in zip(seeds, accs)]

    out.parent.mkdir(parents=True, exist_ok=True)
    columns = sorted({k for row in rows for k in row})
    with open(out, "w", newline="") as fh:
        writer = csvmod.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def _read_results(path: str) -> list[TrialResult]:
    """The trial results of one JSONL file; a line that is not one (bad UTF-8 or
    JSON, wrong keys or types, a value TrialResult refuses) is a DataError
    naming the file and the line."""
    try:
        fh = open(path, "rb")
    except IsADirectoryError:
        raise DataError(f"{path}: is a directory, not a results file") from None
    results = []
    with fh:
        for number, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    results.append(TrialResult.from_json(line))
            except (TypeError, ValueError) as e:
                raise DataError(f"{path}:{number}: not a trial result: {e}") from None
    return results


def cmd_report(args) -> int:
    json_out = _output_path(args.json) if args.json else None
    results = [r for path in args.results for r in _read_results(path)]
    if not results:
        raise ConfigError("no result lines found")
    agg = aggregate(results)

    lines = []
    header = ["algorithm"] + agg["datasets"] + ["avg_rank"]
    lines.append("  ".join(f"{h:>18}" for h in header))
    order = sorted(agg["algorithms"], key=lambda a: agg["avg_rank"][a])
    for a in order:
        cells = []
        for d in agg["datasets"]:
            s = agg["stats"].get((a, d))
            cells.append(f"{s['mean']:.2f} +/- {s['std']:.2f}" if s else "-")
        lines.append("  ".join([f"{a:>18}"] + [f"{c:>18}" for c in cells]
                               + [f"{format_rank(agg['avg_rank'][a]):>18}"]))
    table = "\n".join(lines)
    print(table)
    if json_out:
        payload = {
            "cells": {f"{a}|{d}": s for (a, d), s in agg["stats"].items()},
            "ranks": {f"{a}|{d}": r for (a, d), r in agg["ranks"].items()},
            "avg_rank": {a: format_rank(v) for a, v in agg["avg_rank"].items()},
        }
        json_out.parent.mkdir(parents=True, exist_ok=True)
        with open(json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    return EXIT_OK


def _seed(text: str) -> int:
    """argparse type: a seed by `check_seed`'s rule; a bad one exits 2."""
    try:
        return check_seed(int(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _list_of(kind):
    """argparse type: comma-separated `kind` values; a bad one exits 2."""
    def parse(text: str) -> list:
        return [kind(v) for v in text.split(",")]
    parse.__name__ = f"comma-separated {kind.__name__}"  # argparse's error names it
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmatch",
                                     description="Queue-based self-distillation for tabular data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare-data", help="build a workspace: split manifest and meta")
    p.add_argument("--csv", required=True, help="relative to $QMATCH_DATA_DIR if set")
    p.add_argument("--schema", required=True, help="relative to $QMATCH_DATA_DIR if set")
    split = p.add_mutually_exclusive_group(required=True)
    split.add_argument("--preset", choices=sorted(datamod.PRESETS), default=None)
    split.add_argument("--split-spec", default=None, help="JSON file with SplitSpec fields")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--name", default=None)
    p.add_argument("--quantile", action=argparse.BooleanOptionalAction, default=None)
    p.set_defaults(run=cmd_prepare_data)

    def train_flags(q):
        q.add_argument("--config", default=None, help="run-config JSON")
        q.add_argument("--algorithm", default=None)
        q.add_argument("--seed", type=_seed, default=None)
        q.add_argument("--widths", type=_list_of(int), default=None)
        q.add_argument("--batch-size", type=int, default=None)
        q.add_argument("--max-epochs", type=int, default=None)
        q.add_argument("--patience", type=int, default=None)
        q.add_argument("--lr", type=float, default=None)
        q.add_argument("--pretext-lr", type=float, default=None)
        q.add_argument("--tau-student", type=float, default=None)
        q.add_argument("--queue-size", type=int, default=None)
        q.add_argument("--p-student", type=float, default=None)
        q.add_argument("--p-teacher", type=float, default=None)

    p = sub.add_parser("pretrain", help="run a pretext task and write a checkpoint")
    p.add_argument("--data", required=True, help="prepared-data directory")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(run=cmd_pretrain)
    train_flags(p)

    for task, name in (("linear", "linear-eval"), ("finetune", "finetune")):
        p = sub.add_parser(name, help=f"{task} evaluation of a checkpoint")
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True, help="JSONL results file (appended)")
        p.add_argument("--seed", type=_seed, default=None)
        p.add_argument("--lr", type=float, default=None)
        p.add_argument("--max-epochs", type=int, default=None)
        p.add_argument("--patience", type=int, default=None)
        p.add_argument("--batch-size", type=int, default=None)
        p.set_defaults(run=cmd_eval, task=task)

    p = sub.add_parser("grid", help="hyperparameter grid search")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--task", choices=["linear", "finetune"], default="linear")
    p.add_argument("--seeds", type=_list_of(_seed), default=None,
                   help="comma-separated seed list")
    p.add_argument("--grid", default=None, help="JSON file: {param: [values]}")
    p.set_defaults(run=cmd_grid)
    train_flags(p)

    p = sub.add_parser("sweep", help="sensitivity sweeps, emitted as plot-ready CSV")
    p.add_argument("--kind", choices=SWEEP_KINDS, required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--task", choices=["linear", "finetune"], default="linear")
    p.add_argument("--seeds", type=_list_of(_seed), default=None)
    p.add_argument("--values", type=_list_of(float), default=None,
                   help="comma-separated axis values")
    p.add_argument("--teacher-values", type=_list_of(float), default=None,
                   help="teacher corruption values (corruption-heatmap)")
    p.set_defaults(run=cmd_sweep)
    train_flags(p)

    p = sub.add_parser("report", help="aggregate results into a rank table")
    p.add_argument("results", nargs="+", help="JSONL result files")
    p.add_argument("--json", default=None, help="also write the table as JSON")
    p.set_defaults(run=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    # an input path that is missing or of the wrong kind: the error names it
    except (ConfigError, DataError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingError, CheckpointError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
