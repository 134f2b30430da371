import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmatch.augment import CorruptionConfig
from qmatch.baselines import BaselineConfig
from qmatch.cli import EXIT_CONFIG, EXIT_OK, Workspace, main
from qmatch.data import (ColumnSpec, PreprocessState, load_manifest, save_csv,
                         save_manifest)
from qmatch.distill import QMatchConfig
from qmatch.model import EncoderConfig, init_params, save_checkpoint
from qmatch.train import TrialResult
from tests.conftest import make_fixture_dataset
from tests.test_model import BAD_HEADERS, rewrite_header


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Fixture CSV + schema + split spec on disk."""
    root = tmp_path_factory.mktemp("corpus")
    ds = make_fixture_dataset(n=600, seed=0)
    save_csv(ds, root / "fixture.csv")
    schema = {"columns": (
        [{"name": n, "type": "numeric"} for n in ds.feature_names[:6]]
        + [{"name": ds.feature_names[6], "type": "categorical", "categories": ds.cat_vocab[6]},
           {"name": ds.feature_names[7], "type": "categorical", "categories": ds.cat_vocab[7]},
           {"name": "label", "type": "label", "categories": ["0", "1", "2"]}])}
    (root / "schema.json").write_text(json.dumps(schema))
    (root / "spec.json").write_text(json.dumps(
        {"pretext_train": 192, "pretext_val": 32, "down_train": 60,
         "down_val": 60, "test": 60}))
    return root


def prepare(corpus, out, seed=0):
    return main(["prepare-data", "--csv", str(corpus / "fixture.csv"),
                 "--schema", str(corpus / "schema.json"),
                 "--split-spec", str(corpus / "spec.json"),
                 "--out", str(out), "--seed", str(seed)])


@pytest.fixture(scope="module")
def prepared(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("prepared")
    assert prepare(corpus, out) == EXIT_OK
    return out


SMALL_TRAIN = ["--widths", "32,32", "--batch-size", "32",
               "--max-epochs", "2", "--patience", "1", "--queue-size", "64"]


# sha256 of the array bytes `qmatch pretrain` writes for the qmatch run of
# TestPretrain.test_best_epoch_before_the_last_writes_pinned_arrays
PINNED_BEST_EPOCH_ARRAYS = "5e15d59a253346017dd2c3c7217b3a58901339306144165c82dab32989273cc2"


@pytest.fixture(scope="module")
def checkpoint(prepared, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.qmc"
    code = main(["pretrain", "--data", str(prepared), "--out", str(path),
                 "--algorithm", "qmatch", "--seed", "0"] + SMALL_TRAIN)
    assert code == EXIT_OK
    return path


class TestPrepareData:
    def test_outputs_and_sizes(self, prepared, capsys):
        splits = load_manifest(prepared / "splits.json")
        assert {k: len(v) for k, v in splits.items()} == {
            "pretext_train": 192, "pretext_val": 32, "down_train": 60,
            "down_val": 60, "test": 60}
        assert (prepared / "preprocess.json").exists()
        assert (prepared / "meta.json").exists()

    def test_reruns_byte_identical(self, corpus, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert prepare(corpus, a) == EXIT_OK
        assert prepare(corpus, b) == EXIT_OK
        for name in ("splits.json", "preprocess.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_preset_and_spec_mutually_exclusive(self, corpus, tmp_path):
        code = main(["prepare-data", "--csv", str(corpus / "fixture.csv"),
                     "--schema", str(corpus / "schema.json"),
                     "--preset", "adult1pct",
                     "--split-spec", str(corpus / "spec.json"),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    def test_neither_preset_nor_spec(self, corpus, tmp_path):
        code = main(["prepare-data", "--csv", str(corpus / "fixture.csv"),
                     "--schema", str(corpus / "schema.json"),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    def test_missing_csv(self, corpus, tmp_path):
        code = main(["prepare-data", "--csv", str(corpus / "nope.csv"),
                     "--schema", str(corpus / "schema.json"),
                     "--split-spec", str(corpus / "spec.json"),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    def test_unknown_flag(self):
        assert main(["prepare-data", "--frobnicate"]) == EXIT_CONFIG

    @pytest.mark.parametrize("spec", [
        {"pretext_train": 192, "pretext_val": 32, "down_train": 60, "down_val": 60,
         "test": 60, "colour": "red"},
        {"pretext_train": 192, "pretext_val": 32, "down_train": 60, "down_val": 60,
         "test": 60, "seed": 3},
        [192, 32, 60, 60, 60],
    ], ids=["unknown_key", "seed_key", "not_an_object"])
    def test_bad_split_spec_is_config_error(self, corpus, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["prepare-data", "--csv", str(corpus / "fixture.csv"),
                     "--schema", str(corpus / "schema.json"), "--split-spec", str(path),
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG


    @pytest.mark.parametrize("field, value", [
        ("pretext_train", -5), ("test", True), ("pretext_train", "192"),
        ("pretext_train", 192.5), ("label_fraction", "0.5"), ("label_fraction", math.nan),
    ], ids=repr)
    def test_bad_split_spec_value_is_config_error(self, corpus, tmp_path, field, value):
        spec = {**json.loads((corpus / "spec.json").read_text()), field: value}
        assert prepare_spec(corpus, tmp_path, spec) == EXIT_CONFIG
        assert not (tmp_path / "x").exists()


    def test_empty_pretext_train_is_config_error(self, corpus, tmp_path, capsys):
        spec = {**json.loads((corpus / "spec.json").read_text()), "pretext_train": 0}
        assert prepare_spec(corpus, tmp_path, spec) == EXIT_CONFIG
        assert "0 rows" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def prepare_spec(corpus, tmp_path, spec) -> int:
    """prepare-data with `spec` as the split-spec file, into tmp_path / "x"."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return main(["prepare-data", "--csv", str(corpus / "fixture.csv"),
                 "--schema", str(corpus / "schema.json"), "--split-spec", str(path),
                 "--out", str(tmp_path / "x")])


class TestPretrain:
    def test_dry_run_prints_resolved_config(self, prepared, tmp_path, capsys):
        code = main(["pretrain", "--data", str(prepared), "--out",
                     str(tmp_path / "c.qmc"), "--algorithm", "qmatch",
                     "--dry-run"] + SMALL_TRAIN)
        assert code == EXIT_OK
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["algorithm"] == "qmatch"
        assert resolved["encoder"]["layer_widths"] == [32, 32]
        assert resolved["qmatch"]["queue_capacity"] == 64
        assert not (tmp_path / "c.qmc").exists()

    def test_checkpoint_written(self, checkpoint):
        assert checkpoint.exists()
        assert checkpoint.read_bytes()[:8] == b"QMCKPT01"

    def test_best_epoch_before_the_last_writes_pinned_arrays(self, prepared, tmp_path,
                                                             capsys):
        """The arrays of a checkpoint whose best epoch a later epoch followed keep
        their recorded digest (the header holds paths and is left out)."""
        path = tmp_path / "best.qmc"
        code = main(["pretrain", "--data", str(prepared), "--out", str(path),
                     "--algorithm", "qmatch", "--seed", "2", "--widths", "32,32",
                     "--batch-size", "32", "--max-epochs", "4", "--patience", "2",
                     "--queue-size", "64"])
        assert code == EXIT_OK
        report = dict(kv.split("=", 1) for kv in capsys.readouterr().out.split())
        assert int(report["best_epoch"]) < int(report["epochs_run"]) - 1
        raw = path.read_bytes()
        arrays = raw[16 + int.from_bytes(raw[8:16], "little"):]
        assert _sha256(arrays) == PINNED_BEST_EPOCH_ARRAYS

    def test_no_algorithm_is_config_error(self, prepared, tmp_path):
        code = main(["pretrain", "--data", str(prepared),
                     "--out", str(tmp_path / "c.qmc")] + SMALL_TRAIN)
        assert code == EXIT_CONFIG

    def test_invalid_run_config_rejected(self, prepared, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"algorithm": "qmatch", "bogus_key": 1}))
        code = main(["pretrain", "--data", str(prepared), "--out",
                     str(tmp_path / "c.qmc"), "--config", str(cfg), "--dry-run"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("run_config", [
        {"extra": {"num_protoypes": 8}},  # misspelled key
        {"extra": {"num_prototypes": 0}},
        {"seeds": [0, 1]},  # read by nobody: --seeds is the flag
        {"output_dir": "runs"},
    ], ids=["extra.num_protoypes", "extra.num_prototypes=0", "seeds", "output_dir"])
    def test_unread_run_config_key_rejected(self, prepared, tmp_path, run_config):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"algorithm": "dino", **run_config}))
        code = main(["pretrain", "--data", str(prepared), "--out", str(tmp_path / "c.qmc"),
                     "--config", str(cfg), "--batch-size", "32", "--dry-run"])
        assert code == EXIT_CONFIG

    def test_extra_keys_reach_resolved_config(self, prepared, tmp_path, capsys):
        extra = {"tau": 0.2, "num_prototypes": 8, "alpha_mask": 0.5, "alpha_recon": 2.0}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"algorithm": "vime", "extra": extra}))
        code = main(["pretrain", "--data", str(prepared), "--out", str(tmp_path / "c.qmc"),
                     "--config", str(cfg), "--batch-size", "32", "--dry-run"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["extra"] == extra

    def test_empty_layer_widths_rejected(self, prepared, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"algorithm": "qmatch", "encoder": {"layer_widths": []}}))
        code = main(["pretrain", "--data", str(prepared), "--out",
                     str(tmp_path / "c.qmc"), "--config", str(cfg), "--dry-run"])
        assert code == EXIT_CONFIG

    def test_config_file_supplies_settings(self, prepared, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"algorithm": "vime", "seed": 3,
                                   "loop": {"batch_size": 64},
                                   "encoder": {"layer_widths": [16, 16],
                                               "batchnorm_momentum": 0.5},
                                   "qmatch": {"tau_teacher": 0.08, "tau_ema": 0.5,
                                              "queue_capacity": 128},
                                   "corruption": {"mode": "zero", "p_student": 0.4}}))
        code = main(["pretrain", "--data", str(prepared), "--out",
                     str(tmp_path / "c.qmc"), "--config", str(cfg), "--dry-run"])
        assert code == EXIT_OK
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["algorithm"] == "vime"
        assert resolved["seed"] == 3
        assert resolved["loop"]["batch_size"] == 64
        assert resolved["encoder"]["layer_widths"] == [16, 16]
        assert resolved["encoder"]["batchnorm_momentum"] == 0.5
        assert resolved["qmatch"] == {"tau_student": 0.1, "tau_teacher": 0.08,
                                      "tau_ema": 0.5, "queue_capacity": 128}
        assert resolved["corruption"] == {"mode": "zero", "p_student": 0.4,
                                          "p_teacher": 0.0}


# Pretrain flags -> the field their error names; None marks the valid control.
PRETRAIN_FLAG_CASES = [
    (["--max-epochs", "0"], "max_epochs"), (["--patience", "-1"], "patience"),
    (["--patience", "0"], "patience"), (["--tau-student", "0"], "tau_student"),
    (["--p-student", "1.5"], "p_student"), (["--queue-size", "0"], "queue_capacity"),
    (["--batch-size", "0"], "batch_size"), (["--batch-size", "-4"], "batch_size"),
    (["--batch-size", "256"], "batch_size"),
    (["--batch-size", "256", "--dry-run"], "batch_size"),
    (["--lr", "0.001"], None),
]


@pytest.mark.parametrize("flags, field", [pytest.param(flags, field, id="=".join(flags))
                                          for flags, field in PRETRAIN_FLAG_CASES])
def test_bad_pretrain_flag_is_config_error(prepared, tmp_path, capsys, flags, field):
    if "--batch-size" not in flags:  # a size the 192 pretext_train rows hold
        flags = flags + ["--batch-size", "64"]
    out = tmp_path / "c.qmc"
    code = main(["pretrain", "--data", str(prepared), "--out", str(out),
                 "--algorithm", "qmatch", "--widths", "32,32"] + flags)
    if field is None:
        assert code == EXIT_OK and out.exists()
        return
    assert code == EXIT_CONFIG
    assert f"config error: {field} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--pretext-lr", "-1"], ["--pretext-lr", "0"], ["--lr", "-1", "--dry-run"],
    ["--lr", "nan"], ["--lr", "inf"], ["--tau-student", "nan"], ["--tau-student", "inf"],
], ids="=".join)
def test_bad_rate_flag_is_config_error(prepared, tmp_path, flags):
    out = tmp_path / "c.qmc"
    code = main(["pretrain", "--data", str(prepared), "--out", str(out),
                 "--algorithm", "qmatch"] + SMALL_TRAIN + flags)
    assert code == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    ("loop", "learning_rate", math.nan), ("loop", "learning_rate", math.inf),
    ("loop", "pretext_learning_rate", math.nan), ("loop", "weight_decay", math.inf),
    ("qmatch", "tau_student", math.nan), ("qmatch", "tau_student", math.inf),
    ("qmatch", "tau_teacher", math.nan), ("qmatch", "tau_ema", math.nan),
    ("extra", "tau", math.inf), ("extra", "alpha_mask", math.nan),
    ("extra", "alpha_recon", math.inf), ("loop", "learning_rate", 10 ** 400),
], ids=lambda v: str(v)[:8])
def test_non_finite_run_config_value_is_config_error(prepared, tmp_path, section, key,
                                                     value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"algorithm": "qmatch", section: {key: value}}))
    code = main(["pretrain", "--data", str(prepared), "--out", str(tmp_path / "c.qmc"),
                 "--config", str(cfg), "--dry-run"] + SMALL_TRAIN)
    assert code == EXIT_CONFIG


# Run-config keys that have a flag twin: key -> (section, flag, flag's value type).
FLAG_TWINS = {
    "batch_size": ("loop", "--batch-size", int),
    "max_epochs": ("loop", "--max-epochs", int),
    "patience": ("loop", "--patience", int),
    "learning_rate": ("loop", "--lr", float),
    "pretext_learning_rate": ("loop", "--pretext-lr", float),
    "tau_student": ("qmatch", "--tau-student", float),
    "queue_capacity": ("qmatch", "--queue-size", int),
    "p_student": ("corruption", "--p-student", float),
    "p_teacher": ("corruption", "--p-teacher", float),
    "layer_widths": ("encoder", "--widths", list),
}
JSON_VALUES = st.one_of(st.integers(-2, 300), st.integers(), st.floats(),
                        st.booleans(), st.text(max_size=6), st.none(),
                        st.lists(st.integers(-1, 64), max_size=3))


def flag_text(kind, value) -> str | None:
    """`value` as the text of a flag of type `kind`, or None if no flag writes it."""
    if kind is list:
        ok = isinstance(value, list) and all(type(v) is int for v in value)
        return ",".join(map(str, value)) if ok else None
    if type(value) is int or (kind is float and type(value) is float):
        return repr(value)
    return None


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(FLAG_TWINS)), value=JSON_VALUES)
def test_flag_and_run_config_value_get_one_verdict(prepared, tmp_path_factory, key, value):
    section, flag, kind = FLAG_TWINS[key]
    base = [a for pair in zip(SMALL_TRAIN[::2], SMALL_TRAIN[1::2]) if pair[0] != flag
            for a in pair]
    argv = ["pretrain", "--data", str(prepared), "--out", "unused.qmc",
            "--algorithm", "qmatch", "--dry-run"] + base
    cfg = tmp_path_factory.mktemp("twin") / "run.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    verdict = main(argv + ["--config", str(cfg)])
    assert verdict in (EXIT_OK, EXIT_CONFIG)
    text = flag_text(kind, value)
    if text is not None:
        assert main(argv + [f"{flag}={text}"]) == verdict


@settings(max_examples=100, deadline=None)
@given(key=st.sampled_from(["pretext_train", "pretext_val", "down_train", "down_val",
                            "test", "label_fraction", "seed", "colour"]),
       value=JSON_VALUES)
def test_any_split_spec_value_ends_in_exit_0_or_2(corpus, tmp_path_factory, key, value):
    spec = {**json.loads((corpus / "spec.json").read_text()), key: value}
    assert prepare_spec(corpus, tmp_path_factory.mktemp("spec"), spec) in (EXIT_OK,
                                                                            EXIT_CONFIG)


@pytest.mark.parametrize("argv", [
    ["pretrain", "--algorithm", "nope"],
    ["pretrain", "--algorithm", "nope", "--dry-run"],
    ["pretrain", "--algorithm", "supervised"],
    ["pretrain", "--config", "RUN_CONFIG", "--dry-run"],  # {"algorithm": "nope"}
    ["grid", "--algorithm", "nope"],
    ["sweep", "--kind", "queue-size", "--algorithm", "nope"],
    ["grid", "--algorithm", "qmatch", "--seeds", "1,x"],
    ["sweep", "--kind", "queue-size", "--values", "64,abc"],
    ["sweep", "--kind", "corruption-heatmap", "--values", "0.1",
     "--teacher-values", "0.1,abc"],
], ids=" ".join)
def test_bad_command_input_is_config_error(prepared, tmp_path, argv):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"algorithm": "nope"}))
    argv = [str(cfg) if a == "RUN_CONFIG" else a for a in argv]
    out = tmp_path / "out"
    code = main(argv + ["--data", str(prepared), "--out", str(out)] + SMALL_TRAIN)
    assert code == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--max-epochs", "0"], ["--patience", "0"], ["--batch-size", "0"],
    ["--max-epochs", "10", "--patience", "10"],
], ids="=".join)
def test_bad_eval_flag_is_config_error(prepared, checkpoint, tmp_path, flags):
    out = tmp_path / "r.jsonl"
    code = main(["linear-eval", "--checkpoint", str(checkpoint), "--data",
                 str(prepared), "--out", str(out)] + flags)
    assert code == EXIT_CONFIG
    assert not out.exists()


class TestEval:
    def test_patience_checked_against_downstream_budget(self, prepared, checkpoint,
                                                        tmp_path):
        out = tmp_path / "r.jsonl"
        code = main(["linear-eval", "--checkpoint", str(checkpoint), "--data",
                     str(prepared), "--out", str(out), "--max-epochs", "300",
                     "--patience", "250"])
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 1

    def test_linear_eval_appends_jsonl(self, prepared, checkpoint, tmp_path):
        out = tmp_path / "results.jsonl"
        args = ["linear-eval", "--checkpoint", str(checkpoint), "--data",
                str(prepared), "--out", str(out), "--max-epochs", "20",
                "--patience", "5"]
        assert main(args) == EXIT_OK
        assert main(args + ["--seed", "1"]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        results = [TrialResult.from_json(l) for l in lines]
        assert all(r.task == "linear" and r.algorithm == "qmatch" for r in results)
        assert [r.seed for r in results] == [0, 1]

    def test_finetune(self, prepared, checkpoint, tmp_path):
        out = tmp_path / "ft.jsonl"
        code = main(["finetune", "--checkpoint", str(checkpoint), "--data",
                     str(prepared), "--out", str(out), "--max-epochs", "10",
                     "--patience", "3"])
        assert code == EXIT_OK
        r = TrialResult.from_json(out.read_text().splitlines()[0])
        assert r.task == "finetune"

    def test_missing_checkpoint(self, prepared, tmp_path):
        code = main(["linear-eval", "--checkpoint", str(tmp_path / "nope.qmc"),
                     "--data", str(prepared), "--out", str(tmp_path / "r.jsonl")])
        assert code == EXIT_CONFIG

    def test_corrupt_checkpoint_is_runtime_error(self, prepared, tmp_path):
        bad = tmp_path / "bad.qmc"
        bad.write_bytes(b"QMCKPT01" + b"\x00" * 64)
        code = main(["linear-eval", "--checkpoint", str(bad),
                     "--data", str(prepared), "--out", str(tmp_path / "r.jsonl")])
        assert code == 3


@pytest.mark.parametrize("edit", [*BAD_HEADERS.values(), None],
                         ids=[*BAD_HEADERS.keys(), "truncated_inside_array"])
def test_bad_checkpoint_is_runtime_error(prepared, checkpoint, tmp_path, capsys, edit):
    bad = tmp_path / "bad.qmc"
    bad.write_bytes(checkpoint.read_bytes()[:None if edit else -9])
    if edit:
        rewrite_header(bad, edit)
    code = main(["linear-eval", "--checkpoint", str(bad),
                 "--data", str(prepared), "--out", str(tmp_path / "r.jsonl")])
    assert code == 3
    assert "runtime error" in capsys.readouterr().err

@pytest.mark.parametrize("command", ["linear-eval", "finetune"])
def test_checkpoint_for_another_table_width_is_runtime_error(prepared, tmp_path, capsys,
                                                             command):
    state = PreprocessState.from_dict(json.loads((prepared / "preprocess.json").read_text()))
    wide = tmp_path / "wide.qmc"
    config = EncoderConfig(input_dim=state.output_dim + 1, layer_widths=(32, 32))
    save_checkpoint(wide, init_params(config, seed=0))
    code = main([command, "--checkpoint", str(wide), "--data", str(prepared),
                 "--out", str(tmp_path / "r.jsonl")])
    assert code == 3
    assert "input columns" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["linear-eval", "finetune"])
def test_class_absent_from_down_train_is_runtime_error(prepared, checkpoint, tmp_path,
                                                       capsys, command):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("preprocess.json", "meta.json"):
        (data / name).write_bytes((prepared / name).read_bytes())
    ws = Workspace(prepared)
    splits, labels = ws.splits, ws.dataset.labels
    splits["down_train"] = splits["down_train"][labels[splits["down_train"]] != 2]
    save_manifest(splits, data / "splits.json")
    out = tmp_path / "r.jsonl"
    code = main([command, "--checkpoint", str(checkpoint), "--data", str(data),
                 "--out", str(out)])
    assert code == 3
    assert "absent" in capsys.readouterr().err
    assert not out.exists()


class TestGrid:
    def test_singleton_grid(self, prepared, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"loop": {"max_epochs": 6, "patience": 2,
                                            "downstream_max_epochs": 30,
                                            "batch_size": 32}}))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"learning_rate": [0.01]}))
        out = tmp_path / "gridout"
        code = main(["grid", "--data", str(prepared), "--out", str(out),
                     "--algorithm", "supervised", "--seeds", "0,1",
                     "--task", "finetune", "--grid", str(grid),
                     "--config", str(cfg), "--widths", "32,32"])
        assert code == EXIT_OK
        lines = (out / "results.jsonl").read_text().splitlines()
        assert len(lines) == 2
        summary = json.loads((out / "grid.json").read_text())
        assert summary["best_point"] == {"learning_rate": 0.01}
        assert len(summary["points"]) == 1
        assert "best_point" in capsys.readouterr().out


    def test_flags_and_run_config_reach_every_pretrain(self, prepared, tmp_path,
                                                       monkeypatch):
        import qmatch.train as train_mod
        real, calls = train_mod.pretrain, []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(train_mod, "pretrain", spy)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "loop": {"max_epochs": 2, "patience": 1, "downstream_max_epochs": 5,
                     "batch_size": 32},
            "qmatch": {"tau_student": 0.3, "tau_teacher": 0.08, "tau_ema": 0.5},
            "corruption": {"mode": "zero"},
            "extra": {"num_prototypes": 8}}))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"queue_size": [32]}))
        code = main(["grid", "--data", str(prepared), "--out", str(tmp_path / "g"),
                     "--algorithm", "qmatch", "--seeds", "0,1", "--grid", str(grid),
                     "--config", str(cfg), "--widths", "32,32", "--queue-size", "64",
                     "--tau-student", "0.2", "--p-student", "0.5",
                     "--pretext-lr", "0.002"])
        assert code == EXIT_OK
        assert len(calls) == 2  # the grid's one point, then the second seed
        for args, kwargs in calls:
            loop = args[5]
            assert (loop.batch_size, loop.max_epochs, loop.pretext_learning_rate) == \
                (32, 2, 0.002)
            # grid point > flag > run config > dataclass default
            assert kwargs["qm_config"] == QMatchConfig(
                tau_student=0.2, tau_teacher=0.08, tau_ema=0.5, queue_capacity=32)
            assert kwargs["corruption"] == CorruptionConfig(
                mode="zero", p_student=0.5, p_teacher=0.0)
            assert kwargs["extra"] == BaselineConfig(num_prototypes=8)


    @pytest.mark.parametrize("grid", [
        {"queue_size": [64, 0]}, {"corruption_probability": [0.3, 1.5]},
        {"learning_rate": [0.01, -1.0]}, {"lerning_rate": [0.01]},
        {"queue_size": [64, 64.7]}, {"queue_size": [True]}, {"queue_size": ["64"]},
        {"learning_rate": []},
    ], ids=json.dumps)
    def test_bad_grid_is_config_error_before_any_pretrain(self, prepared, tmp_path,
                                                          monkeypatch, capsys, grid):
        import qmatch.train as train_mod
        real, calls = train_mod.pretrain, []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(train_mod, "pretrain", spy)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        out = tmp_path / "g"
        code = main(["grid", "--data", str(prepared), "--out", str(out),
                     "--algorithm", "qmatch", "--grid", str(path)] + SMALL_TRAIN)
        assert code == EXIT_CONFIG
        assert next(iter(grid)) in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_one_pretrain_per_pretext_setting_and_seed(self, prepared, tmp_path,
                                                       monkeypatch):
        calls = spy_on_pretrain(monkeypatch)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"learning_rate": [1e-4, 1e-3, 1e-2, 1e-1]}))
        code = main(["grid", "--data", str(prepared), "--out", str(tmp_path / "g"),
                     "--algorithm", "qmatch", "--seeds", "0,1", "--grid", str(path)]
                    + SMALL_TRAIN)
        assert code == EXIT_OK
        # every point at seed 0 shares one pretrain, then the best point at seed 1
        assert [args[6] for args, _ in calls] == [0, 1]

    def test_supervised_grid_initialises_once_per_seed(self, prepared, tmp_path,
                                                      monkeypatch):
        calls = spy_on_pretrain(monkeypatch, "init_params")
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"pretext_learning_rate": [1e-5, 1e-4, 1e-3],
                                    "learning_rate": [1e-3, 1e-2]}))
        code = main(["grid", "--data", str(prepared), "--out", str(tmp_path / "g"),
                     "--algorithm", "supervised", "--seeds", "0", "--grid", str(path)]
                    + SMALL_TRAIN)
        assert code == EXIT_OK
        # init_params reads the encoder config and the seed, none of a point
        assert len(calls) == 1

    def test_diverging_point_ends_in_its_error_without_warnings(self, prepared, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"pretext_learning_rate": [1e-3, 1e300]}))
        out = tmp_path / "g"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["grid", "--data", str(prepared), "--out", str(out),
                         "--algorithm", "qmatch", "--seeds", "0", "--grid", str(path)]
                        + SMALL_TRAIN)
        assert code == EXIT_OK
        assert [str(w.message) for w in caught] == []
        points = json.loads((out / "grid.json").read_text())["points"]
        assert [p["failed"] for p in points] == [False, True]


class TestSweep:
    def test_queue_size_sweep_rows(self, prepared, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--kind", "queue-size", "--data", str(prepared),
                     "--out", str(out), "--values", "64,128", "--seeds", "0,1"]
                    + SMALL_TRAIN)
        assert code == EXIT_OK
        import csv
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2 sizes x 2 seeds
        assert {r["queue_size"] for r in rows} == {"64", "128"}
        for r in rows:
            assert 0.0 <= float(r["accuracy"]) <= 100.0
            assert "mean_accuracy" in r and "std_accuracy" in r
        # per-cell mean equals the mean of its per-seed rows
        for size in ("64", "128"):
            cell = [r for r in rows if r["queue_size"] == size]
            np.testing.assert_allclose(
                float(cell[0]["mean_accuracy"]),
                np.mean([float(r["accuracy"]) for r in cell]))

    def test_bad_axis_value_is_config_error(self, prepared, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--kind", "queue-size", "--data", str(prepared),
                     "--out", str(out), "--values", "0"] + SMALL_TRAIN)
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_unknown_kind_rejected_by_parser(self, prepared, tmp_path):
        code = main(["sweep", "--kind", "bogus", "--data", str(prepared),
                     "--out", str(tmp_path / "s.csv")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("kind, values", [
        ("label-fraction", "-1"), ("label-fraction", "2"), ("label-fraction", "nan"),
        ("pretext-size", "0"), ("pretext-size", "nan"), ("pretext-size", "1.5"),
        ("queue-size", "nan"), ("queue-size", "64.7"), ("queue-size", "-64"),
        ("corruption-heatmap", "1.5"), ("corruption-heatmap", "nan"),
    ])
    def test_axis_value_meets_its_setting_rule_before_any_pretrain(
            self, prepared, tmp_path, monkeypatch, kind, values):
        calls = spy_on_pretrain(monkeypatch)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--kind", kind, "--data", str(prepared), "--out", str(out),
                     f"--values={values}"] + SMALL_TRAIN)
        assert code == EXIT_CONFIG
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("kind, values, pretrains", [
        ("label-fraction", "0.25,0.5,1.0", 1),  # only down_train changes
        ("pretext-size", "0.05,0.1,1.0", 2),  # the first two both clamp to batch_size
        ("queue-size", "32,64", 2),
        ("corruption-heatmap", "0.0,0.3", 4),
    ])
    def test_one_pretrain_per_pretext_setting_and_seed(self, prepared, tmp_path,
                                                       monkeypatch, kind, values,
                                                       pretrains):
        calls = spy_on_pretrain(monkeypatch)
        code = main(["sweep", "--kind", kind, "--data", str(prepared),
                     "--out", str(tmp_path / "s.csv"), "--values", values,
                     "--seeds", "0,1"] + SMALL_TRAIN)
        assert code == EXIT_OK
        assert len(calls) == pretrains * 2

    def test_run_config_seed_is_the_default_seed(self, prepared, tmp_path, monkeypatch):
        calls = spy_on_pretrain(monkeypatch)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed": 3}))
        out = tmp_path / "s.csv"
        code = main(["sweep", "--kind", "label-fraction", "--data", str(prepared),
                     "--out", str(out), "--values", "0.5", "--config", str(cfg)]
                    + SMALL_TRAIN)
        assert code == EXIT_OK
        import csv
        with out.open(newline="") as fh:
            assert [row["seed"] for row in csv.DictReader(fh)] == ["3"]
        assert [args[6] for args, _ in calls] == [3]


def spy_on_pretrain(monkeypatch, name: str = "pretrain") -> list:
    """Record the (args, kwargs) of every `train.<name>` call from here on."""
    import qmatch.train as train_mod
    real, calls = getattr(train_mod, name), []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(train_mod, name, spy)
    return calls


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _results_digest(path) -> str:
    """Digest of a results.jsonl, each line without its wall_time."""
    lines = [{k: v for k, v in json.loads(line).items() if k != "wall_time"}
             for line in path.read_text().splitlines()]
    return _sha256("\n".join(json.dumps(r, sort_keys=True) for r in lines).encode())


# grid file per (algorithm, task) and the sha256 of grid.json and of results.jsonl
# without wall_time, on the `prepared` fixture with SMALL_TRAIN and seeds 0,1;
# 1e300 rates make a pretrain and a downstream run diverge, so failed points appear
PINNED_GRIDS = {
    ("qmatch", "linear"): (
        {"learning_rate": [0.01, 1e300], "pretext_learning_rate": [1e-3, 1e300]},
        "88104e301d90e52976f94da98c46f21e2659cc02b220c7fb4b4da0c2f5c97f84",
        "53437c8d14e56d1151249690f3171a7149329b1fb83aa08a6dab9971779ee62f"),
    ("qmatch", "finetune"): (
        {"learning_rate": [0.01, 0.001], "queue_size": [32, 64]},
        "76d116dfbe275b78f1e2d2ba9c8b5c48f8540e8bc298968881d7008d94025d60",
        "8aaa1699974193463bd8ca3b2647a798107e7a7d2fc0c63d5a00572e3b7b1547"),
    ("infonce", "linear"): (
        {"tau": [0.1, 0.2], "corruption_probability": [0.3, 0.5]},
        "d2e74d8ef83fec0441d18a4c20123c6a018e6f5d998a554587f71c41c9c4b227",
        "326d3a5ddc516e6a45947d701cf14d29c06b871b5c03f6d5c288278ab6fe8e0c"),
    ("infonce", "finetune"): (
        {"learning_rate": [0.01, 0.001], "tau": [0.1, 0.2]},
        "274e5ac5a6cb6ab81ac0f9849be3acbbfcbb6549b69f27eee6d0f2145f02d3e9",
        "308bdd5cf1089e25422d5ea8b2fa9a5dc26276394a904df1042f6459dc560c34"),
    ("supervised", "linear"): (
        {"learning_rate": [0.01, 0.001]},
        "f5a30f73f5e363663ef733fc109a6e53520c6dafc7c63ac3eb67e7d6d90f4f11",
        "80f950d34808b83bdf68a279957645032eb2601b5e7eb57b96f5ae67709d438b"),
    ("supervised", "finetune"): (
        {"learning_rate": [0.01, 0.001], "pretext_learning_rate": [1e-3, 1e-2]},
        "ad9de7514c49231267458446a7fc6a442cac721f37e2290eefa392bf5fb928c5",
        "47e9fea76a2986a6c889ece71888359c6376bbd685a6c02d23c2af8287181f5c"),
}

# sweep arguments and the sha256 of the CSV, on the same fixture and seeds
PINNED_SWEEPS = [
    (["--kind", "corruption-heatmap", "--algorithm", "qmatch", "--task", "linear",
      "--values", "0.0,0.3", "--teacher-values", "0.0,0.2"],
     "15c97a44e1f3c4015001f06cb72dd975b908cd3cbc8714e8ffc24ef5baa73282"),
    (["--kind", "queue-size", "--algorithm", "qmatch", "--task", "finetune",
      "--values", "32,64"],
     "0f18bfc15b00dd837e0ea0aedec530362c6ec5794926a5a9f988bc1fef1482f3"),
    (["--kind", "label-fraction", "--algorithm", "infonce", "--task", "finetune",
      "--values", "0.5,1.0"],
     "191331b1888befab48d0fcf6826249072541790c220a86d4b70fda112685c84a"),
    (["--kind", "label-fraction", "--algorithm", "supervised", "--task", "linear",
      "--values", "0.5,1.0"],
     "98ecdf2098e8f4b2dcec612f4a54f4045d2b497f884b6adf23f8ebe9cf1c4457"),
    (["--kind", "pretext-size", "--algorithm", "qmatch", "--task", "linear",
      "--values", "0.5,1.0"],
     "29bd50d588aad4157835983bb840396ee2fd72b14aee99b2c5dd3e97bf969049"),
    (["--kind", "pretext-size", "--algorithm", "infonce", "--task", "finetune",
      "--values", "0.5,1.0"],
     "09eca815870f53f52c7d423cf162872f57a936e40dd16ee8adfa5ee25c1e911d"),
]


class TestPinnedOutputs:
    """`grid` and `sweep` reproduce recorded outputs byte for byte (but wall_time)."""

    @pytest.mark.parametrize("algorithm, task", sorted(PINNED_GRIDS),
                             ids=["-".join(case) for case in sorted(PINNED_GRIDS)])
    def test_grid(self, prepared, tmp_path, algorithm, task):
        grid, grid_digest, results_digest = PINNED_GRIDS[algorithm, task]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        out = tmp_path / "g"
        code = main(["grid", "--data", str(prepared), "--out", str(out),
                     "--algorithm", algorithm, "--task", task, "--seeds", "0,1",
                     "--grid", str(path)] + SMALL_TRAIN)
        assert code == EXIT_OK
        assert (_sha256((out / "grid.json").read_bytes()),
                _results_digest(out / "results.jsonl")) == (grid_digest, results_digest)

    @pytest.mark.parametrize("args, digest", PINNED_SWEEPS,
                             ids=[" ".join(a[1:6:2]) for a, _ in PINNED_SWEEPS])
    def test_sweep(self, prepared, tmp_path, args, digest):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--data", str(prepared), "--out", str(out),
                     "--seeds", "0,1"] + args + SMALL_TRAIN)
        assert code == EXIT_OK
        assert _sha256(out.read_bytes()) == digest


# Published linear-classification means used as a synthetic report input: the
# resulting average ranks are known (1.3 for the queue method, 5.3 supervised).
REPORT_MEANS = {
    "supervised": (70.45, 60.39, 78.63, 85.97),
    "tabnet": (51.28, 61.15, 76.46, 24.20),
    "dino": (57.18, 56.87, 76.84, 64.63),
    "imix": (67.90, 60.19, 75.62, 90.66),
    "simclr_lb": (66.87, 64.22, 76.66, 91.01),
    "simsiam": (64.66, 60.11, 78.75, 92.98),
    "vime": (68.42, 64.37, 79.01, 88.02),
    "vicreg": (64.86, 65.81, 76.67, 97.36),
    "simclr": (69.66, 65.42, 76.87, 91.84),
    "qmatch": (70.90, 66.84, 80.33, 97.13),
}
REPORT_DATASETS = ("covtype1pct", "higgs100k", "adult1pct", "mnist1pct")


class TestReport:
    def test_rank_table(self, tmp_path, capsys):
        path = tmp_path / "results.jsonl"
        with open(path, "w") as fh:
            for algo, means in REPORT_MEANS.items():
                for d, m in zip(REPORT_DATASETS, means):
                    fh.write(TrialResult(algo, d, "linear", {}, 0, m, m, 0.0)
                             .to_json() + "\n")
        json_out = tmp_path / "report.json"
        code = main(["report", str(path), "--json", str(json_out)])
        assert code == EXIT_OK
        payload = json.loads(json_out.read_text())
        assert payload["avg_rank"]["qmatch"] == "1.3"
        assert payload["avg_rank"]["supervised"] == "5.3"
        assert payload["ranks"]["qmatch|adult1pct"] == 1
        assert payload["ranks"]["qmatch|mnist1pct"] == 2
        table = capsys.readouterr().out
        assert table.splitlines()[1].strip().startswith("qmatch")

    def test_empty_results_rejected(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert main(["report", str(p)]) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == EXIT_CONFIG

    @pytest.mark.parametrize("line", [
        {"test_accuracy": 150.0}, {"test_accuracy": math.nan}, {"seed": None},
        [1, 2], {"test_accuracy": "50"}, b'{"algorithm": "q\xffmatch"}', b"{",
    ], ids=["accuracy_150", "accuracy_nan", "missing_key", "json_array",
            "string_accuracy", "not_utf8", "bad_json"])
    def test_malformed_line_names_file_and_line(self, tmp_path, capsys, line):
        good = TrialResult("qmatch", "adult1pct", "linear", {}, 0, 60.0, 60.0, 0.0).to_json()
        if isinstance(line, dict):  # the good line with these fields changed (None: dropped)
            fields = {**json.loads(good), **line}
            line = {k: v for k, v in fields.items() if v is not None}
        if not isinstance(line, bytes):
            line = json.dumps(line).encode()
        path = tmp_path / "results.jsonl"
        path.write_bytes(good.encode() + b"\n" + line + b"\n")
        assert main(["report", str(path)]) == EXIT_CONFIG
        assert f"{path}:2: not a trial result" in capsys.readouterr().err

    def test_directory_rejected(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == EXIT_CONFIG
        assert f"{tmp_path}: is a directory" in capsys.readouterr().err
