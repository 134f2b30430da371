import contextlib
import csv
import hashlib
import io
import json
import math
import warnings
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmatch.cli
import qmatch.data
from qmatch.augment import CorruptionConfig
from qmatch.baselines import BaselineConfig
from qmatch.cli import EXIT_CONFIG, EXIT_OK, WORKSPACE_FILES, Workspace, main
from qmatch.data import (ColumnSpec, PreprocessState, load_manifest, preset_split,
                         save_csv, save_manifest)
from qmatch.distill import QMatchConfig
from qmatch.model import EncoderConfig, init_params, load_checkpoint, save_checkpoint
from qmatch.train import TrialResult, pretrain
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

    @pytest.mark.parametrize("flags, quantile", [([], True), (["--no-quantile"], False)],
                             ids=["preset_default", "no_quantile"])
    def test_preset_gives_the_quantile_default(self, corpus, tmp_path, monkeypatch, flags,
                                               quantile):
        monkeypatch.setitem(qmatch.data.PRESETS, "tiny",
                            {"pretext": 200, "down": 60, "test": 60, "quantile": True})
        out = tmp_path / "x"
        code = main(["prepare-data", "--csv", str(corpus / "fixture.csv"),
                     "--schema", str(corpus / "schema.json"), "--preset", "tiny",
                     "--out", str(out)] + flags)
        assert code == EXIT_OK
        assert json.loads((out / "meta.json").read_text())["quantile"] is quantile
        tables = json.loads((out / "preprocess.json").read_text())["quantile_tables"]
        assert bool(tables) is quantile
        assert len(load_manifest(out / "splits.json")["pretext_train"]) == 190

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

    @pytest.mark.parametrize("spec, message", [
        ({"pretext_train": 500, "pretext_val": 50, "down_train": 0, "down_val": 50, "test": 0,
          "label_fraction": 0.5},
         "not enough rows left for the downstream splits: down_train and down_val need 51, "
         "test and the pretext splits leave 50"),
        ({"pretext_train": 500, "pretext_val": 50, "down_train": 60, "down_val": 60,
          "test": 60}, "splits need 730 rows but dataset has 600"),
        ("adult1pct", f"splits need {preset_split('adult1pct').total()} rows but dataset has 600"),
    ], ids=["downstream_short", "table_short", "preset_table_short"])
    def test_split_spec_the_table_cannot_fill_is_config_error_naming_it(
            self, corpus, tmp_path, capsys, spec, message):
        """The 600-row fixture table; the refusal names the spec file or the preset."""
        if isinstance(spec, dict):
            code, named = prepare_spec(corpus, tmp_path, spec), tmp_path / "spec.json"
        else:
            code = main(["prepare-data", "--csv", str(corpus / "fixture.csv"),
                         "--schema", str(corpus / "schema.json"), "--preset", spec,
                         "--out", str(tmp_path / "x")])
            named = f"preset {spec}"
        assert code == EXIT_CONFIG
        assert f"config error: {named}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


    @pytest.mark.parametrize("schema, message", [
        ({"columns": [{"name": "a", "type": "numeric"}, {"name": "a", "type": "numeric"}]},
         "column name 'a' appears more than once"),
        ({"columns": 5}, "expected a \"columns\" list"),
        ({"columns": [{"name": "a", "type": "numeric"}, {"name": "b"}]},
         "expected a \"columns\" list"),
        ({"columns": [{"name": ["a"], "type": "numeric"}, {"name": "b", "type": "numeric"}]},
         "column name ['a'] is not a string"),
        ({"columns": [{"name": "a", "type": "text"}, {"name": "b", "type": "numeric"}]},
         "column 'a': unknown type 'text'"),
        ({"columns": [{"name": "a", "type": "label"}, {"name": "b", "type": "label"}]},
         "schema declares more than one label column"),
    ], ids=["repeated_name", "columns_not_a_list", "column_without_type", "list_name",
            "unknown_type", "two_labels"])
    def test_bad_schema_is_config_error(self, corpus, tmp_path, capsys, schema, message):
        (tmp_path / "t.csv").write_text("a,a\n1,10\n2,20\n3,30\n")
        (tmp_path / "schema.json").write_text(json.dumps(schema))
        code = main(["prepare-data", "--csv", str(tmp_path / "t.csv"),
                     "--schema", str(tmp_path / "schema.json"),
                     "--split-spec", str(corpus / "spec.json"), "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert f"{tmp_path / 'schema.json'}: {message}" in capsys.readouterr().err
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

    def test_checkpoint_keeps_the_queue_and_its_cursor(self, prepared, tmp_path, monkeypatch):
        results = []

        def run(*args, **kwargs):
            results.append(pretrain(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(qmatch.cli, "pretrain", run)
        path = tmp_path / "q.qmc"
        # 192 pretext rows an epoch pushed into 80 slots leave the cursor off 0
        assert main(["pretrain", "--data", str(prepared), "--out", str(path),
                     "--algorithm", "qmatch"] + SMALL_TRAIN + ["--queue-size", "80"]) == EXIT_OK
        queue, ckpt = results[0].queue, load_checkpoint(path)
        assert queue.cursor != 0 and ckpt["metadata"]["queue_cursor"] == queue.cursor
        assert ckpt["queue_storage"].tobytes() == queue.storage.tobytes()

    @pytest.mark.parametrize("algorithm, code", [("qmatch", EXIT_CONFIG), ("vime", EXIT_OK)])
    def test_queue_must_hold_a_batch_only_for_qmatch(self, prepared, tmp_path, algorithm,
                                                     code):
        assert main(["pretrain", "--data", str(prepared), "--out", str(tmp_path / "c.qmc"),
                     "--algorithm", algorithm, "--widths", "32,32", "--batch-size", "64",
                     "--queue-size", "32", "--dry-run"]) == code

    @pytest.mark.parametrize("command", [
        ["pretrain"], ["pretrain", "--dry-run"], ["grid"],
        ["sweep", "--kind", "queue-size", "--values", "64"],
    ], ids=" ".join)
    def test_empty_pretext_val_is_config_error(self, corpus, tmp_path, monkeypatch, capsys,
                                               command):
        spec = {**json.loads((corpus / "spec.json").read_text()), "pretext_val": 0}
        assert prepare_spec(corpus, tmp_path, spec) == EXIT_OK
        calls = spy_on_pretrain(monkeypatch)
        out = tmp_path / "out"
        code = main([command[0], "--data", str(tmp_path / "x"), "--out", str(out),
                     "--algorithm", "qmatch"] + command[1:] + SMALL_TRAIN)
        assert code == EXIT_CONFIG
        assert (f"config error: {tmp_path / 'x' / 'splits.json'}: pretext_val holds no rows"
                in capsys.readouterr().err)
        assert calls == [] and not out.exists()

    def test_a_resolved_config_is_a_run_config_that_resolves_to_itself(self, prepared,
                                                                      tmp_path, capsys):
        """Every field of every RUN_CONFIG_SECTIONS dataclass but the encoder's
        input_dim, which the workspace sets, can be set from a run config: a field
        that no input reaches is a constant."""
        argv = ["pretrain", "--data", str(prepared), "--out", str(tmp_path / "c.qmc"),
                "--dry-run"]
        assert main(argv + ["--algorithm", "qmatch"] + SMALL_TRAIN) == EXIT_OK
        resolved = json.loads(capsys.readouterr().out)
        for name, (cls, *_) in qmatch.cli.RUN_CONFIG_SECTIONS.items():
            assert set(resolved[name]) == {f.name for f in fields(cls)}
        run_config = {**resolved, "encoder": {k: v for k, v in resolved["encoder"].items()
                                              if k != "input_dim"}}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(run_config))
        assert main(argv + ["--config", str(cfg)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == resolved

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
        {"encoder": {"mlp_projector": False}},  # retired: only a checkpoint may hold it
    ], ids=["extra.num_protoypes", "extra.num_prototypes=0", "seeds", "output_dir",
            "encoder.mlp_projector"])
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
    (["--queue-size", "32"], "batch_size"),  # a qmatch batch of 64 must fit in the queue
    (["--queue-size", "32", "--dry-run"], "batch_size"),
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
    ["grid"],  # no algorithm
    ["grid", "--algorithm", "qmatch", "--grid", "RUN_CONFIG"],  # not an object of lists
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

    @pytest.mark.parametrize("task", ["linear-eval", "finetune"])
    def test_only_the_params_outlive_the_load(self, prepared, checkpoint, tmp_path,
                                              monkeypatch, task):
        """The EMA teacher and the queue the checkpoint holds are freed before the
        classifier trains."""
        loaded = []

        def load(*args, **kwargs):
            ckpt = load_checkpoint(*args, **kwargs)
            loaded.extend([weakref.ref(ckpt["ema"]), weakref.ref(ckpt["queue_storage"])])
            return ckpt

        alive = []
        name = "linear_eval" if task == "linear-eval" else "finetune"
        real = getattr(qmatch.cli, name)

        def downstream(params, *args, **kwargs):
            alive.extend(ref() is not None for ref in loaded)
            return real(params, *args, **kwargs)

        monkeypatch.setattr(qmatch.cli, "load_checkpoint", load)
        monkeypatch.setattr(qmatch.cli, name, downstream)
        assert main([task, "--checkpoint", str(checkpoint), "--data", str(prepared),
                     "--out", str(tmp_path / "r.jsonl"), "--max-epochs", "2",
                     "--patience", "1"]) == EXIT_OK
        assert len(loaded) == 2 and alive == [False, False]

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
def test_checkpoint_with_a_float_maxout_is_runtime_error(prepared, checkpoint, tmp_path,
                                                         capsys, command):
    bad = tmp_path / "bad.qmc"
    bad.write_bytes(checkpoint.read_bytes())
    rewrite_header(bad, lambda h: h["config"].update(maxout_k=4.0))
    code = main([command, "--checkpoint", str(bad), "--data", str(prepared),
                 "--out", str(tmp_path / "r.jsonl")])
    assert code == 3
    assert f"{bad}: bad config in header" in capsys.readouterr().err


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


@pytest.mark.parametrize("index", [1.5, -1, 600, True, "3"],
                         ids=["fraction", "negative", "past_the_last_row", "bool", "string"])
def test_bad_split_index_is_config_error(prepared, tmp_path, capsys, index):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("preprocess.json", "meta.json"):
        (data / name).write_bytes((prepared / name).read_bytes())
    manifest = json.loads((prepared / "splits.json").read_text())
    manifest["down_val"][0] = index  # the fixture table has 600 rows
    (data / "splits.json").write_text(json.dumps(manifest))
    code = main(["pretrain", "--data", str(data), "--out", str(tmp_path / "c.qmc"),
                 "--algorithm", "qmatch", "--dry-run"] + SMALL_TRAIN)
    assert code == EXIT_CONFIG
    assert f"{data / 'splits.json'}: split 'down_val'" in capsys.readouterr().err


def edited_workspace(prepared, directory, name, edit):
    """A copy of the `prepared` workspace in `directory` whose file `name` holds
    `edit` of its JSON value."""
    directory.mkdir(exist_ok=True)
    for other in WORKSPACE_FILES:
        (directory / other).write_bytes((prepared / other).read_bytes())
    (directory / name).write_text(json.dumps(edit(json.loads((prepared / name).read_text()))))
    return directory


def _without(key):
    return lambda obj: {k: v for k, v in obj.items() if k != key}


def _with(key, value):
    return lambda obj: {**obj, key: value}


def _first_var_negative(state):
    return {**state, "var": [-1.0] + state["var"][1:]}


def _last_cardinality_dropped(state):
    return {**state, "cardinality": state["cardinality"][:-1]}


def _last_cardinality(value):
    return lambda state: {**state, "cardinality": state["cardinality"][:-1] + [value]}


def _older_format(state):
    """The state as preprocess.json held it before `cardinality` replaced the layout."""
    cards = state["cardinality"]
    starts = [sum(card or 1 for card in cards[:j]) for j in range(len(cards))]
    return {**_without("cardinality")(state), "output_dim": sum(card or 1 for card in cards),
            "num_layout": {str(j): starts[j] for j, card in enumerate(cards) if card is None},
            "cat_layout": {str(j): [starts[j], card] for j, card in enumerate(cards) if card}}


def _last_categorical_widened(state):
    return _last_cardinality(state["cardinality"][-1] + 1)(state)


def _quantile_tables(state, length, features=None):
    """A table of `length` zeros for each of the first `features` numeric features
    (for all of them by default)."""
    numeric = [j for j, card in enumerate(state["cardinality"]) if card is None]
    return {**state, "quantile_tables": {str(j): [0.0] * length for j in numeric[:features]}}


def _quantile_tables_one_short(state):
    return _quantile_tables(state, state["count"] - 1)


def _quantile_table_for_one_feature(state):
    return _quantile_tables(state, state["count"], 1)


@pytest.mark.parametrize("name, edit, message", [
    ("meta.json", _without("csv"), "missing key 'csv'"),
    ("meta.json", _with("name", 5), "name must be str, got 5"),
    ("meta.json", _with("preset", 3), "preset must be str | None"),
    ("splits.json", _without("pretext_val"), "split 'pretext_val' is missing"),
    ("splits.json", _without("test"), "split 'test' is missing"),
    ("splits.json", lambda manifest: [manifest], "a manifest is a JSON object of splits"),
    ("preprocess.json", lambda state: [state], "not a preprocessing state (TypeError"),
    ("preprocess.json", _without("var"), "not a preprocessing state (KeyError: 'var')"),
    ("preprocess.json", _last_cardinality_dropped, "one entry per feature"),
    ("preprocess.json", _last_cardinality(0), "null or an int >= 1, got 0"),
    ("preprocess.json", _last_cardinality("2"), "null or an int >= 1, got '2'"),
    ("preprocess.json", _last_cardinality(2.0), "null or an int >= 1, got 2.0"),
    ("preprocess.json", _first_var_negative, "var >= 0"),
    ("preprocess.json", _with("mean", [0.0]), "one entry per feature"),
    ("preprocess.json", _last_categorical_widened, "categorical vocabularies"),
    ("preprocess.json", _older_format, "not a preprocessing state (KeyError: 'cardinality')"),
    ("preprocess.json", _quantile_tables_one_short, "a table of count (192) values"),
    ("preprocess.json", _quantile_table_for_one_feature, "for every numeric feature, or none"),
], ids=["meta_without_csv", "meta_int_name", "meta_int_preset", "manifest_without_pretext_val",
        "manifest_without_test", "manifest_not_an_object", "preprocess_list",
        "preprocess_without_var", "preprocess_categorical_dropped", "preprocess_cardinality_0",
        "preprocess_cardinality_string", "preprocess_cardinality_float",
        "preprocess_negative_var", "preprocess_one_mean",
        "preprocess_card_off_vocabulary", "preprocess_of_an_older_workspace",
        "preprocess_quantile_table_short", "preprocess_quantile_table_for_one_feature"])
def test_bad_workspace_file_is_config_error_naming_it(prepared, checkpoint, tmp_path, capsys,
                                                      name, edit, message):
    data = edited_workspace(prepared, tmp_path / "data", name, edit)
    out = tmp_path / "out"
    for argv in (["pretrain", "--algorithm", "qmatch", "--dry-run"] + SMALL_TRAIN,
                 ["pretrain", "--algorithm", "qmatch"] + SMALL_TRAIN,
                 ["linear-eval", "--checkpoint", str(checkpoint)]):
        assert main(argv + ["--data", str(data), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {data / name}: " in err and message in err
        assert not out.exists()


@pytest.mark.parametrize("name", WORKSPACE_FILES)
@pytest.mark.parametrize("content", [b'{"csv": ', b"\xff{}"], ids=["cut_json", "not_utf8"])
def test_workspace_file_that_is_no_json_is_config_error_naming_it(prepared, tmp_path, capsys,
                                                                  name, content):
    data = edited_workspace(prepared, tmp_path / "data", name, lambda value: value)
    (data / name).write_bytes(content)
    assert main(["pretrain", "--data", str(data), "--out", str(tmp_path / "c.qmc"),
                 "--algorithm", "qmatch", "--dry-run"] + SMALL_TRAIN) == EXIT_CONFIG
    assert f"config error: {data / name}: not a JSON file" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pretrain", "--data", "DATA", "--out", "c.qmc", "--dry-run", "--config", "BAD"],
    ["grid", "--data", "DATA", "--out", "g", "--algorithm", "qmatch", "--grid", "BAD"],
    ["prepare-data", "--csv", "CSV", "--schema", "BAD", "--preset", "adult1pct", "--out", "x"],
    ["prepare-data", "--csv", "CSV", "--schema", "SCHEMA", "--split-spec", "BAD", "--out", "x"],
], ids=["run_config", "grid", "schema", "split_spec"])
def test_input_file_that_is_not_utf8_is_config_error_naming_it(corpus, prepared, tmp_path,
                                                               capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    paths = {"BAD": bad, "DATA": prepared, "CSV": corpus / "fixture.csv",
             "SCHEMA": corpus / "schema.json"}
    assert main([str(paths.get(a, a)) for a in argv]) == EXIT_CONFIG
    assert f"config error: {bad}: not a JSON file" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pretrain", "--data", "DATA", "--algorithm", "qmatch", "--dry-run", "--config", "DIR"],
    ["grid", "--data", "DATA", "--algorithm", "qmatch", "--grid", "DIR"],
    ["prepare-data", "--csv", "CSV", "--schema", "DIR", "--preset", "adult1pct"],
    ["prepare-data", "--csv", "CSV", "--schema", "SCHEMA", "--split-spec", "DIR"],
    ["prepare-data", "--csv", "DIR", "--schema", "SCHEMA", "--preset", "adult1pct"],
    ["linear-eval", "--data", "DATA", "--checkpoint", "DIR"],
    ["pretrain", "--data", "FILE", "--algorithm", "qmatch"] + SMALL_TRAIN,
], ids=["run_config", "grid", "schema", "split_spec", "csv", "checkpoint", "data"])
def test_input_path_of_the_wrong_kind_is_config_error_naming_it(
        corpus, prepared, tmp_path, monkeypatch, capsys, argv):
    """A directory where an input file belongs, or a file where the workspace
    directory belongs, exits 2 naming the path before any pretrain or checkpoint load."""
    paths = {"DATA": prepared, "CSV": corpus / "fixture.csv", "SCHEMA": corpus / "schema.json",
             "DIR": tmp_path / "dir", "FILE": tmp_path / "file"}
    paths["DIR"].mkdir()
    paths["FILE"].write_text("{}")
    calls = spy_on_cli(monkeypatch, "pretrain", "load_checkpoint")
    pretrains = spy_on_pretrain(monkeypatch)
    out = tmp_path / "out"
    assert main([str(paths.get(a, a)) for a in argv] + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    named = paths["FILE" if "FILE" in argv else "DIR"]
    assert err.startswith("config error: ") and str(named) in err
    assert calls == pretrains == [] and not out.exists()


@pytest.mark.parametrize("case", ["latin1_cell", "field_past_the_size_limit"])
def test_csv_the_cell_parse_cannot_read_is_config_error_naming_it(corpus, tmp_path, capsys,
                                                                  case):
    bad = tmp_path / "bad.csv"
    lines = (corpus / "fixture.csv").read_bytes().splitlines(keepends=True)
    if case == "latin1_cell":
        cells = lines[3].split(b",")
        cells[6] = "café".encode("latin-1")
        message = f"{bad}: not UTF-8 text"
    else:  # a whitespace-only line sends the file to the cell parse
        lines.insert(2, b"   \n")
        cells = lines[3].split(b",")
        cells[0] = b'"' + b"1" * (csv.field_size_limit() + 1) + b'"'
        message = f"{bad}:4: field larger than field limit"
    lines[3] = b",".join(cells)
    bad.write_bytes(b"".join(lines))
    out = tmp_path / "out"
    assert main(["prepare-data", "--csv", str(bad), "--schema", str(corpus / "schema.json"),
                 "--split-spec", str(corpus / "spec.json"), "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["pretrain", "--dry-run"], ["grid"]], ids=" ".join)
def test_emptied_pretext_train_is_config_error_naming_the_manifest(prepared, tmp_path, capsys,
                                                                   command):
    data = edited_workspace(prepared, tmp_path / "data", "splits.json",
                            _with("pretext_train", []))
    out = tmp_path / "out"
    assert main([command[0], "--data", str(data), "--out", str(out), "--algorithm", "infonce"]
                + command[1:] + SMALL_TRAIN) == EXIT_CONFIG
    assert (f"config error: {data / 'splits.json'}: pretext_train holds no rows"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("split", ["down_train", "down_val", "test"])
@pytest.mark.parametrize("command", [
    ["linear-eval"], ["finetune"], ["grid", "--algorithm", "qmatch"],
    ["grid", "--algorithm", "supervised"], ["sweep", "--kind", "queue-size", "--values", "64"],
], ids=" ".join)
def test_emptied_downstream_split_is_config_error_naming_the_manifest(
        prepared, checkpoint, tmp_path, monkeypatch, capsys, split, command):
    data = edited_workspace(prepared, tmp_path / "data", "splits.json", _with(split, []))
    pretrains = spy_on_pretrain(monkeypatch)
    inits = spy_on_pretrain(monkeypatch, "init_params")
    downstreams = spy_on_pretrain(monkeypatch, "_downstream")
    flags = ["--checkpoint", str(checkpoint)] if command[0] in ("linear-eval", "finetune") \
        else SMALL_TRAIN
    out = tmp_path / "out"
    assert main(command + ["--data", str(data), "--out", str(out)] + flags) == EXIT_CONFIG
    assert (f"config error: {data / 'splits.json'}: {split} holds no rows"
            in capsys.readouterr().err)
    assert pretrains == inits == downstreams == [] and not out.exists()


@pytest.mark.parametrize("argv, target, flag", [
    (["pretrain", "--algorithm", "qmatch"] + SMALL_TRAIN, "dir", "--out"),
    (["pretrain", "--algorithm", "qmatch", "--dry-run"] + SMALL_TRAIN, "dir", "--out"),
    (["linear-eval", "--checkpoint", "CKPT"], "dir", "--out"),
    (["finetune", "--checkpoint", "CKPT"], "dir", "--out"),
    (["sweep", "--kind", "queue-size", "--values", "64"] + SMALL_TRAIN, "dir", "--out"),
    (["grid", "--algorithm", "qmatch", "--grid", "GRID"] + SMALL_TRAIN, "file", "--out"),
    (["report", "RESULTS"], "dir", "--json"),
    (["pretrain", "--algorithm", "qmatch"] + SMALL_TRAIN, "under_file", "--out"),
    (["grid", "--algorithm", "qmatch", "--grid", "GRID"] + SMALL_TRAIN, "under_file", "--out"),
], ids=["pretrain", "pretrain_dry_run", "linear_eval", "finetune", "sweep", "grid", "report",
        "pretrain_under_a_file", "grid_under_a_file"])
def test_output_target_of_the_wrong_kind_is_refused_before_any_training(
        prepared, checkpoint, tmp_path, monkeypatch, capsys, argv, target, flag):
    """A file output that is a directory, a directory output that is a file, or
    either under a file, is a config error naming it before anything trains."""
    grid, results = tmp_path / "grid.json", tmp_path / "results.jsonl"
    grid.write_text(json.dumps({"learning_rate": [0.01]}))
    results.write_text(TrialResult("qmatch", "fixture", "linear", {}, 0, 50.0, 50.0, 0.0)
                       .to_json() + "\n")
    taken = out = tmp_path / "taken"
    if target == "dir":
        taken.mkdir()
    else:
        taken.write_text("keep")
    if target == "under_file":
        out = taken / "out"
    pretrains, downstreams = spy_on_pretrain(monkeypatch), spy_on_pretrain(monkeypatch,
                                                                            "_downstream")
    monkeypatch.setattr(qmatch.cli, "pretrain", lambda *a, **k: pretrains.append((a, k)))
    paths = {"CKPT": checkpoint, "GRID": grid, "RESULTS": results}
    argv = [str(paths.get(a, a)) for a in argv] + [flag, str(out)]
    if argv[0] != "report":
        argv += ["--data", str(prepared)]
    assert main(argv) == EXIT_CONFIG
    assert f"config error: {out}: " in capsys.readouterr().err
    assert pretrains == downstreams == []
    if target == "dir":
        assert list(taken.iterdir()) == []
    else:
        assert taken.read_text() == "keep"


def spy_on_cli(monkeypatch, *names) -> list:
    """Record the name of every call of the `qmatch.cli.<name>`s from here on."""
    calls = []
    for name in names:
        def spy(*args, _name=name, _real=getattr(qmatch.cli, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(qmatch.cli, name, spy)
    return calls


@pytest.mark.parametrize("target", ["file", "under_file", "preprocess_dir"])
def test_prepare_data_output_of_the_wrong_kind_is_refused_before_reading(
        corpus, tmp_path, monkeypatch, capsys, target):
    """prepare-data checks its --out directory and the three files it writes there
    before it reads the schema or the CSV."""
    taken = tmp_path / "taken"
    if target == "preprocess_dir":
        out = taken
        (taken / "preprocess.json").mkdir(parents=True)
        named = taken / "preprocess.json"
    else:
        taken.write_text("keep")
        out = named = taken / "out" if target == "under_file" else taken
    calls = spy_on_cli(monkeypatch, "load_schema", "load_csv")
    assert main(["prepare-data", "--csv", str(corpus / "fixture.csv"),
                 "--schema", str(corpus / "schema.json"),
                 "--split-spec", str(corpus / "spec.json"), "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {named}: " in capsys.readouterr().err
    assert calls == []
    if target == "preprocess_dir":
        assert [p.name for p in taken.iterdir()] == ["preprocess.json"]
        assert list(named.iterdir()) == []
    else:
        assert taken.read_text() == "keep"


@pytest.mark.parametrize("argv, message", [
    (["prepare-data", "--seed", "-1"], "argument --seed: seed must be an integer >= 0"),
    (["pretrain", "--seed", "-1"], "argument --seed: seed must be an integer >= 0"),
    (["pretrain", "--seed", "-1", "--dry-run"], "argument --seed: seed must be an integer >= 0"),
    (["pretrain", "--config", "RUN_CONFIG"], "RUN_CONFIG: seed must be an integer >= 0, got -2"),
    (["linear-eval", "--seed", "-3"], "argument --seed: seed must be an integer >= 0"),
    (["grid", "--seeds", "0,-1"], "argument --seeds: seed must be an integer >= 0"),
    (["sweep", "--kind", "queue-size", "--seeds", "-1"],
     "argument --seeds: seed must be an integer >= 0"),
], ids=["prepare_data", "pretrain", "pretrain_dry_run", "run_config", "linear_eval", "grid",
        "sweep"])
def test_negative_seed_is_config_error_before_any_work(
        corpus, prepared, checkpoint, tmp_path, monkeypatch, capsys, argv, message):
    """A seed is an integer >= 0 wherever it enters: a flag, a list flag or a run
    config; a negative one exits 2 before any data, training or checkpoint is read."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": -2}))
    argv = [str(cfg) if a == "RUN_CONFIG" else a for a in argv]
    message = message.replace("RUN_CONFIG", str(cfg))
    inputs = {"prepare-data": ["--csv", str(corpus / "fixture.csv"),
                               "--schema", str(corpus / "schema.json"),
                               "--split-spec", str(corpus / "spec.json")],
              "linear-eval": ["--data", str(prepared), "--checkpoint", str(checkpoint)]}
    flags = inputs.get(argv[0], ["--data", str(prepared), "--algorithm", "qmatch"]
                       + SMALL_TRAIN)
    calls = spy_on_cli(monkeypatch, "load_csv", "pretrain", "load_checkpoint")
    pretrains = spy_on_pretrain(monkeypatch)
    out = tmp_path / "out"
    assert main(argv + flags + ["--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert calls == pretrains == [] and not out.exists()


@pytest.fixture(scope="module")
def unlabeled(corpus, tmp_path_factory):
    """A workspace of the fixture table whose schema declares no label column."""
    root = tmp_path_factory.mktemp("unlabeled")
    ds = make_fixture_dataset(n=600, seed=0)
    ds.labels = None
    save_csv(ds, root / "fixture.csv")
    schema = json.loads((corpus / "schema.json").read_text())
    schema["columns"] = [c for c in schema["columns"] if c["type"] != "label"]
    (root / "schema.json").write_text(json.dumps(schema))
    assert main(["prepare-data", "--csv", str(root / "fixture.csv"),
                 "--schema", str(root / "schema.json"),
                 "--split-spec", str(corpus / "spec.json"),
                 "--out", str(root / "data")]) == EXIT_OK
    return root


@pytest.mark.parametrize("command", [
    ["linear-eval"], ["finetune"], ["grid", "--algorithm", "qmatch"],
    ["grid", "--algorithm", "supervised"], ["sweep", "--kind", "queue-size", "--values", "64"],
], ids=" ".join)
def test_workspace_without_labels_is_refused_before_any_downstream_work(
        unlabeled, checkpoint, tmp_path, monkeypatch, capsys, command):
    """A downstream command needs labels; their absence is a config error naming
    the schema, before any pretrain or checkpoint load."""
    calls = spy_on_cli(monkeypatch, "load_checkpoint")
    pretrains, inits = spy_on_pretrain(monkeypatch), spy_on_pretrain(monkeypatch, "init_params")
    flags = ["--checkpoint", str(checkpoint)] if command[0] in ("linear-eval", "finetune") \
        else SMALL_TRAIN
    out = tmp_path / "out"
    assert main(command + ["--data", str(unlabeled / "data"), "--out", str(out)]
                + flags) == EXIT_CONFIG
    assert (f"config error: {unlabeled / 'schema.json'}: declares no label column"
            in capsys.readouterr().err)
    assert calls == pretrains == inits == [] and not out.exists()


def test_workspace_without_labels_pretrains(unlabeled, tmp_path):
    """Pretraining is self-supervised, so it reads no labels."""
    out = tmp_path / "c.qmc"
    assert main(["pretrain", "--data", str(unlabeled / "data"), "--out", str(out),
                 "--algorithm", "qmatch"] + SMALL_TRAIN) == EXIT_OK
    assert out.exists()


def test_workspace_without_test_rows_pretrains_but_scores_nothing(corpus, tmp_path, capsys):
    spec = {**json.loads((corpus / "spec.json").read_text()), "test": 0}
    assert prepare_spec(corpus, tmp_path, spec) == EXIT_OK
    data, ckpt = tmp_path / "x", tmp_path / "c.qmc"
    assert main(["pretrain", "--data", str(data), "--out", str(ckpt),
                 "--algorithm", "qmatch"] + SMALL_TRAIN) == EXIT_OK
    assert main(["linear-eval", "--data", str(data), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "r.jsonl")]) == EXIT_CONFIG
    assert (f"config error: {data / 'splits.json'}: test holds no rows"
            in capsys.readouterr().err)


def test_meta_without_an_optional_key_still_loads(prepared, tmp_path, capsys):
    """No command reads a workspace's preset, seed or quantile flag."""
    for key in ("preset", "seed", "quantile"):
        data = edited_workspace(prepared, tmp_path / key, "meta.json", _without(key))
        assert main(["pretrain", "--data", str(data), "--out", str(tmp_path / "c.qmc"),
                     "--algorithm", "qmatch", "--dry-run"] + SMALL_TRAIN) == EXIT_OK
    assert capsys.readouterr().err == ""


def _json_kind(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4)


def _paths(value, path=()):
    """The path of every value inside a JSON value, its own (the empty path) first."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _paths(inner, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def workspace_edits(draw, prepared):
    """(file name, its edited JSON value): one key dropped, one value swapped for
    a value of another JSON type, or one list emptied."""
    name = draw(st.sampled_from(WORKSPACE_FILES))
    value = json.loads((prepared / name).read_text())
    paths = list(_paths(value))
    lists = [p for p in paths if isinstance(_at(value, p), list)]
    kind = draw(st.sampled_from(["drop", "swap"] + (["empty"] if lists else [])))
    if kind == "drop":
        path = draw(st.sampled_from([p for p in paths if p and isinstance(_at(value, p[:-1]),
                                                                         dict)]))
        del _at(value, path[:-1])[path[-1]]
        return name, value
    if kind == "empty":
        path = draw(st.sampled_from(lists))
        new = []
    else:
        path = draw(st.sampled_from(paths))
        old = _at(value, path)
        new = draw(JSON_TREES.filter(lambda v: _json_kind(v) != _json_kind(old)))
    if not path:
        return name, new
    _at(value, path[:-1])[path[-1]] = new
    return name, value


DRY_RUN = ["pretrain", "--out", "unused.qmc", "--algorithm", "qmatch", "--dry-run"] + SMALL_TRAIN


@pytest.fixture(scope="module")
def dry_run_stdout(prepared):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(DRY_RUN + ["--data", str(prepared)]) == EXIT_OK
    return stdout.getvalue()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_workspace_file_edit_ends_in_the_same_run_or_exit_2_naming_it(
        prepared, dry_run_stdout, tmp_path_factory, data):
    name, value = data.draw(workspace_edits(prepared))
    directory = tmp_path_factory.mktemp("edited")
    edited_workspace(prepared, directory, name, lambda _: value)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(DRY_RUN + ["--data", str(directory)])
    if code == EXIT_OK:
        assert out.getvalue() == dry_run_stdout
        return
    assert code == EXIT_CONFIG
    assert str(directory / name) in err.getvalue()


@pytest.mark.parametrize("command", ["linear-eval", "finetune"])
def test_non_string_algorithm_in_checkpoint_is_runtime_error(prepared, tmp_path, capsys,
                                                             monkeypatch, command):
    state = PreprocessState.from_dict(json.loads((prepared / "preprocess.json").read_text()))
    path = tmp_path / "listed.qmc"
    config = EncoderConfig(input_dim=state.output_dim, layer_widths=(32, 32))
    save_checkpoint(path, init_params(config, seed=0), metadata={"algorithm": ["qmatch"]})
    # refused before any training, not when the result is formed
    monkeypatch.setattr(qmatch.cli, command.replace("-", "_"),
                        lambda *a, **k: pytest.fail("trained"))
    out = tmp_path / "r.jsonl"
    code = main([command, "--checkpoint", str(path), "--data", str(prepared),
                 "--out", str(out)])
    assert code == 3
    assert f"{path}: metadata algorithm must be a string" in capsys.readouterr().err
    assert not out.exists()


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
        {"learning_rate": []}, {"learning_rate": [True]}, {"num_prototypes": [8.0]},
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

    def test_queue_smaller_than_batch_is_config_error_before_any_pretrain(
            self, prepared, tmp_path, monkeypatch, capsys):
        calls = spy_on_pretrain(monkeypatch)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"queue_size": [64, 16]}))  # the batch is 32
        out = tmp_path / "g"
        code = main(["grid", "--data", str(prepared), "--out", str(out),
                     "--algorithm", "qmatch", "--grid", str(path)] + SMALL_TRAIN)
        assert code == EXIT_CONFIG
        assert "exceeds the queue_capacity 16" in capsys.readouterr().err
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

    @pytest.mark.parametrize("algorithm, keys, size", [
        ("supervised", ["learning_rate"], 4),
        ("vime", ["corruption_probability", "learning_rate", "pretext_learning_rate"], 36),
        ("qmatch", ["corruption_probability", "learning_rate", "pretext_learning_rate",
                    "queue_size", "tau_student"], 216),
    ])
    def test_default_grid_sets_only_keys_the_algorithm_reads(self, prepared, tmp_path,
                                                             monkeypatch, algorithm, keys, size):
        import qmatch.train as train_mod
        seen = []

        def scored(algorithm, task, dataset, state, config, cells, seeds, failures=()):
            seen.append([c.hyperparameters for c in cells])
            return [[TrialResult(algorithm, "fixture", task, c.hyperparameters, seed,
                                 50.0, 50.0, 0.0) for seed in seeds] for c in cells]

        monkeypatch.setattr(train_mod, "run_cells", scored)
        out = tmp_path / "g"
        assert main(["grid", "--data", str(prepared), "--out", str(out),
                     "--algorithm", algorithm, "--seeds", "0"] + SMALL_TRAIN) == EXIT_OK
        points = seen[0]
        assert len(points) == size and all(sorted(p) == keys for p in points)
        assert len({json.dumps(p, sort_keys=True) for p in points}) == size
        assert sorted(json.loads((out / "grid.json").read_text())["best_point"]) == keys

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
        ("queue-size", "64,16"),  # 16 cannot take a batch of 32
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

    @pytest.mark.parametrize("files", [1, 2], ids=["one_file", "two_files"])
    def test_mixed_tasks_are_refused_naming_both(self, tmp_path, capsys, files):
        paths = [tmp_path / f"{i}.jsonl" for i in range(2)]
        for path, task, acc in zip(paths, ("linear", "finetune"), (40.0, 46.67)):
            path.write_text(TrialResult("qmatch", "adult1pct", task, {}, 0, acc, acc, 0.0)
                            .to_json() + "\n")
        if files == 1:
            paths[0].write_text(paths[0].read_text() + paths[1].read_text())
        assert main(["report"] + [str(p) for p in paths[:files]]) == EXIT_CONFIG
        assert ("the qmatch results on adult1pct mix the tasks finetune and linear"
                in capsys.readouterr().err)
        for path in paths[1:]:  # one task's results alone still make a table
            assert main(["report", str(path)]) == EXIT_OK

    def test_supervised_grid_beside_linear_eval_makes_one_table(self, prepared, checkpoint,
                                                               tmp_path, capsys):
        # supervised always fine-tunes, even under --task linear, so a linear
        # table's supervised row comes from results tagged finetune
        linear = tmp_path / "qmatch_linear.jsonl"
        assert main(["linear-eval", "--checkpoint", str(checkpoint), "--data", str(prepared),
                     "--out", str(linear), "--max-epochs", "5", "--patience", "2"]) == EXIT_OK
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"learning_rate": [0.01]}))
        out = tmp_path / "supervised"
        assert main(["grid", "--data", str(prepared), "--out", str(out), "--algorithm",
                     "supervised", "--task", "linear", "--seeds", "0", "--grid", str(grid)]
                    + SMALL_TRAIN) == EXIT_OK
        supervised = out / "results.jsonl"
        assert [TrialResult.from_json(l).task
                for l in supervised.read_text().splitlines()] == ["finetune"]
        capsys.readouterr()
        json_out = tmp_path / "report.json"
        assert main(["report", str(linear), str(supervised), "--json", str(json_out)]) == EXIT_OK
        assert sorted(json.loads(json_out.read_text())["avg_rank"]) == ["qmatch", "supervised"]

    def test_empty_results_rejected(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert main(["report", str(p)]) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == EXIT_CONFIG

    @pytest.mark.parametrize("line", [
        {"test_accuracy": 150.0}, {"test_accuracy": math.nan}, {"seed": None},
        [1, 2], {"test_accuracy": "50"}, b'{"algorithm": "q\xffmatch"}', b"{",
        {"algorithm": ["qmatch"]}, {"dataset": 7}, {"val_accuracy": True},
        {"seed": "zero"}, {"hyperparameters": 5}, {"wall_time": "slow"}, {"task": "pretext"},
    ], ids=["accuracy_150", "accuracy_nan", "missing_key", "json_array",
            "string_accuracy", "not_utf8", "bad_json", "list_algorithm", "int_dataset",
            "bool_accuracy", "string_seed", "int_hyperparameters", "string_wall_time",
            "pretext_task"])
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

    def test_json_output_creates_its_directory(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(TrialResult("qmatch", "adult1pct", "linear", {}, 0, 60.0, 60.0, 0.0)
                        .to_json() + "\n")
        json_out = tmp_path / "new" / "t.json"
        assert main(["report", str(path), "--json", str(json_out)]) == EXIT_OK
        assert list(json.loads(json_out.read_text())["avg_rank"]) == ["qmatch"]

    def test_directory_rejected(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == EXIT_CONFIG
        assert f"{tmp_path}: is a directory" in capsys.readouterr().err
