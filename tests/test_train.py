import math
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import qmatch
from qmatch.augment import CorruptionConfig
from qmatch.baselines import BaselineConfig
from qmatch.data import SplitSpec, apply_preprocess, fit_preprocess, make_splits
from qmatch.distill import QMatchConfig, queue_init, training_step
from qmatch.model import (CHECKPOINT_VERSION, ConfigError, EmaParams, EncoderConfig,
                          ModelParams, init_params)
from qmatch.tensor import UPDATE_BLOCK, Tensor, backward
from qmatch.train import (
    PRETEXT_ALGORITHMS,
    AdamW,
    Cell,
    TrainLoopConfig,
    TrainingError,
    TrialResult,
    _batches,
    _early_stopped,
    _point_configs,
    aggregate,
    finetune,
    format_rank,
    grid_search,
    linear_eval,
    pretrain,
    run_cells,
)
from tests.conftest import make_fixture_dataset

SMALL_ENCODER = dict(layer_widths=(32, 32), maxout_k=4, projector_dim=16)
SMALL_LOOP = dict(batch_size=32, max_epochs=3, downstream_max_epochs=40,
                  patience=2, learning_rate=1e-2, pretext_learning_rate=1e-3)


def reference_adamw_step(p, g, m, v, t, lr, wd, decayed,
                         b1=0.9, b2=0.999, eps=1e-8):
    """The out-of-place AdamW update the in-place optimizer must match bitwise."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mhat = m / (1.0 - b1 ** t)
    vhat = v / (1.0 - b2 ** t)
    p = p - lr * mhat / (np.sqrt(vhat) + eps)
    if wd and decayed:
        p = p - lr * wd * p
    return p, m, v


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


@pytest.fixture(scope="module")
def setup():
    ds = make_fixture_dataset(n=600, seed=0)
    splits = make_splits(ds, SplitSpec(pretext_train=256, pretext_val=32,
                                       down_train=90, down_val=90, test=120, seed=0))
    state = fit_preprocess(ds, rows=splits["pretext_train"])
    config = EncoderConfig(input_dim=state.output_dim, **SMALL_ENCODER)
    return ds, splits, state, config


class TestAdamW:
    def test_none_grad_leaves_param_untouched(self):
        p = Tensor(np.ones(3), requires_grad=True)
        opt = AdamW({"w": p}, lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, 1.0)

    def test_descends_quadratic(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = AdamW({"w": p}, lr=0.05)
        for _ in range(400):
            p.grad = 2.0 * p.data
            opt.step()
        assert np.abs(p.data).max() < 1e-3

    def test_matches_reference_adam_trace(self, rng):
        # ten steps against a hand-rolled Adam with the published update rule
        w0 = rng.normal(size=(4, 3))
        grads = [rng.normal(size=(4, 3)) for _ in range(10)]
        p = Tensor(w0.copy(), requires_grad=True)
        opt = AdamW({"w": p}, lr=1e-2)

        ref = w0.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t, g in enumerate(grads, start=1):
            p.grad = g.copy()
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref -= 1e-2 * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(p.data, ref, atol=1e-12)

    def test_decoupled_decay_shrinks_weights_only(self):
        w = Tensor(np.full(3, 2.0), requires_grad=True)
        b = Tensor(np.full(3, 2.0), requires_grad=True)
        bn = Tensor(np.full(3, 2.0), requires_grad=True)
        opt = AdamW({"layer0.weight": w, "layer0.bias": b, "layer0.bn_scale": bn},
                    lr=0.1, weight_decay=0.5)
        for t in (w, b, bn):
            t.grad = np.zeros(3)
        opt.step()
        np.testing.assert_allclose(w.data, 2.0 * (1 - 0.1 * 0.5))
        np.testing.assert_array_equal(b.data, 2.0)
        np.testing.assert_array_equal(bn.data, 2.0)

    def test_zero_decay_is_plain_adam(self, rng):
        w0 = rng.normal(size=5)
        p1 = Tensor(w0.copy(), requires_grad=True)
        p2 = Tensor(w0.copy(), requires_grad=True)
        o1 = AdamW({"w": p1}, lr=1e-3, weight_decay=0.0)
        o2 = AdamW({"w": p2}, lr=1e-3)
        for _ in range(5):
            g = rng.normal(size=5)
            p1.grad = g.copy()
            p2.grad = g.copy()
            o1.step()
            o2.step()
        np.testing.assert_array_equal(p1.data, p2.data)

    def test_non_finite_gradient_raises(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = AdamW({"w": p}, lr=0.1)
        p.grad = np.array([1.0, np.nan])
        with pytest.raises(TrainingError, match="non-finite"):
            opt.step()

    def test_state_arrays(self):
        p = Tensor(np.ones(2), requires_grad=True)
        opt = AdamW({"w": p}, lr=0.1)
        p.grad = np.ones(2)
        opt.step()
        arrays = opt.state_arrays()
        assert set(arrays) == {"step_count", "m/w", "v/w"}
        assert arrays["step_count"][0] == 1.0
        # a snapshot must not follow the live moments, which change in place
        before = {k: a.copy() for k, a in arrays.items()}
        opt.step()
        for k, a in arrays.items():
            np.testing.assert_array_equal(a, before[k])
        assert not np.array_equal(opt.state_arrays()["m/w"], before["m/w"])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_bit_identical_to_out_of_place_formulas(self, dtype, weight_decay):
        rng = np.random.default_rng(21)
        shapes = {"layer0.weight": (UPDATE_BLOCK // 3,),      # under one block
                  "layer0.bias": (UPDATE_BLOCK,),             # exactly one block
                  "layer0.bn_scale": (3, UPDATE_BLOCK + 5),   # several, ragged tail
                  "layer1.weight": (5, 7)}
        params = {k: Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                  for k, s in shapes.items()}
        ref = {k: (t.data.copy(), np.zeros_like(t.data), np.zeros_like(t.data))
               for k, t in params.items()}
        opt = AdamW(params, lr=1e-2, weight_decay=weight_decay)
        for step in range(1, 5):
            for k, t in params.items():
                t.grad = rng.normal(size=t.shape).astype(dtype)
                p, m, v = ref[k]
                ref[k] = reference_adamw_step(p, t.grad, m, v, step, 1e-2, weight_decay,
                                              decayed=k.endswith(".weight"))
            opt.step()
            for k, t in params.items():
                p, m, v = ref[k]
                assert_same_bits(t.data, p)
                assert_same_bits(opt.m[k], m)
                assert_same_bits(opt.v[k], v)

    def test_non_finite_gradient_leaves_parameter_and_moments_untouched(self, rng):
        p = Tensor(rng.normal(size=3 * UPDATE_BLOCK + 1), requires_grad=True)
        opt = AdamW({"w": p}, lr=0.1, weight_decay=0.1)
        p.grad = rng.normal(size=p.shape)
        opt.step()
        before = (p.data.copy(), opt.m["w"].copy(), opt.v["w"].copy())
        p.grad = rng.normal(size=p.shape)
        p.grad[-1] = np.inf  # in the last block: earlier blocks must not move either
        with pytest.raises(TrainingError, match="non-finite"):
            opt.step()
        for now, then in zip((p.data, opt.m["w"], opt.v["w"]), before):
            assert_same_bits(now, then)

    def test_step_allocates_no_full_size_temporaries(self, rng):
        params = {"layer0.weight": Tensor(rng.normal(size=(2000, 2000)), requires_grad=True),
                  "layer0.bias": Tensor(np.zeros(2000), requires_grad=True)}
        opt = AdamW(params, lr=1e-3, weight_decay=0.1)
        for t in params.values():
            t.grad = rng.normal(size=t.shape)
        opt.step()  # warm-up
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * sum(t.data.nbytes for t in params.values())

    def test_no_gradient_outlives_its_update(self, rng):
        n = 400
        params = {f"layer{i}.weight": Tensor(rng.normal(size=(n, n)) / np.sqrt(n),
                                             requires_grad=True) for i in range(6)}
        opt = AdamW(params, lr=1e-3, weight_decay=0.1)
        x = Tensor(rng.normal(size=(2, n)))

        def loss():
            h = x
            for w in params.values():
                h = h @ w
            return (h * h).sum()

        opt.step(loss())  # warm-up
        graph = loss()
        tracemalloc.start()
        try:
            opt.step(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # backward-then-step holds all six weight gradients at once
        assert peak < 2 * params["layer0.weight"].data.nbytes
        assert all(t.grad is None for t in params.values())

    def test_non_contiguous_parameter_rejected(self):
        p = Tensor(np.ones((4, 3)).T, requires_grad=True)
        opt = AdamW({"w": p}, lr=0.1)
        p.grad = np.ones((3, 4))
        with pytest.raises(ValueError, match="contiguous"):
            opt.step()


class TestStepOnLoss:
    """`AdamW.step(loss)` updates each parameter inside backward and frees its
    gradient; it must equal `zero_grad; backward; step()` bit for bit."""

    @pytest.mark.parametrize("algorithm", PRETEXT_ALGORITHMS)
    def test_equals_backward_then_step(self, setup, monkeypatch, algorithm):
        ds, splits, state, config = setup
        loop = TrainLoopConfig(**{**SMALL_LOOP, "max_epochs": 1, "patience": 0})
        run = lambda: pretrain(algorithm, ds, splits, state, config, loop, seed=3,
                               qm_config=QMatchConfig(queue_capacity=64),
                               corruption=CorruptionConfig(p_student=0.3))
        step, grads_held = AdamW.step, []

        def checked(self, loss=None):
            step(self, loss)
            grads_held.append(sum(t.grad is not None for t in self.params.values()))

        monkeypatch.setattr(AdamW, "step", checked)
        got = run()
        assert len(grads_held) == 256 // 32 and not any(grads_held)

        def reference(self, loss=None):
            for t in self.params.values():
                t.zero_grad()
            backward(loss)
            step(self)

        monkeypatch.setattr(AdamW, "step", reference)
        want = run()
        assert got.val_history == want.val_history
        pairs = [(got.params, want.params)] + ([(got.ema.params, want.ema.params)]
                                               if want.ema else [])
        for g, w in pairs:
            for k, t in w.tensors.items():
                assert_same_bits(g.tensors[k].data, t.data)
            for k, v in w.buffers.items():
                assert_same_bits(g.buffers[k], v)
        for k, t in want.heads.items():
            assert_same_bits(got.heads[k].data, t.data)
        if want.queue:
            assert_same_bits(got.queue.storage, want.queue.storage)


class TestEarlyStopped:
    @pytest.mark.parametrize("metrics, patience, mode, best_epoch, epochs_run, writes", [
        ([5, 4, 3], 2, "min", 2, 3, 2),           # the last epoch is the best
        ([5, 4, 6, 3, 7, 8], 5, "min", 3, 6, 3),  # a later epoch ran after the best
        ([5, 6, 7, 8], 2, "min", 0, 3, 1),        # patience ends the run
        ([1, 2, 1], 1, "max", 1, 3, 2),
        ([5], 0, "min", 0, 1, 0),
        ([1.0] * 40, 32, "min", 0, 33, 1),        # the 32nd epoch without a gain stops it
        ([5, 4, 4, 3, 3, 3, 3, 0], 3, "min", 3, 7, 3),  # a gain resets the count
        ([float(e) for e in range(100)], 2, "max", 99, 100, 99),
        ([1, 1, 2], 1, "max", 0, 2, 1),           # an equal metric is no gain
        ([5, math.nan, 4], 2, "min", 2, 3, 1),    # a NaN is no gain either
        ([math.nan, 1, 2], 2, "min", 0, 3, 1),    # but the first epoch always is
    ], ids=["last_is_best", "best_inside", "patience_ends", "max_mode", "one_epoch",
            "exact_patience", "improvement_resets_count", "max_gains_never_stop",
            "equal_metric_is_stale", "nan_is_stale", "first_nan_is_best"])
    def test_copies_only_what_a_later_epoch_would_overwrite(self, monkeypatch, metrics,
                                                           patience, mode, best_epoch,
                                                           epochs_run, writes):
        opened = spy_on_spill_files(monkeypatch)
        written = []

        def spy_write(fh, header, arrays):
            written.append(arrays["epochs_run"].copy())
            return write(fh, header, arrays)

        write = qmatch.train._write_container
        monkeypatch.setattr(qmatch.train, "_write_container", spy_write)
        live = np.zeros(1)

        def run_epoch(epoch):
            live[0] = epoch + 1
            return metrics[epoch]

        def live_arrays():
            return {"format_version": CHECKPOINT_VERSION, "metadata": {"at": live[0]}}, \
                {"epochs_run": live}

        header, best, history = _early_stopped(len(metrics), patience, mode, run_epoch,
                                               live_arrays)
        assert best == best_epoch and history == metrics[:epochs_run]
        # one write per improving epoch that another epoch follows, all into one file
        assert len(written) == writes
        assert len(opened) == min(writes, 1) and all(f.closed for f in opened)
        if best_epoch == epochs_run - 1:
            assert header is None and live[0] == epochs_run
        else:  # the last write, read back into the live array
            assert header["metadata"] == {"at": best_epoch + 1}
            assert live[0] == written[-1][0] == best_epoch + 1

    @pytest.mark.parametrize("algorithm, max_epochs", [("qmatch", 3), ("vime", 1),
                                                       ("tabnet", 3)])
    def test_pretrain_result_holds_no_gradients(self, setup, algorithm, max_epochs):
        ds, splits, state, config = setup
        loop = TrainLoopConfig(**{**SMALL_LOOP, "max_epochs": max_epochs,
                                  "patience": max_epochs - 1})
        res = pretrain(algorithm, ds, splits, state, config, loop, seed=0,
                       qm_config=QMatchConfig(queue_capacity=64),
                       corruption=CorruptionConfig(p_student=0.3))
        assert all(t.grad is None for t in [*res.params.tensors.values(),
                                            *res.heads.values()])

    @pytest.mark.parametrize("epochs", [1, 6])
    def test_finetune_best_state_holds_no_gradients(self, setup, monkeypatch, epochs):
        ds, splits, state, config = setup
        scored = []

        def spy_embed_all(params, x, *args, **kwargs):
            if len(x) == len(splits["test"]):
                scored.append([t.grad is None for t in params.tensors.values()])
            return embed_all(params, x, *args, **kwargs)

        embed_all = qmatch.train._embed_all
        monkeypatch.setattr(qmatch.train, "_embed_all", spy_embed_all)
        loop = TrainLoopConfig(**{**SMALL_LOOP, "downstream_max_epochs": epochs})
        finetune(init_params(config, 0), ds, splits, state, loop, seed=0)
        # the encoder that scores the test split, the best one, holds no gradient
        assert len(scored) == 1 and all(scored[0])

    def test_finetune_drops_its_optimizer_before_scoring_the_test_split(self, setup,
                                                                       monkeypatch):
        ds, splits, state, config = setup
        optimizers, alive = [], []

        class Spied(AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(weakref.ref(self))

        def spy_embed_all(params, x, *args, **kwargs):
            if len(x) == len(splits["test"]):
                alive.append([r() is not None for r in optimizers])
            return embed_all(params, x, *args, **kwargs)

        embed_all = qmatch.train._embed_all
        monkeypatch.setattr(qmatch.train, "AdamW", Spied)
        monkeypatch.setattr(qmatch.train, "_embed_all", spy_embed_all)
        finetune(init_params(config, 0), ds, splits, state, TrainLoopConfig(**SMALL_LOOP),
                 seed=0)
        # its moments (and a trained copy that is not the best) are no longer held
        assert alive == [[False]]

    @pytest.mark.parametrize("fn", [linear_eval, finetune], ids=lambda fn: fn.__name__)
    def test_downstream_copies_the_encoder_only_to_fine_tune(self, setup, monkeypatch, fn):
        ds, splits, state, config = setup
        copies, returned = [], []

        def spy_copy(self, *args, **kwargs):
            copies.append(self)
            return copy(self, *args, **kwargs)

        def spy_early_stopped(*args):
            returned.append(early_stopped(*args))
            return returned[-1]

        def spy_write(fh, header, arrays):
            written.append(list(arrays))
            return write(fh, header, arrays)

        copy, early_stopped = ModelParams.copy, qmatch.train._early_stopped
        written, write = [], qmatch.train._write_container
        monkeypatch.setattr(ModelParams, "copy", spy_copy)
        monkeypatch.setattr(qmatch.train, "_early_stopped", spy_early_stopped)
        monkeypatch.setattr(qmatch.train, "_write_container", spy_write)
        loop = TrainLoopConfig(**{**SMALL_LOOP, "max_epochs": 8, "downstream_max_epochs": 8,
                                  "patience": 7})
        fn(init_params(config, 0), ds, splits, state, loop, seed=0)
        history = returned[0][2]
        # in max mode, an epoch improves when it beats every earlier one
        followed = sum(metric > max(history[:e], default=-np.inf)
                       for e, metric in enumerate(history[:-1]))
        assert followed >= 2
        # a frozen encoder is never copied; fine-tuning copies it once, to train;
        # each best epoch that a later epoch would overwrite goes to the file instead
        assert len(copies) == (0 if fn is linear_eval else 1)
        head = ["heads/classifier.weight", "heads/classifier.bias"]
        encoder = [] if fn is linear_eval else \
            list(qmatch.train._checkpoint_arrays(copies[0])[1])
        assert written == [encoder + head] * followed


class TestEvalForwards:
    def test_record_no_graph(self, setup, monkeypatch):
        ds, splits, state, config = setup
        outputs = []
        for module in (qmatch.train, qmatch.distill):
            def spy(params, x, mode="train", _forward=module.encoder_forward):
                out = _forward(params, x, mode=mode)
                outputs.append((mode, out))
                return out
            monkeypatch.setattr(module, "encoder_forward", spy)
        loop = TrainLoopConfig(**{**SMALL_LOOP, "max_epochs": 1, "patience": 0,
                                  "downstream_max_epochs": 1})
        for algorithm in ("qmatch", "vime"):
            res = pretrain(algorithm, ds, splits, state, config, loop, seed=0,
                           qm_config=QMatchConfig(queue_capacity=64))
        linear_eval(res.params, ds, splits, state, loop, seed=0)
        finetune(res.params, ds, splits, state, loop, seed=0)
        assert {mode for mode, _ in outputs} == {"train", "eval"}
        for mode, out in outputs:
            # train-mode graphs were already cut by backward, but were recorded
            assert out.requires_grad == (mode == "train"), mode
            assert mode == "train" or out._parents == ()


class TestConfigs:
    def test_patience_must_be_smaller(self):
        with pytest.raises(ValueError, match="patience"):
            TrainLoopConfig(max_epochs=10, patience=10)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(max_epochs=0, patience=-1), "max_epochs"),
        (dict(downstream_max_epochs=0), "downstream_max_epochs"),
        (dict(max_epochs=10, patience=-1), "patience"),
    ])
    def test_epoch_budgets_validated(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TrainLoopConfig(**kwargs)

    @pytest.mark.parametrize("max_epochs, patience, valid", [
        (1, 0, True), (2, 1, True), (200, 32, True),
        (2, 0, False), (2, 2, False), (1, 1, False), (5, -1, False),
    ])
    def test_patience_rule(self, max_epochs, patience, valid):
        if valid:
            TrainLoopConfig(max_epochs=max_epochs, patience=patience)
        else:
            with pytest.raises(ValueError, match="patience"):
                TrainLoopConfig(max_epochs=max_epochs, patience=patience)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", 0.0), ("learning_rate", float("nan")),
        ("pretext_learning_rate", -1e-3), ("pretext_learning_rate", float("inf")),
        ("weight_decay", -0.1), ("weight_decay", float("nan")),
        ("weight_decay", float("inf")),
    ])
    def test_rates_are_finite_and_in_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainLoopConfig(**{field: value})
        TrainLoopConfig(weight_decay=0.0)

    def test_trial_result_validates_accuracy(self):
        with pytest.raises(ValueError, match="outside"):
            TrialResult("a", "d", "linear", {}, 0, 101.0, 50.0, 1.0)

    def test_trial_result_json_round_trip(self):
        r = TrialResult("qmatch", "fixture", "linear", {"learning_rate": 1e-3},
                        3, 81.5, 80.0, 12.5)
        assert TrialResult.from_json(r.to_json()) == r

    def test_batches_drop_last(self):
        sizes = [len(b) for b in _batches(100, 32, None, drop_last=True)]
        assert sizes == [32, 32, 32]
        sizes = [len(b) for b in _batches(100, 32, None, drop_last=False)]
        assert sizes == [32, 32, 32, 4]


class TestPretrain:
    @pytest.mark.parametrize("algorithm", ["qmatch", "vime", "tabnet", "infonce",
                                           "mse_align", "dino"])
    def test_runs_and_tracks_best_epoch(self, setup, algorithm):
        ds, splits, state, config = setup
        res = pretrain(algorithm, ds, splits, state, config,
                       TrainLoopConfig(**SMALL_LOOP), seed=0,
                       qm_config=QMatchConfig(queue_capacity=64),
                       corruption=CorruptionConfig(p_student=0.3))
        assert res.best_epoch >= 0
        assert len(res.val_history) <= SMALL_LOOP["max_epochs"]
        assert all(np.isfinite(v) for v in res.val_history)
        assert all(np.isfinite(t.data).all() for t in res.params.tensors.values())
        assert all(np.isfinite(v).all() for v in res.params.buffers.values())

    def test_best_epoch_queue_keeps_its_cursor(self, setup):
        ds, splits, state, config = setup
        qm = QMatchConfig(queue_capacity=100)  # does not divide the 256 rows pushed per epoch
        loop = TrainLoopConfig(**{**SMALL_LOOP, "max_epochs": 4, "patience": 3})
        res = pretrain("qmatch", ds, splits, state, config, loop, seed=3, qm_config=qm)
        assert res.best_epoch < len(res.val_history) - 1
        steps = len(splits["pretext_train"]) // loop.batch_size
        assert res.queue.cursor == ((res.best_epoch + 1) * steps * loop.batch_size) % 100
        # a run cut at the best epoch ends with that epoch's queue, oldest row first
        cut = TrainLoopConfig(**{**SMALL_LOOP, "max_epochs": res.best_epoch + 1,
                                 "patience": res.best_epoch})
        ref = pretrain("qmatch", ds, splits, state, config, cut, seed=3, qm_config=qm)
        assert ref.best_epoch == res.best_epoch
        np.testing.assert_array_equal(res.queue.ordered(), ref.queue.ordered())

    def test_empty_pretext_val_is_config_error(self, setup, monkeypatch):
        ds, splits, state, config = setup
        monkeypatch.setattr(qmatch.train, "init_params", None)  # training would call it
        with pytest.raises(ConfigError, match="pretext_val holds no rows"):
            pretrain("qmatch", ds, {**splits, "pretext_val": splits["pretext_val"][:0]},
                     state, config, TrainLoopConfig(**SMALL_LOOP), seed=0)

    def test_unknown_algorithm(self, setup):
        ds, splits, state, config = setup
        with pytest.raises(ValueError, match="unknown pretext"):
            pretrain("simsiam", ds, splits, state, config,
                     TrainLoopConfig(**SMALL_LOOP), seed=0)

    def test_seed_reproducibility(self, setup):
        ds, splits, state, config = setup
        loop = TrainLoopConfig(**{**SMALL_LOOP, "max_epochs": 2, "patience": 1})
        a = pretrain("qmatch", ds, splits, state, config, loop, seed=7,
                     qm_config=QMatchConfig(queue_capacity=64))
        b = pretrain("qmatch", ds, splits, state, config, loop, seed=7,
                     qm_config=QMatchConfig(queue_capacity=64))
        assert a.val_history == b.val_history
        for name, t in a.params.tensors.items():
            np.testing.assert_array_equal(t.data, b.params.tensors[name].data)


# on the `setup` fixture at seed 0, every algorithm's best epoch precedes its last
SPILL_LOOP = {**SMALL_LOOP, "max_epochs": 5, "patience": 4, "pretext_learning_rate": 1e-4}


def _spill_run(setup, algorithm, max_epochs=SPILL_LOOP["max_epochs"], config=None, **loop):
    ds, splits, state, small = setup
    loop = TrainLoopConfig(**{**SPILL_LOOP, **loop, "max_epochs": max_epochs,
                              "patience": min(SPILL_LOOP["patience"], max_epochs - 1)})
    # a capacity that does not divide the 256 rows pushed per epoch moves the cursor
    return pretrain(algorithm, ds, splits, state, config or small, loop, seed=0,
                    qm_config=QMatchConfig(queue_capacity=100))


def assert_same_params(got: ModelParams, want: ModelParams):
    assert list(got.tensors) == list(want.tensors) and list(got.buffers) == list(want.buffers)
    for k, t in want.tensors.items():
        assert got.tensors[k].requires_grad == t.requires_grad, k
        assert_same_bits(got.tensors[k].data, t.data)
    for k, v in want.buffers.items():
        assert_same_bits(got.buffers[k], v)


def spy_on_spill_files(monkeypatch) -> list:
    """Every file an early-stopped loop opens for its best epoch, from here on."""
    opened, real = [], qmatch.train.tempfile.TemporaryFile

    def spy(*args, **kwargs):
        opened.append(real(*args, **kwargs))
        return opened[-1]
    monkeypatch.setattr(qmatch.train.tempfile, "TemporaryFile", spy)
    return opened


class TestBestEpochSpill:
    """The early-stopped loops keep their best epoch in an unnamed file and read it
    back in place."""

    @pytest.mark.parametrize("algorithm", PRETEXT_ALGORITHMS)
    def test_result_equals_the_run_cut_at_the_best_epoch(self, setup, monkeypatch,
                                                         algorithm):
        opened = spy_on_spill_files(monkeypatch)
        res = _spill_run(setup, algorithm)
        assert res.best_epoch < len(res.val_history) - 1
        assert len(opened) == 1 and opened[0].closed  # one file, overwritten, then closed
        cut = _spill_run(setup, algorithm, max_epochs=res.best_epoch + 1)
        assert cut.val_history == res.val_history[:res.best_epoch + 1]
        assert_same_params(res.params, cut.params)
        assert (res.ema is None) == (cut.ema is None)
        if cut.ema is not None:
            assert res.ema.decay == cut.ema.decay
            assert not any(t.requires_grad for t in cut.ema.params.tensors.values())
            assert_same_params(res.ema.params, cut.ema.params)
        assert (res.queue is None) == (cut.queue is None)
        if cut.queue is not None:
            assert res.queue.cursor == cut.queue.cursor != 0
            assert_same_bits(res.queue.storage, cut.queue.storage)
        assert list(res.heads) == list(cut.heads)
        for k, t in cut.heads.items():
            assert res.heads[k].requires_grad == t.requires_grad
            assert_same_bits(res.heads[k].data, t.data)

    @pytest.mark.parametrize("algorithm", ["qmatch", "vime"])
    def test_keeping_the_best_epoch_allocates_nothing(self, setup, algorithm):
        # wide enough that an in-memory copy of the best state would add 1.2 MB (qmatch:
        # params, EMA, queue) or 0.6 MB (vime: params, heads) to the peak; at this rate
        # the best epoch of both precedes the last
        config = replace(setup[3], layer_widths=(256, 256))
        peaks = {}
        for epochs in (1, SPILL_LOOP["max_epochs"]):
            tracemalloc.start()
            try:
                res = _spill_run(setup, algorithm, max_epochs=epochs, config=config,
                                 pretext_learning_rate=1e-3)
                peaks[epochs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert res.best_epoch < len(res.val_history) - 1
        # the interpreter's own small objects move a peak by some 20 KB between runs
        assert peaks[SPILL_LOOP["max_epochs"]] <= peaks[1] + 64 * 1024

    def test_one_epoch_opens_no_file(self, setup, monkeypatch):
        opened = spy_on_spill_files(monkeypatch)
        _spill_run(setup, "qmatch", max_epochs=1)
        assert opened == []

    def test_failed_run_leaves_no_file(self, setup, monkeypatch, tmp_path):
        monkeypatch.setattr(qmatch.train.tempfile, "tempdir", str(tmp_path))
        opened = spy_on_spill_files(monkeypatch)
        calls = []

        def failing_ema_update(*args):
            calls.append(args)
            if len(calls) > 2 * 256 // SPILL_LOOP["batch_size"]:  # in the third epoch
                raise TrainingError("diverged")
            return ema_update(*args)

        ema_update = qmatch.train.ema_update
        monkeypatch.setattr(qmatch.train, "ema_update", failing_ema_update)
        with pytest.raises(TrainingError, match="diverged"):
            _spill_run(setup, "qmatch")
        assert len(opened) == 1 and opened[0].closed
        assert list(tmp_path.iterdir()) == []

    def test_finetune_equals_the_run_cut_at_the_best_epoch(self, setup, monkeypatch):
        ds, splits, state, config = setup
        params = init_params(config, 0)
        models, heads, loops = [], [], []

        def spy(fn, out):
            def wrapped(*args, **kwargs):
                out.append(fn(*args, **kwargs))
                return out[-1]
            return wrapped

        monkeypatch.setattr(ModelParams, "copy", spy(ModelParams.copy, models))
        monkeypatch.setattr(qmatch.train, "_head", spy(qmatch.train._head, heads))
        monkeypatch.setattr(qmatch.train, "_early_stopped",
                            spy(qmatch.train._early_stopped, loops))
        opened = spy_on_spill_files(monkeypatch)
        res = finetune(params, ds, splits, state, TrainLoopConfig(**SMALL_LOOP), seed=0)
        best, history = loops[0][1:]
        assert best < len(history) - 1
        assert len(opened) == 1 and opened[0].closed  # one file, overwritten, then closed
        cut = TrainLoopConfig(**{**SMALL_LOOP, "downstream_max_epochs": best + 1})
        ref = finetune(params, ds, splits, state, cut, seed=0)
        assert loops[1][2] == history[:best + 1]
        assert (res.val_accuracy, res.test_accuracy) == (ref.val_accuracy, ref.test_accuracy)
        assert_same_params(models[0], models[1])
        assert list(heads[0]) == list(heads[1])
        for k, t in heads[1].items():
            assert_same_bits(heads[0][k].data, t.data)

    @pytest.mark.parametrize("fn", [linear_eval, finetune], ids=lambda fn: fn.__name__)
    def test_failed_downstream_run_leaves_no_file(self, setup, monkeypatch, tmp_path, fn):
        ds, splits, state, config = setup
        monkeypatch.setattr(qmatch.train.tempfile, "tempdir", str(tmp_path))
        opened = spy_on_spill_files(monkeypatch)
        steps = []

        def failing_step(self, *args):
            steps.append(self)
            # in the second epoch (90 rows make 3 batches): the first one is in the file
            if len(steps) > 3:
                raise TrainingError("diverged")
            return step(self, *args)

        step = AdamW.step
        monkeypatch.setattr(AdamW, "step", failing_step)
        with pytest.raises(TrainingError, match="diverged"):
            fn(init_params(config, 0), ds, splits, state, TrainLoopConfig(**SMALL_LOOP),
               seed=0)
        assert len(opened) == 1 and opened[0].closed
        assert list(tmp_path.iterdir()) == []


# val_history (as float.hex) and best epoch of each algorithm on the `setup`
# fixture with SMALL_LOOP, seed 0, queue 64 and p_student 0.3, recorded while
# qmatch stepped through distill.training_step, which the shared update must match
GOLDEN_PRETRAIN = {
    "qmatch": (['0x1.ea63942ce7547p+1', '0x1.ee91ec2c4f748p+1', '0x1.d9cc36ed76754p+1'], 2),
    "vime": (['0x1.5c95356c9de2ap+1', '0x1.1322774860276p+1', '0x1.0a79dc228ce14p+1'], 2),
    "tabnet": (['0x1.f32c7e0f3a960p+0', '0x1.503e17ae21294p+0', '0x1.70a11478243a7p+0'], 1),
    "infonce": (['0x1.0646f72fee6aep+2', '0x1.1ed3cb835f251p+2', '0x1.f0615f8857b46p+1'], 2),
    "mse_align": (['-0x1.b70c22b5ae396p-1', '-0x1.ad439d3e54babp-1',
                   '-0x1.d219a5fdb8c14p-1'], 2),
    "dino": (['0x1.18c6d26f85648p+1', '0x1.176b787536cd8p+2', '0x1.3c8bb5b010d12p+2'], 0),
}
# (val_accuracy, test_accuracy) of the qmatch result above, downstream seed 0
GOLDEN_DOWNSTREAM = {
    "linear_eval": ('0x1.3b8e38e38e38ep+6', '0x1.2555555555555p+6'),
    "finetune": ('0x1.7555555555555p+6', '0x1.78aaaaaaaaaabp+6'),
}


def _golden_pretrain(setup, algorithm):
    ds, splits, state, config = setup
    return pretrain(algorithm, ds, splits, state, config, TrainLoopConfig(**SMALL_LOOP),
                    seed=0, qm_config=QMatchConfig(queue_capacity=64),
                    corruption=CorruptionConfig(p_student=0.3))


class TestGolden:
    """Every algorithm and both downstream tasks reproduce recorded runs bit for bit."""

    @pytest.mark.parametrize("algorithm", sorted(GOLDEN_PRETRAIN))
    def test_pretrain(self, setup, algorithm):
        res = _golden_pretrain(setup, algorithm)
        assert ([v.hex() for v in res.val_history], res.best_epoch) == \
            GOLDEN_PRETRAIN[algorithm]

    def test_downstream(self, setup):
        ds, splits, state, _ = setup
        params = _golden_pretrain(setup, "qmatch").params
        for fn in (linear_eval, finetune):
            r = fn(params, ds, splits, state, TrainLoopConfig(**SMALL_LOOP), seed=0)
            assert (r.val_accuracy.hex(), r.test_accuracy.hex()) == \
                GOLDEN_DOWNSTREAM[fn.__name__]

    def test_qmatch_epoch_equals_training_step_loop(self, setup):
        ds, splits, state, config = setup
        loop = TrainLoopConfig(**{**SMALL_LOOP, "max_epochs": 1, "patience": 0})
        qm, corr = QMatchConfig(queue_capacity=64), CorruptionConfig(p_student=0.3)
        res = pretrain("qmatch", ds, splits, state, config, loop, seed=5,
                       qm_config=qm, corruption=corr)

        # the same epoch by hand, through the public one-step update
        rng = np.random.default_rng(5)
        params = init_params(config, 5)
        ema = EmaParams(params.copy(requires_grad=False), decay=qm.tau_ema)
        queue = queue_init(qm.queue_capacity, config.projector_dim, rng)
        optimizer = AdamW(params.trainable(), lr=loop.pretext_learning_rate)
        train_idx = splits["pretext_train"]
        pool = ds.features[train_idx]
        for b in _batches(len(train_idx), loop.batch_size, rng, drop_last=True):
            training_step(ds.features[train_idx[b]], pool, params, ema, queue, corr, qm,
                          optimizer, rng, preprocess=lambda raw: apply_preprocess(state, raw))

        for got, want in ((res.params, params), (res.ema.params, ema.params)):
            for k, t in want.tensors.items():
                assert_same_bits(got.tensors[k].data, t.data)
            for k, v in want.buffers.items():
                assert_same_bits(got.buffers[k], v)
        assert_same_bits(res.queue.storage, queue.storage)
        assert res.queue.cursor == queue.cursor


def test_bench_instrument_finds_and_restores_every_attribute(monkeypatch):
    """bench/layers.py patches qmatch functions by attribute name; a rename in
    the package must fail here, not only in a traced benchmark run."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import layers
    from tracing import Tracer

    owners = [getattr(qmatch, m) for m in ("augment", "baselines", "data", "distill",
                                           "model", "tensor", "train")]
    owners += [v for m in list(owners) for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("qmatch.")]
    before = [(o, dict(vars(o))) for o in owners]
    tracer = Tracer()
    try:
        layers.instrument(tracer)
        changed = {(o.__name__, k) for o, attrs in before for k, v in attrs.items()
                   if vars(o).get(k) is not v}
        assert ("qmatch.train", "training_step") in changed
        assert ("AdamW", "step") in changed
    finally:
        tracer.restore()
    for o, attrs in before:
        assert set(vars(o)) == set(attrs), o
        for k, v in attrs.items():
            assert vars(o)[k] is v, (o, k)


class TestDownstream:
    def test_linear_eval_freezes_encoder(self, setup):
        ds, splits, state, config = setup
        params = init_params(config, seed=1)
        before = {k: t.data.copy() for k, t in params.tensors.items()}
        linear_eval(params, ds, splits, state, TrainLoopConfig(**SMALL_LOOP), seed=0)
        for k, t in params.tensors.items():
            np.testing.assert_array_equal(t.data, before[k])

    def test_linear_eval_separable_fixture(self, setup):
        ds, splits, state, config = setup
        params = init_params(config, seed=1)
        res = linear_eval(params, ds, splits, state,
                          TrainLoopConfig(**{**SMALL_LOOP, "max_epochs": 20,
                                             "downstream_max_epochs": 120,
                                             "patience": 16}), seed=0)
        # random encoder features still separate the gaussian clusters far
        # better than the 33% chance level
        assert res.test_accuracy > 60.0
        assert res.task == "linear"

    def test_linear_eval_random_labels_near_chance(self, setup):
        ds, splits, state, config = setup
        shuffled = make_fixture_dataset(n=600, seed=0)
        rng = np.random.default_rng(99)
        shuffled.labels = rng.integers(0, 3, size=len(shuffled))
        # reroll until every class appears in down_train
        params = init_params(config, seed=1)
        res = linear_eval(params, shuffled, splits, state,
                          TrainLoopConfig(**SMALL_LOOP), seed=0)
        assert abs(res.test_accuracy - 100.0 / 3.0) < 15.0

    @pytest.mark.parametrize("fn", [linear_eval, finetune], ids=lambda fn: fn.__name__)
    def test_missing_class_raises(self, setup, fn):
        ds, splits, state, config = setup
        broken = make_fixture_dataset(n=600, seed=0)
        broken.labels = broken.labels.copy()
        broken.labels[splits["down_train"]] = 0
        broken.labels[splits["test"][0]] = 2  # keep num_classes at 3
        params = init_params(config, seed=1)
        with pytest.raises(TrainingError, match="absent"):
            fn(params, broken, splits, state, TrainLoopConfig(**SMALL_LOOP), seed=0)

    @pytest.mark.parametrize("split", ["down_train", "down_val", "test"])
    @pytest.mark.parametrize("fn", [linear_eval, finetune], ids=lambda fn: fn.__name__)
    def test_empty_downstream_split_is_config_error(self, setup, monkeypatch, fn, split):
        ds, splits, state, config = setup
        params = init_params(config, seed=1)
        monkeypatch.setattr(qmatch.train, "apply_preprocess", None)  # scoring would call it
        with pytest.raises(ConfigError, match=f"{split} holds no rows"):
            fn(params, ds, {**splits, split: splits[split][:0]}, state,
               TrainLoopConfig(**SMALL_LOOP), seed=0)

    def test_supervised_baseline(self, setup):
        ds, splits, state, config = setup
        [[res]] = run_cells("supervised", "linear", ds, state, config, [_cell(splits)], [0])
        assert res.algorithm == "supervised"
        assert res.task == "finetune"  # a random encoder is always fine-tuned
        assert res.test_accuracy > 50.0

    def test_run_cells_pretext_then_linear(self, setup):
        ds, splits, state, config = setup
        [[res]] = run_cells("qmatch", "linear", ds, state, config,
                            [_cell(splits, {"queue_size": 64})], [0])
        assert res.algorithm == "qmatch"
        assert res.hyperparameters == {"queue_size": 64}
        assert 0.0 <= res.test_accuracy <= 100.0


class TestGridSearch:
    def test_singleton_grid(self, setup):
        ds, splits, state, config = setup
        best, results, outcomes = grid_search(
            "supervised", {"learning_rate": [1e-2]}, "finetune", ds, splits, state,
            config, TrainLoopConfig(**SMALL_LOOP), seeds=[0, 1])
        assert best == {"learning_rate": 1e-2}
        assert len(results) == 2 and len(outcomes) == 1
        assert {r.seed for r in results} == {0, 1}

    @pytest.mark.parametrize("value", [512, 512.0])
    def test_whole_queue_size_becomes_an_int_capacity(self, value):
        _, qm, _, _ = _point_configs({"queue_size": value}, TrainLoopConfig(**SMALL_LOOP),
                                     None, None, None)
        assert qm.queue_capacity == 512 and type(qm.queue_capacity) is int

    def test_failed_points_recorded_not_selected(self, setup, monkeypatch):
        ds, splits, state, config = setup
        import qmatch.train as train_mod
        real = train_mod.finetune

        def flaky(*args, **kwargs):
            if kwargs["hyperparameters"].get("learning_rate") == 123.0:
                raise TrainingError("synthetic divergence")
            return real(*args, **kwargs)

        monkeypatch.setattr(train_mod, "finetune", flaky)
        best, results, outcomes = train_mod.grid_search(
            "supervised", {"learning_rate": [123.0, 1e-2]}, "finetune", ds, splits,
            state, config, TrainLoopConfig(**SMALL_LOOP), seeds=[0])
        assert best == {"learning_rate": 1e-2}
        failed = [o for o in outcomes if o["failed"]]
        assert len(failed) == 1 and "synthetic" in failed[0]["error"]

    def test_all_points_failing_raises(self, setup, monkeypatch):
        ds, splits, state, config = setup
        import qmatch.train as train_mod
        monkeypatch.setattr(train_mod, "finetune",
                            lambda *a, **k: (_ for _ in ()).throw(TrainingError("boom")))
        with pytest.raises(TrainingError, match="every grid point failed"):
            train_mod.grid_search("supervised", {"learning_rate": [1.0, 2.0]},
                                  "finetune", ds, splits, state, config,
                                  TrainLoopConfig(**SMALL_LOOP), seeds=[0])

    def test_enumeration_is_key_order_invariant(self, setup, monkeypatch):
        ds, splits, state, config = setup
        import qmatch.train as train_mod
        seen = []

        def record(*args, algorithm, hyperparameters):
            seen.append(tuple(sorted(hyperparameters.items())))
            return TrialResult(algorithm, "fixture", "linear", hyperparameters, 0,
                               50.0, 50.0, 0.0)

        monkeypatch.setattr(train_mod, "linear_eval", record)
        grid_a = {"learning_rate": [1e-3, 1e-2], "corruption_probability": [0.3]}
        grid_b = dict(reversed(list(grid_a.items())))
        train_mod.grid_search("vime", grid_a, "linear", ds, splits, state, config,
                              TrainLoopConfig(**SMALL_LOOP), seeds=[0])
        first = list(seen)
        seen.clear()
        train_mod.grid_search("vime", grid_b, "linear", ds, splits, state, config,
                              TrainLoopConfig(**SMALL_LOOP), seeds=[0])
        assert seen == first


    @pytest.mark.parametrize("algorithm, grid, tied, winner", [
        ("dino", {"p_teacher": [0.3, 0.1], "num_prototypes": [8, 16]},
         [{"p_teacher": 0.3, "num_prototypes": 8}, {"p_teacher": 0.1, "num_prototypes": 16}],
         {"p_teacher": 0.3, "num_prototypes": 8}),
        ("infonce", {"tau": [0.2, 0.1], "corruption_probability": [0.1, 0.5]},
         [{"tau": 0.2, "corruption_probability": 0.1},
          {"tau": 0.1, "corruption_probability": 0.5}],
         {"tau": 0.1, "corruption_probability": 0.5}),
    ], ids=["num_prototypes_before_p_teacher", "tau_before_corruption_probability"])
    def test_ties_go_to_the_first_differing_key_in_grid_keys_order(
            self, monkeypatch, algorithm, grid, tied, winner):
        import qmatch.train as train_mod

        def scored(algorithm, task, dataset, state, config, cells, seeds, failures=()):
            return [[TrialResult(algorithm, "fixture", task, c.hyperparameters, seed,
                                 60.0 if c.hyperparameters in tied else 50.0, 50.0, 0.0)
                     for seed in seeds] for c in cells]

        monkeypatch.setattr(train_mod, "run_cells", scored)
        best, _, outcomes = grid_search(algorithm, grid, "linear", None, {}, None, None,
                                        TrainLoopConfig(**SMALL_LOOP), seeds=[0])
        assert sum(o["result"].val_accuracy == 60.0 for o in outcomes) == 2
        assert best == winner


class TestRunCells:
    @pytest.mark.parametrize("algorithm", PRETEXT_ALGORITHMS)
    def test_pretrain_reads_no_loop_field_left_out_of_the_pretext_key(self, setup,
                                                                      algorithm):
        """Changing any TrainLoopConfig field the key leaves out leaves pretrain's
        params bit-identical, so cells with equal keys can share one pretrain."""
        ds, splits, state, config = setup
        base = _cell(splits, patience=1)

        def params_of(cell):
            res = pretrain(algorithm, ds, cell.splits, state, config, cell.loop, seed=0,
                           qm_config=cell.qm, corruption=cell.corr, extra=cell.extra)
            return {**{k: t.data for k, t in res.params.tensors.items()},
                    **res.params.buffers}

        reference = params_of(base)
        left_out = []
        for field in fields(TrainLoopConfig):
            value = getattr(base.loop, field.name)
            changed = replace(base, loop=replace(base.loop, **{
                field.name: value + 1 if isinstance(value, int) else value * 2}))
            if changed.pretext_key() == base.pretext_key():
                left_out.append(field.name)
                for name, data in params_of(changed).items():
                    assert_same_bits(data, reference[name])
        assert left_out == ["downstream_max_epochs", "learning_rate", "weight_decay"]

    def test_key_holds_every_pretext_setting(self, setup):
        _, splits, _, _ = setup
        base = _cell(splits)
        assert base.pretext_key() == _cell(
            {k: v.copy() for k, v in splits.items()}).pretext_key()
        for changed in (replace(base, qm=QMatchConfig(queue_capacity=32)),
                        replace(base, corr=CorruptionConfig(p_student=0.5)),
                        replace(base, extra=BaselineConfig(tau=0.2)),
                        replace(base, loop=replace(base.loop, pretext_learning_rate=0.1)),
                        replace(base, splits={**splits,
                                              "pretext_train": splits["pretext_train"][1:]}),
                        replace(base, splits={**splits,
                                              "pretext_val": splits["pretext_val"][1:]})):
            assert changed.pretext_key() != base.pretext_key()

    def test_results_in_cell_and_seed_order_with_one_pretrain_per_key_and_seed(
            self, setup, monkeypatch):
        ds, splits, state, config = setup
        import qmatch.train as train_mod
        real, calls = train_mod.pretrain, []

        def spy(*args, **kwargs):
            calls.append(args[5].pretext_learning_rate)
            return real(*args, **kwargs)

        monkeypatch.setattr(train_mod, "pretrain", spy)
        cells = [_cell(splits, {"i": i}, learning_rate=lr, pretext_learning_rate=plr)
                 for i, (plr, lr) in enumerate([(1e-3, 1e-2), (2e-3, 1e-2), (1e-3, 1e-3)])]
        results = run_cells("vime", "linear", ds, state, config, cells, [0, 1])
        assert calls == [1e-3, 1e-3, 2e-3, 2e-3]  # per key, then per seed
        assert [[(r.hyperparameters["i"], r.seed) for r in row] for row in results] == \
            [[(i, 0), (i, 1)] for i in range(3)]
        # a shared pretrain gives each cell what a pretrain of its own would
        alone = run_cells("vime", "linear", ds, state, config, cells[2:], [1])
        assert results[2][1] == replace(alone[0][0], wall_time=results[2][1].wall_time)

    def test_failures_become_results_of_the_cells_they_stop(self, setup, monkeypatch):
        ds, splits, state, config = setup
        import qmatch.train as train_mod

        def diverge(*args, **kwargs):
            raise TrainingError("synthetic divergence")

        monkeypatch.setattr(train_mod, "pretrain", diverge)
        cells = [_cell(splits, {"i": i}, learning_rate=lr) for i, lr in enumerate([1e-2, 1e-3])]
        results = run_cells("qmatch", "linear", ds, state, config, cells, [0, 1],
                            failures=(TrainingError,))
        assert all(isinstance(r, TrainingError) for row in results for r in row)
        with pytest.raises(TrainingError, match="synthetic"):
            run_cells("qmatch", "linear", ds, state, config, cells, [0])


def _cell(splits, hyperparameters=None, **loop) -> Cell:
    """A cell of SMALL_LOOP overridden by `loop`, queue 64 and default configs."""
    return Cell(hyperparameters or {}, TrainLoopConfig(**{**SMALL_LOOP, **loop}),
                QMatchConfig(queue_capacity=64), CorruptionConfig(), BaselineConfig(), splits)


class TestAggregate:
    @staticmethod
    def fake(algorithm, dataset, acc, seed=0):
        return TrialResult(algorithm, dataset, "linear", {}, seed, acc, acc, 0.0)

    def test_mean_and_sample_std(self):
        results = [self.fake("a", "d1", v, i) for i, v in enumerate([80.0, 82.0, 84.0])]
        out = aggregate(results)
        cell = out["stats"][("a", "d1")]
        assert cell["mean"] == 82.0
        np.testing.assert_allclose(cell["std"], np.std([80, 82, 84], ddof=1))
        assert cell["n"] == 3

    def test_single_trial_std_zero(self):
        out = aggregate([self.fake("a", "d1", 80.0)])
        assert out["stats"][("a", "d1")]["std"] == 0.0

    def test_ranks_by_mean_descending(self):
        results = [self.fake("a", "d1", 90.0), self.fake("b", "d1", 80.0),
                   self.fake("a", "d2", 70.0), self.fake("b", "d2", 75.0)]
        out = aggregate(results)
        assert out["ranks"][("a", "d1")] == 1
        assert out["ranks"][("b", "d1")] == 2
        assert out["ranks"][("a", "d2")] == 2
        assert out["avg_rank"]["a"] == 1.5
        assert out["avg_rank"]["b"] == 1.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_format_rank_half_up(self):
        assert format_rank(1.25) == "1.3"
        assert format_rank(5.25) == "5.3"
        assert format_rank(1.0) == "1.0"
        assert format_rank(2.34) == "2.3"
