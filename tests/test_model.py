import hashlib
import json
import math
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from qmatch.model import (
    CheckpointError,
    ConfigError,
    EmaParams,
    EncoderConfig,
    ema_update,
    encoder_forward,
    init_params,
    load_checkpoint,
    param_shapes,
    projector_forward,
    save_checkpoint,
)
import qmatch.model
from qmatch.tensor import (UPDATE_BLOCK, ShapeError, Tensor, backward, batch_norm_train,
                           finite_difference_check, no_grad, relu)
from tests.test_tensor import same_bits


def small_config(**kw):
    defaults = dict(input_dim=5, layer_widths=(8, 8), maxout_k=4, projector_dim=3)
    defaults.update(kw)
    return EncoderConfig(**defaults)


class TestConfig:
    def test_embed_dim(self):
        assert small_config().embed_dim == 2

    def test_maxout_must_divide_last_width(self):
        with pytest.raises(ConfigError):
            EncoderConfig(input_dim=5, layer_widths=(8, 9), maxout_k=4)

    def test_projector_dim_must_be_positive(self):
        with pytest.raises(ConfigError, match="projector_dim"):
            small_config(projector_dim=0)

    def test_roundtrip(self):
        cfg = small_config()
        # through JSON, as a checkpoint header holds it: layer_widths comes back a list
        assert EncoderConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg


class TestInit:
    def test_deterministic(self):
        a = init_params(small_config(), seed=7)
        b = init_params(small_config(), seed=7)
        for k in a.tensors:
            np.testing.assert_array_equal(a.tensors[k].data, b.tensors[k].data)

    def test_he_scale(self):
        cfg = EncoderConfig(input_dim=1000, layer_widths=(64, 8), maxout_k=4)
        params = init_params(cfg, seed=0)
        std = params.tensors["layer0.weight"].data.std()
        expected = np.sqrt(2.0 / 1000)
        assert abs(std - expected) / expected < 0.10

    def test_bn_and_bias_defaults(self):
        params = init_params(small_config(), seed=0)
        np.testing.assert_array_equal(params.tensors["layer0.bias"].data, 0.0)
        np.testing.assert_array_equal(params.tensors["layer0.bn_scale"].data, 1.0)
        np.testing.assert_array_equal(params.buffers["layer0.running_mean"], 0.0)
        np.testing.assert_array_equal(params.buffers["layer0.running_var"], 1.0)


class TestForward:
    def test_output_dim(self, rng):
        params = init_params(small_config(), seed=1)
        out = encoder_forward(params, Tensor(rng.normal(size=(6, 5))), mode="train")
        assert out.shape == (6, 2)

    def test_wrong_width_rejected(self, rng):
        params = init_params(small_config(), seed=1)
        with pytest.raises(ShapeError):
            encoder_forward(params, Tensor(rng.normal(size=(6, 4))))

    def test_eval_is_pure(self, rng):
        params = init_params(small_config(), seed=2)
        x = Tensor(rng.normal(size=(4, 5)))
        before = {k: v.copy() for k, v in params.buffers.items()}
        out1 = encoder_forward(params, x, mode="eval")
        out2 = encoder_forward(params, x, mode="eval")
        np.testing.assert_array_equal(out1.data, out2.data)
        for k, v in params.buffers.items():
            np.testing.assert_array_equal(v, before[k])

    def test_train_mode_updates_running_stats(self, rng):
        params = init_params(small_config(), seed=2)
        before = params.buffers["layer0.running_mean"].copy()
        encoder_forward(params, Tensor(rng.normal(size=(32, 5))), mode="train")
        assert not np.array_equal(params.buffers["layer0.running_mean"], before)

    def test_train_batchnorm_standardizes(self, rng):
        # pre-activation stats after batch norm: mean 0, var 1 per feature
        from qmatch.tensor import batch_norm_train
        x = Tensor(rng.normal(2.0, 3.0, size=(64, 4)))
        out, _, _ = batch_norm_train(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=0.0)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.data.var(axis=0), 1.0, atol=1e-6)

    @pytest.mark.parametrize("rows", [1, 9])
    @pytest.mark.parametrize("config", [
        small_config(), small_config(layer_widths=(16, 12, 8), maxout_k=2)],
        ids=["small", "three_layers"])
    def test_inference_equals_taped_eval(self, rng, config, rows):
        params = init_params(config, seed=4)
        for _ in range(3):  # running statistics away from their (0, 1) start
            encoder_forward(params, Tensor(rng.normal(1.0, 2.0, size=(16, 5))), mode="train")
        x = rng.normal(size=(rows, 5))
        x_before = x.copy()
        buffers = {k: v.copy() for k, v in params.buffers.items()}
        taped = encoder_forward(params, Tensor(x, requires_grad=True), mode="eval")
        assert taped._parents  # a gradient can flow, so the graph is recorded

        with no_grad():
            inside_no_grad = encoder_forward(params, Tensor(x), mode="eval")
        frozen = encoder_forward(params.copy(requires_grad=False), Tensor(x), mode="eval")
        for out in (inside_no_grad, frozen):
            assert same_bits(out.data, taped.data)
            assert out._parents == () and out._backward is None and not out.requires_grad
        assert same_bits(x, x_before)
        for k, v in params.buffers.items():
            assert same_bits(v, buffers[k])

    def test_inference_allocates_only_products_and_masks(self, rng):
        """Under no_grad, an eval forward holds at most a layer's input, its
        product and the ReLU mask at once: bias, batch norm and ReLU write
        into the product."""
        config = EncoderConfig(input_dim=64, layer_widths=(256, 256, 512), maxout_k=4)
        params = init_params(config, seed=8)
        x = Tensor(rng.normal(size=(512, 64)))
        widths = (0,) + config.layer_widths  # x itself is allocated before tracing
        bound = max(len(x.data) * (8 * w_in + 8 * w + w)
                    for w_in, w in zip(widths, widths[1:]))
        tracemalloc.start()
        try:
            with no_grad():
                encoder_forward(params, x, mode="eval")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_in_place_bias_and_relu_match_out_of_place_ops(self, rng, monkeypatch, mode):
        config = small_config(layer_widths=(16, 12, 8), maxout_k=2)
        x, g = rng.normal(size=(9, 5)), rng.normal(size=(9, 4))

        def run():
            params = init_params(config, seed=5)
            out = encoder_forward(params, Tensor(x), mode=mode)
            data = out.data.copy()
            backward((out * Tensor(g)).sum())
            return data, params

        got, got_params = run()
        monkeypatch.setattr(qmatch.model, "add", lambda a, b, in_place: a + b)
        monkeypatch.setattr(qmatch.model, "relu", lambda a, in_place: relu(a))
        # and batch norm out of its input's buffer
        monkeypatch.setattr(qmatch.model, "batch_norm_train",
                            lambda h, gamma, beta, in_place: batch_norm_train(h, gamma, beta))
        want, want_params = run()
        assert same_bits(got, want)
        for k, t in want_params.tensors.items():
            assert same_bits(got_params.tensors[k].grad, t.grad), k
        for k, v in want_params.buffers.items():
            assert same_bits(got_params.buffers[k], v), k

    def test_encoder_gradient_matches_finite_differences(self, rng):
        params = init_params(small_config(), seed=3)
        x = Tensor(rng.normal(size=(6, 5)))
        tensors = list(params.tensors.values())

        def f():
            h = encoder_forward(params, x, mode="eval")
            return projector_forward(params, h).sum()

        assert finite_difference_check(f, tensors) <= 1e-4


class TestProjector:
    def test_zero_weight_gives_bias(self, rng):
        params = init_params(small_config(), seed=4)
        params.tensors["projector.weight"].data[...] = 0.0
        params.tensors["projector.bias"].data[...] = [1.0, 2.0, 3.0]
        h = Tensor(rng.normal(size=(4, 2)))
        out = projector_forward(params, h)
        np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_identity_projector(self):
        cfg = small_config(projector_dim=2)
        params = init_params(cfg, seed=5)
        params.tensors["projector.weight"].data[...] = np.eye(2)
        params.tensors["projector.bias"].data[...] = 0.0
        h = np.random.default_rng(0).normal(size=(3, 2))
        np.testing.assert_array_equal(projector_forward(params, Tensor(h)).data, h)

    def test_gradient(self, rng):
        params = init_params(small_config(), seed=6)
        h = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        err = finite_difference_check(
            lambda: projector_forward(params, h).sum(),
            [h, params.tensors["projector.weight"], params.tensors["projector.bias"]])
        assert err <= 1e-6


class TestEma:
    def test_basic_decay(self):
        params = init_params(small_config(), seed=8)
        ema = EmaParams(params.copy(), decay=0.9)
        ema.params.tensors["projector.bias"].data[...] = 1.0
        params.tensors["projector.bias"].data[...] = 0.0
        ema_update(ema, params)
        np.testing.assert_allclose(ema.params.tensors["projector.bias"].data, 0.9)

    def test_zero_decay_copies(self):
        params = init_params(small_config(), seed=9)
        ema = EmaParams(init_params(small_config(), seed=10), decay=0.0)
        ema_update(ema, params)
        for k in params.tensors:
            np.testing.assert_array_equal(ema.params.tensors[k].data,
                                          params.tensors[k].data)

    def test_geometric_convergence(self):
        params = init_params(small_config(), seed=11)
        ema = EmaParams(params.copy(), decay=0.9)
        ema.params.tensors["projector.bias"].data[...] = 1.0
        params.tensors["projector.bias"].data[...] = 0.0
        gaps = []
        for _ in range(5):
            ema_update(ema, params)
            gaps.append(abs(ema.params.tensors["projector.bias"].data[0]))
        for a, b in zip(gaps, gaps[1:]):
            np.testing.assert_allclose(b / a, 0.9, rtol=1e-10)

    def test_never_mutates_student(self):
        params = init_params(small_config(), seed=12)
        snapshot = {k: t.data.copy() for k, t in params.tensors.items()}
        ema = EmaParams(init_params(small_config(), seed=13), decay=0.5)
        ema_update(ema, params)
        for k, t in params.tensors.items():
            np.testing.assert_array_equal(t.data, snapshot[k])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_and_bit_identical_to_out_of_place_formula(self, dtype):
        params = init_params(small_config(layer_widths=(8, UPDATE_BLOCK // 4 + 12)), seed=15)
        ema = EmaParams(init_params(params.config, seed=16), decay=0.9)
        for group in (params, ema.params):
            for t in group.tensors.values():
                t.data = t.data.astype(dtype)
        arrays = {k: t.data for k, t in ema.params.tensors.items()}
        expected = {k: 0.9 * t.data + (1.0 - 0.9) * params.tensors[k].data
                    for k, t in ema.params.tensors.items()}
        ema_update(ema, params)
        for k, t in ema.params.tensors.items():
            assert t.data is arrays[k]
            assert t.data.dtype == dtype
            np.testing.assert_array_equal(t.data.view(np.uint8), expected[k].view(np.uint8))

    def test_allocates_at_most_one_full_size_temporary(self):
        params = init_params(small_config(input_dim=1000, layer_widths=(1000, 400)), seed=17)
        ema = EmaParams(init_params(params.config, seed=18), decay=0.9)
        largest = max(t.data.nbytes for t in params.tensors.values())
        tracemalloc.start()
        try:
            ema_update(ema, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * largest

    def test_running_stats_copied_not_averaged(self, rng):
        params = init_params(small_config(), seed=14)
        params.buffers["layer0.running_mean"][...] = 5.0
        ema = EmaParams(params.copy(), decay=0.9)
        ema.params.buffers["layer0.running_mean"][...] = -5.0
        ema_update(ema, params)
        np.testing.assert_array_equal(ema.params.buffers["layer0.running_mean"], 5.0)


def rewrite_header(path, edit):
    """Apply `edit` to a checkpoint's JSON header in place; the payload is kept."""
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + hlen])
    edit(header)
    blob = json.dumps(header).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + hlen:])


def _set(key, value, entry=0):
    return lambda h: h["arrays"][entry].update({key: value})


def _entry(header, name):
    return next(e for e in header["arrays"] if e["name"] == name)


def _shrink_queue(header):
    _entry(header, "queue/storage")["shape"][0] -= 1


def save_like_a_qmatch_run(path, seed=19):
    """A checkpoint holding what `qmatch pretrain` writes: params, EMA, queue
    and metadata."""
    params = init_params(small_config(), seed=seed)
    save_checkpoint(path, params, ema=EmaParams(params.copy(requires_grad=False), decay=0.9),
                    metadata={"algorithm": "qmatch", "seed": seed, "queue_cursor": 3},
                    queue_storage=np.eye(8, 3))


# header edits that each make a checkpoint holding EMA arrays and a queue unreadable
BAD_HEADERS = {
    "config_missing": lambda h: h.pop("config"),
    "config_unknown_key": lambda h: h["config"].update(colour="red"),
    "config_not_an_object": lambda h: h.update(config=[1, 2]),
    "config_maxout_zero": lambda h: h["config"].update(maxout_k=0),
    "shape_disagrees_with_nbytes": lambda h: h["arrays"][0]["shape"].append(2),
    "object_dtype": _set("dtype", "object"),
    "big_endian_dtype": _set("dtype", ">f8"),
    "float16_dtype": _set("dtype", "float16"),
    # same item size, so the payload still fits: the float64 bytes would load as integers
    "weight_relabeled_int64": lambda h: _entry(h, "params/layer0.weight").update(dtype="int64"),
    "running_var_relabeled_int64": lambda h: _entry(h, "buffers/layer0.running_var").update(
        dtype="int64"),
    "arrays_not_a_list": lambda h: h.update(arrays={"params/layer0.weight": 0}),
    "entry_not_an_object": lambda h: h["arrays"].append(3),
    "duplicate_name": lambda h: h["arrays"].append(dict(h["arrays"][0])),
    "dtype_a_list": _set("dtype", ["float64"]),
    "dtype_an_object": _set("dtype", {"float64": 1}),
    # the arrays lie back to back and fill the payload exactly
    "bytes_after_the_last_array": lambda h: h["arrays"].pop(),
    "queue_shape_shrunk": _shrink_queue,
    "queue_renamed": lambda h: _entry(h, "queue/storage").update(name="queue/other"),
    "format_version_true": lambda h: h.update(format_version=True),
    "metadata_not_an_object": lambda h: h.update(metadata=["seed"]),
    # ema_decay follows QMatchConfig.tau_ema's rule: a number in [0, 1)
    "ema_decay_a_string": lambda h: h.update(ema_decay="x"),
    "ema_decay_negative": lambda h: h.update(ema_decay=-3.0),
    "ema_decay_one": lambda h: h.update(ema_decay=1.0),
    "ema_decay_null": lambda h: h.update(ema_decay=None),
    "ema_decay_true": lambda h: h.update(ema_decay=True),
    "ema_decay_nan": lambda h: h.update(ema_decay=float("nan")),
    # well-formed entries that do not fit the config: the same bytes, read as
    # the wrong shape, would otherwise reach the encoder
    "weight_shape_swapped": lambda h: _entry(h, "params/layer0.weight")["shape"].reverse(),
    "array_renamed": lambda h: _entry(h, "params/layer0.bias").update(
        name="params/layer0.offset"),
    "config_adds_classifier": lambda h: h["config"].update(num_classes=3),
    "config_adds_mlp_projector": lambda h: h["config"].update(mlp_projector=True),
    # each config value has the JSON type of its field, as in a run config
    "config_maxout_a_float": lambda h: h["config"].update(maxout_k=4.0),
    "config_mlp_projector_null": lambda h: h["config"].update(mlp_projector=None),
    "config_mlp_projector_zero": lambda h: h["config"].update(mlp_projector=0),
    "config_mlp_projector_a_list": lambda h: h["config"].update(mlp_projector=[]),
    "config_mlp_projector_an_object": lambda h: h["config"].update(mlp_projector={}),
    "config_width_infinite": lambda h: h["config"]["layer_widths"].__setitem__(0, math.inf),
}


def _assert_loads_as_written_now(tmp_path, edit):
    """A checkpoint whose header `edit` makes as an older one wrote it loads to the
    same config, params and EMA as the file written now."""
    path, old = tmp_path / "n.ckpt", tmp_path / "old.ckpt"
    params = init_params(small_config(), seed=26)
    save_checkpoint(path, params, ema=EmaParams(params.copy(), decay=0.9))
    old.write_bytes(path.read_bytes())
    rewrite_header(old, edit)
    now, before = load_checkpoint(path), load_checkpoint(old)
    assert before["config"] == now["config"]
    for got, want in ((before["params"], now["params"]),
                      (before["ema"].params, now["ema"].params)):
        for k, t in want.tensors.items():
            np.testing.assert_array_equal(got.tensors[k].data, t.data)
        for k, v in want.buffers.items():
            np.testing.assert_array_equal(got.buffers[k], v)


class TestCheckpoint:
    def test_roundtrip_bit_exact_and_idempotent(self, tmp_path, rng):
        params = init_params(small_config(), seed=15)
        ema = EmaParams(params.copy(), decay=0.9)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, ema=ema, metadata={"seed": 15, "step": 3})
        loaded = load_checkpoint(p1)
        save_checkpoint(p2, loaded["params"], ema=loaded["ema"],
                        metadata=loaded["metadata"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_identical_after_roundtrip(self, tmp_path, rng):
        params = init_params(small_config(), seed=16)
        encoder_forward(params, Tensor(rng.normal(size=(16, 5))), mode="train")
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)["params"]
        x = Tensor(rng.normal(size=(4, 5)))
        np.testing.assert_array_equal(
            encoder_forward(params, x, mode="eval").data,
            encoder_forward(loaded, x, mode="eval").data)

    def test_config_mismatch(self, tmp_path):
        params = init_params(small_config(), seed=17)
        path = tmp_path / "d.ckpt"
        save_checkpoint(path, params)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expected_config=small_config(projector_dim=4))

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_queue_storage_round_trips(self, tmp_path, rng):
        params = init_params(small_config(), seed=18)
        queue = rng.normal(size=(8, 3))
        path = tmp_path / "e.ckpt"
        save_checkpoint(path, params, queue_storage=queue)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded["queue_storage"], queue)

    @pytest.mark.parametrize("edit", BAD_HEADERS.values(), ids=BAD_HEADERS.keys())
    def test_bad_header_raises_checkpoint_error(self, tmp_path, edit):
        path = tmp_path / "h.ckpt"
        save_like_a_qmatch_run(path)
        rewrite_header(path, edit)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_ema_decay_names_the_file(self, tmp_path):
        path = tmp_path / "decay.ckpt"
        params = init_params(small_config(), seed=19)
        save_checkpoint(path, params, ema=EmaParams(params.copy(), decay=0.0))
        assert load_checkpoint(path)["ema"].decay == 0.0
        rewrite_header(path, lambda h: h.update(ema_decay=-3.0))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: ema_decay")):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [None, True, 0, -1, 1.5, 2.0, "x", [], {}, 1e20, [1],
                                       math.inf], ids=json.dumps)
    def test_every_header_value_edit_is_refused_or_keeps_the_config(self, tmp_path, value):
        """Each header value, at every depth, set to `value`: the file is refused
        or loads the config it was written with."""
        path, edited = tmp_path / "q.ckpt", tmp_path / "e.ckpt"
        save_like_a_qmatch_run(path)
        want = json.dumps(asdict(load_checkpoint(path)["config"]))
        hlen = int.from_bytes(path.read_bytes()[8:16], "little")

        def keys_of(node, keys=()):
            children = (node.items() if isinstance(node, dict)
                        else enumerate(node) if isinstance(node, list) else ())
            for key, child in children:
                yield keys + (key,)
                yield from keys_of(child, keys + (key,))

        def set_value(header, keys):
            for key in keys[:-1]:
                header = header[key]
            header[keys[-1]] = value

        every = list(keys_of(json.loads(path.read_bytes()[16:16 + hlen])))
        assert len(every) > 100
        for keys in every:
            edited.write_bytes(path.read_bytes())
            rewrite_header(edited, lambda h: set_value(h, keys))
            try:
                got = load_checkpoint(edited)["config"]
            except CheckpointError:
                continue
            assert json.dumps(asdict(got)) == want, keys

    def test_header_with_offsets_and_nbytes_loads(self, tmp_path):
        # every file written before the reader worked out where each array lies
        # carries each entry's offset and nbytes, the arrays back to back
        def add_offsets(header):
            offset = 0
            for e in header["arrays"]:
                nbytes = math.prod(e["shape"]) * np.dtype(e["dtype"]).itemsize
                e.update(offset=offset, nbytes=nbytes)
                offset += nbytes

        _assert_loads_as_written_now(tmp_path, add_offsets)

    def test_header_with_retired_null_num_classes_loads(self, tmp_path):
        # every file written before num_classes left the config carries it as null
        _assert_loads_as_written_now(tmp_path, lambda h: h["config"].update(num_classes=None))

    def test_header_with_retired_bn_eps_loads_at_its_one_value(self, tmp_path):
        # every file written before bn_eps left the config carries 1e-05
        _assert_loads_as_written_now(tmp_path, lambda h: h["config"].update(bn_eps=1e-05))

    @pytest.mark.parametrize("value", [0.001, None, "1e-05"])
    def test_header_with_retired_bn_eps_of_another_value_is_refused(self, tmp_path, value):
        path = tmp_path / "eps.ckpt"
        save_checkpoint(path, init_params(small_config(), seed=27))
        rewrite_header(path, lambda h: h["config"].update(bn_eps=value))
        with pytest.raises(CheckpointError, match="bn_eps is retired"):
            load_checkpoint(path)

    def test_header_with_retired_mlp_projector_loads_at_false(self, tmp_path):
        # every file written before mlp_projector left the config carries false
        _assert_loads_as_written_now(tmp_path,
                                     lambda h: h["config"].update(mlp_projector=False))

    @pytest.mark.parametrize("value", [True, 0, 0.0, None, "false"], ids=repr)
    def test_header_with_retired_mlp_projector_of_another_value_is_refused(self, tmp_path,
                                                                           value):
        # JSON 0 equals false in Python, but it is a number, which no file held
        path = tmp_path / "proj.ckpt"
        save_checkpoint(path, init_params(small_config(), seed=29))
        rewrite_header(path, lambda h: h["config"].update(mlp_projector=value))
        with pytest.raises(CheckpointError, match="mlp_projector is retired, and only false"):
            load_checkpoint(path)

    def test_ema_arrays_without_an_ema_decay_are_refused(self, tmp_path):
        path = tmp_path / "nodecay.ckpt"
        params = init_params(small_config(), seed=28)
        save_checkpoint(path, params, ema=EmaParams(params.copy(), decay=0.9))
        rewrite_header(path, lambda h: h.pop("ema_decay"))
        with pytest.raises(CheckpointError,
                           match=re.escape(f"{path}: ema/ arrays without an ema_decay")):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [1, 8, 100])
    def test_truncated_inside_array(self, tmp_path, cut):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, init_params(small_config(), seed=20))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(CheckpointError, match="truncated array"):
            load_checkpoint(path)

    def test_header_length_past_end_of_file(self, tmp_path):
        path = tmp_path / "l.ckpt"
        save_checkpoint(path, init_params(small_config(), seed=21))
        raw = bytearray(path.read_bytes())
        raw[8:16] = (2 ** 62).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="truncated header"):
            load_checkpoint(path)

    def test_dtypes_round_trip_and_others_refused(self, tmp_path):
        params = init_params(small_config(), seed=22)
        path = tmp_path / "f.ckpt"
        for v in (np.arange(3, dtype=np.float32), np.arange(2.0).astype(">f8"),
                  np.zeros((0, 3))):
            save_checkpoint(path, params, queue_storage=v)
            loaded = load_checkpoint(path)["queue_storage"]
            assert loaded.dtype == v.dtype.newbyteorder("<") and loaded.shape == v.shape
            np.testing.assert_array_equal(loaded, v)
        for dtype in (np.float16, np.int64):
            with pytest.raises(CheckpointError, match=np.dtype(dtype).name):
                save_checkpoint(path, params, queue_storage=np.zeros(2, dtype))

    def test_layout_follows_the_config(self, tmp_path):
        params = init_params(small_config(), seed=24)
        tensor_shapes, buffer_shapes = param_shapes(params.config)
        assert [(k, t.shape) for k, t in params.tensors.items()] == list(tensor_shapes.items())
        assert [(k, v.shape) for k, v in params.buffers.items()] == list(buffer_shapes.items())
        path = tmp_path / "k.ckpt"
        save_checkpoint(path, params, ema=EmaParams(params.copy(), decay=0.9))
        loaded = load_checkpoint(path)
        for got in (loaded["params"], loaded["ema"].params):
            assert list(got.tensors) == list(params.tensors)
        rewrite_header(path, lambda h: _entry(h, "ema/projector.weight")["shape"].reverse())
        with pytest.raises(CheckpointError, match="ema/"):
            load_checkpoint(path)

    def test_file_bytes_unchanged(self, tmp_path):
        """Pinned digest of a file with every kind of array: the layout, the header
        and init_params' draws stay put."""
        params = init_params(small_config(), seed=31)
        ema = EmaParams(params.copy(requires_grad=False), decay=0.5)
        path = tmp_path / "pinned.ckpt"
        save_checkpoint(path, params, ema=ema, metadata={"seed": 31}, queue_storage=np.eye(4, 3))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "60e9b12c81dbeff81ea656cdc757f1e6f20f5719a71010ef0e4d35c93caed979")

    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "keep.ckpt"
        save_checkpoint(path, init_params(small_config(), seed=32), metadata={"n": 1})
        before = path.read_bytes()

        class DiskFull:
            """A file that refuses every write past the header."""
            def __init__(self, fh):
                self.fh, self.written = fh, 0

            def write(self, data):
                if self.written >= 16 + int.from_bytes(before[8:16], "little"):
                    raise OSError(28, "No space left on device")
                self.written += len(data)
                return self.fh.write(data)

        write = qmatch.model._write_container
        monkeypatch.setattr(qmatch.model, "_write_container",
                            lambda fh, header, arrays: write(DiskFull(fh), header, arrays))
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(path, init_params(small_config(), seed=33), metadata={"n": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["keep.ckpt"]

    def test_written_file_has_the_mode_open_gives(self, tmp_path):
        path = tmp_path / "mode.ckpt"
        save_checkpoint(path, init_params(small_config(), seed=34))
        with open(tmp_path / "plain", "wb"):
            pass
        assert path.stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_write_leaves_the_process_umask_alone(self, tmp_path, monkeypatch):
        def umask(mask):
            # a file another thread creates while the mask is 0 would be world-writable
            raise AssertionError("the umask is process-wide")

        monkeypatch.setattr(qmatch.model.os, "umask", umask)
        params = init_params(small_config(), seed=36)
        save_checkpoint(tmp_path / "m.ckpt", params)
        loaded = load_checkpoint(tmp_path / "m.ckpt")["params"]
        for k, t in params.tensors.items():
            assert same_bits(loaded.tensors[k].data, t.data)

    def test_loaded_ema_is_frozen(self, tmp_path, rng):
        params = init_params(small_config(), seed=35)
        path = tmp_path / "ema.ckpt"
        save_checkpoint(path, params, ema=EmaParams(params.copy(requires_grad=False), decay=0.9))
        loaded = load_checkpoint(path)
        assert all(t.requires_grad for t in loaded["params"].tensors.values())
        teacher = loaded["ema"].params
        assert not any(t.requires_grad for t in teacher.tensors.values())
        # a teacher forward records no graph: it takes the in-place inference path
        out = encoder_forward(teacher, Tensor(rng.normal(size=(4, 5))), mode="eval")
        assert not out.requires_grad and out._parents == ()

    def test_save_writes_arrays_without_a_copy(self, tmp_path):
        params = init_params(small_config(input_dim=64, layer_widths=(256, 256)), seed=25)
        ema = EmaParams(params.copy(), decay=0.9)
        largest = max(t.data.nbytes for t in params.tensors.values())
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "s.ckpt", params, ema=ema)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * largest

    def test_arrays_read_without_an_extra_copy(self, tmp_path):
        params = init_params(small_config(input_dim=64, layer_widths=(256, 256)), seed=23)
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, params, ema=EmaParams(params.copy(), decay=0.9))
        payload = 2 * sum(t.data.nbytes for t in params.tensors.values()) + 2 * sum(
            v.nbytes for v in params.buffers.values())
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the loaded arrays themselves, not a file image and slices besides
        assert peak < 1.1 * payload
        for k, t in params.tensors.items():
            assert loaded["params"].tensors[k].data.tobytes() == t.data.tobytes()


def test_maxout_output_dim_property():
    for widths, k in (((8, 8), 4), ((12,), 3), ((16, 32), 8)):
        cfg = EncoderConfig(input_dim=4, layer_widths=widths, maxout_k=k)
        params = init_params(cfg, seed=20)
        x = Tensor(np.random.default_rng(0).normal(size=(4, 4)))
        assert encoder_forward(params, x, mode="eval").shape[1] == widths[-1] // k
