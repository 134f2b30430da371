import hashlib
import json
import tracemalloc

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
        assert EncoderConfig.from_dict(cfg.to_dict()) == cfg


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
    def test_inference_equals_taped_eval(self, rng, monkeypatch, config, rows):
        params = init_params(config, seed=4)
        for _ in range(3):  # running statistics away from their (0, 1) start
            encoder_forward(params, Tensor(rng.normal(1.0, 2.0, size=(16, 5))), mode="train")
        x = rng.normal(size=(rows, 5))
        x_before = x.copy()
        buffers = {k: v.copy() for k, v in params.buffers.items()}
        taped = encoder_forward(params, Tensor(x, requires_grad=True), mode="eval")
        assert taped._parents  # a gradient can flow, so the graph is recorded

        # the in-place branch never reaches the taped batch norm
        monkeypatch.setattr(qmatch.model, "batch_norm_eval", None)
        with no_grad():
            inside_no_grad = encoder_forward(params, Tensor(x), mode="eval")
        frozen = encoder_forward(params.copy(requires_grad=False), Tensor(x), mode="eval")
        for out in (inside_no_grad, frozen):
            assert same_bits(out.data, taped.data)
            assert out._parents == () and out._backward is None and not out.requires_grad
        assert same_bits(x, x_before)
        for k, v in params.buffers.items():
            assert same_bits(v, buffers[k])

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
                            lambda h, gamma, beta, eps, in_place: batch_norm_train(
                                h, gamma, beta, eps=eps))
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

    def test_mlp_projector_flag(self, rng):
        cfg = small_config(mlp_projector=True)
        params = init_params(cfg, seed=7)
        assert "projector.hidden_weight" in params.tensors
        out = projector_forward(params, Tensor(rng.normal(size=(4, 2))))
        assert out.shape == (4, 3)


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


# header edits that each make a checkpoint unreadable
BAD_HEADERS = {
    "config_missing": lambda h: h.pop("config"),
    "config_unknown_key": lambda h: h["config"].update(colour="red"),
    "config_not_an_object": lambda h: h.update(config=[1, 2]),
    "config_maxout_zero": lambda h: h["config"].update(maxout_k=0),
    "shape_disagrees_with_nbytes": lambda h: h["arrays"][0]["shape"].append(2),
    "object_dtype": _set("dtype", "object"),
    "big_endian_dtype": _set("dtype", ">f8"),
    "float16_dtype": _set("dtype", "float16"),
    "arrays_not_a_list": lambda h: h.update(arrays={"params/layer0.weight": 0}),
    "entry_not_an_object": lambda h: h["arrays"].append(3),
    "duplicate_name": lambda h: h["arrays"].append(dict(h["arrays"][0])),
    "negative_offset": _set("offset", -16),
    "offset_not_an_integer": _set("offset", 0.5),
    "range_past_payload": _set("offset", 10 ** 9),
    "overlapping_arrays": lambda h: h["arrays"][1].update(offset=h["arrays"][0]["offset"] + 8),
    "metadata_not_an_object": lambda h: h.update(metadata=["seed"]),
    # well-formed entries that do not fit the config: the same bytes, read as
    # the wrong shape, would otherwise reach the encoder
    "weight_shape_swapped": lambda h: _entry(h, "params/layer0.weight")["shape"].reverse(),
    "array_renamed": lambda h: _entry(h, "params/layer0.bias").update(
        name="params/layer0.offset"),
    "config_adds_classifier": lambda h: h["config"].update(num_classes=3),
    "config_adds_mlp_projector": lambda h: h["config"].update(mlp_projector=True),
}


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

    def test_optimizer_state_and_queue(self, tmp_path, rng):
        params = init_params(small_config(), seed=18)
        queue = rng.normal(size=(8, 3))
        path = tmp_path / "e.ckpt"
        save_checkpoint(path, params, optimizer_state={"m/x": np.ones(3)},
                        queue_storage=queue)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded["queue_storage"], queue)
        np.testing.assert_array_equal(loaded["optimizer_state"]["m/x"], np.ones(3))

    @pytest.mark.parametrize("edit", BAD_HEADERS.values(), ids=BAD_HEADERS.keys())
    def test_bad_header_raises_checkpoint_error(self, tmp_path, edit):
        path = tmp_path / "h.ckpt"
        save_checkpoint(path, init_params(small_config(), seed=19))
        rewrite_header(path, edit)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_header_with_retired_null_num_classes_loads(self, tmp_path):
        # every file written before num_classes left the config carries it as null
        path, old = tmp_path / "n.ckpt", tmp_path / "old.ckpt"
        params = init_params(small_config(), seed=26)
        save_checkpoint(path, params, ema=EmaParams(params.copy()))
        old.write_bytes(path.read_bytes())
        rewrite_header(old, lambda h: h["config"].update(num_classes=None))
        now, before = load_checkpoint(path), load_checkpoint(old)
        assert before["config"] == now["config"]
        for got, want in ((before["params"], now["params"]),
                          (before["ema"].params, now["ema"].params)):
            for k, t in want.tensors.items():
                np.testing.assert_array_equal(got.tensors[k].data, t.data)
            for k, v in want.buffers.items():
                np.testing.assert_array_equal(got.buffers[k], v)

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
        state = {"f32": np.arange(3, dtype=np.float32), "i64": np.arange(4, dtype=np.int64),
                 "big": np.arange(2.0).astype(">f8"), "empty": np.zeros((0, 3))}
        save_checkpoint(path, params, optimizer_state=state)
        loaded = load_checkpoint(path)["optimizer_state"]
        for k, v in state.items():
            assert loaded[k].dtype == v.dtype.newbyteorder("<") and loaded[k].shape == v.shape
            np.testing.assert_array_equal(loaded[k], v)
        with pytest.raises(CheckpointError, match="float16"):
            save_checkpoint(path, params, optimizer_state={"h": np.zeros(2, np.float16)})

    @pytest.mark.parametrize("extra", [{}, {"mlp_projector": True}],
                             ids=["plain", "mlp_projector"])
    def test_layout_follows_the_config(self, tmp_path, extra):
        params = init_params(small_config(**extra), seed=24)
        tensor_shapes, buffer_shapes = param_shapes(params.config)
        assert [(k, t.shape) for k, t in params.tensors.items()] == list(tensor_shapes.items())
        assert [(k, v.shape) for k, v in params.buffers.items()] == list(buffer_shapes.items())
        path = tmp_path / "k.ckpt"
        save_checkpoint(path, params, ema=EmaParams(params.copy()))
        loaded = load_checkpoint(path)
        for got in (loaded["params"], loaded["ema"].params):
            assert list(got.tensors) == list(params.tensors)
        rewrite_header(path, lambda h: _entry(h, "ema/projector.weight")["shape"].reverse())
        with pytest.raises(CheckpointError, match="ema/"):
            load_checkpoint(path)

    def test_file_bytes_unchanged(self, tmp_path):
        """Pinned digest of a file with every kind of array: the layout, the header
        and init_params' draws (mlp projector included) stay put."""
        params = init_params(small_config(mlp_projector=True), seed=31)
        ema = EmaParams(params.copy(requires_grad=False), decay=0.5)
        state = {"step_count": np.asarray([2.0]), "big": np.arange(3.0).astype(">f8"),
                 "i64": np.arange(4, dtype=np.int64), "f32": np.ones((2, 2), np.float32)}
        path = tmp_path / "pinned.ckpt"
        save_checkpoint(path, params, ema=ema, optimizer_state=state, metadata={"seed": 31},
                        queue_storage=np.eye(4, 3))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "01e2a6072a980bf405440735b0afe5a528be77381920841fe4aa649fde390b35")

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

    def test_loaded_ema_is_frozen(self, tmp_path, rng):
        params = init_params(small_config(), seed=35)
        path = tmp_path / "ema.ckpt"
        save_checkpoint(path, params, ema=EmaParams(params.copy(requires_grad=False)))
        loaded = load_checkpoint(path)
        assert all(t.requires_grad for t in loaded["params"].tensors.values())
        teacher = loaded["ema"].params
        assert not any(t.requires_grad for t in teacher.tensors.values())
        # a teacher forward records no graph: it takes the in-place inference path
        out = encoder_forward(teacher, Tensor(rng.normal(size=(4, 5))), mode="eval")
        assert not out.requires_grad and out._parents == ()

    def test_save_writes_arrays_without_a_copy(self, tmp_path):
        params = init_params(small_config(input_dim=64, layer_widths=(256, 256)), seed=25)
        ema = EmaParams(params.copy())
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
        save_checkpoint(path, params, ema=EmaParams(params.copy()))
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
