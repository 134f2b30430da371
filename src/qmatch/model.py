"""Encoder/projector parameters, EMA shadow copies, checkpoints.

The encoder is an MLP: every hidden layer is affine -> batch norm -> ReLU,
and the final layer is affine -> maxout over consecutive groups of k units,
so the embedding width is last_width / k.  A linear projector maps the
embedding to the (low-dimensional) space used by the pretext losses;
downstream heads attach to the encoder output.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from .tensor import (
    UPDATE_BLOCK,
    ShapeError,
    Tensor,
    add,
    batch_norm_eval,
    batch_norm_train,
    maxout_rows,
    records,
    relu,
    update_blocks,
)

CHECKPOINT_MAGIC = b"QMCKPT01"
CHECKPOINT_VERSION = 1
# the array dtypes a checkpoint may hold, by the name its header records; always little-endian
CHECKPOINT_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8"),
                     "int64": np.dtype("<i8")}


class ConfigError(ValueError):
    """Invalid model configuration."""


class CheckpointError(IOError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


def check_fields(config, rule: str, test, *names: str):
    """The one way a config checks its values: raise ConfigError naming the first
    of `names` whose value fails `test`, a comparison that NaN fails."""
    for name in names:
        if not test(getattr(config, name)):
            raise ConfigError(f"{name} must be {rule}, got {getattr(config, name)!r}")


@dataclass
class EncoderConfig:
    input_dim: int
    layer_widths: tuple = (2048, 2048, 4096, 4096, 8192)
    maxout_k: int = 4
    projector_dim: int = 128
    batchnorm_momentum: float = 0.1
    bn_eps: float = 1e-5
    mlp_projector: bool = False  # optional 512-128 two-layer head, off by default

    def __post_init__(self):
        self.layer_widths = tuple(int(w) for w in self.layer_widths)
        check_fields(self, ">= 1", lambda n: n >= 1, "input_dim", "projector_dim", "maxout_k")
        check_fields(self, "a non-empty list of widths >= 1",
                     lambda ws: ws and all(w >= 1 for w in ws), "layer_widths")
        if self.layer_widths[-1] % self.maxout_k != 0:
            raise ConfigError(
                f"maxout_k={self.maxout_k} does not divide last width {self.layer_widths[-1]}")
        check_fields(self, "in (0, 1)", lambda m: 0 < m < 1, "batchnorm_momentum")

    @property
    def embed_dim(self) -> int:
        return self.layer_widths[-1] // self.maxout_k

    def to_dict(self) -> dict:
        d = asdict(self)
        d["layer_widths"] = list(self.layer_widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        d = dict(d)
        # a retired field: files written before its removal carry it as null
        if "num_classes" in d and d["num_classes"] is None:
            del d["num_classes"]
        d["layer_widths"] = tuple(d["layer_widths"])
        return cls(**d)


class ModelParams:
    """Named parameter tensors plus batch-norm running-stat buffers."""

    def __init__(self, config: EncoderConfig,
                 tensors: dict[str, Tensor],
                 buffers: dict[str, np.ndarray]):
        self.config = config
        self.tensors = tensors
        self.buffers = buffers

    def trainable(self) -> dict[str, Tensor]:
        return {k: t for k, t in self.tensors.items() if t.requires_grad}

    def zero_grad(self):
        for t in self.tensors.values():
            t.zero_grad()

    def copy(self, requires_grad: bool | None = None) -> "ModelParams":
        tensors = {k: Tensor(t.data.copy(),
                             requires_grad=t.requires_grad if requires_grad is None
                             else requires_grad)
                   for k, t in self.tensors.items()}
        buffers = {k: v.copy() for k, v in self.buffers.items()}
        return ModelParams(self.config, tensors, buffers)


@dataclass
class EmaParams:
    params: ModelParams
    decay: float = 0.9


def param_shapes(config: EncoderConfig) -> tuple[dict[str, tuple], dict[str, tuple]]:
    """Name -> shape of every parameter tensor and of every batch-norm buffer,
    in the order init_params draws them and save_checkpoint writes them."""
    tensors: dict[str, tuple] = {}
    buffers: dict[str, tuple] = {}
    fan_in = config.input_dim
    n = len(config.layer_widths)
    for i, width in enumerate(config.layer_widths):
        tensors[f"layer{i}.weight"] = (fan_in, width)
        tensors[f"layer{i}.bias"] = (width,)
        if i < n - 1:  # hidden layers carry batch norm
            tensors[f"layer{i}.bn_scale"] = (width,)
            tensors[f"layer{i}.bn_bias"] = (width,)
            buffers[f"layer{i}.running_mean"] = (width,)
            buffers[f"layer{i}.running_var"] = (width,)
        fan_in = width

    proj_in = config.embed_dim
    if config.mlp_projector:
        tensors["projector.hidden_weight"] = (proj_in, 512)
        tensors["projector.hidden_bias"] = (512,)
        proj_in = 512
    tensors["projector.weight"] = (proj_in, config.projector_dim)
    tensors["projector.bias"] = (config.projector_dim,)
    return tensors, buffers


def init_params(config: EncoderConfig, seed: int) -> ModelParams:
    """He-initialized weights, zero biases, unit batch-norm scale, (0, 1) stats."""
    rng = np.random.default_rng(seed)
    tensor_shapes, buffer_shapes = param_shapes(config)
    tensors: dict[str, Tensor] = {}
    for name, shape in tensor_shapes.items():
        if name.endswith("weight"):  # He scale from the fan-in
            data = rng.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape)
        elif name.endswith("bn_scale"):
            data = np.ones(shape)
        else:
            data = np.zeros(shape)
        tensors[name] = Tensor(data, requires_grad=True)
    buffers = {name: np.ones(shape) if name.endswith("running_var") else np.zeros(shape)
               for name, shape in buffer_shapes.items()}
    return ModelParams(config, tensors, buffers)


def encoder_forward(params: ModelParams, x: Tensor, mode: str = "train") -> Tensor:
    """Map a B x input_dim batch to B x embed_dim embeddings.

    Train mode normalizes with batch statistics and updates the running
    buffers; eval mode uses the stored running statistics and mutates nothing.
    An eval forward through which no gradient can flow runs in place.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    cfg = params.config
    if x.shape[1] != cfg.input_dim:
        raise ShapeError(f"expected input width {cfg.input_dim}, got shape {x.shape}")
    if mode == "eval" and not records(x, *params.tensors.values()):
        return _infer(params, x)
    h = x
    n = len(cfg.layer_widths)
    for i in range(n):
        # into the product's buffer: matmul's backward reads its operands, not its product
        h = add(h @ params.tensors[f"layer{i}.weight"], params.tensors[f"layer{i}.bias"],
                in_place=True)
        if i < n - 1:
            gamma = params.tensors[f"layer{i}.bn_scale"]
            beta = params.tensors[f"layer{i}.bn_bias"]
            if mode == "train":
                # into the biased product's buffer: neither add's nor matmul's backward reads it
                h, mu, var = batch_norm_train(h, gamma, beta, eps=cfg.bn_eps, in_place=True)
                m = cfg.batchnorm_momentum
                params.buffers[f"layer{i}.running_mean"][...] = (
                    (1 - m) * params.buffers[f"layer{i}.running_mean"] + m * mu)
                params.buffers[f"layer{i}.running_var"][...] = (
                    (1 - m) * params.buffers[f"layer{i}.running_var"] + m * var)
            else:
                h = batch_norm_eval(h, gamma, beta,
                                    params.buffers[f"layer{i}.running_mean"],
                                    params.buffers[f"layer{i}.running_var"],
                                    eps=cfg.bn_eps)
            # into batch norm's output: its backward reads xhat and its operands, not its output
            h = relu(h, in_place=True)
    return maxout_rows(h, cfg.maxout_k)


def _infer(params: ModelParams, x: Tensor) -> Tensor:
    """The eval-mode encoder with no graph.  Each layer's product comes from
    tensor.matmul; bias, batch norm and ReLU then run in its buffer, with the
    operations of the taped ops in their order, so the result is bit-identical
    to theirs as long as no bias, scale or buffer has a wider dtype than the
    product (which keeps its own where the taped ops would promote)."""
    cfg = params.config
    t, buf = params.tensors, params.buffers
    n = len(cfg.layer_widths)
    h = x
    for i in range(n):
        out = (h @ t[f"layer{i}.weight"]).data
        np.add(out, t[f"layer{i}.bias"].data, out=out)
        if i < n - 1:
            std = np.sqrt(buf[f"layer{i}.running_var"] + cfg.bn_eps)
            np.subtract(out, buf[f"layer{i}.running_mean"], out=out)
            np.divide(out, std, out=out)
            np.multiply(out, t[f"layer{i}.bn_scale"].data, out=out)
            np.add(out, t[f"layer{i}.bn_bias"].data, out=out)
            np.multiply(out, out > 0, out=out)  # relu: h * (h > 0)
        h = Tensor(out)
    return maxout_rows(h, cfg.maxout_k)


def projector_forward(params: ModelParams, h: Tensor) -> Tensor:
    if params.config.mlp_projector:
        h = relu(h @ params.tensors["projector.hidden_weight"]
                 + params.tensors["projector.hidden_bias"])
    return h @ params.tensors["projector.weight"] + params.tensors["projector.bias"]


def ema_update(ema: EmaParams, student: ModelParams):
    """e <- decay * e + (1 - decay) * s in place; running statistics are copied."""
    tau = ema.decay
    for k, t in ema.params.tensors.items():
        s = student.tensors[k]
        if t.data.shape != s.data.shape:
            raise ConfigError(f"EMA shape mismatch for {k}: {t.data.shape} vs {s.data.shape}")
        scratch = np.empty(min(UPDATE_BLOCK, t.data.size), dtype=t.data.dtype)
        for e, x in update_blocks(t.data, s.data):
            a = scratch[:e.size].reshape(e.shape)
            np.multiply(e, tau, out=e)
            np.multiply(x, 1.0 - tau, out=a)
            np.add(e, a, out=e)
    for k, v in ema.params.buffers.items():
        v[...] = student.buffers[k]


# -- checkpoint container ------------------------------------------------------
#
# Layout: 8-byte magic, 8-byte little-endian header length, UTF-8 JSON header,
# then the named arrays as raw little-endian values in header order.  The reader
# checks every header entry before it reads any array, and reads each array
# straight into a preallocated buffer: a new one, or a live array the caller
# gives, as pretrain does to restore its best epoch.

def _array_entries(arrays: dict[str, np.ndarray]):
    entries = []
    offset = 0
    for name in arrays:
        arr = arrays[name]
        dtype = arr.dtype.newbyteorder("<")  # the bytes are written little-endian
        if CHECKPOINT_DTYPES.get(dtype.name) != dtype:
            raise CheckpointError(f"cannot save {name}: dtype {arr.dtype} is not one of "
                                  f"{sorted(CHECKPOINT_DTYPES)}")
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": dtype.name,
            "offset": offset,
            "nbytes": arr.nbytes,
        })
        offset += arr.nbytes
    return entries


def _checkpoint_arrays(params: ModelParams, ema: EmaParams | None = None,
                       optimizer_state: dict[str, np.ndarray] | None = None,
                       queue_storage: np.ndarray | None = None) -> tuple[dict, dict]:
    """The header (without metadata) and the named arrays of a checkpoint; each
    array is the caller's own buffer unless that is not contiguous."""
    arrays: dict[str, np.ndarray] = {}
    for k, t in params.tensors.items():
        arrays[f"params/{k}"] = np.ascontiguousarray(t.data)
    for k, v in params.buffers.items():
        arrays[f"buffers/{k}"] = np.ascontiguousarray(v)
    header: dict = {
        "format_version": CHECKPOINT_VERSION,
        "config": params.config.to_dict(),
    }
    if ema is not None:
        header["ema_decay"] = ema.decay
        for k, t in ema.params.tensors.items():
            arrays[f"ema/{k}"] = np.ascontiguousarray(t.data)
        for k, v in ema.params.buffers.items():
            arrays[f"ema_buffers/{k}"] = np.ascontiguousarray(v)
    if optimizer_state:
        for k, v in optimizer_state.items():
            arrays[f"optimizer/{k}"] = np.ascontiguousarray(v)
    if queue_storage is not None:
        arrays["queue/storage"] = np.ascontiguousarray(queue_storage)
    return header, arrays


def _write_container(fh, header: dict, arrays: dict[str, np.ndarray]):
    """Write `header` with an entry per array, then the arrays, to the binary
    file `fh` from its current position."""
    entries = _array_entries(arrays)
    blob = json.dumps({**header, "arrays": entries}, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    fh.write(CHECKPOINT_MAGIC)
    fh.write(len(blob).to_bytes(8, "little"))
    fh.write(blob)
    for name in arrays:
        data = arrays[name]
        if data.dtype.byteorder == ">":
            data = data.astype(data.dtype.newbyteorder("<"))
        fh.write(memoryview(data))  # the array's own buffer, not a copy of it


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def save_checkpoint(path, params: ModelParams, ema: EmaParams | None = None,
                    optimizer_state: dict[str, np.ndarray] | None = None,
                    metadata: dict | None = None,
                    queue_storage: np.ndarray | None = None):
    """Write a checkpoint to `path` atomically: into a temporary file next to
    it, which then replaces `path`, so a failed write leaves `path` as it was."""
    header, arrays = _checkpoint_arrays(params, ema, optimizer_state, queue_storage)
    header["metadata"] = metadata or {}
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{os.path.basename(path)}.", suffix=".tmp",
                               dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_umask())  # the mode open() would give
            _write_container(fh, header, arrays)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _checked_entries(path, entries, payload: int) -> list[tuple[str, tuple, np.dtype, int]]:
    """(name, shape, dtype, offset) per array entry, after checking that every
    entry is well formed and its byte range lies inside the payload without
    overlapping another."""
    if not isinstance(entries, list):
        raise CheckpointError(f"{path}: header 'arrays' is not a list")
    checked, spans, names = [], [], set()
    for e in entries:
        name = e.get("name") if isinstance(e, dict) else None
        if not isinstance(name, str) or name in names:
            raise CheckpointError(f"{path}: array entry without a unique name: {e!r}")
        names.add(name)
        shape, dtype = e.get("shape"), CHECKPOINT_DTYPES.get(e.get("dtype"))
        offset, nbytes = e.get("offset"), e.get("nbytes")
        if dtype is None:
            raise CheckpointError(f"{path}: array {name}: dtype {e.get('dtype')!r} not allowed")
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise CheckpointError(f"{path}: array {name}: bad shape {shape!r}")
        if type(offset) is not int or type(nbytes) is not int or offset < 0:
            raise CheckpointError(f"{path}: array {name}: bad offset or nbytes")
        if nbytes != math.prod(shape) * dtype.itemsize:
            raise CheckpointError(f"{path}: array {name}: {nbytes} bytes do not hold "
                                  f"shape {shape} of {dtype.name}")
        if offset + nbytes > payload:
            raise CheckpointError(f"{path}: truncated array {name}")
        checked.append((name, tuple(shape), dtype, offset))
        spans.append((offset, offset + nbytes, name))
    spans.sort()
    for (_, end, _), (start, _, name) in zip(spans, spans[1:]):
        if start < end:
            raise CheckpointError(f"{path}: array {name} overlaps the array before it")
    return checked


def _check_layout(path, config: EncoderConfig, shapes: dict[str, tuple]):
    """The params/ and buffers/ arrays (and ema/ and ema_buffers/, if any are
    present) must be exactly the tensors and buffers the config defines."""
    tensor_shapes, buffer_shapes = param_shapes(config)
    groups = [("params/", tensor_shapes), ("buffers/", buffer_shapes)]
    if any(k.startswith(("ema/", "ema_buffers/")) for k in shapes):
        groups += [("ema/", tensor_shapes), ("ema_buffers/", buffer_shapes)]
    for prefix, expected in groups:
        found = {k[len(prefix):]: v for k, v in shapes.items() if k.startswith(prefix)}
        wrong = sorted(k for k in found.keys() | expected.keys()
                       if found.get(k) != expected.get(k))
        if wrong:
            raise CheckpointError(f"{path}: {prefix} arrays do not match the header's "
                                  f"config: {wrong}")


def _read_header(fh, path) -> tuple[dict, int, int]:
    """The header of the container in the binary file `fh`, read from its start
    and checked as far as it can be without the arrays, and the offset and size
    of the payload."""
    fh.seek(0)
    size = os.fstat(fh.fileno()).st_size
    if fh.read(8) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    hlen = int.from_bytes(fh.read(8), "little")
    if hlen > size - 16:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(fh.read(hlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header: {e}") from None
    if not isinstance(header, dict) or not isinstance(header.get("metadata", {}), dict):
        raise CheckpointError(f"{path}: corrupt header: it or its metadata is not an object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: format version {header.get('format_version')} != {CHECKPOINT_VERSION}")
    return header, 16 + hlen, size - 16 - hlen


def _read_arrays(fh, path, base: int, entries, arrays: dict[str, np.ndarray]):
    """Read each checked entry straight into the array of its name."""
    for name, _, _, offset in entries:
        arr = arrays[name]
        fh.seek(base + offset)
        if fh.readinto(arr) != arr.nbytes:
            raise CheckpointError(f"{path}: truncated array {name}")


def _read_container_into(fh, arrays: dict[str, np.ndarray]) -> dict:
    """Read the container in `fh` into `arrays`, which must be its arrays by
    name, shape and dtype, in its order; returns the header."""
    header, base, payload = _read_header(fh, fh.name)
    entries = _checked_entries(fh.name, header.get("arrays"), payload)
    if [e[:3] for e in entries] != [(k, a.shape, a.dtype) for k, a in arrays.items()]:
        raise CheckpointError(f"{fh.name}: arrays do not match the ones to read into")
    _read_arrays(fh, fh.name, base, entries, arrays)
    return header


def load_checkpoint(path, expected_config: EncoderConfig | None = None):
    """Returns a dict with params, ema (or None), optimizer_state, metadata,
    and queue_storage (or None).  Any malformed file raises CheckpointError."""
    with open(path, "rb") as fh:
        header, base, payload = _read_header(fh, path)
        try:
            config = EncoderConfig.from_dict(header["config"])
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: bad config in header: {e!r}") from None
        if expected_config is not None and config.to_dict() != expected_config.to_dict():
            raise CheckpointError(f"{path}: checkpoint config does not match expected config")

        entries = _checked_entries(path, header.get("arrays"), payload)
        _check_layout(path, config, {name: shape for name, shape, _, _ in entries})
        arrays = {name: np.empty(shape, dtype=dtype) for name, shape, dtype, _ in entries}
        _read_arrays(fh, path, base, entries, arrays)

    def build(prefix_t, prefix_b, requires_grad):
        tensors = {k[len(prefix_t):]: Tensor(v, requires_grad=requires_grad)
                   for k, v in arrays.items() if k.startswith(prefix_t)}
        buffers = {k[len(prefix_b):]: v
                   for k, v in arrays.items() if k.startswith(prefix_b)}
        return ModelParams(config, tensors, buffers)

    params = build("params/", "buffers/", True)
    ema = None
    if any(k.startswith("ema/") for k in arrays):
        # frozen, like the teacher pretrain keeps: its forwards record no graph
        ema = EmaParams(build("ema/", "ema_buffers/", False),
                        decay=header.get("ema_decay", 0.9))
    optimizer_state = {k[len("optimizer/"):]: v
                       for k, v in arrays.items() if k.startswith("optimizer/")}
    return {
        "params": params,
        "ema": ema,
        "optimizer_state": optimizer_state,
        "metadata": header.get("metadata", {}),
        "queue_storage": arrays.get("queue/storage"),
        "config": config,
    }
