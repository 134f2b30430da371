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
import numbers
import os
import secrets
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .tensor import (
    UPDATE_BLOCK,
    ShapeError,
    Tensor,
    add,
    batch_norm_eval,
    batch_norm_train,
    maxout_rows,
    relu,
    update_blocks,
)

CHECKPOINT_MAGIC = b"QMCKPT01"
CHECKPOINT_VERSION = 1
# the array dtypes a checkpoint may hold, by the name its header records; always little-endian
CHECKPOINT_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}


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


def check_seed(seed, where: str = ""):
    """The one rule for a seed, which np.random.default_rng takes: an integer >= 0.
    Returns the seed; one that breaks it is a ConfigError whose message begins with
    `where`."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ConfigError(f"{where}seed must be an integer >= 0, got {seed!r}")
    return seed


def _field_types(cls, *skip) -> dict[str, str]:
    return {f.name: f.type for f in fields(cls) if f.name not in skip}


def _checked(obj, where: str, types: dict[str, str], required=()) -> dict:
    """`obj` if it is a JSON object of `types`' keys that holds every key of
    `required`, each value of the JSON type its annotation names; the rules for
    the values live in the config dataclasses."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {obj!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{where}: missing key {key!r}")
    for key, value in obj.items():
        if key not in types:
            raise ConfigError(f"{where}: unknown key {key!r}; known: {', '.join(types)}")
        if not _has_json_type(value, types[key]):
            raise ConfigError(f"{where}: {key} must be {types[key]}, got {value!r}")
    return obj


def _has_json_type(value, annotation: str) -> bool:
    kind, _, optional = annotation.partition(" | ")
    if value is None:
        return optional == "None"
    if kind == "tuple":  # layer_widths
        return isinstance(value, list) and all(_has_json_type(v, "int") for v in value)
    if isinstance(value, bool):  # JSON true and false are no numbers
        return kind == "bool"
    if isinstance(value, int) and kind == "float":  # as a flag's float() would read it
        return abs(value) <= sys.float_info.max
    return isinstance(value, {"int": int, "float": (int, float), "str": str,
                              "bool": bool, "dict": dict}[kind])


@dataclass
class EncoderConfig:
    input_dim: int
    layer_widths: tuple = (2048, 2048, 4096, 4096, 8192)
    maxout_k: int = 4
    projector_dim: int = 128
    batchnorm_momentum: float = 0.1

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

    # retired field -> the one value every file written before its removal holds
    RETIRED_FIELDS = {"num_classes": None, "bn_eps": 1e-05, "mlp_projector": False}

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        """The config `asdict` wrote, now or before a field retired: a retired
        field is dropped when it holds its one value, of its JSON type, and
        refused otherwise (JSON 0 is not false)."""
        d = dict(d)
        for name, value in cls.RETIRED_FIELDS.items():
            if name in d and (type(held := d.pop(name)) is not type(value) or held != value):
                raise ConfigError(f"{name} is retired, and only {json.dumps(value)} can be read")
        return cls(**_checked(d, "config", _field_types(cls)))


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
    decay: float


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
    tensors["projector.weight"] = (config.embed_dim, config.projector_dim)
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
    h = x
    n = len(cfg.layer_widths)
    for i in range(n):
        # into the product's buffer: matmul's backward reads its operands, not its product
        h = add(h @ params.tensors[f"layer{i}.weight"], params.tensors[f"layer{i}.bias"],
                in_place=True)
        if i < n - 1:
            gamma = params.tensors[f"layer{i}.bn_scale"]
            beta = params.tensors[f"layer{i}.bn_bias"]
            # batch norm works in the biased product's buffer: neither add's nor
            # matmul's backward reads it
            if mode == "train":
                h, mu, var = batch_norm_train(h, gamma, beta, in_place=True)
                m = cfg.batchnorm_momentum
                params.buffers[f"layer{i}.running_mean"][...] = (
                    (1 - m) * params.buffers[f"layer{i}.running_mean"] + m * mu)
                params.buffers[f"layer{i}.running_var"][...] = (
                    (1 - m) * params.buffers[f"layer{i}.running_var"] + m * var)
            else:
                h = batch_norm_eval(h, gamma, beta,
                                    params.buffers[f"layer{i}.running_mean"],
                                    params.buffers[f"layer{i}.running_var"])
            # into batch norm's output: its backward reads xhat and its operands, not its output
            h = relu(h, in_place=True)
    return maxout_rows(h, cfg.maxout_k)


def projector_forward(params: ModelParams, h: Tensor) -> Tensor:
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
# then the named arrays back to back as raw little-endian values in header order,
# filling the rest of the file.  A header entry holds an array's name, shape and
# dtype, which fix where it lies.  The reader checks every header entry before it
# reads any array, then reads the payload front to back, each array straight into
# a preallocated buffer: a new one, or a live array the caller gives, as pretrain
# does to restore its best epoch.

def _array_entries(arrays: dict[str, np.ndarray]):
    entries = []
    for name, arr in arrays.items():
        dtype = arr.dtype.newbyteorder("<")  # the bytes are written little-endian
        if CHECKPOINT_DTYPES.get(dtype.name) != dtype:
            raise CheckpointError(f"cannot save {name}: dtype {arr.dtype} is not one of "
                                  f"{sorted(CHECKPOINT_DTYPES)}")
        entries.append({"name": name, "shape": list(arr.shape), "dtype": dtype.name})
    return entries


def _checkpoint_arrays(params: ModelParams, ema: EmaParams | None = None,
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
        "config": asdict(params.config),
    }
    if ema is not None:
        header["ema_decay"] = ema.decay
        for k, t in ema.params.tensors.items():
            arrays[f"ema/{k}"] = np.ascontiguousarray(t.data)
        for k, v in ema.params.buffers.items():
            arrays[f"ema_buffers/{k}"] = np.ascontiguousarray(v)
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


def save_checkpoint(path, params: ModelParams, ema: EmaParams | None = None,
                    metadata: dict | None = None,
                    queue_storage: np.ndarray | None = None):
    """Write a checkpoint to `path` atomically: into a temporary file next to
    it, which then replaces `path`, so a failed write leaves `path` as it was."""
    header, arrays = _checkpoint_arrays(params, ema, queue_storage)
    header["metadata"] = metadata or {}
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{secrets.token_hex(8)}.tmp")
    # a new file with the mode open() would give: the kernel applies the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            _write_container(fh, header, arrays)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _checked_entries(path, entries, payload: int) -> list[tuple[str, tuple, np.dtype]]:
    """(name, shape, dtype) per array entry, after checking that every entry is
    well formed and that the arrays, back to back in entry order, fill the
    `payload` bytes exactly."""
    if not isinstance(entries, list):
        raise CheckpointError(f"{path}: header 'arrays' is not a list")
    checked, names, end = [], set(), 0
    for e in entries:
        name = e.get("name") if isinstance(e, dict) else None
        if not isinstance(name, str) or name in names:
            raise CheckpointError(f"{path}: array entry without a unique name: {e!r}")
        names.add(name)
        shape, dtype = e.get("shape"), e.get("dtype")
        dtype = CHECKPOINT_DTYPES.get(dtype) if isinstance(dtype, str) else None
        if dtype is None:
            raise CheckpointError(f"{path}: array {name}: dtype {e.get('dtype')!r} not allowed")
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise CheckpointError(f"{path}: array {name}: bad shape {shape!r}")
        end += math.prod(shape) * dtype.itemsize
        if end > payload:
            raise CheckpointError(f"{path}: truncated array {name}")
        checked.append((name, tuple(shape), dtype))
    if end != payload:
        raise CheckpointError(f"{path}: {payload - end} bytes after the last array")
    return checked


def _check_layout(path, config: EncoderConfig, shapes: dict[str, tuple]):
    """The params/ and buffers/ arrays (and ema/ and ema_buffers/, if any are
    present) must be exactly the tensors and buffers the config defines, and
    queue/storage is the one array outside those groups."""
    stray = sorted(k for k in shapes if k != "queue/storage"
                   and not k.startswith(("params/", "buffers/", "ema/", "ema_buffers/")))
    if stray:
        raise CheckpointError(f"{path}: arrays outside the checkpoint's groups: {stray}")
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


def _read_header(fh, path) -> tuple[dict, int]:
    """The header of the container in the binary file `fh`, read from its start
    and checked as far as it can be without the arrays, and the size of the
    payload, which `fh` is left at the start of."""
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
    version = header.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:  # JSON true is no version
        raise CheckpointError(f"{path}: format version {version!r} != {CHECKPOINT_VERSION}")
    return header, size - 16 - hlen


def _read_arrays(fh, path, arrays: dict[str, np.ndarray]):
    """Read the payload, from where `fh` stands, straight into `arrays` in order."""
    for name, arr in arrays.items():
        if fh.readinto(arr) != arr.nbytes:
            raise CheckpointError(f"{path}: truncated array {name}")


def _read_container_into(fh, arrays: dict[str, np.ndarray]) -> dict:
    """Read the container in `fh` into `arrays`, which must be its arrays by
    name, shape and dtype, in its order; returns the header."""
    header, payload = _read_header(fh, fh.name)
    entries = _checked_entries(fh.name, header.get("arrays"), payload)
    if entries != [(k, a.shape, a.dtype) for k, a in arrays.items()]:
        raise CheckpointError(f"{fh.name}: arrays do not match the ones to read into")
    _read_arrays(fh, fh.name, arrays)
    return header


def load_checkpoint(path, expected_config: EncoderConfig | None = None):
    """Returns a dict with params, ema (or None), metadata, queue_storage (or
    None) and config.  Any malformed file raises CheckpointError."""
    with open(path, "rb") as fh:
        header, payload = _read_header(fh, path)
        try:
            config = EncoderConfig.from_dict(header["config"])
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: bad config in header: {e!r}") from None
        if expected_config is not None and config != expected_config:
            raise CheckpointError(f"{path}: checkpoint config does not match expected config")
        decay = header.get("ema_decay")  # QMatchConfig.tau_ema's rule, when present
        if "ema_decay" in header and not (_has_json_type(decay, "float") and 0 <= decay < 1):
            raise CheckpointError(f"{path}: ema_decay must be a number in [0, 1), got {decay!r}")

        entries = _checked_entries(path, header.get("arrays"), payload)
        _check_layout(path, config, {name: shape for name, shape, _ in entries})
        if decay is None and any(name.startswith("ema/") for name, _, _ in entries):
            raise CheckpointError(f"{path}: ema/ arrays without an ema_decay")
        arrays = {name: np.empty(shape, dtype=dtype) for name, shape, dtype in entries}
        _read_arrays(fh, path, arrays)

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
        ema = EmaParams(build("ema/", "ema_buffers/", False), decay=decay)
    return {
        "params": params,
        "ema": ema,
        "metadata": header.get("metadata", {}),
        "queue_storage": arrays.get("queue/storage"),
        "config": config,
    }
