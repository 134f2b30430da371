"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float64 by default, float32 selectable) and
record the operations applied to them.  Calling :func:`backward` on a
scalar result walks the recorded graph in reverse topological order and
accumulates gradients into every tensor that requires them, cutting each
node's edges as soon as its own gradient is passed on, so activations are
freed during the pass and a tensor can be reused in a fresh forward pass;
it can also hand each leaf to a callback as soon as the leaf's gradient is
complete, so an optimizer can update the leaf and drop that gradient at once.
A binary op (the four elementwise ones, matmul and the two losses) computes
only the gradients its operands take: the gradient of an operand with
requires_grad=False is never formed.  Inside :func:`no_grad` nothing is
recorded.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

EPS_LOG = 1e-12
EPS_NORM = 1e-12

# In-place elementwise updates (optimizer, EMA) walk flat arrays this many
# elements at a time, so a block's operands stay in cache across its ufuncs.
UPDATE_BLOCK = 1 << 15

_recording = True  # cleared inside no_grad()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class ParameterError(ValueError):
    """Raised for invalid scalar parameters (e.g. non-positive temperature)."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return mul(self, Tensor(np.asarray(-1.0, dtype=self.data.dtype)))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray):
    # The first gradient is kept as is, so it may be a view shared with another
    # tensor's gradient (or be the incoming gradient itself); every later one is
    # therefore added out of place, and no backward writes into its incoming g.
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.asarray(g, dtype=t.data.dtype)
    else:
        t.grad = t.grad + g


@contextmanager
def no_grad():
    """Run forwards without recording a graph (for evaluation): results come
    out with requires_grad=False and hold no parents."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def records(*operands: Tensor) -> bool:
    """Whether an op on these operands records a graph, i.e. whether a gradient
    can flow back through its result."""
    return _recording and any(t.requires_grad for t in operands)


def _make(data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if records(*parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, n in enumerate(shape):
        if n == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


def update_blocks(*arrays: np.ndarray):
    """Aligned blocks of the arrays, at most UPDATE_BLOCK elements each.

    Arrays of at most UPDATE_BLOCK elements form one block, the arrays
    themselves; larger ones are cut into 1-D slices.  Either way the blocks are
    views, so ``out=`` writes through them update the arrays in place; every
    array must therefore be C-contiguous and of the same shape.
    """
    shape = arrays[0].shape
    for a in arrays:
        if a.shape != shape:
            raise ShapeError(f"update operands disagree: {a.shape} vs {shape}")
        if not a.flags.c_contiguous:
            raise ValueError("in-place updates need C-contiguous arrays")
    if arrays[0].size <= UPDATE_BLOCK:
        return (arrays,)
    flat = [a.reshape(-1) for a in arrays]
    return (tuple(f[start:start + UPDATE_BLOCK] for f in flat)
            for start in range(0, flat[0].size, UPDATE_BLOCK))


# -- elementwise arithmetic ---------------------------------------------------

def add(a: Tensor, b: Tensor, in_place: bool = False) -> Tensor:
    """a + b.  With `in_place`, the sum is written into a's buffer whenever it
    has a's shape and dtype; the caller guarantees that nothing reads a's value
    afterwards (the backward of add reads neither operand)."""
    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))
    if in_place and np.broadcast_shapes(a.shape, b.shape) == a.shape \
            and np.result_type(a.data, b.data) == a.data.dtype:
        return _make(np.add(a.data, b.data, out=a.data), (a, b), bwd)
    return _make(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape))
    return _make(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))
    return _make(a.data * b.data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))
    return _make(a.data / b.data, (a, b), bwd)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def bwd(g):
        _accumulate(a, g * out_data)
    return _make(out_data, (a,), bwd)


def log(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, g / a.data)
    return _make(np.log(a.data), (a,), bwd)


def relu(a: Tensor, in_place: bool = False) -> Tensor:
    """a * (a > 0).  With `in_place`, the result is written into a's buffer;
    the caller guarantees that nothing reads a's value afterwards (the backward
    of relu reads only the mask)."""
    mask = a.data > 0

    def bwd(g):
        _accumulate(a, g * mask)
    return _make(np.multiply(a.data, mask, out=a.data if in_place else None), (a,), bwd)


# -- reductions ---------------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    def bwd(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(gg, a.shape).copy())
    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bwd)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.shape[axis]

    def bwd(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g / n, a.shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(gg / n, a.shape).copy())
    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), bwd)


# -- linear algebra -----------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)
    return _make(a.data @ b.data, (a, b), bwd)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a 2-D tensor, got shape {a.shape}")

    def bwd(g):
        _accumulate(a, g.T)
    return _make(a.data.T.copy(), (a,), bwd)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    parts = [_wrap(p) for p in parts]
    sizes = [p.shape[0] for p in parts]

    def bwd(g):
        off = 0
        for p, n in zip(parts, sizes):
            _accumulate(p, g[off:off + n])
            off += n
    return _make(np.concatenate([p.data for p in parts], axis=0), tuple(parts), bwd)


# -- activations / fused layers ------------------------------------------------

def maxout_rows(x: Tensor, k: int) -> Tensor:
    """Max over consecutive groups of k units; ties route to the lowest index."""
    if x.ndim != 2:
        raise ShapeError(f"maxout expects a 2-D tensor, got shape {x.shape}")
    b, d = x.shape
    if d % k != 0:
        raise ShapeError(f"maxout group size {k} does not divide width {d}")
    grouped = x.data.reshape(b, d // k, k)
    # a running maximum over the k strided slices beats a reduction over the
    # short last axis; np.maximum propagates NaN like max(axis=2)
    out = grouped[:, :, 0].copy()
    for j in range(1, k):
        np.maximum(out, grouped[:, :, j], out=out)

    def bwd(g):
        idx = grouped.argmax(axis=2)
        gx = np.zeros_like(grouped)
        np.put_along_axis(gx, idx[:, :, None], g[:, :, None], axis=2)
        _accumulate(x, gx.reshape(b, d))
    return _make(out, (x,), bwd)


def l2_normalize_rows(z: Tensor) -> Tensor:
    """Scale each row to unit Euclidean norm; rows with norm <= EPS_NORM are
    divided by EPS_NORM instead (exact-zero rows stay zero)."""
    norms = np.linalg.norm(z.data, axis=1, keepdims=True)
    denom = np.maximum(norms, EPS_NORM)
    out_data = z.data / denom
    clipped = norms <= EPS_NORM

    def bwd(g):
        # For free rows: d(z/|z|) = (g - y (g.y)) / |z|.  Clipped rows are z/eps.
        dot = (g * out_data).sum(axis=1, keepdims=True)
        gz = np.where(clipped, g / EPS_NORM, (g - out_data * dot) / denom)
        _accumulate(z, gz)
    return _make(out_data, (z,), bwd)


def softmax_rows(logits: Tensor, temperature: float = 1.0,
                 in_place: bool = False) -> Tensor:
    """Row softmax of logits/temperature with max-subtraction for stability.

    Forward and backward each allocate one full-size array and finish in it.
    With `in_place`, the forward allocates none: the probabilities are written
    into the logits' buffer; the caller guarantees that nothing reads the logits'
    value afterwards (the backward of softmax reads only the probabilities)."""
    if temperature <= 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    probs = np.divide(logits.data, temperature, out=logits.data if in_place else None)
    np.subtract(probs, probs.max(axis=1, keepdims=True), out=probs)
    np.exp(probs, out=probs)
    np.divide(probs, probs.sum(axis=1, keepdims=True), out=probs)

    def bwd(g):
        # probs * (g - sum(g * probs)) / temperature
        gx = g * probs
        inner = gx.sum(axis=1, keepdims=True)
        np.subtract(g, inner, out=gx)
        np.multiply(probs, gx, out=gx)
        np.divide(gx, temperature, out=gx)
        _accumulate(logits, gx)
    return _make(probs, (logits,), bwd)


def cross_entropy_rows(target: Tensor, pred: Tensor) -> Tensor:
    """Mean over rows of -sum_j target[j] * log(pred[j] + EPS_LOG); both
    inputs are expected row-stochastic.

    The log table is kept for the backward only when the target takes a
    gradient; otherwise the forward's product overwrites it and it is dropped.
    The backward forms pred + EPS_LOG a block of rows at a time, so the pred
    gradient is the only full-size array it allocates for pred."""
    if target.shape != pred.shape:
        raise ShapeError(f"cross-entropy shapes disagree: {target.shape} vs {pred.shape}")
    b = target.shape[0]
    logp = pred.data + EPS_LOG
    np.log(logp, out=logp)
    if records(target):
        value = -(target.data * logp).sum() / b
    else:
        same = np.result_type(target.data, logp) == logp.dtype
        value = -np.multiply(target.data, logp, out=logp if same else None).sum() / b
        logp = None

    def bwd(g):
        if pred.requires_grad:
            # -(g/b) * target / (pred + EPS_LOG)
            gp = -(g / b) * target.data
            rows = max(1, UPDATE_BLOCK // max(1, gp[:1].size))
            for start in range(0, b, rows):
                block = gp[start:start + rows]
                np.divide(block, pred.data[start:start + rows] + EPS_LOG, out=block)
            _accumulate(pred, gp)
        if target.requires_grad:
            _accumulate(target, -(g / b) * logp)
    return _make(np.asarray(value), (target, pred), bwd)


def bce_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Mean binary cross-entropy from raw logits, computed in the stable form
    max(x,0) - x*t + log(1 + exp(-|x|))."""
    if logits.shape != targets.shape:
        raise ShapeError(f"bce shapes disagree: {logits.shape} vs {targets.shape}")
    x, t = logits.data, targets.data
    n = x.size
    vals = np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x)))
    sig = 1.0 / (1.0 + np.exp(-x))

    def bwd(g):
        if logits.requires_grad:
            _accumulate(logits, (g / n) * (sig - t))
        if targets.requires_grad:
            _accumulate(targets, (g / n) * (-x))
    return _make(np.asarray(vals.sum() / n), (logits, targets), bwd)


# -- backward pass --------------------------------------------------------------

def backward(loss: Tensor, leaf_done: Callable[[Tensor], None] | None = None):
    """Populate grad buffers for every requires_grad tensor reachable from loss,
    clearing the recorded graph as it goes: once a node has passed its gradient
    on, its edges are cut, so it is freed unless the caller still holds it.

    Each leaf's consumers are counted, and as soon as the last of them has run
    the leaf's gradient is complete: `leaf_done`, if given, is then called once
    with each leaf that takes gradients and got one, while the rest of the graph
    is still to run (an optimizer can update the leaf and drop its gradient)."""
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar, got shape {loss.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    pending: dict[int, int] = {}  # id(leaf) -> consumers yet to run
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p._backward is None and p.requires_grad:
                pending[id(p)] = pending.get(id(p), 0) + 1
            if id(p) not in visited:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        parents = node._parents
        node._parents = ()
        node._backward = None
        if node is not loss and not node.requires_grad:
            node.grad = None
        for p in parents:
            if id(p) in pending:
                pending[id(p)] -= 1
                if not pending[id(p)] and p.grad is not None and leaf_done is not None:
                    leaf_done(p)


def finite_difference_check(f: Callable[[], Tensor], params: Sequence[Tensor],
                            step: float = 1e-5) -> float:
    """Compare tape gradients of the scalar f() against central differences.

    Returns the max elementwise relative error with denominator
    max(|analytic|, |numeric|, 1e-8).
    """
    for p in params:
        p.zero_grad()
    backward(f())
    grads = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()

    max_err = 0.0
    for p, g in zip(params, grads):
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = float(f().data)
            flat[i] = orig - step
            fm = float(f().data)
            flat[i] = orig
            numeric = (fp - fm) / (2 * step)
            err = abs(numeric - gflat[i]) / max(abs(numeric), abs(gflat[i]), 1e-8)
            max_err = max(max_err, err)
    return max_err


# -- batch normalization ---------------------------------------------------------

def batch_norm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5,
                     in_place: bool = False):
    """Batch-statistics normalization with affine scale/shift.

    Returns (out, batch_mean, batch_var); the caller owns running-stat updates.
    The forward allocates xhat (kept for the backward) and the output; the
    backward allocates two full-size arrays.  With `in_place`, xhat is written
    into x's buffer; the caller guarantees that nothing reads x's value
    afterwards (the backward of batch norm reads xhat, not x).  Wherever this
    runs, all three operands take gradients.
    """
    mu = x.data.mean(axis=0)
    var = x.data.var(axis=0)
    std = np.sqrt(var + eps)
    xhat = np.subtract(x.data, mu, out=x.data if in_place else None)
    np.divide(xhat, std, out=xhat)
    out = xhat * gamma.data
    np.add(out, beta.data, out=out)

    def bwd(g):
        # (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / std
        dxhat = g * gamma.data
        prod = dxhat * xhat
        mean_prod = prod.mean(axis=0)
        np.multiply(xhat, mean_prod, out=prod)
        np.subtract(dxhat, dxhat.mean(axis=0), out=dxhat)
        np.subtract(dxhat, prod, out=dxhat)
        np.divide(dxhat, std, out=dxhat)
        _accumulate(x, dxhat)
        _accumulate(gamma, np.multiply(g, xhat, out=prod).sum(axis=0))
        _accumulate(beta, g.sum(axis=0))
    return _make(out, (x, gamma, beta), bwd), mu, var


def batch_norm_eval(x: Tensor, gamma: Tensor, beta: Tensor,
                    running_mean: np.ndarray, running_var: np.ndarray,
                    eps: float = 1e-5) -> Tensor:
    std = np.sqrt(running_var + eps)
    xhat = (x.data - running_mean) / std

    def bwd(g):
        _accumulate(x, g * gamma.data / std)
        _accumulate(gamma, (g * xhat).sum(axis=0))
        _accumulate(beta, g.sum(axis=0))
    return _make(xhat * gamma.data + beta.data, (x, gamma, beta), bwd)
