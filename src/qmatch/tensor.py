"""Dense tensors with reverse-mode automatic differentiation.

Tensors wrap numpy arrays (float64 by default, float32 selectable) and
record the operations applied to them.  Calling :func:`backward` on a
scalar result walks the recorded graph in reverse topological order and
accumulates gradients into every tensor that requires them, cutting each
node's edges as soon as its own gradient is passed on, so activations are
freed during the pass and a tensor can be reused in a fresh forward pass;
it can also hand each leaf to a callback as soon as the leaf's gradient is
complete, so an optimizer can update the leaf and drop that gradient at once.
A binary op (the four elementwise ones and matmul) computes only the
gradients its operands take: the gradient of an operand with
requires_grad=False is never formed.  The cross-entropy ops and BCE pass no
gradient to their target side.  Inside :func:`no_grad` nothing is recorded.
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

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
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

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, Tensor(np.asarray(-1.0, dtype=self.data.dtype)))

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self):
        return tmean(self)


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


def relu(a: Tensor, in_place: bool = False) -> Tensor:
    """a * (a > 0).  With `in_place`, the result is written into a's buffer;
    the caller guarantees that nothing reads a's value afterwards (the backward
    of relu reads only the mask)."""
    mask = a.data > 0

    def bwd(g):
        _accumulate(a, g * mask)
    return _make(np.multiply(a.data, mask, out=a.data if in_place else None), (a,), bwd)


# -- reductions ---------------------------------------------------------------

def tsum(a: Tensor, axis=None) -> Tensor:
    def bwd(g):
        gg = g if axis is None else np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(gg, a.shape).copy())
    return _make(a.data.sum(axis=axis), (a,), bwd)


def tmean(a: Tensor) -> Tensor:
    """The mean of all of a's elements."""
    def bwd(g):
        _accumulate(a, np.broadcast_to(g / a.data.size, a.shape).copy())
    return _make(a.data.mean(), (a,), bwd)


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


def _softmax_rows_into(x: np.ndarray, temperature: float, out=None) -> np.ndarray:
    """Row softmax of x/temperature with max-subtraction for stability, in `out`
    (a new array when None)."""
    if temperature <= 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    probs = np.divide(x, temperature, out=out)
    np.subtract(probs, probs.max(axis=1, keepdims=True), out=probs)
    np.exp(probs, out=probs)
    np.divide(probs, probs.sum(axis=1, keepdims=True), out=probs)
    return probs


def softmax_rows(logits: Tensor, temperature: float = 1.0,
                 in_place: bool = False) -> Tensor:
    """Row softmax of logits/temperature with max-subtraction for stability.

    Forward and backward each allocate one full-size array and finish in it.
    With `in_place`, the forward allocates none: the probabilities are written
    into the logits' buffer; the caller guarantees that nothing reads the logits'
    value afterwards (the backward of softmax reads only the probabilities)."""
    probs = _softmax_rows_into(logits.data, temperature,
                               out=logits.data if in_place else None)

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
    inputs are expected row-stochastic, and the target takes no gradient.

    The forward writes the product into its log table and drops it.  The
    backward forms pred + EPS_LOG a block of rows at a time, so the pred
    gradient is the only full-size array it allocates."""
    if target.shape != pred.shape:
        raise ShapeError(f"cross-entropy shapes disagree: {target.shape} vs {pred.shape}")
    if records(target):
        raise ValueError("cross_entropy_rows passes no gradient to its target; detach it")
    b = target.shape[0]
    logp = pred.data + EPS_LOG
    np.log(logp, out=logp)
    same = np.result_type(target.data, logp) == logp.dtype
    value = -np.multiply(target.data, logp, out=logp if same else None).sum() / b

    def bwd(g):
        # -(g/b) * target / (pred + EPS_LOG)
        gp = -(g / b) * target.data
        rows = _block_rows(gp)
        for start in range(0, b, rows):
            block = gp[start:start + rows]
            np.divide(block, pred.data[start:start + rows] + EPS_LOG, out=block)
        _accumulate(pred, gp)
    return _make(np.asarray(value), (pred,), bwd)


def _block_rows(a: np.ndarray) -> int:
    """Rows of `a` that make a block of at most UPDATE_BLOCK elements (at least one)."""
    return max(1, UPDATE_BLOCK // max(1, a[:1].size))


def queue_cross_entropy_rows(z_s: Tensor, z_t: Tensor, q: Tensor,
                             tau_s: float, tau_t: float) -> Tensor:
    """cross_entropy_rows(softmax_rows(z_t @ q, tau_t), softmax_rows(z_s @ q, tau_s))
    as one op, to the bit, with a gradient into z_s only (z_t and q are read as
    constants).

    The forward allocates the two products, each softmax written into its own;
    the student probabilities are kept for the backward, and log(p_s + EPS_LOG)
    is formed a block of rows at a time and multiplied into the teacher rows,
    which the value then sums.  The backward forms the teacher rows again, the
    only full-size array it allocates, turns them into the probabilities'
    gradient block by block, and writes the student softmax's backward into the
    probabilities' buffer."""
    if not (z_s.ndim == z_t.ndim == q.ndim == 2
            and z_s.shape[0] == z_t.shape[0] and z_s.shape[1] == z_t.shape[1] == q.shape[0]):
        raise ShapeError(f"queue cross-entropy expects (B, D), (B, D) and (D, Q), got "
                         f"{z_s.shape}, {z_t.shape} and {q.shape}")
    b = z_s.shape[0]
    p_s = _softmax_rows_into(z_s.data @ q.data, tau_s)
    t = z_t.data @ q.data
    _softmax_rows_into(t, tau_t, out=t)
    rows = _block_rows(t)
    logp = np.empty((min(rows, b), t.shape[1]), p_s.dtype)  # one block, reused
    for start in range(0, b, rows):
        block = t[start:start + rows]
        log_block = np.add(p_s[start:start + rows], EPS_LOG, out=logp[:len(block)])
        np.multiply(block, np.log(log_block, out=log_block), out=block)
    value = -t.sum() / b

    def bwd(g):
        # -(g/b) * p_t / (p_s + EPS_LOG), then the student softmax's backward
        gp = z_t.data @ q.data
        _softmax_rows_into(gp, tau_t, out=gp)
        np.multiply(gp, -(g / b), out=gp)
        for start in range(0, b, rows):
            g_block, p_block = gp[start:start + rows], p_s[start:start + rows]
            np.divide(g_block, p_block + EPS_LOG, out=g_block)
            inner = (g_block * p_block).sum(axis=1, keepdims=True)
            np.subtract(g_block, inner, out=g_block)
            np.multiply(p_block, g_block, out=p_block)
            np.divide(p_block, tau_s, out=p_block)
        _accumulate(z_s, p_s @ q.data.T)
    return _make(np.asarray(value), (z_s,), bwd)


def info_nce_rows(sims: Tensor, positives: np.ndarray, tau: float) -> Tensor:
    """Mean over rows i of log(sum_{j != i} e[i, j]) - log(e[i, positives[i]]),
    with e = exp(sims / tau) and positives[i] != i.  The forward allocates e,
    kept for the backward, which writes the gradient into e's buffer."""
    if sims.ndim != 2 or not sims.shape[0] == sims.shape[1] == len(positives):
        raise ShapeError(f"info_nce_rows expects square sims and one positive per row, "
                         f"got {sims.shape} and {len(positives)}")
    n = sims.shape[0]
    rows = np.arange(n)
    e = np.multiply(sims.data, 1.0 / tau)
    np.exp(e, out=e)
    diag = e.diagonal().copy()
    np.fill_diagonal(e, 0.0)  # an anchor is excluded from its own denominator
    denom = e.sum(axis=1)
    np.fill_diagonal(e, diag)
    s_pos = e[rows, positives]
    value = (np.log(denom) - np.log(s_pos)).mean()

    def bwd(g):
        # d/de[i, j] = g_den[i] off the diagonal, plus g_pos[i] at (i, positives[i])
        g_den = (g / n) / denom
        g_pos = -(g / n) / s_pos
        np.multiply(e, g_den[:, None], out=e)
        np.fill_diagonal(e, 0.0)
        e[rows, positives] = (g_den + g_pos) * s_pos
        _accumulate(sims, np.multiply(e, 1.0 / tau, out=e))
    return _make(np.asarray(value), (sims,), bwd)


def bce_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Mean binary cross-entropy from raw logits, computed in the stable form
    max(x,0) - x*t + log(1 + exp(-|x|)); the targets take no gradient."""
    if logits.shape != targets.shape:
        raise ShapeError(f"bce shapes disagree: {logits.shape} vs {targets.shape}")
    if records(targets):
        raise ValueError("bce_with_logits passes no gradient to its targets; detach them")
    x, t = logits.data, targets.data
    n = x.size
    vals = np.maximum(x, 0) - x * t + np.log1p(np.exp(-np.abs(x)))
    sig = 1.0 / (1.0 + np.exp(-x))

    def bwd(g):
        _accumulate(logits, (g / n) * (sig - t))
    return _make(np.asarray(vals.sum() / n), (logits,), bwd)


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
    Mean and variance take np.mean's and np.var's steps, but the deviations are
    formed once and become xhat.  The forward allocates xhat (kept for the
    backward) and the output, which first holds the squared deviations; the
    backward allocates two full-size arrays.  With `in_place`, xhat is written
    into x's buffer; the caller guarantees that nothing reads x's value
    afterwards (the backward of batch norm reads xhat, not x).  Wherever this
    runs, all three operands take gradients.
    """
    n = np.intp(len(x.data))  # np.mean and np.var divide their sums by an intp count
    mu = x.data.sum(axis=0)
    mu /= n
    xhat = np.subtract(x.data, mu, out=x.data if in_place else None)
    out = np.square(xhat)
    var = out.sum(axis=0)
    var /= n
    std = np.sqrt(var + eps)
    np.divide(xhat, std, out=xhat)
    same = out.dtype == np.result_type(xhat, gamma.data)  # not for f32 x with f64 gamma
    out = np.multiply(xhat, gamma.data, out=out if same else None)
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
    """Running-statistics normalization with affine scale/shift, in x's buffer.

    xhat is written into x's buffer, and so is the output unless a gradient can
    flow (the backward reads xhat), so with nothing recorded the forward
    allocates no full-size array.  The caller guarantees that nothing reads x's
    value afterwards.  Where an operand is wider than x, the result takes the
    wider dtype in new arrays instead, as add's in-place rule has it.
    """
    std = np.sqrt(running_var + eps)
    same = np.result_type(x.data, running_mean, std, gamma.data, beta.data) == x.data.dtype
    buf = x.data if same else None
    xhat = np.divide(np.subtract(x.data, running_mean, out=buf), std, out=buf)
    out = np.multiply(xhat, gamma.data, out=None if records(x, gamma, beta) else buf)
    out = np.add(out, beta.data, out=out if same else None)

    def bwd(g):
        _accumulate(x, g * gamma.data / std)
        _accumulate(gamma, (g * xhat).sum(axis=0))
        _accumulate(beta, g.sum(axis=0))
    return _make(out, (x, gamma, beta), bwd)
