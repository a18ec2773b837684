"""Dense tensors with reverse-mode automatic differentiation.

Row-major float64 storage on top of numpy and the small set of
differentiable operations the rest of the package is built from. No views,
no strides, no GPU. An op output holds its inputs (`_parents`), a closure
pushing its gradient to them (`_backward`) and a creation number. backward()
sweeps the graph reachable from the loss in reverse creation order and
consumes each node it sweeps, so nothing else keeps a graph alive and no
node is swept twice; it keeps gradients only on the leaves and the loss.

Ops: elementwise arithmetic (add, sub, mul, neg, pow_scalar,
maximum_scalar), activations (relu, gelu, dropout), linear algebra (matmul,
linear, transpose2d, reshape, slicing, take_pairs, embedding_gather, concat,
stack), reductions and normalization (tensor_sum, mean, softmax,
log_sum_exp, layer_norm), conv2d over an (N, C, H, W) batch as one
matrix product, and multi-head scaled dot-product attention as one node.
attention(q, k, v, heads) gives head i columns i*dh:(i+1)*dh of q, k and v
(dh = d / heads) and writes its output to the same columns, i.e. head
outputs side by side. softmax and attention share one max-shifted numpy
softmax.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "NumericError",
    "ContractError",
    "ConfigError",
    "Tensor",
    "no_grad",
    "backward",
    "matmul",
    "add",
    "sub",
    "mul",
    "neg",
    "relu",
    "gelu",
    "pow_scalar",
    "maximum_scalar",
    "dropout",
    "softmax",
    "attention",
    "log_sum_exp",
    "layer_norm",
    "concat",
    "stack",
    "mean",
    "tensor_sum",
    "embedding_gather",
    "linear",
    "transpose2d",
    "reshape",
    "take_pairs",
    "conv2d",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NumericError(ArithmeticError):
    """Input values make the operation numerically undefined."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class ConfigError(ValueError):
    """Configuration values are inconsistent (raised at construction)."""


_state = threading.local()
_creation_seq = itertools.count()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager disabling graph recording (inference / decoding)."""

    def __enter__(self):
        self._prev = _grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


class Tensor:
    """Dense row-major float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 0:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Copy of this tensor that never receives gradient."""
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def __getitem__(self, key):
        return _slice(self, key)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _as_tensor(v) -> Tensor:
    return v if isinstance(v, Tensor) else Tensor(v)


def _record(out: Tensor, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out.requires_grad = True
    out._parents = parents
    out._backward = backward_fn
    out._seq = next(_creation_seq)
    return out


def _consumed(g: np.ndarray | None = None) -> None:
    """`_backward` of a node whose backward sweep has already run."""
    raise ContractError("backward() already swept this graph node; run a new forward pass")


def _tracked(*tensors: Tensor) -> bool:
    return _grad_enabled() and any(t.requires_grad for t in tensors)


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype)  # a copy: later sums add into it in place
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep seeding d(loss)/d(loss) = 1.

    The loss must be a scalar. The interior nodes reachable from it through
    `_parents` run `_backward` in reverse creation order (a topological
    order), then are consumed: parents, closure and gradient are dropped,
    so after the sweep only the loss and the leaves hold `.grad`. Reaching
    a consumed node (a second call on the same loss, or a loss built on a
    swept node) raises ContractError before any grad is written.
    """
    if loss.data.shape not in ((), (1,)):
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
    found, pending = {}, [loss]
    while pending:
        node = pending.pop()
        if node._backward is _consumed:
            _consumed()
        if node._backward is not None and id(node) not in found:
            found[id(node)] = node
            pending.extend(node._parents)
    if loss.requires_grad:
        loss.grad = np.ones_like(loss.data)
    # Creation order fixes the order of every gradient sum, not just topology.
    for node in sorted(found.values(), key=lambda n: n._seq, reverse=True):
        if node.grad is not None:
            node._backward(node.grad)
            if node is not loss:
                node.grad = None
        node._parents = ()
        node._backward = _consumed


# ---------------------------------------------------------------------------
# elementwise and broadcasting arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None
    out = Tensor(data)
    if _tracked(a, b):
        def _bw(g):
            _accum(a, _unbroadcast(g, a.shape))
            _accum(b, _unbroadcast(g, b.shape))
        _record(out, (a, b), _bw)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast") from None
    out = Tensor(data)
    if _tracked(a, b):
        def _bw(g):
            _accum(a, _unbroadcast(g, a.shape))
            _accum(b, _unbroadcast(-g, b.shape))
        _record(out, (a, b), _bw)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None
    out = Tensor(data)
    if _tracked(a, b):
        def _bw(g):
            _accum(a, _unbroadcast(g * b.data, a.shape))
            _accum(b, _unbroadcast(g * a.data, b.shape))
        _record(out, (a, b), _bw)
    return out


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    if _tracked(a):
        _record(out, (a,), lambda g: _accum(a, -g))
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    if _tracked(a):
        mask = a.data > 0.0
        _record(out, (a,), lambda g: _accum(a, g * mask))
    return out


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5 x (1 + tanh(c (x + 0.044715 x^3)))."""
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(inner)
    out = Tensor(0.5 * x * (1.0 + t))
    if _tracked(a):
        def _bw(g):
            dinner = _GELU_C * (1.0 + 3.0 * 0.044715 * x**2)
            grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
            _accum(a, g * grad)
        _record(out, (a,), _bw)
    return out


def pow_scalar(a: Tensor, p: float) -> Tensor:
    out = Tensor(a.data**p)
    if _tracked(a):
        def _bw(g):
            _accum(a, g * p * a.data ** (p - 1.0))
        _record(out, (a,), _bw)
    return out


def maximum_scalar(a: Tensor, c: float) -> Tensor:
    out = Tensor(np.maximum(a.data, c))
    if _tracked(a):
        mask = a.data >= c
        _record(out, (a,), lambda g: _accum(a, g * mask))
    return out


def dropout(a: Tensor, p: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: identity in eval mode, survivors scaled by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return a
    if rng is None:
        raise ContractError("dropout in train mode needs an explicit rng")
    mask = (rng.random(a.shape) >= p) / (1.0 - p)
    out = Tensor(a.data * mask)
    if _tracked(a):
        _record(out, (a,), lambda g: _accum(a, g * mask))
    return out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)
    if _tracked(a, b):
        def _bw(g):
            _accum(a, g @ b.data.T)
            _accum(b, a.data.T @ g)
        _record(out, (a, b), _bw)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) over the last axis of x, any leading axes; w is (d_in, d_out)."""
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: x {x.shape} vs w {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias {b.shape} vs w {w.shape}")
    data = x.data @ w.data
    if b is not None:
        data = data + b.data
    out = Tensor(data)
    tracked = _tracked(x, w, b) if b is not None else _tracked(x, w)
    if tracked:
        def _bw(g):
            _accum(x, g @ w.data.T)
            g2 = g.reshape(-1, w.shape[1])
            _accum(w, x.data.reshape(-1, w.shape[0]).T @ g2)
            if b is not None:
                _accum(b, g2.sum(axis=0))
        parents = (x, w) if b is None else (x, w, b)
        _record(out, parents, _bw)
    return out


def transpose2d(a: Tensor) -> Tensor:
    """Swap the last two axes: a matrix transpose per leading index."""
    if a.ndim < 2:
        raise ShapeError(f"transpose2d needs rank >= 2, got {a.shape}")
    out = Tensor(a.data.swapaxes(-1, -2))
    if _tracked(a):
        _record(out, (a,), lambda g: _accum(a, g.swapaxes(-1, -2)))
    return out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    if _tracked(a):
        _record(out, (a,), lambda g: _accum(a, g.reshape(a.shape)))
    return out


def _slice(a: Tensor, key) -> Tensor:
    """Basic indexing (ints and slices only); gradient scatters back."""
    if isinstance(key, tuple):
        parts = key
    else:
        parts = (key,)
    for part in parts:
        if not isinstance(part, (int, np.integer, slice)):
            raise ContractError(f"tensor indexing supports ints and slices, got {type(part)!r}")
    out = Tensor(a.data[key].copy())
    if _tracked(a):
        def _bw(g):
            buf = np.zeros_like(a.data)
            buf[key] += g
            _accum(a, buf)
        _record(out, (a,), _bw)
    return out


def take_pairs(a: Tensor, rows, cols) -> Tensor:
    """Gather a[rows[k], cols[k]] into a 1-d tensor; gradient scatter-adds."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if a.ndim != 2 or rows.shape != cols.shape or rows.ndim != 1:
        raise ShapeError(f"take_pairs: tensor {a.shape}, rows {rows.shape}, cols {cols.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= a.shape[0]
                      or cols.min() < 0 or cols.max() >= a.shape[1]):
        raise ContractError("take_pairs: index out of range")
    out = Tensor(a.data[rows, cols])
    if _tracked(a):
        def _bw(g):
            buf = np.zeros_like(a.data)
            np.add.at(buf, (rows, cols), g)
            _accum(a, buf)
        _record(out, (a,), _bw)
    return out


def embedding_gather(table: Tensor, indices) -> Tensor:
    """Rows table[indices]; gradient scatter-adds into the table."""
    idx = np.asarray(indices, dtype=np.intp)
    if table.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"embedding_gather: table {table.shape}, indices rank {idx.ndim}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ContractError("embedding_gather: index out of range")
    out = Tensor(table.data[idx])
    if _tracked(table):
        def _bw(g):
            buf = np.zeros_like(table.data)
            np.add.at(buf, idx, g)
            _accum(table, buf)
        _record(out, (table,), _bw)
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of zero tensors")
    nd = tensors[0].ndim
    if not -nd <= axis < nd:
        raise ShapeError(f"concat: axis {axis} out of range for rank {nd}")
    axis = axis % nd
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in tensors]}") from None
    out = Tensor(data)
    if _tracked(*tensors):
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def _bw(g):
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                sl = [slice(None)] * nd
                sl[axis] = slice(lo, hi)
                _accum(t, g[tuple(sl)])
        _record(out, tuple(tensors), _bw)
    return out


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("stack of zero tensors")
    shape = tensors[0].shape
    if any(t.shape != shape for t in tensors):
        raise ShapeError(f"stack: unequal shapes {[t.shape for t in tensors]}")
    out = Tensor(np.stack([t.data for t in tensors], axis=0))
    if _tracked(*tensors):
        def _bw(g):
            for i, t in enumerate(tensors):
                _accum(t, g[i])
        _record(out, tuple(tensors), _bw)
    return out


# ---------------------------------------------------------------------------
# reductions and normalization


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    out = Tensor(a.data.sum(axis=axis))
    if _tracked(a):
        def _bw(g):
            if axis is None:
                _accum(a, np.broadcast_to(g, a.shape).copy())
            else:
                _accum(a, np.broadcast_to(np.expand_dims(g, axis), a.shape).copy())
        _record(out, (a,), _bw)
    return out


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    count = a.size if axis is None else a.shape[axis]
    if count == 0:
        raise ShapeError(f"mean over empty axis of shape {a.shape}")
    out = Tensor(a.data.mean(axis=axis))
    if _tracked(a):
        def _bw(g):
            if axis is None:
                _accum(a, np.broadcast_to(g / count, a.shape).copy())
            else:
                _accum(a, np.broadcast_to(np.expand_dims(g, axis) / count, a.shape).copy())
        _record(out, (a,), _bw)
    return out


def _softmax_array(x: np.ndarray, axis: int, op: str) -> np.ndarray:
    """Max-shifted softmax of a numpy array; non-finite input is an error."""
    if not np.isfinite(x).all():
        raise NumericError(f"{op}: non-finite input")
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along `axis`; each slice sums to 1."""
    if a.shape[axis] < 1:
        raise ShapeError(f"softmax over empty axis of shape {a.shape}")
    s = _softmax_array(a.data, axis, "softmax")
    out = Tensor(s)
    if _tracked(a):
        def _bw(g):
            dot = (g * s).sum(axis=axis, keepdims=True)
            _accum(a, s * (g - dot))
        _record(out, (a,), _bw)
    return out


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(rows, heads * dh) -> (heads, rows, dh) view; head i is columns i*dh:(i+1)*dh."""
    rows, d = x.shape
    return x.reshape(rows, heads, d // heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of _split_heads: (heads, rows, dh) -> (rows, heads * dh)."""
    heads, rows, dh = x.shape
    return x.transpose(1, 0, 2).reshape(rows, heads * dh)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention, recorded as one graph node.

    q is (n, d), k and v are (m, d). Per head i, on columns i*dh:(i+1)*dh
    with dh = d / heads: softmax_keys((q_i k_i^T) / sqrt(dh)) v_i. The
    output is (n, d) with head i in columns i*dh:(i+1)*dh.
    """
    if q.ndim != 2 or k.ndim != 2 or v.shape != k.shape or q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}")
    d = q.shape[1]
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"attention: width {d} not divisible by {heads} heads")
    if k.shape[0] < 1:
        raise ShapeError(f"attention over zero keys, k {k.shape}")
    scale = 1.0 / math.sqrt(d // heads)
    qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
    # Overflowing logits are reported once, by _softmax_array's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        logits = np.matmul(qh, kh.transpose(0, 2, 1)) * scale
    s = _softmax_array(logits, -1, "attention")
    out = Tensor(_merge_heads(np.matmul(s, vh)))
    if _tracked(q, k, v):
        def _bw(g):
            gh = _split_heads(g, heads)
            ds = np.matmul(gh, vh.transpose(0, 2, 1))
            dlogits = s * (ds - (ds * s).sum(axis=-1, keepdims=True)) * scale
            _accum(q, _merge_heads(np.matmul(dlogits, kh)))
            _accum(k, _merge_heads(np.matmul(dlogits.transpose(0, 2, 1), qh)))
            _accum(v, _merge_heads(np.matmul(s.transpose(0, 2, 1), gh)))
        _record(out, (q, k, v), _bw)
    return out


def log_sum_exp(a: Tensor, axis: int = -1) -> Tensor:
    """log(sum(exp(x))) along `axis`, max-shifted so it never overflows."""
    if a.shape[axis] < 1:
        raise ShapeError(f"log_sum_exp over empty axis of shape {a.shape}")
    if not np.isfinite(a.data).all():
        raise NumericError("log_sum_exp: non-finite input")
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    sum_e = e.sum(axis=axis, keepdims=True)
    out_data = np.squeeze(m + np.log(sum_e), axis=axis)
    out = Tensor(out_data)
    if _tracked(a):
        sm = e / sum_e
        def _bw(g):
            _accum(a, np.expand_dims(g, axis) * sm)
        _record(out, (a,), _bw)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then gamma * x + beta."""
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise ShapeError("layer_norm over empty last axis")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: gamma {gamma.shape} / beta {beta.shape} vs d={d}")
    if eps <= 0:
        raise ContractError(f"layer_norm eps must be > 0, got {eps}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(gamma.data * xhat + beta.data)
    if _tracked(x, gamma, beta):
        def _bw(g):
            lead = tuple(range(g.ndim - 1))
            _accum(gamma, (g * xhat).sum(axis=lead))
            _accum(beta, g.sum(axis=lead))
            dxhat = g * gamma.data
            dx = inv * (dxhat
                        - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
            _accum(x, dx)
        _record(out, (x, gamma, beta), _bw)
    return out


# ---------------------------------------------------------------------------
# convolution (im2col)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution of a batch x (N, C, H, W) with w (CO, C, kh, kw),
    optional bias (CO,); the output is (N, CO, Ho, Wo).

    im2col over the whole batch: the columns are gathered as
    (C, kh, kw, N, Ho, Wo), so one matrix product covers every image, and
    padding is a slice assignment into one zero buffer. The backward col2im
    uses the same layout.
    """
    if x.ndim != 4 or w.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv2d: x {x.shape} vs w {w.shape}")
    n, c, h, ww = x.shape
    co, _, kh, kw = w.shape
    if b is not None and b.shape != (co,):
        raise ShapeError(f"conv2d: bias {b.shape} vs out channels {co}")
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (ww + 2 * padding - kw) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} too large for input {h}x{ww}")

    # Channel-major (C, N, H + 2p, W + 2p), so each kernel offset's windows
    # land in cols[:, ki, kj] as they are.
    xp = x.data.transpose(1, 0, 2, 3)
    if padding:
        xp = np.zeros((c, n, h + 2 * padding, ww + 2 * padding))
        xp[:, :, padding:padding + h, padding:padding + ww] = x.data.transpose(1, 0, 2, 3)
    cols = np.empty((c, kh, kw, n, h_out, w_out))
    for ki in range(kh):
        for kj in range(kw):
            cols[:, ki, kj] = xp[:, :, ki:ki + stride * h_out:stride, kj:kj + stride * w_out:stride]
    cols2 = cols.reshape(c * kh * kw, n * h_out * w_out)
    wmat = w.data.reshape(co, c * kh * kw)
    out2 = wmat @ cols2
    if b is not None:
        out2 += b.data[:, None]
    out = Tensor(out2.reshape(co, n, h_out, w_out).transpose(1, 0, 2, 3))

    tracked = _tracked(x, w, b) if b is not None else _tracked(x, w)
    if tracked:
        def _bw(g):
            g2 = g.transpose(1, 0, 2, 3).reshape(co, n * h_out * w_out)
            _accum(w, (g2 @ cols2.T).reshape(w.shape))
            if b is not None:
                _accum(b, g2.sum(axis=1))
            if not x.requires_grad:
                return
            dcols = (wmat.T @ g2).reshape(c, kh, kw, n, h_out, w_out)
            dxp = np.zeros(xp.shape)
            for ki in range(kh):
                for kj in range(kw):
                    dxp[:, :, ki:ki + stride * h_out:stride, kj:kj + stride * w_out:stride] += dcols[:, ki, kj]
            if padding:
                dxp = dxp[:, :, padding:padding + h, padding:padding + ww]
            _accum(x, dxp.transpose(1, 0, 2, 3))
        parents = (x, w) if b is None else (x, w, b)
        _record(out, parents, _bw)
    return out
