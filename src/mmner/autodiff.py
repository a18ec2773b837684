"""Dense tensors with reverse-mode automatic differentiation.

Row-major float64 storage on top of numpy and the small set of
differentiable operations the rest of the package is built from. No views,
no strides, no GPU. A tracked op's output Tensor holds its value and a
graph node; the node holds no tensor value. It holds its parents' nodes
(a leaf Tensor that needs a gradient stands for itself, an input that
needs none is None), a closure mapping its gradient to its parents'
gradients, its own gradient while backward runs, and a creation number.
Each closure keeps only what its backward reads: shapes for add, sub,
reshape, transpose2d, slicing, concat, stack, sums and means; masks for
relu, maximum_scalar and dropout; inputs for linear, matmul, mul, gelu,
pow_scalar, conv2d and attention; softmax, log_sum_exp and layer_norm
their normalized values. So an activation no backward reads is freed,
by reference counting alone, as soon as the forward code drops it.
backward() sweeps the nodes reachable from the loss in reverse creation
order and consumes each node it sweeps, freeing what the node kept, so
no node is swept twice; it keeps gradients only on the leaves and the loss.

Ops take Tensors; an absent optional operand (the bias of linear and
conv2d) is None and gets no gradient. Ops: elementwise arithmetic (add,
sub, mul, neg, pow_scalar, maximum_scalar), activations (relu, gelu,
dropout), linear algebra (matmul, linear, transpose2d, reshape, slicing,
take_pairs, embedding_gather, concat, stack), reductions and
normalization (tensor_sum, mean, softmax, log_sum_exp, layer_norm), conv2d
over an (N, C, H, W) batch as one matrix product whose im2col columns the
graph does not keep, and multi-head scaled dot-product attention as one
node.
attention(q, k, v, heads, key_mask) gives head i columns i*dh:(i+1)*dh of
q, k and v (dh = d / heads) and writes its output to the same columns,
i.e. head outputs side by side, with an optional batch axis; masked keys
get weight exactly 0. softmax and attention share one max-shifted numpy
softmax. dropout draws each batch item's mask from that item's generator.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from typing import Sequence

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
_versions = itertools.count()


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
    """Dense row-major float64 array, optionally tracked for gradients.

    `version` is a stamp, unique across all tensors, drawn afresh whenever
    `data` is rebound (`t.data = a`, and so `t.data += x`). A write through
    a view (`t.data[i] = v`) cannot be seen, so its writer calls `touch()`;
    the model's encode memo trusts these stamps."""

    __slots__ = ("_data", "version", "grad", "requires_grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 0:
            arr = np.ascontiguousarray(arr)
        self._data = arr
        self.version = next(_versions)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._node: _Node | None = None

    def _rebind(self, data: np.ndarray) -> None:
        self._data = data
        self.touch()

    # a C getter: a `def` property costs about half again as much per read
    data = property(operator.attrgetter("_data"), _rebind)

    def touch(self) -> None:
        """Stamp a new version after a write through a view of `data`."""
        self.version = next(_versions)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __getitem__(self, key):
        return _slice(self, key)

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, shape)

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class _Node:
    """One recorded op: where its input gradients go (`parents`, None for
    an input that needs none), the closure `backward(g)` giving one
    gradient per parent, its own gradient while the sweep runs, and its
    creation number."""

    __slots__ = ("parents", "backward", "grad", "seq")

    def __init__(self, parents: tuple, backward_fn):
        self.parents = parents
        self.backward = backward_fn
        self.grad: np.ndarray | None = None
        self.seq = next(_creation_seq)


def _target(t: Tensor | None) -> "_Node | Tensor | None":
    """What a gradient for t accumulates into: its node, the leaf itself,
    or None when t needs no gradient or is an absent operand (None)."""
    if t is None:
        return None
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def _record(out: Tensor, inputs: tuple[Tensor | None, ...], backward_fn) -> Tensor:
    out.requires_grad = True
    # tuple of a list, not of a generator: that one is resized, and resized
    # tuples pile up in the interpreter's tuple free list
    out._node = _Node(tuple([_target(t) for t in inputs]), backward_fn)
    return out


def _consumed(g: np.ndarray | None = None) -> None:
    """`backward` of a node whose backward sweep has already run."""
    raise ContractError("backward() already swept this graph node; run a new forward pass")


def _tracked(*tensors: Tensor | None) -> bool:
    return _grad_enabled() and any(t is not None and t.requires_grad for t in tensors)


def _accum(target: "_Node | Tensor", g: np.ndarray) -> None:
    if target.grad is None:
        target.grad = np.array(g, dtype=np.float64)  # a copy: later sums add into it in place
    else:
        target.grad += g


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

    The loss must be a scalar. The nodes reachable from its node through
    `parents` run their closures in reverse creation order (a topological
    order that also fixes the order of every gradient sum); each closure's
    gradients are added into its parents' nodes, or into the `.grad` of
    the leaves. A swept node is consumed at once: its parents, closure
    (and with it every array the closure kept) and gradient are dropped,
    so the graph's memory falls as the sweep proceeds and after it only
    the loss and the leaves hold `.grad`. Reaching a consumed node (a
    second call on the same loss, or a loss built on a swept node) raises
    ContractError before any grad is written.
    """
    if loss.data.shape not in ((), (1,)):
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
    found, pending = set(), [] if loss._node is None else [loss._node]
    while pending:
        node = pending.pop()
        if node.backward is _consumed:
            _consumed()
        if node not in found:
            found.add(node)
            pending.extend(p for p in node.parents if type(p) is _Node)
    if loss.requires_grad:
        loss.grad = np.ones_like(loss.data)
        if loss._node is not None:
            loss._node.grad = loss.grad
    for node in sorted(found, key=lambda n: n.seq, reverse=True):
        if node.grad is not None:
            for parent, g in zip(node.parents, node.backward(node.grad)):
                if parent is not None:
                    _accum(parent, g)
        node.parents, node.backward, node.grad = (), _consumed, None


# ---------------------------------------------------------------------------
# elementwise and broadcasting arithmetic


def _broadcasting(name: str, f, a, b, grads) -> Tensor:
    """f(a, b) under numpy broadcasting; grads(g) gives the two input
    gradients before they are summed back to the input shapes."""
    try:
        data = f(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast") from None
    out = Tensor(data)
    if _tracked(a, b):
        a_shape, b_shape = a.shape, b.shape
        def _bw(g):
            ga, gb = grads(g)
            return _unbroadcast(ga, a_shape), _unbroadcast(gb, b_shape)
        _record(out, (a, b), _bw)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    return _broadcasting("add", np.add, a, b, lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _broadcasting("sub", np.subtract, a, b, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data
    return _broadcasting("mul", np.multiply, a, b, lambda g: (g * y, g * x))


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    if _tracked(a):
        _record(out, (a,), lambda g: (-g,))
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    if _tracked(a):
        mask = a.data > 0.0
        _record(out, (a,), lambda g: (g * mask,))
    return out


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5 x (1 + tanh(c (x + 0.044715 x^3))), formed in
    one temporary; the backward recomputes the tanh from x (Chen et al., arXiv 1604.06174)."""
    x = a.data
    y = x * x
    y *= x
    y *= 0.044715
    y += x
    y *= _GELU_C
    np.tanh(y, out=y)
    y += 1.0
    y *= x
    y *= 0.5
    out = Tensor(y)
    if _tracked(a):
        def _bw(g):
            t = np.tanh(_GELU_C * (x * x * x * 0.044715 + x))  # the forward's steps, in order
            dinner = _GELU_C * (1.0 + 3.0 * 0.044715 * x**2)
            grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
            return (g * grad,)
        _record(out, (a,), _bw)
    return out


def pow_scalar(a: Tensor, p: float) -> Tensor:
    out = Tensor(a.data**p)
    if _tracked(a):
        x = a.data
        _record(out, (a,), lambda g: (g * p * x ** (p - 1.0),))
    return out


def maximum_scalar(a: Tensor, c: float) -> Tensor:
    out = Tensor(np.maximum(a.data, c))
    if _tracked(a):
        mask = a.data >= c
        _record(out, (a,), lambda g: (g * mask,))
    return out


def dropout(a: Tensor, p: float, rngs: Sequence[np.random.Generator] | None,
            lengths: Sequence[int] | None = None) -> Tensor:
    """Inverted dropout: the identity without generators, else survivors
    scaled by 1/(1-p). Item i of a's leading axis draws its boolean mask from
    rngs[i], over its first lengths[i] rows if given; later rows draw none and are zeroed."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {p}")
    if rngs is None or p == 0.0:
        return a
    if len(rngs) != a.shape[0]:
        raise ContractError("dropout needs one rng per item of the leading axis")
    keep = np.zeros(a.shape, dtype=bool)
    for i, rng in enumerate(rngs):
        rows = keep[i] if lengths is None else keep[i, :lengths[i]]
        rows[...] = rng.random(rows.shape) >= p
    out = Tensor(a.data * (keep / (1.0 - p)))
    if _tracked(a):
        _record(out, (a,), lambda g: (g * (keep / (1.0 - p)),))
    return out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data)
    if _tracked(a, b):
        x, y = a.data, b.data
        _record(out, (a, b), lambda g: (g @ y.T, x.T @ g))
    return out


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) over the last axis of x, any leading axes; w is (d_in, d_out)."""
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: x {x.shape} vs w {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias {b.shape} vs w {w.shape}")
    data = x.data @ w.data
    if b is not None:
        data += b.data
    out = Tensor(data)
    if _tracked(x, w, b):
        # only the gradients a parent takes are computed, and only what they read is kept
        xd = x.data.reshape(-1, w.shape[0]) if w.requires_grad else None
        wd = w.data if x.requires_grad else None
        d_out, db = w.shape[1], b is not None and b.requires_grad
        def _bw(g):
            g2 = g.reshape(-1, d_out)
            return (None if wd is None else g @ wd.T, None if xd is None else xd.T @ g2,
                    g2.sum(axis=0) if db else None)
        _record(out, (x, w, b), _bw)
    return out


def transpose2d(a: Tensor) -> Tensor:
    """Swap the last two axes: a matrix transpose per leading index."""
    if a.ndim < 2:
        raise ShapeError(f"transpose2d needs rank >= 2, got {a.shape}")
    out = Tensor(a.data.swapaxes(-1, -2))
    if _tracked(a):
        _record(out, (a,), lambda g: (g.swapaxes(-1, -2),))
    return out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    if _tracked(a):
        a_shape = a.shape
        _record(out, (a,), lambda g: (g.reshape(a_shape),))
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
        a_shape = a.shape
        def _bw(g):
            buf = np.zeros(a_shape)
            buf[key] += g
            return (buf,)
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
        a_shape = a.shape
        def _bw(g):
            buf = np.zeros(a_shape)
            np.add.at(buf, (rows, cols), g)
            return (buf,)
        _record(out, (a,), _bw)
    return out


def embedding_gather(table: Tensor, indices) -> Tensor:
    """Rows table[indices], indices 1-d or 2-d; gradient scatter-adds into the table."""
    idx = np.asarray(indices, dtype=np.intp)
    if table.ndim != 2 or idx.ndim not in (1, 2):
        raise ShapeError(f"embedding_gather: table {table.shape}, indices rank {idx.ndim}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ContractError("embedding_gather: index out of range")
    out = Tensor(table.data[idx])
    if _tracked(table):
        table_shape = table.shape
        def _bw(g):
            buf = np.zeros(table_shape)
            np.add.at(buf, idx, g)
            return (buf,)
        _record(out, (table,), _bw)
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
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
        cuts = np.cumsum([t.shape[axis] for t in tensors[:-1]])
        _record(out, tuple(tensors), lambda g: np.split(g, cuts, axis=axis))
    return out


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis."""
    if not tensors:
        raise ShapeError("stack of zero tensors")
    shape = tensors[0].shape
    if any(t.shape != shape for t in tensors):
        raise ShapeError(f"stack: unequal shapes {[t.shape for t in tensors]}")
    out = Tensor(np.stack([t.data for t in tensors], axis=0))
    if _tracked(*tensors):
        _record(out, tuple(tensors), lambda g: list(g))
    return out


# ---------------------------------------------------------------------------
# reductions and normalization


def tensor_sum(a: Tensor, axis: int | None = None) -> Tensor:
    out = Tensor(a.data.sum(axis=axis))
    if _tracked(a):
        a_shape = a.shape
        def _bw(g):
            return (np.broadcast_to(g if axis is None else np.expand_dims(g, axis), a_shape),)
        _record(out, (a,), _bw)
    return out


def mean(a: Tensor, axis: int | None = None) -> Tensor:
    count = a.size if axis is None else a.shape[axis]
    if count == 0:
        raise ShapeError(f"mean over empty axis of shape {a.shape}")
    out = Tensor(a.data.mean(axis=axis))
    if _tracked(a):
        a_shape = a.shape
        def _bw(g):
            g = g if axis is None else np.expand_dims(g, axis)
            return (np.broadcast_to(g / count, a_shape),)
        _record(out, (a,), _bw)
    return out


def _softmax_array(x: np.ndarray, axis: int, op: str,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Max-shifted softmax of a numpy array, written to `out` if given (which
    may be x itself); non-finite input is an error."""
    if not np.isfinite(x).all():
        raise NumericError(f"{op}: non-finite input")
    e = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along `axis`; each slice sums to 1."""
    if a.shape[axis] < 1:
        raise ShapeError(f"softmax over empty axis of shape {a.shape}")
    s = _softmax_array(a.data, axis, "softmax")
    out = Tensor(s)
    if _tracked(a):
        def _bw(g):
            dot = (g * s).sum(axis=axis, keepdims=True)
            return (s * (g - dot),)
        _record(out, (a,), _bw)
    return out


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., rows, heads * dh) -> (..., heads, rows, dh) view; head i is
    columns i*dh:(i+1)*dh."""
    *lead, rows, d = x.shape
    return x.reshape(*lead, rows, heads, d // heads).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of _split_heads: (..., heads, rows, dh) -> (..., rows, heads * dh)."""
    *lead, heads, rows, dh = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, rows, heads * dh)


_MASKED_LOGIT = -1e300  # finite, as _softmax_array requires; its weight underflows to 0


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              key_mask: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention, recorded as one graph node.

    q is (n, d), k and v are (m, d), all three with the same optional
    leading batch axis. Per item and head i, on columns i*dh:(i+1)*dh with
    dh = d / heads: softmax_keys((q_i k_i^T) / sqrt(dh)) v_i. The output
    has q's shape with head i in columns i*dh:(i+1)*dh. `key_mask`, shaped
    like k without its last axis, marks the keys each query may attend to;
    the others get weight exactly 0.
    """
    if (q.ndim not in (2, 3) or k.ndim != q.ndim or v.shape != k.shape
            or q.shape[-1] != k.shape[-1] or q.shape[:-2] != k.shape[:-2]):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}")
    d = q.shape[-1]
    if heads < 1 or d % heads != 0:
        raise ShapeError(f"attention: width {d} not divisible by {heads} heads")
    if k.shape[-2] < 1:
        raise ShapeError(f"attention over zero keys, k {k.shape}")
    if key_mask is not None and key_mask.shape != k.shape[:-1]:
        raise ShapeError(f"attention: key mask {key_mask.shape} vs k {k.shape}")
    scale = 1.0 / math.sqrt(d // heads)
    qh, kh, vh = (_split_heads(t.data, heads) for t in (q, k, v))
    # Overflowing logits are reported once, by _softmax_array's finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        logits = np.matmul(qh, kh.swapaxes(-1, -2))
        logits *= scale
    if key_mask is not None:
        np.copyto(logits, _MASKED_LOGIT, where=~key_mask[..., None, None, :])
    s = _softmax_array(logits, -1, "attention", out=logits)
    out = Tensor(_merge_heads(np.matmul(s, vh)))
    if _tracked(q, k, v):
        def _bw(g):
            gh = _split_heads(g, heads)
            ds = np.matmul(gh, vh.swapaxes(-1, -2))
            dlogits = s * (ds - (ds * s).sum(axis=-1, keepdims=True)) * scale
            return (_merge_heads(np.matmul(dlogits, kh)),
                    _merge_heads(np.matmul(dlogits.swapaxes(-1, -2), qh)),
                    _merge_heads(np.matmul(s.swapaxes(-1, -2), gh)))
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
        _record(out, (a,), lambda g: (np.expand_dims(g, axis) * sm,))
    return out


_LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then gamma * x + beta."""
    d = x.shape[-1] if x.ndim else 0
    if d == 0:
        raise ShapeError("layer_norm over empty last axis")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: gamma {gamma.shape} / beta {beta.shape} vs d={d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
    xhat = xc * inv
    out = Tensor(gamma.data * xhat + beta.data)
    if _tracked(x, gamma, beta):
        gd = gamma.data
        def _bw(g):
            lead = tuple(range(g.ndim - 1))
            dxhat = g * gd
            dx = inv * (dxhat
                        - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
            return dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)
        _record(out, (x, gamma, beta), _bw)
    return out


# ---------------------------------------------------------------------------
# convolution (im2col)


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution of a batch x (N, C, H, W) with w (CO, C, kh, kw),
    optional bias (CO,); the output is (N, CO, Ho, Wo).

    The forward is im2col over the whole batch: the columns are gathered as
    (C, kh, kw, N, Ho, Wo), so one matrix product covers every image, and
    padding is a slice assignment into one zero buffer. The graph keeps no
    part of that workspace: the backward pads x again and, one kernel
    offset at a time, re-gathers that offset's (C, N*Ho*Wo) windows for its
    slice of the weight gradient and adds W[:, :, ki, kj].T @ g into the
    same windows of the input gradient.
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

    xd, wd = x.data, w.data

    def padded() -> np.ndarray:
        # Channel-major (C, N, H + 2p, W + 2p), so each kernel offset's
        # windows are one strided slice.
        xp = xd.transpose(1, 0, 2, 3)
        if padding:
            xp = np.zeros((c, n, h + 2 * padding, ww + 2 * padding))
            xp[:, :, padding:padding + h, padding:padding + ww] = xd.transpose(1, 0, 2, 3)
        return xp

    offsets = [(ki, kj, np.s_[:, :, ki:ki + stride * h_out:stride, kj:kj + stride * w_out:stride])
               for ki in range(kh) for kj in range(kw)]
    xp = padded()
    cols = np.empty((c, kh, kw, n, h_out, w_out))
    for ki, kj, win in offsets:
        cols[:, ki, kj] = xp[win]
    out2 = wd.reshape(co, c * kh * kw) @ cols.reshape(c * kh * kw, n * h_out * w_out)
    if b is not None:
        out2 += b.data[:, None]
    out = Tensor(out2.reshape(co, n, h_out, w_out).transpose(1, 0, 2, 3))

    if _tracked(x, w, b):
        x_needs_grad = x.requires_grad
        def _bw(g):
            g2 = g.transpose(1, 0, 2, 3).reshape(co, n * h_out * w_out)
            xp = padded()
            dxp = np.zeros(xp.shape) if x_needs_grad else None
            dw = np.empty(wd.shape)
            for ki, kj, win in offsets:
                dw[:, :, ki, kj] = g2 @ xp[win].reshape(c, n * h_out * w_out).T
                if dxp is not None:
                    dxp[win] += (wd[:, :, ki, kj].T @ g2).reshape(c, n, h_out, w_out)
            if dxp is not None:
                if padding:
                    dxp = dxp[:, :, padding:padding + h, padding:padding + ww]
                dxp = dxp.transpose(1, 0, 2, 3)
            return dxp, dw, g2.sum(axis=1)
        _record(out, (x, w, b), _bw)
    return out
