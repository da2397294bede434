"""Reverse-mode automatic differentiation over dense float64 arrays.

A small define-by-run engine: every operation produces a new node that
remembers its input nodes and a closure routing the output gradient back
to them.  Calling ``backward()`` on a scalar node walks the recorded
graph once in reverse topological order and accumulates gradients into
every tensor reachable from it that has ``requires_grad`` set.

All arithmetic is float64 on purpose: the whole stack is small enough
that central finite differences stay a tight oracle for every gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "no_grad",
    "as_tensor",
    "concat",
    "matmul",
    "sigmoid",
    "tanh",
    "softmax",
    "logsumexp",
    "row",
    "pick",
    "fused",
    "grad_check",
    "GradCheckReport",
]


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    """Dense float64 array plus an optional gradient slot.

    Leaves are built with the constructor (which copies its input, so a
    tensor never aliases caller-owned storage); interior nodes come out
    of the ops below.  ``grad`` is lazily allocated during backward and
    holds d(loss)/d(self) with the same shape as ``data``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a scalar, got shape {self.data.shape}")
        return float(self.data)

    def backward(self):
        """Accumulate gradients of this scalar w.r.t. every ancestor."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward() requires a scalar output, got shape {self.data.shape}"
            )
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in order:
            fn = node._backward
            if fn is not None and node.grad is not None:
                fn(node.grad)

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(as_tensor(other), -1.0))

    def __rsub__(self, other):
        return add(as_tensor(other), mul(self, -1.0))

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not supported")
        return mul(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self):
        return transpose(self)

    def sum(self):
        return tensor_sum(self)

    def mean(self):
        return tensor_mean(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(value) -> Tensor:
    """Wrap numbers/arrays as constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _node(data, *parents) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out._parents = tuple(parents) if out.requires_grad else ()
    out._backward = None
    return out


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _topo_order(root: Tensor):
    """Root-first order in which each node precedes all of its parents."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    order.reverse()
    return order


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- arithmetic --------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")
    out = _node(data, a, b)
    if out.requires_grad:

        def backward(g):
            _accum(a, _unbroadcast(g, a.data.shape))
            _accum(b, _unbroadcast(g, b.data.shape))

        out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")
    out = _node(data, a, b)
    if out.requires_grad:

        def backward(g):
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

        out._backward = backward
    return out


def matmul(a, b) -> Tensor:
    """Matrix product: (m,k)@(k,n) -> (m,n) or (m,k)@(k,) -> (m,)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul: unsupported ranks {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data
    out = _node(data, a, b)
    if out.requires_grad:
        if b.data.ndim == 1:

            def backward(g):
                _accum(a, np.outer(g, b.data))
                _accum(b, a.data.T @ g)

        else:

            def backward(g):
                _accum(a, g @ b.data.T)
                _accum(b, a.data.T @ g)

        out._backward = backward
    return out


# -- shape manipulation ------------------------------------------------------


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat: need at least one tensor")
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        shapes = [t.data.shape for t in ts]
        raise ShapeError(f"concat: incompatible shapes {shapes} along axis {axis}")
    out = _node(data, *ts)
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in ts]

        def backward(g):
            offset = 0
            for t, size in zip(ts, sizes):
                index = [slice(None)] * g.ndim
                index[axis] = slice(offset, offset + size)
                _accum(t, g[tuple(index)])
                offset += size

        out._backward = backward
    return out


def reshape(t, shape) -> Tensor:
    t = as_tensor(t)
    try:
        data = t.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {t.data.shape} as {shape}")
    out = _node(data, t)
    if out.requires_grad:
        src = t.data.shape

        def backward(g):
            _accum(t, g.reshape(src))

        out._backward = backward
    return out


def transpose(t) -> Tensor:
    t = as_tensor(t)
    if t.data.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {t.data.shape}")
    out = _node(t.data.T, t)
    if out.requires_grad:

        def backward(g):
            _accum(t, g.T)

        out._backward = backward
    return out


# -- indexing ----------------------------------------------------------------


def row(t, index) -> Tensor:
    """Select along the first axis (an embedding lookup).

    An int picks one row; a sequence of ints stacks the picked rows.
    Repeated indices are allowed; their gradients accumulate.
    """
    t = as_tensor(t)
    n = t.data.shape[0]
    idx = np.asarray(index, dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"row: index {index} out of range for first axis {n}")
    data = t.data[idx] if idx.ndim else np.asarray(t.data[int(idx)])
    out = _node(data, t)
    if out.requires_grad:

        def backward(g):
            if not t.requires_grad:
                return
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            np.add.at(t.grad, idx, g)

        out._backward = backward
    return out


def pick(t, rows_index, cols_index) -> Tensor:
    """Gather matrix entries t[rows_index[i], cols_index[i]] into a vector.

    Repeated (row, col) pairs are allowed; their gradients accumulate.
    """
    t = as_tensor(t)
    if t.data.ndim != 2:
        raise ShapeError(f"pick: expected a matrix, got shape {t.data.shape}")
    r = np.asarray(rows_index, dtype=int)
    c = np.asarray(cols_index, dtype=int)
    if r.shape != c.shape or r.ndim != 1:
        raise ShapeError(f"pick: index shapes {r.shape} and {c.shape} must match (1-d)")
    m, n = t.data.shape
    if r.size and (r.min() < 0 or r.max() >= m or c.min() < 0 or c.max() >= n):
        raise ShapeError(f"pick: indices out of range for shape {t.data.shape}")
    out = _node(t.data[r, c], t)
    if out.requires_grad:

        def backward(g):
            if not t.requires_grad:
                return
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            np.add.at(t.grad, (r, c), g)

        out._backward = backward
    return out


def fused(data, parents, vjp) -> Tensor:
    """A node computed outside the engine, with a hand-written backward.

    ``vjp(g)`` receives the output gradient and returns one gradient (or
    None) per parent, in order.  It runs only during backward, so work
    that only the gradient needs belongs inside it.
    """
    parents = tuple(parents)
    out = _node(data, *parents)
    if out.requires_grad:

        def backward(g):
            for p, gp in zip(parents, vjp(g)):
                if gp is not None:
                    _accum(p, gp)

        out._backward = backward
    return out


# -- nonlinearities and reductions -------------------------------------------


def sigmoid(t) -> Tensor:
    t = as_tensor(t)
    x = t.data
    data = np.empty_like(x)
    pos = x >= 0
    data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    data[~pos] = ex / (1.0 + ex)
    out = _node(data, t)
    if out.requires_grad:

        def backward(g):
            _accum(t, g * data * (1.0 - data))

        out._backward = backward
    return out


def tanh(t) -> Tensor:
    t = as_tensor(t)
    data = np.tanh(t.data)
    out = _node(data, t)
    if out.requires_grad:

        def backward(g):
            _accum(t, g * (1.0 - data * data))

        out._backward = backward
    return out


def softmax(t) -> Tensor:
    """Softmax over a 1-d tensor (max-shifted for stability)."""
    t = as_tensor(t)
    if t.data.ndim != 1:
        raise ShapeError(f"softmax: expected a vector, got shape {t.data.shape}")
    shifted = t.data - np.max(t.data)
    e = np.exp(shifted)
    data = e / e.sum()
    out = _node(data, t)
    if out.requires_grad:

        def backward(g):
            _accum(t, data * (g - np.dot(g, data)))

        out._backward = backward
    return out


def logsumexp(t, axis: int | None = None) -> Tensor:
    """log(sum(exp(t))) with the max-shift trick, over one axis or all."""
    t = as_tensor(t)
    x = t.data
    if axis is None:
        m = np.max(x)
        data = np.asarray(m + np.log(np.sum(np.exp(x - m))))
        out = _node(data, t)
        if out.requires_grad:

            def backward(g):
                _accum(t, g * np.exp(x - data))

            out._backward = backward
        return out
    m = np.max(x, axis=axis, keepdims=True)
    kept = m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))
    data = np.squeeze(kept, axis=axis)
    out = _node(data, t)
    if out.requires_grad:
        weights = np.exp(x - kept)

        def backward(g):
            _accum(t, np.expand_dims(g, axis) * weights)

        out._backward = backward
    return out


def tensor_sum(t) -> Tensor:
    t = as_tensor(t)
    out = _node(np.asarray(t.data.sum()), t)
    if out.requires_grad:

        def backward(g):
            _accum(t, np.broadcast_to(g, t.data.shape).copy())

        out._backward = backward
    return out


def tensor_mean(t) -> Tensor:
    t = as_tensor(t)
    size = t.data.size
    if size == 0:
        raise ShapeError("mean: empty tensor")
    out = _node(np.asarray(t.data.mean()), t)
    if out.requires_grad:

        def backward(g):
            _accum(t, np.broadcast_to(g / size, t.data.shape).copy())

        out._backward = backward
    return out


# -- gradient checking -------------------------------------------------------


@dataclass
class GradCheckReport:
    """Outcome of comparing backward() against central finite differences.

    Relative error per element is |a - n| / max(|a|, |n|, floor); the
    floor turns the comparison absolute for near-zero gradients, where
    finite differences are dominated by roundoff.
    """

    max_rel_error: float
    worst_param: str
    worst_index: int
    tolerance: float
    passed: bool
    per_param: dict = field(default_factory=dict)


def grad_check(f, params, step: float = 1e-5, tolerance: float = 1e-4,
               floor: float = 1e-3) -> GradCheckReport:
    """Check analytic gradients of ``f()`` w.r.t. ``params``.

    ``f`` must rebuild its graph on every call and return a scalar
    tensor; ``params`` maps names to leaf tensors that ``f`` reads.
    """
    tensors = dict(params)
    for t in tensors.values():
        t.grad = None
    out = f()
    out.backward()
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in tensors.items()
    }

    worst = (0.0, "", -1)
    per_param = {}
    for name, t in tensors.items():
        flat = t.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            hi = f().item()
            flat[i] = saved - step
            lo = f().item()
            flat[i] = saved
            numeric[i] = (hi - lo) / (2.0 * step)
        a = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), floor)
        rel = np.abs(a - numeric) / denom
        idx = int(np.argmax(rel)) if rel.size else -1
        local = float(rel[idx]) if rel.size else 0.0
        per_param[name] = local
        if local > worst[0]:
            worst = (local, name, idx)
    return GradCheckReport(
        max_rel_error=worst[0],
        worst_param=worst[1],
        worst_index=worst[2],
        tolerance=tolerance,
        passed=worst[0] <= tolerance,
        per_param=per_param,
    )
