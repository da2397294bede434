"""Reverse-mode automatic differentiation over dense float64 arrays.

A small define-by-run engine: every op is a ``fused`` node, which holds
its result, its input nodes and a vjp returning one gradient per input.
``row`` is the one exception: it scatters into its parent's gradient in
place, so that repeated lookups of one table keep their summation order.
Calling ``backward()`` on a scalar node walks the recorded graph once in
reverse topological order and accumulates gradients into every tensor
reachable from it that has ``requires_grad`` set.

All arithmetic is float64 on purpose: the whole stack is small enough
that central finite differences stay a tight oracle for every gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "no_grad",
    "grad_enabled",
    "reuse",
    "as_tensor",
    "concat",
    "softmax",
    "row",
    "linear",
    "stack",
    "fused",
    "packed_steps",
    "grad_check",
    "GradCheckReport",
]


class ShapeError(ValueError):
    """An index or shape the requested operation cannot take."""


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


def grad_enabled() -> bool:
    """Whether ops record a graph (False inside ``no_grad``)."""
    return _GRAD_ENABLED


def reuse(cache: dict, key, tensors, build, inputs=()):
    """``build()``; under no_grad the result is kept in ``cache`` for
    ``key`` until one of ``tensors`` is assigned (``Tensor.version``) or
    ``inputs`` change.  Nothing is kept while gradients are on:
    ``grad_check`` perturbs parameters in place."""
    if _GRAD_ENABLED:
        return build()
    stamp = (inputs, [t.version for t in tensors])
    entry = cache.get(key)
    if entry is None or entry[0] != stamp:
        entry = cache[key] = (stamp, build())
    return entry[1]


class Tensor:
    """Dense float64 array plus an optional gradient slot.

    Leaves are built with the constructor (which copies its input, so a
    tensor never aliases caller-owned storage); interior nodes come out
    of the ops below.  ``grad`` is set during backward and holds
    d(loss)/d(self) with the same shape as ``data``; it may share storage
    with other gradients, so treat it as read-only.  ``version`` counts
    assignments to ``data``, augmented ones such as ``t.data -= step``
    included; caches built from a tensor compare it.  Writes into the
    array (``t.data[...] = x``, numpy ``out=t.data``) do not bump it, so
    those caches cannot see them.
    """

    __slots__ = ("_data", "version", "grad", "_owns_grad", "requires_grad",
                 "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self._data = np.array(data, dtype=np.float64)
        self.version = 0
        self.grad = None
        self._owns_grad = False
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value):
        self._data = value
        self.version += 1

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

    def reshape(self, shape):
        return reshape(self, shape)

    def sum(self):
        return tensor_sum(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(value) -> Tensor:
    """Wrap numbers/arrays as constant tensors; pass tensors through."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _node(data, *parents) -> Tensor:
    out = Tensor.__new__(Tensor)
    out._data = data
    out.version = 0
    out.grad = None
    out._owns_grad = False
    out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out._parents = tuple(parents) if out.requires_grad else ()
    out._backward = None
    return out


def _accum(t: Tensor, g: np.ndarray):
    # The first gradient is stored as given when it has the layout that
    # zeros_like(t.data) would have (a layout fixes the summation order of
    # later reductions over it).  A vjp may hand one array to several
    # parents, so a stored array is copied before anything is added to it.
    if not t.requires_grad:
        return
    if t.grad is None and g.flags.c_contiguous and t.data.flags.c_contiguous:
        t.grad, t._owns_grad = g, False
    else:
        _owned_grad(t)
        t.grad += g


def _owned_grad(t: Tensor) -> np.ndarray:
    """``t.grad`` as an array ``t`` owns, for adding into in place."""
    if t.grad is None or not t._owns_grad:
        t.grad = np.zeros_like(t.data) if t.grad is None else t.grad.copy(order="K")
        t._owns_grad = True
    return t.grad


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


# -- ops ---------------------------------------------------------------------


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


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return fused(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return fused(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape),
                            _unbroadcast(g * a.data, b.data.shape)))


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]

    def vjp(g):
        return np.split(g, np.cumsum([t.data.shape[axis] for t in ts[:-1]]), axis=axis)

    return fused(np.concatenate([t.data for t in ts], axis=axis), ts, vjp)


def reshape(t, shape) -> Tensor:
    t = as_tensor(t)
    return fused(t.data.reshape(shape), (t,), lambda g: (g.reshape(t.data.shape),))


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
            np.add.at(_owned_grad(t), idx, g)

        out._backward = backward
    return out


def linear(x, w, b) -> Tensor:
    """Affine map ``w @ x + b`` of a vector, or of every row of a matrix."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim == 1:
        data = w.data @ x.data + b.data
    else:
        data = x.data @ w.data.T + b.data

    def vjp(g):
        dx = (w.data.T @ g if g.ndim == 1 else g @ w.data) if x.requires_grad else None
        if g.ndim == 1:
            return dx, np.outer(g, x.data), g
        return dx, g.T @ x.data, g.sum(axis=0)

    return fused(data, (x, w, b), vjp)


def stack(tensors) -> Tensor:
    """Tensors of one shape stacked along a new first axis."""
    ts = [as_tensor(t) for t in tensors]
    return fused(np.stack([t.data for t in ts]), ts, tuple)


def softmax(t) -> Tensor:
    """Softmax over the last axis (max-shifted for stability)."""
    t = as_tensor(t)
    e = np.exp(t.data - np.max(t.data, axis=-1, keepdims=True))
    data = e / e.sum(axis=-1, keepdims=True)
    return fused(data, (t,),
                 lambda g: (data * (g - (g * data).sum(axis=-1, keepdims=True)),))


def tensor_sum(t) -> Tensor:
    t = as_tensor(t)
    return fused(np.asarray(t.data.sum()), (t,),
                 lambda g: (np.broadcast_to(g, t.data.shape).copy(),))


@dataclass
class Packing:
    """Step-major order of sequences whose rows are laid end to end.

    Sequences are ranked longest first (ties keep their order), so the
    ones still running at step t are a prefix of the ranking: step t owns
    packed rows ``starts[t]:starts[t + 1]``, one per running sequence in
    rank order.  Packed row i is input row ``rows[i]`` (``rows`` is a
    slice for one sequence) of the sequence ranked ``slot[i]``.  Every
    recurrence, forward or backward, finds its rows through ``plan``.
    """

    rank: np.ndarray
    starts: np.ndarray
    slot: np.ndarray
    rows: np.ndarray | slice

    @cached_property
    def plan(self) -> list:
        """Per step, the index of its packed rows, of the rows of the step
        before whose sequences carry on into it (None at step 0), and of
        the running ranks (a prefix); a backward pass walks it in reverse.
        Each is a plain int when one sequence runs, so that its rows are
        1-d, which numpy runs faster, and a slice otherwise.  Built on
        first use, so a packing that no recurrence walks never builds it."""
        plan, before = [], None  # before: the first packed row of the step before
        starts = self.starts.tolist()
        for s, e in zip(starts, starts[1:]):
            b = e - s
            if b == 1:
                plan.append((s, before, 0))
            else:
                carried = None if before is None else slice(before, before + b)
                plan.append((slice(s, e), carried, slice(0, b)))
            before = s
        return plan

    @cached_property
    def ends(self) -> np.ndarray:
        """The packed row of each sequence's last step, in rank order."""
        return self.starts[np.bincount(self.slot) - 1] + np.arange(len(self.rank))


def packed_steps(lengths, reverse: bool = False) -> Packing:
    """The packing of sequences of ``lengths`` rows; with ``reverse``
    every sequence is read from its last row to its first."""
    if len(lengths) == 1 and lengths[0] >= 1:  # one text, as at inference
        return _one_sequence(int(lengths[0]), reverse)
    lengths = np.asarray(lengths, dtype=int)
    if lengths.ndim != 1 or not lengths.size or lengths.min() < 1:
        raise ValueError(f"sequence lengths must be positive, got {lengths.tolist()}")
    rank = np.argsort(-lengths, kind="stable")
    widths = lengths.size - np.cumsum(np.bincount(lengths))[:-1]
    starts = np.concatenate(([0], np.cumsum(widths)))
    step = np.repeat(np.arange(widths.size), widths)
    slot = np.arange(step.size) - starts[step]
    seq = rank[slot]
    pos = lengths[seq] - 1 - step if reverse else step
    return Packing(rank, starts, slot, np.cumsum(lengths)[seq] - lengths[seq] + pos)


@lru_cache(maxsize=128)
def _one_sequence(n: int, reverse: bool) -> Packing:
    """One sequence of n rows, kept with its plan: each request walks one."""
    return Packing(np.zeros(1, dtype=int), np.arange(n + 1), np.zeros(n, dtype=int),
                   slice(None, None, -1 if reverse else 1))


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
