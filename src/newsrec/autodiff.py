"""Reverse-mode automatic differentiation over small numpy arrays.

Just enough machinery for the attention encoders: tensors of rank <= 3
(float64 throughout), a fixed set of differentiable operations, and an
iterative backward pass.  Each op records its parents and a closure that
scatters the incoming gradient; ``backward`` topologically sorts the
graph (no recursion, cycles are impossible by construction and asserted),
then accumulates into zeroed buffers, each made when its first gradient
arrives; an interior node's gradient is dropped once passed on.

Multi-head attention runs all heads at once: ``reshape`` and
``transpose(axes)`` move the heads to a leading axis, and ``matmul``
multiplies rank-3 operands batched over that axis.
"""

from __future__ import annotations

import contextlib
import gc

import numpy as np

from .errors import ShapeMismatch


class Tensor:
    """Node in the computation graph: value, gradient, and provenance."""

    __slots__ = ("data", "grad", "parents", "bwd", "requires_grad", "name")

    def __init__(self, data, parents=(), requires_grad=False, name=""):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 3:
            raise ShapeMismatch(f"tensors are limited to rank 3, got rank {arr.ndim}")
        self.data = arr
        self.grad = None
        self.parents = tuple(parents)
        self.bwd = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in self.parents)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"


def constant(data, name="") -> Tensor:
    return Tensor(data, name=name)


def parameter(data, name="") -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def backward(root: Tensor) -> None:
    """Populate ``grad`` on every reachable leaf that requires one.

    The gradient of ``root`` with respect to itself is ones.  Every buffer
    starts from zeros on each call, so repeated calls never leak
    accumulation across runs.  A buffer is made just before its first
    gradient arrives, and an interior node's is dropped (set to None) as
    soon as its own ``bwd`` has passed it on: a training step then holds
    only the gradients still in flight, not one per node of its graph.
    """
    order: list[Tensor] = []
    visiting: set[int] = set()
    done: set[int] = set()
    stack: list[tuple[Tensor, int]] = [(root, 0)]
    visiting.add(id(root))
    while stack:
        node, next_parent = stack[-1]
        advanced = False
        while next_parent < len(node.parents):
            child = node.parents[next_parent]
            next_parent += 1
            cid = id(child)
            if cid in done or not child.requires_grad:
                continue
            assert cid not in visiting, "cycle in computation graph"
            stack[-1] = (node, next_parent)
            stack.append((child, 0))
            visiting.add(cid)
            advanced = True
            break
        if not advanced:
            stack.pop()
            visiting.discard(id(node))
            done.add(id(node))
            order.append(node)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node.bwd is not None:
            for parent in node.parents:
                if parent.requires_grad and parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
            node.bwd(node.grad)
        if node.parents:
            node.grad = None


@contextlib.contextmanager
def collector_paused():
    """Pause Python's cyclic garbage collector while graphs are built and run.

    A graph holds no reference cycle (a node refers only to its parents, and
    its ``bwd`` closure only to those parents and to arrays), so reference
    counting frees it when its root goes.  The collector only slows it down: the live graph of a training
    batch, tens of thousands of objects, reaches the oldest generation and
    each full collection walks all of it again.  With the default model on
    2 vCPUs that took up to a fifth of a training step, and a different
    share on every step.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: 2D@2D, 1D@2D, 2D@1D, or 3D@3D batched over an equal
    leading axis."""
    A, B = a.data, b.data
    if A.ndim == 3 or B.ndim == 3:
        if A.ndim != B.ndim or A.shape[0] != B.shape[0]:
            raise ShapeMismatch(f"batched matmul needs two rank-3 operands with equal batch, "
                                f"got {A.shape} @ {B.shape}")
    elif A.ndim == 0 or B.ndim == 0:
        raise ShapeMismatch("matmul operands must be at least rank 1")
    inner = B.shape[-2] if B.ndim > 1 else B.shape[0]
    if A.shape[-1] != inner:
        raise ShapeMismatch(f"matmul inner dimensions differ: {A.shape} @ {B.shape}")
    out = Tensor(A @ B, (a, b))

    def bwd(g):
        if a.requires_grad:
            if A.ndim == 1:
                a.grad += B @ g
            elif B.ndim == 1:
                a.grad += np.outer(g, B)
            else:
                a.grad += g @ np.swapaxes(B, -1, -2)
        if b.requires_grad:
            if A.ndim == 1:
                b.grad += np.outer(A, g)
            else:
                b.grad += np.swapaxes(A, -1, -2) @ g

    out.bwd = bwd
    return out


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Permute axes (reverse them when ``axes`` is None), as numpy does."""
    if axes is not None and sorted(axes) != list(range(a.ndim)):
        raise ShapeMismatch(f"transpose axes {axes} do not permute a rank-{a.ndim} tensor")
    out = Tensor(np.transpose(a.data, axes), (a,))
    inverse = None if axes is None else tuple(np.argsort(axes))

    def bwd(g):
        if a.requires_grad:
            a.grad += np.transpose(g, inverse)

    out.bwd = bwd
    return out


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Same elements in C order, new shape."""
    try:
        y = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeMismatch(f"cannot reshape {a.shape} to {shape}") from exc
    out = Tensor(y, (a,))

    def bwd(g):
        if a.requires_grad:
            a.grad += g.reshape(a.shape)

    out.bwd = bwd
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatch(f"sub shapes differ: {a.shape} vs {b.shape}")
    out = Tensor(a.data - b.data, (a, b))

    def bwd(g):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad -= g

    out.bwd = bwd
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c, (a,))

    def bwd(g):
        if a.requires_grad:
            a.grad += g * c

    out.bwd = bwd
    return out


def shift(a: Tensor, c: float) -> Tensor:
    """Add a constant; gradient passes through unchanged."""
    out = Tensor(a.data + float(c), (a,))

    def bwd(g):
        if a.requires_grad:
            a.grad += g

    out.bwd = bwd
    return out


def stack(parts: list[Tensor]) -> Tensor:
    """Stack equal-shaped tensors along a new leading axis."""
    if not parts:
        raise ShapeMismatch("stack needs at least one tensor")
    shapes = {p.shape for p in parts}
    if len(shapes) != 1:
        raise ShapeMismatch(f"stack requires equal shapes, got {sorted(shapes)}")
    out = Tensor(np.stack([p.data for p in parts]), tuple(parts))

    def bwd(g):
        for k, p in enumerate(parts):
            if p.requires_grad:
                p.grad += g[k]

    out.bwd = bwd
    return out


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    out = Tensor(y, (a,))

    def bwd(g):
        if a.requires_grad:
            a.grad += g * (1.0 - y * y)

    out.bwd = bwd
    return out


def softmax(a: Tensor) -> Tensor:
    """Row softmax over the last axis, computed with max subtraction."""
    x = a.data
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=-1, keepdims=True)
    out = Tensor(y, (a,))

    def bwd(g):
        if a.requires_grad:
            inner = np.sum(g * y, axis=-1, keepdims=True)
            a.grad += y * (g - inner)

    out.bwd = bwd
    return out


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data), (a,))

    def bwd(g):
        if a.requires_grad:
            a.grad += g / a.data

    out.bwd = bwd
    return out


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    out = Tensor(y, (a,))

    def bwd(g):
        if a.requires_grad:
            a.grad += g * y

    out.bwd = bwd
    return out


def total(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = Tensor(np.sum(a.data), (a,))

    def bwd(g):
        if a.requires_grad:
            a.grad += g

    out.bwd = bwd
    return out


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    if n == 0:
        raise ShapeMismatch("mean of an empty tensor")
    out = Tensor(np.sum(a.data) / n, (a,))

    def bwd(g):
        if a.requires_grad:
            a.grad += g / n

    out.bwd = bwd
    return out


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Inner product of two equal-length vectors, as a scalar tensor."""
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ShapeMismatch(f"dot expects equal-length vectors, got {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data, (a, b))

    def bwd(g):
        if a.requires_grad:
            a.grad += g * b.data
        if b.requires_grad:
            b.grad += g * a.data

    out.bwd = bwd
    return out


def pick(a: Tensor, i: int) -> Tensor:
    """Select one element of a vector, as a scalar tensor."""
    if a.ndim != 1:
        raise ShapeMismatch(f"pick expects a vector, got rank {a.ndim}")
    out = Tensor(a.data[i], (a,))

    def bwd(g):
        if a.requires_grad:
            a.grad[i] += g

    out.bwd = bwd
    return out


def logsumexp(a: Tensor) -> Tensor:
    """log(sum(exp(v))) over a vector, shifted by max(v) for stability."""
    if a.ndim != 1:
        raise ShapeMismatch(f"logsumexp expects a vector, got rank {a.ndim}")
    m = float(np.max(a.data))
    return shift(log(total(exp(shift(a, -m)))), m)
