"""Reverse-mode automatic differentiation over small numpy arrays.

The engine is small because the model hands it large nodes: each call of
an attention encoder is one node whose backward is derived by hand (see
``model._encode_sequence``).  What is left here joins those nodes into a
loss: ``stack``, ``sub``, ``dot``, ``pick``, ``mean`` and ``logsumexp``
over float64 tensors of rank <= 3.  Each op records its parents and a
closure that scatters the incoming gradient; ``backward`` topologically
sorts the graph (no recursion, cycles are impossible by construction and
asserted), then accumulates into zeroed buffers, each made when its first
gradient arrives, so a news vector shared by several samples of a batch
gets the sum of their gradients; an interior node's gradient is dropped
once passed on.
"""

from __future__ import annotations

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
    e = np.exp(a.data - m)
    s = np.sum(e)
    out = Tensor(np.log(s) + m, (a,))

    def bwd(g):
        if a.requires_grad:
            a.grad += (g / s) * e

    out.bwd = bwd
    return out
