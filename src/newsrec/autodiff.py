"""Reverse-mode automatic differentiation over small numpy arrays.

The engine is small because the model hands it large nodes: one training
batch is four of them, the news encoder, the user encoder, the per-sample
loss and ``mean``, each but ``mean`` with a backward derived by hand in
``model``.  Each node records its parents and a closure that scatters the
incoming gradient; ``backward`` topologically sorts the graph (no
recursion, cycles are impossible by construction and asserted), then
accumulates into zeroed buffers, each made when its first gradient
arrives, so the batch's news vectors, which the user encoder and the loss
both read, get the sum of both gradients; an interior node's gradient is
dropped once passed on.
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
