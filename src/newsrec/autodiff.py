"""Reverse-mode automatic differentiation for the trainer's batch graph.

One training batch is four nodes, the news encoder, the user encoder, the
per-sample loss and ``mean``, over two leaves, the encoders' weights.
Each node holds its value, its parents and a closure that adds the
incoming gradient into its parents' ``grad``; the closures of all but
``mean`` are derived by hand in ``model``.  ``backward`` runs them from
the root down, so the batch's news vectors, which the user encoder and
the loss both read, get the sum of both gradients.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """Node of the graph: value, gradient, parents and backward closure.

    The value is float32 if given as float32, and float64 otherwise."""

    __slots__ = ("data", "grad", "parents", "bwd")

    def __init__(self, data, parents=()):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.grad = None
        self.parents = tuple(parents)
        self.bwd = None


def backward(root: Tensor) -> None:
    """Set ``grad`` on every leaf ``root`` reaches to d root / d leaf.

    The nodes run in reverse topological order (a depth-first post-order,
    kept on an explicit stack).  Every buffer starts from zeros on each
    call, so repeated calls never leak accumulation across runs.  A
    buffer is made just before its first gradient arrives, and an
    interior node's is dropped (set to None) once its ``bwd`` has passed
    it on: a training step holds only the gradients still in flight.
    """
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((parent, False) for parent in node.parents)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node.bwd is not None:
            for parent in node.parents:
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
            node.bwd(node.grad)
        if node.parents:
            node.grad = None


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(np.sum(a.data) / n, (a,))

    def bwd(g):
        a.grad += g / n

    out.bwd = bwd
    return out
