"""Gradient checks for ``mean`` and for the softmax rule the encoders use,
against central differences, plus the mechanics of ``backward``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import newsrec.autodiff as ad
import newsrec.model as mdl
from conftest import rel_err, weighted_sum


def numeric_grad(f, x0, h=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x0.copy()
        xm = x0.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return g


def analytic_grad(build, x0):
    leaf = ad.Tensor(np.array(x0, dtype=np.float64, copy=True))
    out = build(leaf)
    assert out.data.ndim == 0
    ad.backward(out)
    return leaf.grad.copy()


def check_grad(build, x0, tol=1e-6):
    got = analytic_grad(build, x0)
    want = numeric_grad(lambda x: float(build(ad.Tensor(x)).data), x0)
    assert rel_err(got, want) <= tol


RNG = np.random.default_rng(42)


def total(*parts):
    """Sum of equal-shaped tensors, as a node that lists each part as a parent."""
    out = ad.Tensor(sum(p.data for p in parts), parts)

    def bwd(g):
        for p in parts:
            p.grad += g

    out.bwd = bwd
    return out


class TestOpGradients:
    def test_softmax_vector_jvp(self):
        r = RNG.normal(size=5)
        x0 = RNG.normal(size=5)
        want = numeric_grad(lambda x: float(mdl.softmax(x) @ r), x0)
        assert rel_err(mdl.softmax_grad(mdl.softmax(x0), r), want) <= 1e-6

    def test_softmax_rows(self):
        r = RNG.normal(size=(2, 3, 4))
        x0 = RNG.normal(size=(2, 3, 4))
        want = numeric_grad(lambda x: float(np.sum(mdl.softmax(x) * r)), x0)
        assert rel_err(mdl.softmax_grad(mdl.softmax(x0), r), want) <= 1e-6

    def test_mean(self):
        check_grad(lambda x: ad.mean(x), RNG.normal(size=6))
        check_grad(lambda x: ad.mean(x), RNG.normal(size=(2, 3)))


class TestGraphMechanics:
    def test_second_backward_does_not_accumulate(self):
        x = ad.Tensor(np.array([1.0, 2.0]))
        out = weighted_sum(x, [3.0, -1.0])
        ad.backward(out)
        first = x.grad.copy()
        ad.backward(out)
        assert np.array_equal(x.grad, first)

    def test_interior_gradients_are_dropped(self):
        x = ad.Tensor(np.array([0.3, -0.7]))
        y = weighted_sum(x, [1.0, 2.0])
        out = ad.mean(y)
        ad.backward(out)
        assert y.grad is None and out.grad is None
        assert x.grad.tolist() == [1.0, 2.0]

    def test_shared_node_gradients_sum(self):
        x = ad.Tensor(np.array([2.0]))
        y = weighted_sum(x, [1.5])
        ad.backward(total(y, y))
        assert x.grad[0] == 2.0 * 1.5
        ad.backward(ad.mean(total(y, y, y, y)))
        assert x.grad[0] == 4.0 * 1.5

    def test_deep_chain_does_not_recurse(self):
        x = ad.Tensor(np.array([0.5]))
        zero = ad.Tensor(np.array([0.0]))
        node = x
        for _ in range(5000):
            node = total(node, zero)
        ad.backward(ad.mean(node))
        assert x.grad[0] == 1.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_is_a_probability_vector(values):
    out = mdl.softmax(np.array(values))
    assert np.all(out >= 0)
    assert np.sum(out) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
def test_row_softmax_rows_sum_to_one(n_rows, n_cols, seed):
    x = np.random.default_rng(seed).normal(scale=10, size=(n_rows, n_cols))
    out = mdl.softmax(x)
    assert np.all(out >= 0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
