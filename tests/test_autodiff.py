"""Reverse-mode gradient checks for every tensor op, against central differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import newsrec.autodiff as ad
from newsrec.errors import ShapeMismatch

from conftest import rel_err


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
    leaf = ad.parameter(np.array(x0, dtype=np.float64, copy=True))
    out = build(leaf)
    assert out.ndim == 0
    ad.backward(out)
    return leaf.grad.copy()


def check_grad(build, x0, tol=1e-6):
    got = analytic_grad(build, x0)
    want = numeric_grad(lambda x: float(build(ad.parameter(x)).data), x0)
    assert rel_err(got, want) <= tol


RNG = np.random.default_rng(42)


def test_dot_square_gradient_is_two_x():
    x = ad.parameter(np.array([3.0]))
    out = ad.dot(x, x)
    ad.backward(out)
    assert out.item() == 9.0
    assert x.grad.tolist() == [6.0]


class TestOpGradients:
    def test_matmul_2d_2d(self):
        r = ad.constant(RNG.normal(size=(3, 4)))
        check_grad(lambda x: ad.total(ad.tanh(ad.matmul(x, r))), RNG.normal(size=(2, 3)))

    def test_matmul_1d_2d(self):
        r = ad.constant(RNG.normal(size=(3, 4)))
        check_grad(lambda x: ad.total(ad.tanh(ad.matmul(x, r))), RNG.normal(size=3))

    def test_matmul_2d_1d(self):
        r = ad.constant(RNG.normal(size=(4, 3)))
        check_grad(lambda x: ad.total(ad.tanh(ad.matmul(r, x))), RNG.normal(size=3))

    def test_matmul_right_argument(self):
        x0 = RNG.normal(size=(4, 3))
        r = ad.constant(RNG.normal(size=(2, 4)))
        check_grad(lambda x: ad.total(ad.tanh(ad.matmul(r, x))), x0)

    def test_matmul_batched_3d(self):
        r = ad.constant(RNG.normal(size=(2, 4, 3)))
        check_grad(lambda x: ad.total(ad.tanh(ad.matmul(x, r))), RNG.normal(size=(2, 3, 4)))
        check_grad(lambda x: ad.total(ad.tanh(ad.matmul(r, x))), RNG.normal(size=(2, 3, 2)))

    def test_matmul_batched_matches_per_batch_products(self):
        a, b = RNG.normal(size=(3, 2, 4)), RNG.normal(size=(3, 4, 5))
        out = ad.matmul(ad.constant(a), ad.constant(b)).data
        for i in range(3):
            assert np.array_equal(out[i], a[i] @ b[i])

    def test_matmul_rejects_mixed_or_unequal_batches(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(ad.constant(np.ones((2, 3, 4))), ad.constant(np.ones((4, 5))))
        with pytest.raises(ShapeMismatch):
            ad.matmul(ad.constant(np.ones((2, 3, 4))), ad.constant(np.ones((3, 4, 5))))

    def test_transpose(self):
        r = ad.constant(RNG.normal(size=(2, 3)))
        check_grad(lambda x: ad.total(ad.tanh(ad.matmul(r, ad.transpose(x)))),
                   RNG.normal(size=(2, 3)))

    def test_transpose_axes(self):
        r = ad.constant(RNG.normal(size=(4, 3, 2)))
        check_grad(lambda x: ad.total(ad.tanh(ad.matmul(ad.transpose(x, (2, 0, 1)), r))),
                   RNG.normal(size=(2, 3, 4)))
        assert ad.transpose(ad.constant(np.ones((2, 3, 4))), (1, 2, 0)).shape == (3, 4, 2)
        with pytest.raises(ShapeMismatch):
            ad.transpose(ad.constant(np.ones((2, 3, 4))), (0, 1))

    def test_reshape(self):
        r = ad.constant(RNG.normal(size=(2, 3, 2)))
        check_grad(lambda x: ad.total(ad.tanh(ad.matmul(ad.reshape(x, (2, 2, 3)), r))),
                   RNG.normal(size=(4, 3)))
        with pytest.raises(ShapeMismatch):
            ad.reshape(ad.constant(np.ones((4, 3))), (5, 2))

    def test_add_and_sub(self):
        r = ad.constant(RNG.normal(size=(3, 2)))
        # x + r, written as x - (-r)
        check_grad(lambda x: ad.total(ad.tanh(ad.sub(x, ad.scale(r, -1.0)))),
                   RNG.normal(size=(3, 2)))
        check_grad(lambda x: ad.total(ad.tanh(ad.sub(r, x))), RNG.normal(size=(3, 2)))

    def test_scale_and_shift(self):
        check_grad(lambda x: ad.total(ad.tanh(ad.scale(x, -2.5))), RNG.normal(size=(2, 2)))
        check_grad(lambda x: ad.total(ad.tanh(ad.shift(x, 0.7))), RNG.normal(size=(2, 2)))

    def test_stack(self):
        other = ad.constant(RNG.normal(size=3))
        check_grad(lambda x: ad.total(ad.tanh(ad.stack([x, other]))), RNG.normal(size=3))

    def test_tanh(self):
        r = ad.constant(RNG.normal(size=4))
        check_grad(lambda x: ad.dot(ad.tanh(x), r), RNG.normal(size=4))

    def test_softmax_vector_jvp(self):
        r = ad.constant(RNG.normal(size=5))
        check_grad(lambda x: ad.dot(ad.softmax(x), r), RNG.normal(size=5), tol=1e-6)

    def test_softmax_rows(self):
        check_grad(lambda x: ad.total(ad.tanh(ad.softmax(x))), RNG.normal(size=(3, 4)))

    def test_log_and_exp(self):
        check_grad(lambda x: ad.total(ad.log(x)), RNG.uniform(0.5, 2.0, size=(2, 3)))
        check_grad(lambda x: ad.total(ad.tanh(ad.exp(x))), RNG.normal(size=(2, 3)))

    def test_total_and_mean(self):
        check_grad(lambda x: ad.total(x), RNG.normal(size=(2, 3)))
        check_grad(lambda x: ad.mean(x), RNG.normal(size=6))

    def test_dot(self):
        r = ad.constant(RNG.normal(size=4))
        check_grad(lambda x: ad.dot(x, r), RNG.normal(size=4))

    def test_pick(self):
        check_grad(lambda x: ad.pick(x, 2), RNG.normal(size=5))

    def test_logsumexp(self):
        check_grad(lambda x: ad.logsumexp(x), RNG.normal(size=6))

    def test_logsumexp_matches_direct_formula(self):
        v = RNG.normal(size=5) * 100
        got = ad.logsumexp(ad.constant(v)).item()
        want = np.log(np.sum(np.exp(v - v.max()))) + v.max()
        assert got == pytest.approx(want, rel=1e-12)


class TestGraphMechanics:
    def test_second_backward_does_not_accumulate(self):
        x = ad.parameter(np.array([1.0, 2.0]))
        out = ad.dot(x, x)
        ad.backward(out)
        first = x.grad.copy()
        ad.backward(out)
        assert np.array_equal(x.grad, first)

    def test_interior_gradients_are_dropped(self):
        x = ad.parameter(np.array([0.3, -0.7]))
        y = ad.tanh(x)
        out = ad.total(ad.scale(y, 2.0))
        ad.backward(out)
        assert y.grad is None and out.grad is None
        np.testing.assert_allclose(x.grad, 2.0 * (1.0 - np.tanh(x.data) ** 2), rtol=1e-12)

    def test_collector_paused_restores_state(self):
        import gc

        assert gc.isenabled()
        with pytest.raises(RuntimeError):
            with ad.collector_paused():
                assert not gc.isenabled()
                raise RuntimeError
        assert gc.isenabled()
        gc.disable()
        try:
            with ad.collector_paused():
                pass
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_shared_node_gradients_sum(self):
        x = ad.parameter(np.array([2.0]))
        y = ad.tanh(x)
        out = ad.total(ad.stack([y, y]))
        ad.backward(out)
        assert x.grad[0] == pytest.approx(2.0 * (1.0 - np.tanh(2.0) ** 2), rel=1e-12)

    def test_constants_get_no_gradient(self):
        x = ad.parameter(np.array([1.0]))
        c = ad.constant(np.array([5.0]))
        out = ad.dot(ad.sub(x, c), x)
        ad.backward(out)
        assert c.grad is None
        assert not c.requires_grad
        assert x.grad is not None

    def test_requires_grad_propagates(self):
        a = ad.constant(np.array([1.0]))
        b = ad.constant(np.array([2.0]))
        assert not ad.sub(a, b).requires_grad
        assert ad.sub(ad.parameter(np.array([1.0])), b).requires_grad
        assert ad.sub(a, ad.parameter(np.array([1.0]))).requires_grad

    def test_cycle_asserts(self):
        x = ad.parameter(np.array([1.0]))
        y = ad.tanh(x)
        y.parents = (y,)
        with pytest.raises(AssertionError):
            ad.backward(y)

    def test_deep_chain_does_not_recurse(self):
        x = ad.parameter(np.array([0.5]))
        node = x
        for _ in range(5000):
            node = ad.scale(node, 1.0)
        ad.backward(ad.total(node))
        assert x.grad[0] == 1.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
def test_softmax_is_a_probability_vector(values):
    out = ad.softmax(ad.constant(np.array(values))).data
    assert np.all(out >= 0)
    assert np.sum(out) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2 ** 31 - 1))
def test_row_softmax_rows_sum_to_one(n_rows, n_cols, seed):
    x = np.random.default_rng(seed).normal(scale=10, size=(n_rows, n_cols))
    out = ad.softmax(ad.constant(x)).data
    assert np.all(out >= 0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
