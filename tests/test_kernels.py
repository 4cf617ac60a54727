"""The AdaGrad sweep: the compiled kernel and its pure-numpy fallback agree,
and one sweep steps along the gradient that the finite-difference check vouches for."""

import dataclasses

import numpy as np
import pytest

import newsrec._kernels as kern
import newsrec.glove as gl


def make_instance(seed, vocab_size=12, dim=6, nnz=40):
    rng = np.random.default_rng(seed)
    keys = rng.choice(vocab_size * vocab_size, size=nnz, replace=False)
    keys.sort()
    rows = (keys // vocab_size).astype(np.int64)
    cols = (keys % vocab_size).astype(np.int64)
    vals = rng.uniform(0.5, 30.0, size=nnz)
    state = {
        "order": rng.permutation(nnz),
        "rows": rows,
        "cols": cols,
        "fweight": (vals / 20.0) ** 0.75,
        "logx": np.log(vals),
        "W": rng.normal(scale=0.05, size=(vocab_size, dim)),
        "Wt": rng.normal(scale=0.05, size=(vocab_size, dim)),
        "b": rng.normal(scale=0.05, size=vocab_size),
        "bt": rng.normal(scale=0.05, size=vocab_size),
        "accW": np.ones((vocab_size, dim)),
        "accWt": np.ones((vocab_size, dim)),
        "accb": np.ones(vocab_size),
        "accbt": np.ones(vocab_size),
    }
    return state


def run_sweep(fn, state, lr=0.05, repeats=3):
    s = {k: np.array(v, copy=True) for k, v in state.items()}
    costs = [
        fn(s["order"], s["rows"], s["cols"], s["fweight"], s["logx"],
           s["W"], s["Wt"], s["b"], s["bt"],
           s["accW"], s["accWt"], s["accb"], s["accbt"], lr)
        for _ in range(repeats)
    ]
    return costs, s


def test_numpy_sweep_is_deterministic():
    state = make_instance(0)
    costs1, s1 = run_sweep(kern.adagrad_sweep_numpy, state)
    costs2, s2 = run_sweep(kern.adagrad_sweep_numpy, state)
    assert costs1 == costs2
    assert np.array_equal(s1["W"], s2["W"])
    assert np.array_equal(s1["accb"], s2["accb"])


def test_sweep_reduces_cost():
    state = make_instance(1)
    costs, _ = run_sweep(kern.adagrad_sweep_numpy, state, repeats=6)
    assert costs[-1] < costs[0]


@pytest.mark.skipif(not kern.HAS_NUMBA, reason="numba not installed")
def test_compiled_sweep_matches_numpy_to_roundoff():
    # dot-product accumulation order differs between the backends, so
    # agreement is to roundoff, not bitwise; each backend is bitwise
    # deterministic on its own
    state = make_instance(2)
    costs_np, s_np = run_sweep(kern.adagrad_sweep_numpy, state)
    costs_nb, s_nb = run_sweep(kern._adagrad_sweep_jit, state)
    np.testing.assert_allclose(costs_np, costs_nb, rtol=1e-12, atol=0.0)
    for key in ("W", "Wt", "b", "bt", "accW", "accWt", "accb", "accbt"):
        np.testing.assert_allclose(s_np[key], s_nb[key], rtol=1e-10, atol=1e-13, err_msg=key)


@pytest.mark.skipif(not kern.HAS_NUMBA, reason="numba not installed")
def test_compiled_sweep_is_deterministic():
    state = make_instance(4)
    costs1, s1 = run_sweep(kern._adagrad_sweep_jit, state)
    costs2, s2 = run_sweep(kern._adagrad_sweep_jit, state)
    assert costs1 == costs2
    assert np.array_equal(s1["W"], s2["W"])
    assert np.array_equal(s1["accb"], s2["accb"])


def test_dispatcher_uses_a_real_backend():
    assert kern.backend_name() in ("numba", "numpy")
    state = make_instance(3)
    costs, _ = run_sweep(kern.adagrad_sweep, state)
    assert all(np.isfinite(c) for c in costs)


def test_sweep_over_disjoint_entries_steps_by_the_checked_gradient():
    """With no row and no column repeated, each update of one sweep starts
    from the initial state, so from unit accumulators the sweep is one
    plain gradient step: the gradient the finite-difference check vouches
    for (``glove_cost_grads``), scaled by ``-lr``."""
    rng = np.random.default_rng(11)
    vocab_size, nnz, lr = 15, 9, 0.05
    config = gl.GloveConfig(dim=6, x_max=10.0, learning_rate=lr)
    matrix = gl.CooccurrenceMatrix(vocab_size=vocab_size,
                                   rows=rng.permutation(vocab_size)[:nnz],
                                   cols=rng.permutation(vocab_size)[:nnz],
                                   vals=rng.uniform(0.5, 30.0, size=nnz))
    table = gl.init_table(vocab_size, config.dim, seed=4)
    cost, grads = gl.glove_cost_grads(table, matrix, config)
    after = {f.name: getattr(table, f.name).copy() for f in dataclasses.fields(table)}
    got = kern.adagrad_sweep(rng.permutation(nnz), matrix.rows, matrix.cols,
                             gl.cost_weight(matrix.vals, config.x_max, config.alpha),
                             np.log(matrix.vals), after["W"], after["Wt"], after["b"], after["bt"],
                             after["accW"], after["accWt"], after["accb"], after["accbt"], lr)
    # the sweep sums the cost in visit order, glove_cost_grads by np.sum
    assert got == pytest.approx(cost, rel=1e-14)
    for key, grad in grads.items():
        before = getattr(table, key)
        np.testing.assert_allclose(after[key] - before, -lr * grad, rtol=0, atol=1e-15, err_msg=key)
        np.testing.assert_allclose(after["acc" + key], 1.0 + grad * grad, rtol=1e-14, err_msg=key)
