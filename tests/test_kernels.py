"""The AdaGrad sweep: the run-vectorized sweep is bitwise the per-entry
loop, and one sweep steps along the gradient that the finite-difference
check vouches for."""

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


PARAMS = ("W", "Wt", "b", "bt", "accW", "accWt", "accb", "accbt")


def per_entry_sweep(order, rows, cols, fweight, logx, W, Wt, b, bt, accW, accWt, accb, accbt, lr):
    """Reference oracle: GloVe's AdaGrad, one co-occurrence entry at a time."""
    total = 0.0
    for idx in order:
        i = rows[idx]
        j = cols[idx]
        wi = W[i]
        wtj = Wt[j]
        diff = float(wi @ wtj) + b[i] + bt[j] - logx[idx]
        fw = fweight[idx]
        total += fw * diff * diff
        g = 2.0 * fw * diff
        gw = g * wtj
        gwt = g * wi
        W[i] = wi - lr * gw / np.sqrt(accW[i])
        Wt[j] = wtj - lr * gwt / np.sqrt(accWt[j])
        accW[i] += gw * gw
        accWt[j] += gwt * gwt
        b[i] -= lr * g / np.sqrt(accb[i])
        accb[i] += g * g
        bt[j] -= lr * g / np.sqrt(accbt[j])
        accbt[j] += g * g
    return total


def assert_bitwise_per_entry(state):
    costs_ref, ref = run_sweep(per_entry_sweep, state)
    costs, got = run_sweep(kern.adagrad_sweep, state)
    assert costs == costs_ref
    for key in PARAMS:
        assert np.array_equal(got[key], ref[key]), key


def with_one_row(state):
    state["rows"][:] = 1
    return state


def with_order(state, order):
    state["order"] = np.asarray(order, dtype=np.int64)
    return state


@pytest.mark.parametrize("state", [
    *(make_instance(seed) for seed in range(5)),
    make_instance(5, vocab_size=3, dim=4, nnz=9),
    make_instance(6, vocab_size=3, dim=4, nnz=6),
    with_one_row(make_instance(7)),
    with_order(make_instance(8), [17]),
    with_order(make_instance(9), [4, 4, 0, 9, 31, 0, 12, 4]),
], ids=["seed0", "seed1", "seed2", "seed3", "seed4", "vocab3_full", "vocab3_sparse",
        "one_row", "single_entry", "entry_twice"])
def test_numpy_sweep_is_bitwise_the_per_entry_loop(state):
    assert_bitwise_per_entry(state)


def test_runs_cut_at_block_edges_change_nothing(monkeypatch):
    monkeypatch.setattr(kern, "_BLOCK", 7)
    assert_bitwise_per_entry(
        with_order(make_instance(11), np.r_[np.arange(40), np.arange(40)[::-1]]))


def test_empty_order_returns_zero_and_touches_nothing():
    state = with_order(make_instance(10), [])
    costs, got = run_sweep(kern.adagrad_sweep, state, repeats=1)
    assert costs == [0.0]
    for key in PARAMS:
        assert np.array_equal(got[key], state[key]), key


def test_numpy_sweep_is_deterministic():
    state = make_instance(0)
    costs1, s1 = run_sweep(kern.adagrad_sweep, state)
    costs2, s2 = run_sweep(kern.adagrad_sweep, state)
    assert costs1 == costs2
    assert np.array_equal(s1["W"], s2["W"])
    assert np.array_equal(s1["accb"], s2["accb"])


def test_sweep_reduces_cost():
    state = make_instance(1)
    costs, _ = run_sweep(kern.adagrad_sweep, state, repeats=6)
    assert costs[-1] < costs[0]


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
