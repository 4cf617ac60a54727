"""The AdaGrad sweep: the run-vectorized sweep is bitwise the per-entry
loop, and one sweep steps along the gradient that the finite-difference
check vouches for."""

import numpy as np
import pytest

import newsrec._kernels as kern
import newsrec.glove as gl

from conftest import glove_cost_grads


PARAMS = ("W", "Wt", "b", "bt", "accW", "accWt", "accb", "accbt")
X_MAX, ALPHA = 20.0, 0.75


def parts(state):
    """The eight arrays of the per-entry oracle, as views of the two tables."""
    tables = (gl.EmbeddingTable(state["params"], state["acc"]),
              gl.EmbeddingTable(state["acc"], state["params"]))
    return dict(zip(PARAMS, [getattr(t, name) for t in tables for name in ("W", "Wt", "b", "bt")]))


def make_instance(seed, vocab_size=12, dim=6, nnz=40):
    rng = np.random.default_rng(seed)
    keys = rng.choice(vocab_size * vocab_size, size=nnz, replace=False)
    keys.sort()
    rows = (keys // vocab_size).astype(np.int32)
    cols = (keys % vocab_size).astype(np.int32)
    vals = rng.uniform(0.5, 30.0, size=nnz)
    state = {
        "order": rng.permutation(nnz).astype(np.int32),
        "rows": rows,
        "cols": cols,
        "vals": vals,
        "params": np.empty((2 * vocab_size, dim + 1)),
        "acc": np.ones((2 * vocab_size, dim + 1)),
    }
    drawn = parts(state)
    for name in ("W", "Wt", "b", "bt"):
        drawn[name][:] = rng.normal(scale=0.05, size=drawn[name].shape)
    return state


def run_sweep(fn, state, lr=0.05, repeats=3):
    s = {k: np.array(v, copy=True) for k, v in state.items()}
    costs = [
        fn(s["order"], s["rows"], s["cols"], s["vals"], X_MAX, ALPHA, s["params"], s["acc"], lr)
        for _ in range(repeats)
    ]
    return costs, parts(s)


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


def per_entry_on_tables(order, rows, cols, vals, x_max, alpha, params, acc, lr):
    """The oracle with ``adagrad_sweep``'s arguments: the weights and logs
    of all entries at once, then one entry at a time."""
    s = parts({"params": params, "acc": acc})
    return per_entry_sweep(order, rows, cols, gl.cost_weight(vals, x_max, alpha), np.log(vals),
                           *(s[key] for key in PARAMS), lr)


def assert_bitwise_per_entry(state):
    costs_ref, ref = run_sweep(per_entry_on_tables, state)
    costs, got = run_sweep(kern.adagrad_sweep, state)
    assert costs == costs_ref
    for key in PARAMS:
        assert np.array_equal(got[key], ref[key]), key


def with_one_row(state):
    state["rows"][:] = 1
    return state


def with_order(state, order):
    state["order"] = np.asarray(order, dtype=np.int32)
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


def test_weights_derived_block_by_block_keep_the_bits(monkeypatch):
    """Blocks of 1,000 visits over 2,500 entries: each block's weights and
    logs are those of the whole array, whatever their place in it."""
    monkeypatch.setattr(kern, "_BLOCK", 1000)
    assert_bitwise_per_entry(make_instance(12, vocab_size=80, dim=5, nnz=2500))


def test_stacked_table_rows_do_not_overflow_int32():
    rows = np.array([0, 1, 2], dtype=np.int32)
    cols = np.array([2, 0, 1], dtype=np.int32)
    vocab = 2**31 - 2
    at, _fweight, _logx = next(kern._runs(np.arange(3, dtype=np.int32), rows, cols,
                                          np.ones(3), X_MAX, ALPHA, vocab))
    assert at.tolist() == [[0, 1, 2], [vocab + 2, vocab, vocab + 1]]


def test_empty_order_returns_zero_and_touches_nothing():
    state = with_order(make_instance(10), [])
    costs, got = run_sweep(kern.adagrad_sweep, state, repeats=1)
    assert costs == [0.0]
    for key, before in parts(state).items():
        assert np.array_equal(got[key], before), key


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
    cost, grads = glove_cost_grads(table, matrix, config)
    stepped = {"params": table.params.copy(), "acc": table.acc.copy()}
    got = kern.adagrad_sweep(rng.permutation(nnz), matrix.rows, matrix.cols, matrix.vals,
                             config.x_max, config.alpha, stepped["params"], stepped["acc"], lr)
    after = parts(stepped)
    # the sweep sums the cost in visit order, glove_cost_grads by np.sum
    assert got == pytest.approx(cost, rel=1e-14)
    for key, grad in grads.items():
        before = getattr(table, key)
        np.testing.assert_allclose(after[key] - before, -lr * grad, rtol=0, atol=1e-15, err_msg=key)
        np.testing.assert_allclose(after["acc" + key], 1.0 + grad * grad, rtol=1e-14, err_msg=key)
