"""The GloVe AdaGrad sweep, in numpy.

The one loop that dominates embedding training is the per-entry AdaGrad
sweep over the nonzero co-occurrence entries.  It updates GloVe's state
in place, kept as in the reference implementation: two stacked tables,
``[W | b]`` over ``[Wt | bt]`` and their AdaGrad sums.  ``adagrad_sweep``
runs it run-vectorized: it cuts the visit order into maximal runs of
consecutive entries with distinct rows and distinct columns and does each
run as one gather, compute and scatter.  Its results are bitwise those of
visiting the entries one at a time, so a seed gives the same vectors on
every machine with the same numpy and BLAS.

Per entry it reads only what ``glove_train`` holds: the int32 visit
order, int32 row and column and float64 count, 20 B in all.  The weight
f(x) and log x of each block of ``_BLOCK`` visits are derived from the
counts as the block is cut into runs, with the same elementwise
operations as over the whole array.

``benchmarks/bench_kernels.py`` times it.
"""

from __future__ import annotations

import numpy as np

# Selects nothing: perfbench/run.py reads this name to record the variable in
# its environment report, so it stays until that report drops it.
PURE_NUMPY_ENV_VAR = "NEWSREC_PURE_NUMPY"


# Chooses nothing, there being one sweep: perfbench/run.py calls this to
# record a backend in its environment report, so it stays until that report
# drops it.
def backend_name() -> str:
    return "numpy"


_BLOCK = 1 << 14  # entries of ``order`` split into runs at a time


def cost_weight(x: np.ndarray, x_max: float, alpha: float) -> np.ndarray:
    """f(x) = (x / x_max)^alpha for x < x_max, else 1."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < x_max, (x / x_max) ** alpha, 1.0)


def _run_starts(rows, cols):
    """Start positions of the greedy maximal runs of consecutive entries in
    which no row and no column repeats, ending with ``len(rows)``.

    ``last[u]`` is the latest earlier position that shares entry ``u``'s row
    or column, found by sorting (key, position) pairs packed into one int64.
    A run from ``s`` breaks at the first ``u`` with ``last[u] >= s``, which
    is where the running maximum of ``last`` first reaches ``s``.
    """
    n = rows.shape[0]
    positions = np.arange(n, dtype=np.int64)
    shift = n.bit_length()
    mask = (1 << shift) - 1
    last = np.full(n, -1, dtype=np.int64)
    for keys in (rows, cols):
        packed = np.sort((keys.astype(np.int64) << shift) | positions)
        same = (packed[1:] >> shift) == (packed[:-1] >> shift)
        later = packed[1:][same] & mask
        last[later] = np.maximum(last[later], packed[:-1][same] & mask)
    reach = np.maximum.accumulate(last)
    starts = [0]
    while starts[-1] < n:
        starts.append(int(reach.searchsorted(starts[-1])))
    return starts


def _runs(order, rows, cols, vals, x_max, alpha, vocab):
    """Cut ``order`` into runs of consecutive entries with distinct rows and
    distinct columns; yield each run's rows in the stacked tables (``i``,
    then ``vocab + j``), its weights f(x) and its log x.

    Runs are maximal within blocks of ``_BLOCK`` entries, which bounds the
    memory the split takes; an extra cut changes no result.  Each block
    gathers its values and derives f(x) and log x from them, elementwise,
    so no full-length weight array is held.
    """
    for lo in range(0, len(order), _BLOCK):
        block = order[lo:lo + _BLOCK]
        at = np.empty((2, block.size), dtype=np.intp)  # vocab + j can pass int32
        at[0] = rows[block]
        at[1] = cols[block]
        at[1] += vocab
        x = vals.take(block)
        fweight, logx = cost_weight(x, x_max, alpha), np.log(x)
        starts = _run_starts(at[0], at[1])
        for s, e in zip(starts[:-1], starts[1:]):
            yield at[:, s:e], fweight[s:e], logx[s:e]


def adagrad_sweep(order, rows, cols, vals, x_max, alpha, params, acc, lr):
    """One AdaGrad sweep over co-occurrence entries, in ``order``.

    Entry ``u`` is the count ``vals[u]`` at (``rows[u]``, ``cols[u]``), and
    its cost weight is ``cost_weight(vals[u], x_max, alpha)``.  ``params``
    is GloVe's stacked table, ``[W | b]`` over ``[Wt | bt]`` with shape
    (2V, d+1), and ``acc`` its AdaGrad sums in the same layout.  Updates
    both in place and returns the summed weighted squared residual
    measured just before each update.  Each step uses the pre-step
    accumulator, then adds the squared gradient to it.

    ``order`` is cut into runs of consecutive entries with distinct rows
    and distinct columns.  The updates of one run touch disjoint rows of
    both tables, so each run is done as one gather, compute and scatter,
    with the same float operations as one entry at a time; one gather
    fetches a run's word and context rows together.  The dot products go
    through the same BLAS ``ddot`` as ``W[i] @ Wt[j]`` would, and the cost
    is summed in visit order, so the result is bitwise that of the
    per-entry loop.
    """
    vocab, d = params.shape[0] // 2, params.shape[1] - 1
    total = 0.0
    for at, fw, logx in _runs(np.asarray(order), rows, cols, vals, x_max, alpha, vocab):
        p = params.take(at, axis=0)  # p[0]: [W[i] | b[i]], p[1]: [Wt[j] | bt[j]]
        a = acc.take(at, axis=0)
        dot = (p[0, :, None, :d] @ p[1, :, :d, None])[:, 0, 0]
        diff = dot + p[0, :, d] + p[1, :, d] - logx
        for cost in (fw * diff * diff).tolist():
            total += cost
        g = 2.0 * fw * diff
        # gradients: g * Wt[j] and g for row i, g * W[i] and g for row j
        grad = g[:, None] * p[::-1]
        grad[:, :, d] = g
        step = np.multiply(grad, lr)
        np.divide(step, np.sqrt(a), out=step)
        np.subtract(p, step, out=step)
        params[at] = step
        np.multiply(grad, grad, out=grad)
        np.add(a, grad, out=a)
        acc[at] = a
    return total
