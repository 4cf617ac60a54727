"""Hot numeric kernels: numba-compiled fast path, pure-numpy fallback.

The only loop that dominates training time is the per-entry AdaGrad sweep
over the nonzero co-occurrence entries, so that is the one kernel with a
compiled variant.  ``adagrad_sweep`` runs it when numba can be imported,
and the fallback otherwise.

The fallback is run-vectorized: it cuts the visit order into maximal runs
of consecutive entries with distinct rows and distinct columns and does
each run as one gather, compute and scatter.  Its results are bitwise
those of visiting the entries one at a time.  The compiled kernel runs
the same update sequence but accumulates dot products in its own order,
so it agrees with the fallback to floating-point roundoff; each path is
bitwise deterministic on its own.

``benchmarks/bench_kernels.py`` times one against the other.
"""

from __future__ import annotations

import numpy as np

# Selects nothing: perfbench/run.py reads this name to record the variable in
# its environment report, so it stays until that report drops it.
PURE_NUMPY_ENV_VAR = "NEWSREC_PURE_NUMPY"

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:
    HAS_NUMBA = False


def backend_name() -> str:
    return "numba" if HAS_NUMBA else "numpy"


_BLOCK = 1 << 16  # entries of ``order`` split into runs at a time


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


def _runs(order, rows, cols, vocab):
    """Cut ``order`` into runs of consecutive entries with distinct rows and
    distinct columns; yield each run's entries and their rows in the
    stacked tables (``i``, then ``vocab + j``).

    Runs are maximal within blocks of ``_BLOCK`` entries, which bounds the
    memory the split takes; an extra cut changes no result.
    """
    for lo in range(0, len(order), _BLOCK):
        block = order[lo:lo + _BLOCK]
        at = np.stack((rows[block], cols[block] + vocab))
        starts = _run_starts(at[0], at[1])
        for s, e in zip(starts[:-1], starts[1:]):
            yield block[s:e], at[:, s:e]


def _stacked(word, word_bias, context, context_bias):
    """``[word | word_bias]`` over ``[context | context_bias]``."""
    return np.block([[word, word_bias[:, None]], [context, context_bias[:, None]]])


def _unstack(table, word, word_bias, context, context_bias):
    """Copy a ``_stacked`` table back into its four arrays."""
    vocab, d = word.shape
    word[:], word_bias[:] = table[:vocab, :d], table[:vocab, d]
    context[:], context_bias[:] = table[vocab:, :d], table[vocab:, d]


def adagrad_sweep_numpy(order, rows, cols, fweight, logx, W, Wt, b, bt, accW, accWt, accb, accbt, lr):
    """One AdaGrad sweep over co-occurrence entries, in ``order``.

    Updates all parameter and accumulator arrays in place and returns the
    summed weighted squared residual measured just before each update.
    Each step uses the pre-step accumulator, then adds the squared
    gradient to it.

    ``order`` is cut into runs of consecutive entries with distinct rows
    and distinct columns.  The updates of one run touch disjoint rows of
    every array, so each run is done as one gather, compute and scatter,
    with the same float operations as one entry at a time.  For that the
    sweep works on two stacked tables: ``P`` holds ``[W | b]`` over
    ``[Wt | bt]`` and ``A`` their accumulators, so one gather fetches a
    run's word and context rows together.  The dot products go through
    the same BLAS ``ddot`` as ``W[i] @ Wt[j]`` would, and the cost is summed
    in visit order, so the result is bitwise that of the per-entry loop.
    """
    vocab, d = W.shape
    P = _stacked(W, b, Wt, bt)
    A = _stacked(accW, accb, accWt, accbt)
    total = 0.0
    for idx, at in _runs(np.asarray(order), rows, cols, vocab):
        p = P.take(at, axis=0)  # p[0]: [W[i] | b[i]], p[1]: [Wt[j] | bt[j]]
        acc = A.take(at, axis=0)
        dot = (p[0, :, None, :d] @ p[1, :, :d, None])[:, 0, 0]
        diff = dot + p[0, :, d] + p[1, :, d] - logx.take(idx)
        fw = fweight.take(idx)
        for cost in (fw * diff * diff).tolist():
            total += cost
        g = 2.0 * fw * diff
        # gradients: g * Wt[j] and g for row i, g * W[i] and g for row j
        grad = g[:, None] * p[::-1]
        grad[:, :, d] = g
        step = np.multiply(grad, lr)
        np.divide(step, np.sqrt(acc), out=step)
        np.subtract(p, step, out=step)
        P[at] = step
        np.multiply(grad, grad, out=grad)
        np.add(acc, grad, out=acc)
        A[at] = acc
    _unstack(P, W, b, Wt, bt)
    _unstack(A, accW, accb, accWt, accbt)
    return total


if HAS_NUMBA:

    @njit(cache=True)
    def _adagrad_sweep_jit(order, rows, cols, fweight, logx, W, Wt, b, bt, accW, accWt, accb, accbt, lr):  # pragma: no cover - numba
        d = W.shape[1]
        total = 0.0
        for t in range(order.shape[0]):
            idx = order[t]
            i = rows[idx]
            j = cols[idx]
            dot = 0.0
            for k in range(d):
                dot += W[i, k] * Wt[j, k]
            diff = dot + b[i] + bt[j] - logx[idx]
            fw = fweight[idx]
            total += fw * diff * diff
            g = 2.0 * fw * diff
            for k in range(d):
                wik = W[i, k]
                wtjk = Wt[j, k]
                gw = g * wtjk
                gwt = g * wik
                W[i, k] = wik - lr * gw / np.sqrt(accW[i, k])
                Wt[j, k] = wtjk - lr * gwt / np.sqrt(accWt[j, k])
                accW[i, k] += gw * gw
                accWt[j, k] += gwt * gwt
            b[i] -= lr * g / np.sqrt(accb[i])
            accb[i] += g * g
            bt[j] -= lr * g / np.sqrt(accbt[j])
            accbt[j] += g * g
        return total


def adagrad_sweep(order, rows, cols, fweight, logx, W, Wt, b, bt, accW, accWt, accb, accbt, lr):
    if HAS_NUMBA:
        return _adagrad_sweep_jit(
            order, rows, cols, fweight, logx, W, Wt, b, bt, accW, accWt, accb, accbt, lr
        )
    return adagrad_sweep_numpy(
        order, rows, cols, fweight, logx, W, Wt, b, bt, accW, accWt, accb, accbt, lr
    )
