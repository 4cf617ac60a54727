"""Hot numeric kernels: numba-compiled fast path, pure-numpy fallback.

The only loop that dominates training time is the per-entry AdaGrad sweep
over the nonzero co-occurrence entries, so that is the one kernel with a
compiled variant.  ``adagrad_sweep`` runs it when numba can be imported,
and the fallback otherwise.  Both paths run the same update sequence; they
agree to floating-point roundoff and each is bitwise deterministic on its
own.

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


def adagrad_sweep_numpy(order, rows, cols, fweight, logx, W, Wt, b, bt, accW, accWt, accb, accbt, lr):
    """One AdaGrad sweep over co-occurrence entries, in ``order``.

    Updates all parameter and accumulator arrays in place and returns the
    summed weighted squared residual measured just before each update.
    Each step uses the pre-step accumulator, then adds the squared
    gradient to it.
    """
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
