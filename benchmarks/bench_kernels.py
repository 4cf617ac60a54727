"""Benchmark the GloVe AdaGrad sweep on a seeded synthetic instance.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--vocab 5000] [--dim 100]
                                                       [--nnz 200000] [--sweeps 3]

The sweep updates GloVe's two stacked tables in place: ``[W | b]`` over
``[Wt | bt]`` and their AdaGrad sums.  It is run-vectorized: it updates runs
of entries with distinct rows and distinct columns at once, with results
bitwise equal to the per-entry order.  It reads each entry's count and
derives the entry's weight and log per block of visits, as ``glove_train``
calls it, with int32 rows, columns and visit order.
"""

import argparse
import time

import numpy as np

import newsrec._kernels as kern
from newsrec.glove import EmbeddingTable

X_MAX, ALPHA = 100.0, 0.75  # GloVe's weighting function f(x) = min(x / X_MAX, 1) ** ALPHA


def make_instance(vocab, dim, nnz, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.choice(vocab * vocab, size=nnz, replace=False)
    vals = rng.uniform(0.5, 200.0, size=nnz)
    order = rng.permutation(nnz).astype(np.int32)  # drawn before the table: fixes the instance
    table = EmbeddingTable(params=np.empty((2 * vocab, dim + 1)), acc=np.ones((2 * vocab, dim + 1)))
    for part in (table.W, table.Wt, table.b, table.bt):
        part[:] = rng.uniform(-0.005, 0.005, size=part.shape)
    return {
        "order": order,
        "rows": (keys // vocab).astype(np.int32),
        "cols": (keys % vocab).astype(np.int32),
        "vals": vals,
        "params": table.params,
        "acc": table.acc,
    }


def time_sweeps(fn, state, sweeps, lr=0.05):
    s = {k: np.array(v, copy=True) for k, v in state.items()}
    args = (s["order"], s["rows"], s["cols"], s["vals"], X_MAX, ALPHA, s["params"], s["acc"], lr)
    start = time.perf_counter()
    cost = 0.0
    for _ in range(sweeps):
        cost = fn(*args)
    return time.perf_counter() - start, cost


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vocab", type=int, default=5000)
    parser.add_argument("--dim", type=int, default=100)
    parser.add_argument("--nnz", type=int, default=200_000)
    parser.add_argument("--sweeps", type=int, default=3)
    args = parser.parse_args()

    state = make_instance(args.vocab, args.dim, args.nnz)
    print(f"vocab {args.vocab}, dim {args.dim}, nnz {args.nnz}, {args.sweeps} sweeps")
    secs, cost = time_sweeps(kern.adagrad_sweep, state, args.sweeps)
    print(f"  {secs:8.3f}s  ({args.sweeps * args.nnz / secs:12.0f} updates/s)"
          f"  final cost {cost:.6f}")


if __name__ == "__main__":
    main()
