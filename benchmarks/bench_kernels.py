"""Benchmark the AdaGrad sweep: numba-compiled kernel vs pure-numpy fallback.

Usage:
    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--vocab 5000] [--dim 100]
                                                       [--nnz 200000] [--sweeps 3]

The pure-numpy fallback is run-vectorized: it updates runs of entries with
distinct rows and distinct columns at once, with results bitwise equal to
the per-entry order. The numba kernel agrees with it only to roundoff.
The compiled path is warmed up once before timing so JIT compilation is
excluded. Without numba only the fallback is timed.
"""

import argparse
import time

import numpy as np

import newsrec._kernels as kern


def make_instance(vocab, dim, nnz, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.choice(vocab * vocab, size=nnz, replace=False)
    vals = rng.uniform(0.5, 200.0, size=nnz)
    return {
        "order": rng.permutation(nnz),
        "rows": (keys // vocab).astype(np.int64),
        "cols": (keys % vocab).astype(np.int64),
        "fweight": np.minimum(vals / 100.0, 1.0) ** 0.75,
        "logx": np.log(vals),
        "W": rng.uniform(-0.005, 0.005, size=(vocab, dim)),
        "Wt": rng.uniform(-0.005, 0.005, size=(vocab, dim)),
        "b": rng.uniform(-0.005, 0.005, size=vocab),
        "bt": rng.uniform(-0.005, 0.005, size=vocab),
        "accW": np.ones((vocab, dim)),
        "accWt": np.ones((vocab, dim)),
        "accb": np.ones(vocab),
        "accbt": np.ones(vocab),
    }


def time_sweeps(fn, state, sweeps, lr=0.05):
    s = {k: np.array(v, copy=True) for k, v in state.items()}
    args = (s["order"], s["rows"], s["cols"], s["fweight"], s["logx"],
            s["W"], s["Wt"], s["b"], s["bt"],
            s["accW"], s["accWt"], s["accb"], s["accbt"], lr)
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
    print(f"vocab {args.vocab}, dim {args.dim}, nnz {args.nnz}, "
          f"{args.sweeps} sweeps, backend '{kern.backend_name()}'")

    np_secs, np_cost = time_sweeps(kern.adagrad_sweep_numpy, state, args.sweeps)
    print(f"  pure numpy : {np_secs:8.3f}s  ({args.sweeps * args.nnz / np_secs:12.0f} updates/s)"
          f"  final cost {np_cost:.6f}")

    if not kern.HAS_NUMBA:
        print("  numba      : unavailable (not installed)")
        return

    small = make_instance(8, args.dim, 16, seed=1)
    time_sweeps(kern._adagrad_sweep_jit, small, 1)  # compile outside the timer
    nb_secs, nb_cost = time_sweeps(kern._adagrad_sweep_jit, state, args.sweeps)
    print(f"  numba njit : {nb_secs:8.3f}s  ({args.sweeps * args.nnz / nb_secs:12.0f} updates/s)"
          f"  final cost {nb_cost:.6f}")
    print(f"  speedup    : {np_secs / nb_secs:8.2f}x")


if __name__ == "__main__":
    main()
