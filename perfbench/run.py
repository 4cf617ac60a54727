"""newsrec benchmark: one closed-loop client calling ``newsrec.cli.main``.

    python3 perfbench/run.py --workload {train,embed,serve,all} --seed N \\
                             --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` there, never from site-packages.  One process, one client, no
added threads: every command runs with ``--threads 1`` and OpenBLAS with
one thread (its idle thread otherwise spins on the second core, which
makes this model's small matrix products slower and far noisier).

A workload sets up five times (``setup_s`` is the median), then repeats
its CLI calls for ``--seconds`` seconds, checking each call's outputs, and
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` then replays
the workload's first ``trace_ops`` calls, a fixed number, each once
untraced and once with spans around every layer, and prints the per-layer
metrics.  BENCHMARK.json names the metrics each mode reports and their
units.  The last line of standard output is the JSON result; everything
before it is for people, and the full record goes to ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
SETUPS = 5
_clock = time.perf_counter


class SetupFailed(RuntimeError):
    pass


def _import_program() -> None:
    """Put the checkout's sources first on the path, or refuse to run."""
    src = os.path.join(ROOT, "src")
    missing = [p for p in (os.path.join(src, "newsrec", "cli.py"),
                           os.path.join(ROOT, "benchmarks", "bench_kernels.py"))
               if not os.path.isfile(p)]
    if missing:
        raise SetupFailed(f"not a newsrec checkout, missing {', '.join(missing)}")
    sys.path[:0] = [src, os.path.join(ROOT, "benchmarks")]


def make_cli(tracer=None):
    """``cli(argv) -> (exit code, stdout, stderr)``: ``newsrec.cli.main`` in-process."""
    from newsrec.cli import main

    def cli(argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = main(argv)
                else:
                    tracer.request += 1
                    with tracer.span(f"cli.{argv[0]}"):
                        code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is a failed call, not a crashed benchmark
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    return cli


def setup_cli(cli):
    def run(argv):
        code, out, err = cli(argv)
        if code != 0:
            raise SetupFailed(f"set-up call {argv[0]} exited {code}: {err.strip()[-500:]}")
        return out
    return run


def run_op(op, cli, state):
    from workloads import Record

    t0 = _clock()
    code, out, err = cli(op.argv)
    wall = _clock() - t0
    state.facts[op.argv[0]] = out
    failure = f"exit code {code}: {err.strip()[-300:]}" if code != 0 else None
    if failure is None:
        try:
            failure = op.check()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failure = f"output check raised {exc!r}"
    return Record(op.kind, wall, op.items, failure)


def run_ops(workload, state, seed, cli, seconds):
    """Closed loop: each call starts when the previous one and its check end."""
    records = []
    ops = workload.ops(state, seed)
    start = _clock()
    while not (len(records) % workload.cycle == 0 and workload.enough(records)
               and _clock() - start >= seconds):
        records.append(run_op(next(ops), cli, state))
    return records


def run_traced(workload, state, seed, cli):
    """The first ``trace_ops`` calls again, each once untraced and once traced.

    The count is fixed per workload, so the per-layer totals cover the
    same calls on every commit, however fast it is.

    Adjacent pairs keep slow drifts of the machine out of the overhead, and
    alternating which copy goes first cancels the head start the second
    copy gets from memory and files the first one just touched.
    """
    from layers import install
    from spans import Tracer

    tracer = Tracer()
    traced_cli = make_cli(tracer)
    plain_ops, traced_ops = workload.ops(state, seed), workload.ops(state, seed)
    plain, traced = [], []

    def run_plain():
        plain.append(run_op(next(plain_ops), cli, state))

    def run_traced_copy():
        install(tracer)
        try:
            traced.append(run_op(next(traced_ops), traced_cli, state))
        finally:
            tracer.restore()

    for i in range(workload.trace_ops):
        first, second = (run_plain, run_traced_copy) if i % 2 == 0 else (run_traced_copy, run_plain)
        first()
        second()
    return tracer, plain, traced


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = getattr(lib, symbol)()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np
    from newsrec import _kernels

    return {
        "kernel_backend": _kernels.backend_name(),
        "NEWSREC_PURE_NUMPY": os.environ.get(_kernels.PURE_NUMPY_ENV_VAR),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def fixed_kernel_rate() -> float:
    """AdaGrad sweep over a fixed seeded instance built by bench_kernels."""
    import bench_kernels
    from newsrec import _kernels

    nnz = 40_000
    instance = bench_kernels.make_instance(2000, 50, nnz, seed=0)
    seconds, _cost = bench_kernels.time_sweeps(_kernels.adagrad_sweep, instance, 1)
    return nnz / seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(workload, seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    from layers import metrics_from
    from workloads import input_properties

    cli = make_cli()
    setup_times = []
    for i in range(1 if trace else SETUPS):
        root = os.path.join(work_dir, f"setup{i}")
        t0 = _clock()
        state = workload.setup(root, seed, setup_cli(cli))
        setup_times.append(_clock() - t0)
    records = run_ops(workload, state, seed, cli, seconds=seconds)
    result = {"workload": workload.name, "seed": seed, "setup_runs_s": setup_times}
    named = workload.report(records, state)
    if trace:
        tracer, plain, traced = run_traced(workload, state, seed, cli)
        untraced_s = sum(r.seconds for r in plain)
        overhead_s = sum(r.seconds for r in traced) - untraced_s
        records += plain + traced
        metrics = metrics_from(tracer, fixed_kernel_rate(), overhead_s, untraced_s)
        tracer.write(os.path.join(work_dir, "spans.jsonl"))
        result["self_s"] = sorted(((name, total[2], int(total[0]))
                                   for name, total in tracer.totals.items()),
                                  key=lambda row: -row[1])
    else:
        metrics = {name: value for name, (value, _unit) in named.items()}
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = peak_rss_mb()
    result.update(
        named={k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        inputs=input_properties(workload, state),
        metrics=metrics,
        attempted=len(records),
        failed=sum(r.failure is not None for r in records),
        failures=[f"{r.kind}: {r.failure}" for r in records if r.failure is not None][:20],
        ops=[[r.kind, r.seconds, r.failure is None] for r in records],
    )
    return result


def declared_units(trace: bool) -> dict[str, str]:
    """Names and units of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "embed", "serve", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads OpenBLAS
    sys.dont_write_bytecode = True  # leave no caches in the checkout
    try:
        _import_program()
        from workloads import WORKLOADS

        units = declared_units(bool(args.trace))
        env = environment()
    except (SetupFailed, ImportError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc!r}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        work_dir = os.path.join(WORK, f"{name}-seed{args.seed}-trace{args.trace}")
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        peak_before = peak_rss_mb()
        try:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                                  work_dir)
        except SetupFailed as exc:
            print(f"perfbench {name}: {exc}", file=sys.stderr)
            return 1
        result["metrics"] = {key: result["metrics"][key] for key in units}
        if results and result["metrics"].get("peak_rss_mb", math.inf) <= peak_before:
            # an earlier workload of this process set the peak; this one's own is unknown
            del result["metrics"]["peak_rss_mb"]
        result["env"] = env
        for entry in os.listdir(work_dir):  # keep the record, drop inputs and outputs
            if entry.startswith("setup"):
                shutil.rmtree(os.path.join(work_dir, entry))
        with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        _print_human(result, units)
        results.append(result)

    correct = all(r["failed"] == 0 for r in results)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": units[k]}
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0


def _print_human(result: dict, units: dict[str, str]) -> None:
    name = result["workload"]
    print(f"== workload {name}, seed {result['seed']}: {result['attempted']} calls, "
          f"{result['failed']} failed")
    for failure in result["failures"]:
        print(f"   FAIL {failure}")
    checks = {}
    for kind, _s, ok in result["ops"]:
        passed, total = checks.get(kind, (0, 0))
        checks[kind] = (passed + ok, total + 1)
    for kind, (passed, total) in sorted(checks.items()):
        print(f"   check {kind:12s} {passed}/{total} passed")
    print("   inputs " + json.dumps(result["inputs"], sort_keys=True))
    for key, entry in result["named"].items():
        if key not in result["metrics"]:
            print(f"   {key:28s} {entry['value']:.6g} {entry['unit']}")
    for key, value in result["metrics"].items():
        print(f"   metric {key:30s} {value:.6g} {units[key]}")
    if "peak_rss_mb" in units and "peak_rss_mb" not in result["metrics"]:
        print("   metric peak_rss_mb left out: an earlier workload of this process set the peak")
    for span, self_s, calls in result.get("self_s", [])[:12]:
        print(f"   self   {span:30s} {self_s:10.4f} s  {calls} calls")


if __name__ == "__main__":
    sys.exit(main())
