#!/usr/bin/env python3
"""hsrfuse benchmark: time to stop, quality and the CLI round trip.

Run from the root of a source checkout (it imports ``src/hsrfuse``):

    python3 perfbench/run.py --workload known-plain-256 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One process runs one workload.  It pins the BLAS thread count before numpy
loads: to the number of usable cores, or to ``BLAS_THREADS[workload]``.  It
builds the first instance ``SETUP_REPEATS`` times and imports the package as
often in fresh interpreters; ``setup_s`` is the median import plus the median
build.  After one short warm-up solve it repeats the workload's operation,
each time on a fresh instance drawn from ``--seed``, for ``--seconds`` and at
least ``MIN_OPS`` times.  Every operation is checked; a failed check, an
exception or a nonzero CLI exit counts it as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, with
medians over the run's operations (``ms_per_iter``: over its iterations).
The high percentiles go on the information line: the 90th percentile of the
iteration times and the slowest operation.  They are not gated metrics
because co-tenant interference on a shared machine moves them between runs
far more than the medians.  With ``--trace 1`` the same run wraps the
package's functions (see ``tracing.py``) and reports per-operation call
counts and self times per layer instead; the spans are written to
``perfbench/_run/``.  The line before the result records the environment and
the objective-trace hash, which is information, not a check.

``--workload all`` runs every workload, each in its own process, in turn.
The workloads, the seeds and the predicted layer-to-metric effects are
recorded in ``perfbench/predictions.json``.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = HERE / "_run"
# The names of workloads.WORKLOADS, needed before that module (and numpy) may load.
WORKLOADS = ("known-plain-256", "blind-reg-128", "cli-roundtrip-96")
SETUP_REPEATS = 5
# Instances differ in time to stop by ~9% (blind-reg-128), so a run's median
# needs several of them even when one solve takes a third of --seconds.
MIN_OPS = 3
INSTANCES_PER_SEED = 1000
ITER_PERCENTILE = 90
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads where the core count is not used.  At 96x96x48 a second thread
# does not speed the round trip up (median solve 0.83 s with two threads, 0.86 s
# with one, on a shared 2-vCPU VM), but it ties every small BLAS call to both
# vCPUs, so a stall on either one stalls the solve: over six seeds run
# alternately, IQR/median of solve_s was 0.20 with two threads and 0.11 with one.
BLAS_THREADS = {"cli-roundtrip-96": 1}


def _default_seed():
    return json.loads((HERE / "predictions.json").read_text())["seeds"]["default"]


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None, help="instance seed")
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def _pin_blas_threads(workload):
    """Set the BLAS pool size; must run before numpy loads.  Returns nproc."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS.get(workload, nproc))
    return nproc


def _import_package():
    """Import hsrfuse from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "hsrfuse" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'hsrfuse'} not found; run from a hsrfuse source checkout")
    sys.path.insert(0, str(src))
    import hsrfuse
    import hsrfuse.cli  # noqa: F401

    if Path(hsrfuse.__file__).resolve().parent != (src / "hsrfuse").resolve():
        sys.exit(f"error: imported hsrfuse from {hsrfuse.__file__}, not from {src}")


def _import_s():
    """Median time to import the package and its CLI in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import hsrfuse.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                              capture_output=True, text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def _openblas_runtime():
    """(threads, config) reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None, None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_threads(), get_config().decode()
    return None, None


def _environment(nproc):
    import numpy
    import scipy

    threads, config = _openblas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": config,
        "blas_threads": threads,
        "nproc": nproc,
        "pinned": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def _setup(workload, seed, phase):
    """Build the instance SETUP_REPEATS times; return the median build time."""
    times = []
    for _ in range(SETUP_REPEATS):
        with phase("setup"):
            t0 = time.perf_counter()
            workload.setup(seed)
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def instance_seed(seed, index):
    """Seed of the run's ``index``-th instance; runs with distinct seeds share none."""
    return INSTANCES_PER_SEED * seed + index


def _measure(workload, seed, seconds, phase, failed_op):
    """Run operations on fresh instances for ``seconds``, and at least MIN_OPS.

    Past MIN_OPS an operation starts only if it should end in time, judged by
    the longest one so far.
    """
    results = []
    start = time.perf_counter()
    longest = 0.0
    while len(results) < MIN_OPS or time.perf_counter() + longest - start <= seconds:
        t0 = time.perf_counter()
        workload.prepare(instance_seed(seed, len(results)))
        with phase("op"):
            try:
                results.append(workload.run_op())
            except Exception as exc:  # an operation that raises counts as failed
                results.append(failed_op(failures=[f"raised {type(exc).__name__}: {exc}"]))
        longest = max(longest, time.perf_counter() - t0)
    return results


def _json_safe(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(results, import_s, build_s):
    """End-to-end metrics over the operations that passed, and the sample counts.

    ``ms_per_iter`` is the median over every iteration of every solve in the
    run; the other figures are medians over operations.
    """
    import numpy as np

    ok = [r for r in results if not r.failures]
    if not ok:
        return {}, {}
    median = statistics.median
    iter_ms = 1e3 * np.concatenate([r.iter_s for r in ok])
    metrics = {
        "solve_s": _metric(median(r.solve_s for r in ok), "s"),
        "ms_per_iter": _metric(float(np.median(iter_ms)), "ms"),
        "iters": _metric(median(r.iters for r in ok), "count"),
        "rsnr_db": _metric(median(r.rsnr_db for r in ok), "dB"),
        "roundtrip_s": _metric(median(r.roundtrip_s for r in ok), "s"),
        "setup_s": _metric(import_s + build_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    tails = {
        "iter_samples": int(iter_ms.size),
        f"iter_ms_p{ITER_PERCENTILE}": float(np.percentile(iter_ms, ITER_PERCENTILE)),
        "solve_s_max": max(r.solve_s for r in ok),
        "roundtrip_s_max": max(r.roundtrip_s for r in ok),
    }
    return metrics, tails


def _per_layer(tracer, span_cost):
    """Per-operation (and per-set-up) call counts and self times per function."""
    n_ops, per_op = tracer.totals("op")
    n_setups, per_setup = tracer.totals("setup")
    absent = (0, 0.0, [], 0)
    metrics = {}
    for prefix, totals, count, labels in (("", per_op, n_ops, tracing.LAYER_FUNCTIONS),
                                          ("setup.", per_setup, n_setups, tracing.SETUP_FUNCTIONS)):
        for label in labels:
            calls, self_s, _, _ = totals.get(label, absent)
            metrics[f"{prefix}{label}.calls"] = _metric(calls / count, "count")
            metrics[f"{prefix}{label}.self_s"] = _metric(self_s / count, "s")
    for counter in sorted(set(tracing.BYTE_COUNTERS.values())):
        nbytes = sum(per_op.get(label, absent)[3]
                     for label, name in tracing.BYTE_COUNTERS.items() if name == counter)
        metrics[counter] = _metric(nbytes / n_ops, "B")

    solves = [per_op.get(label, absent) for label in tracing.SOLVER_ENTRY_POINTS]
    durations = [d for entry in solves for d in entry[2]]
    spans_per_op = sum(entry[0] for entry in per_op.values()) / n_ops
    metrics["trace.solve_s"] = _metric(statistics.median(durations) if durations else 0.0, "s")
    metrics["trace.unattributed_share"] = _metric(
        sum(entry[1] for entry in solves) / sum(durations) if durations else 0.0, "ratio")
    metrics["trace.spans"] = _metric(spans_per_op, "count")
    metrics["trace.overhead_s"] = _metric(spans_per_op * span_cost, "s")
    metrics["trace.absent_fns"] = _metric(len(tracer.absent), "count")
    return metrics


def run_workload(args):
    nproc = _pin_blas_threads(args.workload)
    _import_package()
    import workloads  # loads numpy, so only after the pinning

    seed = _default_seed() if args.seed is None else args.seed
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](workdir)
    tracer = tracing.Tracer() if args.trace else None
    phase = tracer.span if tracer is not None else (lambda label: contextlib.nullcontext())
    info = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
            "trace": args.trace, "env": _environment(nproc)}
    try:
        if tracer is not None:
            tracer.install()
        build_s = _setup(workload, instance_seed(seed, 0), phase)
        with phase("warmup"):
            workload.warm_up()
        results = _measure(workload, seed, args.seconds, phase, workloads.OpResult)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()

    failed = [r for r in results if r.failures]
    info["ops"] = len(results)
    info["failures"] = sorted({f for r in failed for f in r.failures})
    info["per_op"] = {key: [_json_safe(getattr(r, key)) for r in results]
                      for key in ("solve_s", "iters", "rsnr_db", "roundtrip_s", "trace_sha256")}
    if tracer is not None:
        info["absent"] = tracer.absent
        spans_file = RUN_DIR / f"spans-{args.workload}-seed{seed}.csv"
        tracer.write(spans_file)
        info["spans_file"] = str(spans_file.relative_to(ROOT))
        metrics = _per_layer(tracer, tracing.span_cost_s())
    else:
        metrics, info["tails"] = _end_to_end(results, _import_s(), build_s)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if metrics else 1


def run_all(args):
    """Run every workload in its own process and combine the result lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print(lines[-2] if len(lines) > 1 else "")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    args = _parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
