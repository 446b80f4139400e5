#!/usr/bin/env python3
"""Record and compare solver objective traces, SRIs and metrics across two source trees.

A change that should leave the iteration or the metrics alone (or move them
only by rounding) is checked by running this once per tree and comparing the
two files:

    python scripts/trace_compare.py --src OLD/src --out old.npz
    python scripts/trace_compare.py --src src --out new.npz
    python scripts/trace_compare.py --compare old.npz new.npz

``--out`` runs ``fuse`` and ``fuse_blind``, accelerated and plain, without
regularizers and with TV+Schatten (``tv_weight=3e-3, lowrank_weight=3e-2``),
60 iterations each on three seeded noisy 16x16x12 instances, and both solvers
for 2000 iterations on the noiseless 24x24x16 instance of acceptance
criterion 1.  It scores every SRI against its truth with
``evaluate(truth, sri, per_band=True)``.  It also scores one 96x96x48 pair:
the first instance of the benchmark's ``cli-roundtrip-96`` workload at seed 1,
built by ``perfbench/workloads.py``, and the ``fuse`` solution that
``hsrfuse fuse`` returns for it; the pair itself is saved too.
``--compare`` prints, per trace or SRI, the largest elementwise relative
difference and whether the arrays are ``np.array_equal`` (for a trace also
how many iterations raised the objective in A and in B), then per metric the
largest relative difference over all scored pairs.  It ends with summary
lines, the largest relative difference in each group: the noisy traces and
the noisy SRIs of each solver, each split into accelerated or plain runs
without or with the regularizers (``noisy fuse accel/none traces``, ...,
``noisy fuse_blind plain/reg SRIs``), the criterion-1 traces and SRIs of each
solver (``criterion1 fuse_blind traces``, ``criterion1 fuse SRIs``, ...) and
the ``cli96`` estimate; and, per group of traces, the objective rises summed
over its traces in A and in B.
With ``--max-rel-diff TOL`` it then names each summary group, and each
metric (``metric ssim``, ``metric per_band/uiqi``, ...), whose difference
exceeds TOL, and each array present in one file only or at two shapes (a
trace one sweep longer, say), and exits 1 if there is one.  A change meant
to move only one kind of run (say, accelerated regularized runs, or only
``fuse``) is gated on the others this way, and the moved groups are
reported on their own lines:

    python scripts/trace_compare.py --compare old.npz new.npz --max-rel-diff 1e-12
"""

import argparse
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REG = dict(tv_weight=3e-3, lowrank_weight=3e-2)
# cli-roundtrip-96 at seed 1: instance seed 1000 * seed + operation index
CLI_INSTANCE_SEED = 1000


def _instances(hsr):
    """(name, hsi, msi, ops, n_terms, base config, runs) per instance."""
    blur = hsr.BlurSpec(kernel_width=5, sigma=1.0, ratio=2)
    bands = [(3 * m, 3 * m + 2) for m in range(4)]
    for seed in range(3):
        factors = hsr.random_blockterm((16, 16, 12), 3, 2, seed=100 + seed)
        sri = hsr.reconstruct(factors)
        ops = hsr.DegradationOps.for_sri(sri.shape, blur, bands)
        rng = np.random.default_rng(200 + seed)
        hsi = hsr.add_noise(hsr.degrade_spatial(sri, ops), 30.0, rng)
        msi = hsr.add_noise(hsr.degrade_spectral(sri, ops), 30.0, rng)
        base = dict(ridge_weight=1e-4, max_iters=60, rel_tol=0.0, seed=seed)
        runs = [(accel, reg) for accel in (True, False) for reg in (False, True)]
        yield f"noisy{seed}", sri, hsi, msi, ops, 3, base, runs

    # acceptance criterion 1: noiseless, nonnegative, 4 bands of 4
    factors = hsr.random_blockterm((24, 24, 16), 3, 2, seed=42, nonneg=True)
    sri = hsr.reconstruct(factors)
    ops = hsr.DegradationOps.for_sri(sri.shape, blur, [(0, 3), (4, 7), (8, 11), (12, 15)])
    base = dict(ridge_weight=1e-6, max_iters=2000, rel_tol=0.0, seed=7)
    hsi, msi = hsr.degrade_spatial(sri, ops), hsr.degrade_spectral(sri, ops)
    yield "criterion1", sri, hsi, msi, ops, 3, base, [(True, False)]


def _load_workloads():
    """The benchmark's instance builder, imported from its file as it is."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _store_metrics(arrays, prefix, report):
    payload = report.to_dict()
    for key, values in payload.pop("per_band").items():
        arrays[f"{prefix}/metrics/per_band/{key}"] = np.asarray(values)
    for key, value in payload.items():
        arrays[f"{prefix}/metrics/{key}"] = np.asarray(value)


def record(src, out):
    sys.path.insert(0, str(Path(src).resolve()))
    import hsrfuse as hsr

    arrays = {}
    for name, truth, hsi, msi, ops, n_terms, base, runs in _instances(hsr):
        for accel, reg in runs:
            cfg = hsr.SolverConfig(accelerate=accel, **base, **(REG if reg else {}))
            tag = f"{'accel' if accel else 'plain'}/{'reg' if reg else 'none'}"
            for solver, report in (
                ("fuse", hsr.fuse(hsi, msi, ops, n_terms, cfg)),
                ("fuse_blind", hsr.fuse_blind(hsi, msi, ops.pm, n_terms, cfg)),
            ):
                arrays[f"{name}/{solver}/{tag}/trace"] = report.objective_trace
                arrays[f"{name}/{solver}/{tag}/sri"] = report.sri
                _store_metrics(arrays, f"{name}/{solver}/{tag}",
                               hsr.evaluate(truth, report.sri, ratio=2, per_band=True))

    wl = _load_workloads()
    inst = wl.build_instance(96, 48, CLI_INSTANCE_SEED, blind=False)
    cfg = hsr.SolverConfig(ridge_weight=wl.RIDGE, seed=wl.SOLVER_SEED)
    estimate = hsr.fuse(inst.hsi, inst.msi, inst.ops, wl.N_TERMS, cfg).sri
    arrays["cli96/reference"] = inst.sri
    arrays["cli96/estimate"] = estimate
    _store_metrics(arrays, "cli96",
                   hsr.evaluate(inst.sri, estimate, ratio=wl.BLUR["ratio"], per_band=True))
    np.savez(out, **arrays)
    print(f"wrote {len(arrays)} arrays from {hsr.__file__} to {out}")


def _max_rel_diff(a, b):
    a, b = a.astype(float), b.astype(float)
    scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore"):  # equal infinities count as no difference
        diff = np.where(a == b, 0.0, np.abs(a - b))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return float(rel.max(initial=0.0))


def _rises(trace):
    """Iterations that raised the objective."""
    return int(np.count_nonzero(np.diff(trace) > 0))


# The trace and SRI keys each summary line covers: the runs by solver and the
# noisy ones also by extrapolation and regularization, as ``record`` tags them.
SOLVERS = ("fuse", "fuse_blind")
RUN_TAGS = [f"{accel}/{reg}" for accel in ("accel", "plain") for reg in ("none", "reg")]
SUMMARY_GROUPS = {
    **{f"noisy {solver} {tag} {label}": (lambda key, suffix=f"/{solver}/{tag}/{kind}":
                                         key.startswith("noisy") and key.endswith(suffix))
       for kind, label in (("trace", "traces"), ("sri", "SRIs"))
       for solver in SOLVERS for tag in RUN_TAGS},
    **{f"criterion1 {solver} {label}": (lambda key, prefix=f"criterion1/{solver}/",
                                        suffix=f"/{kind}":
                                        key.startswith(prefix) and key.endswith(suffix))
       for kind, label in (("trace", "traces"), ("sri", "SRIs")) for solver in SOLVERS},
    "cli96 estimate": lambda key: key == "cli96/estimate",
}


def compare(path_a, path_b):
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a, b = dict(fa), dict(fb)
    equal = 0
    worst = {}  # metric name -> (largest relative difference, key)
    groups = {}  # summary group -> (largest relative difference, key)
    rises = {}  # summary group of traces -> (rises in A, rises in B)
    unmatched = {}  # key -> why it has no counterpart to compare with
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            unmatched[key] = f"only in {path_a if key in a else path_b}"
        elif a[key].shape != b[key].shape:
            unmatched[key] = f"shapes differ: {a[key].shape} vs {b[key].shape}"
        if key in unmatched:
            print(f"{key:40s} {unmatched[key]}")
            continue
        same = np.array_equal(a[key], b[key])
        equal += same
        rel = _max_rel_diff(a[key], b[key])
        if "/metrics/" in key:
            metric = key.split("/metrics/")[1]
            if metric not in worst or rel > worst[metric][0]:
                worst[metric] = (rel, key)
        else:
            counts = (_rises(a[key]), _rises(b[key])) if key.endswith("/trace") else None
            print(f"{key:40s} max_rel_diff {rel:.3e}  array_equal {same}"
                  + (f"  rises {counts[0]} -> {counts[1]}" if counts else ""))
            for group, covers in SUMMARY_GROUPS.items():
                if not covers(key):
                    continue
                if group not in groups or rel > groups[group][0]:
                    groups[group] = (rel, key)
                if counts:
                    total = rises.get(group, (0, 0))
                    rises[group] = (total[0] + counts[0], total[1] + counts[1])
    for metric, (rel, key) in sorted(worst.items()):
        print(f"metric {metric:20s} max_rel_diff {rel:.3e}" + (f"  at {key}" if rel > 0 else ""))
    print(f"{equal} of {len(a.keys() | b.keys())} arrays np.array_equal")
    for group in SUMMARY_GROUPS:
        if group in groups:
            rel, key = groups[group]
            print(f"summary {group:34s} max_rel_diff {rel:.3e}" + (f"  at {key}" if rel > 0 else ""))
    for group, (in_a, in_b) in rises.items():
        print(f"rises {group:36s} {in_a} -> {in_b}")
    return {**{group: rel for group, (rel, _) in groups.items()},
            **{f"metric {metric}": rel for metric, (rel, _) in worst.items()},
            **{f"array {key} ({why})": math.inf for key, why in unmatched.items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="record traces, SRIs and metrics to this .npz")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="source tree holding the hsrfuse package (default: this repo's src)")
    ap.add_argument("--max-rel-diff", type=float, metavar="TOL",
                    help="with --compare: exit 1 if a summary group or a metric differs "
                         "by more than TOL, or an array is unmatched")
    args = ap.parse_args()
    if args.out:
        if args.max_rel_diff is not None:
            ap.error("--max-rel-diff needs --compare")
        record(args.src, args.out)
        return 0
    groups = compare(*args.compare)
    if args.max_rel_diff is None:
        return 0
    over = [group for group, rel in groups.items() if rel > args.max_rel_diff]
    for group in over:
        print(f"FAIL {group}: max_rel_diff {groups[group]:.3e} > {args.max_rel_diff:.3e}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
