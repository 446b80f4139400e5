#!/usr/bin/env python3
"""Record and compare solver objective traces and SRIs across two source trees.

A change that should leave the iteration alone (or move it only by rounding)
is checked by running this once per tree and comparing the two files:

    python scripts/trace_compare.py --src OLD/src --out old.npz
    python scripts/trace_compare.py --src src --out new.npz
    python scripts/trace_compare.py --compare old.npz new.npz

``--out`` runs ``fuse`` and ``fuse_blind``, accelerated and plain, without
regularizers and with TV+Schatten (``tv_weight=3e-3, lowrank_weight=3e-2``),
60 iterations each on three seeded noisy 16x16x12 instances, and both solvers
for 2000 iterations on the noiseless 24x24x16 instance of acceptance
criterion 1.  ``--compare`` prints, per array, the largest elementwise
relative difference and whether the arrays are ``np.array_equal``.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

REG = dict(tv_weight=3e-3, lowrank_weight=3e-2)


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
        yield f"noisy{seed}", hsi, msi, ops, 3, base, runs

    # acceptance criterion 1: noiseless, nonnegative, 4 bands of 4
    factors = hsr.random_blockterm((24, 24, 16), 3, 2, seed=42, nonneg=True)
    sri = hsr.reconstruct(factors)
    ops = hsr.DegradationOps.for_sri(sri.shape, blur, [(0, 3), (4, 7), (8, 11), (12, 15)])
    base = dict(ridge_weight=1e-6, max_iters=2000, rel_tol=0.0, seed=7)
    hsi, msi = hsr.degrade_spatial(sri, ops), hsr.degrade_spectral(sri, ops)
    yield "criterion1", hsi, msi, ops, 3, base, [(True, False)]


def record(src, out):
    sys.path.insert(0, str(Path(src).resolve()))
    import hsrfuse as hsr

    arrays = {}
    for name, hsi, msi, ops, n_terms, base, runs in _instances(hsr):
        for accel, reg in runs:
            cfg = hsr.SolverConfig(accelerate=accel, **base, **(REG if reg else {}))
            tag = f"{'accel' if accel else 'plain'}/{'reg' if reg else 'none'}"
            for solver, report in (
                ("fuse", hsr.fuse(hsi, msi, ops, n_terms, cfg)),
                ("fuse_blind", hsr.fuse_blind(hsi, msi, ops.pm, n_terms, cfg)),
            ):
                arrays[f"{name}/{solver}/{tag}/trace"] = report.objective_trace
                arrays[f"{name}/{solver}/{tag}/sri"] = report.sri
    np.savez(out, **arrays)
    print(f"wrote {len(arrays)} arrays from {hsr.__file__} to {out}")


def _max_rel_diff(a, b):
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return float(rel.max(initial=0.0))


def compare(path_a, path_b):
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a, b = dict(fa), dict(fb)
    equal = 0
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            print(f"{key:40s} only in {path_a if key in a else path_b}")
            continue
        if a[key].shape != b[key].shape:
            print(f"{key:40s} shapes differ: {a[key].shape} vs {b[key].shape}")
            continue
        same = np.array_equal(a[key], b[key])
        equal += same
        print(f"{key:40s} max_rel_diff {_max_rel_diff(a[key], b[key]):.3e}  array_equal {same}")
    print(f"{equal} of {len(a.keys() | b.keys())} arrays np.array_equal")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="record traces and SRIs to this .npz")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                    help="source tree holding the hsrfuse package (default: this repo's src)")
    args = ap.parse_args()
    if args.out:
        record(args.src, args.out)
    else:
        compare(*args.compare)


if __name__ == "__main__":
    main()
