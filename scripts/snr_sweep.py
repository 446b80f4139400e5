#!/usr/bin/env python3
"""Recovery quality vs noise level on synthetic data.

Generates a nonnegative block-term ground truth, degrades it through the
default protocol at several SNR levels, runs both solvers, and prints the
seven quality metrics per level.  Deterministic for a fixed seed.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hsrfuse import (
    BlurSpec,
    DegradationOps,
    SolverConfig,
    add_noise,
    degrade_spatial,
    degrade_spectral,
    evaluate,
    fuse,
    fuse_blind,
    random_blockterm,
    reconstruct,
)

METRIC_FIELDS = ("rsnr_db", "ssim", "cc", "uiqi", "rmse", "ergas", "sam_rad")


def run_level(sri, ops, snr_db, args, rng):
    hsi = add_noise(degrade_spatial(sri, ops), snr_db, rng)
    msi = add_noise(degrade_spectral(sri, ops), snr_db, rng)
    cfg = SolverConfig(
        ridge_weight=args.ridge, tv_weight=args.tv, lowrank_weight=args.lowrank,
        max_iters=args.iters, rel_tol=1e-6,
    )
    rows = []
    report = fuse(hsi, msi, ops, args.rank, cfg)
    rows.append(("known", evaluate(sri, report.sri, ratio=args.ratio)))
    if not args.skip_blind:
        report = fuse_blind(hsi, msi, ops.pm, args.rank, cfg)
        rows.append(("blind", evaluate(sri, report.sri, ratio=args.ratio)))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", type=int, nargs=3, default=(24, 24, 16))
    ap.add_argument("--rank", type=int, default=3)
    ap.add_argument("--term-rank", type=int, default=2)
    ap.add_argument("--ratio", type=int, default=2)
    ap.add_argument("--snr", type=float, nargs="+", default=[20, 30, 40, 50])
    ap.add_argument("--iters", type=int, default=2000)
    ap.add_argument("--ridge", type=float, default=1e-6)
    ap.add_argument("--tv", type=float, default=0.0)
    ap.add_argument("--lowrank", type=float, default=0.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--skip-blind", action="store_true")
    ap.add_argument("--csv", type=Path, default=None, help="also write the table here")
    args = ap.parse_args()

    factors = random_blockterm(tuple(args.dims), args.rank, args.term_rank, seed=args.seed)
    sri = reconstruct(factors)
    k = args.dims[2]
    bands = [(m * (k // 4), (m + 1) * (k // 4) - 1) for m in range(4)]
    blur = BlurSpec(kernel_width=5, sigma=1.0, ratio=args.ratio)
    ops = DegradationOps.for_sri(sri.shape, blur, bands)

    header = ["snr_db", "solver", *METRIC_FIELDS]
    table = []
    rng = np.random.default_rng(args.seed + 1)
    for snr_db in args.snr:
        for solver_name, metrics in run_level(sri, ops, snr_db, args, rng):
            table.append([snr_db, solver_name] + [getattr(metrics, f) for f in METRIC_FIELDS])

    widths = [8, 7] + [9] * len(METRIC_FIELDS)
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in table:
        cells = [f"{row[0]:<8g}", row[1].ljust(7)]
        cells += [f"{v:<9.4g}" for v in row[2:]]
        print("  ".join(cells))

    if args.csv is not None:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(table)
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
