"""Command-line surface: simulate, fuse, blind-fuse, evaluate, check.

Exit codes: 0 success, 2 configuration or file-system error, 3 dimension
error, 4 numerical failure.
"""

import argparse
import hashlib
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .blockterm import RecoverabilityQuery, check_recoverability, random_blockterm, reconstruct
from .degradation import DegradationOps, add_noise, degrade_spatial, degrade_spectral
from .errors import ConfigError, DimensionError, NumericalError
from .fileio import (
    _json_text,
    load_config,
    parse_dims,
    read_htf,
    read_matrix_csv,
    require_input,
    write_htf,
    write_json,
    write_matrix_csv,
)
from .metrics import _db, evaluate
from .solver import fuse, fuse_blind

# Each override flag and the config key it replaces.  The flag's text goes to
# load_config with the file's text, so it is parsed and validated the same way.
# run.seed seeds simulate only, so only simulate takes --seed; fuse and
# blind-fuse record the key in report.json, but their solvers start from the
# data and draw nothing.
OVERRIDES = {
    "--seed": "run.seed",
    "--out": "run.out",
    "--snr": "noise.snr_db",
    "--ratio": "blur.ratio",
    "--rank": "model.rank",
    "--term-rank": "model.term_rank",
    "--max-iters": "solver.max_iters",
    "--no-accel": "solver.accelerate",
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DimensionError as exc:
        print(f"dimension error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        # ConfigError, the remaining validation failures (rank-deficient
        # operators, bad values) and file-system errors, which name the path
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hsrfuse",
        description="Fuse hyperspectral and multispectral images by coupled "
        "block-term tensor decomposition.",
    )
    parser.add_argument("--version", action="version", version=f"hsrfuse {__version__}")
    sub = parser.add_subparsers(required=True, metavar="command")

    sim = sub.add_parser("simulate", help="degrade a reference image into an HSI/MSI pair")
    _add_config_flags(sim, "--seed", "--out", "--snr", "--ratio", "--rank", "--term-rank")
    sim.set_defaults(func=cmd_simulate)

    for name, help_text in (
        ("fuse", "recover the SRI with known degradation operators"),
        ("blind-fuse", "recover the SRI without the spatial operators"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_config_flags(cmd, "--out", "--rank", "--max-iters", "--no-accel")
        cmd.set_defaults(func=cmd_fuse, mode=name)

    ev = sub.add_parser("evaluate", help="score an estimate against a reference")
    ev.add_argument("reference", help="reference tensor (.htf)")
    ev.add_argument("estimate", help="estimated tensor (.htf)")
    ev.add_argument("--ratio", type=int, default=4, help="spatial ratio for ERGAS")
    ev.add_argument("--per-band", action="store_true", help="include per-band curves")
    ev.add_argument("--out", default=None, help="also write metrics.json here")
    ev.set_defaults(func=cmd_evaluate)

    chk = sub.add_parser("check", help="evaluate the exact-recovery conditions")
    chk.add_argument("--msi-dims", required=True, help="MSI spatial dims, e.g. 256,256")
    chk.add_argument("--hsi-dims", required=True, help="HSI spatial dims, e.g. 64,64")
    chk.add_argument("--msi-bands", required=True, type=int)
    chk.add_argument("--rank", required=True, type=int)
    chk.add_argument("--term-rank", required=True, type=int)
    chk.add_argument("--blind", action="store_true")
    chk.set_defaults(func=cmd_check)
    return parser


def _add_config_flags(parser, *flags):
    parser.add_argument("--config", required=True, help="run configuration file")
    for flag in flags:
        key = OVERRIDES[flag]
        if flag == "--no-accel":
            parser.add_argument(flag, dest=key, action="store_const", const="false",
                                help=f"overrides {key} with false")
        else:
            parser.add_argument(flag, dest=key, help=f"overrides {key}")


def _run_config(args):
    flags = vars(args)
    cfg = load_config(args.config, {
        key: flags[key] for key in OVERRIDES.values() if flags.get(key) is not None
    })
    _check_out(cfg.out, "run.out")
    return cfg


def _check_out(path, name):
    """Refuse an output directory that is a file or passes through one, before
    any compute; the directory itself is made only when the results are
    written."""
    path = Path(path)
    for part in (path, *path.parents):
        if part.exists():
            if part.is_dir():
                return
            through = "" if part == path else f" passes through {part}, which"
            raise ConfigError(f"{name}: {path}{through} is not a directory")


def _outdir(path):
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_record(cfg):
    """The fields that open both manifest.json and report.json."""
    return {
        "tool": "hsrfuse",
        "version": __version__,
        "config_sha256": cfg.fingerprint(),
        "seed": cfg.seed,
    }


def _realized_snr(clean, noisy):
    return float(_db(np.sum(clean**2), np.sum((noisy - clean) ** 2)))


def cmd_simulate(args):
    cfg = _run_config(args)
    if cfg.bands is None:
        raise ConfigError("simulate needs spectral.bands")
    rng = np.random.default_rng(cfg.seed)
    if cfg.sri is not None:
        sri = read_htf(require_input(cfg.sri, "inputs.sri"))
    else:
        if cfg.dims is None or cfg.rank is None or cfg.term_rank is None:
            raise ConfigError(
                "simulate needs either inputs.sri or synthesis.dims plus model.rank/term_rank"
            )
        sri = reconstruct(random_blockterm(cfg.dims, cfg.rank, cfg.term_rank, seed=rng))

    ops = DegradationOps.for_sri(sri.shape, cfg.blur, cfg.bands)
    recovery = None
    if cfg.rank is not None and cfg.term_rank is not None:
        result = check_recoverability(
            RecoverabilityQuery(
                msi_rows=sri.shape[0],
                msi_cols=sri.shape[1],
                hsi_rows=ops.p1.shape[0],
                hsi_cols=ops.p2.shape[0],
                msi_bands=ops.pm.shape[0],
                n_terms=cfg.rank,
                term_rank=cfg.term_rank,
            )
        )
        recovery = {"satisfied": result.satisfied, "failed_conditions": result.failed_conditions}
        if not result.satisfied:
            print(
                "warning: recovery conditions not satisfied: "
                + "; ".join(result.failed_conditions),
                file=sys.stderr,
            )

    hsi_clean = degrade_spatial(sri, ops)
    msi_clean = degrade_spectral(sri, ops)
    hsi = add_noise(hsi_clean, cfg.snr_db, rng)
    msi = add_noise(msi_clean, cfg.snr_db, rng)

    out = _outdir(cfg.out)
    write_htf(out / "SRI.htf", sri)
    write_htf(out / "HSI.htf", hsi)
    write_htf(out / "MSI.htf", msi)
    write_matrix_csv(out / "P1.csv", ops.p1)
    write_matrix_csv(out / "P2.csv", ops.p2)
    write_matrix_csv(out / "PM.csv", ops.pm)
    write_json(
        out / "manifest.json",
        {
            **_run_record(cfg),
            "sri_dims": list(sri.shape),
            "hsi_dims": list(hsi.shape),
            "msi_dims": list(msi.shape),
            "op_dims": {
                "p1": list(ops.p1.shape),
                "p2": list(ops.p2.shape),
                "pm": list(ops.pm.shape),
            },
            "snr_db_requested": cfg.snr_db,
            "snr_db_realized": {
                "hsi": _realized_snr(hsi_clean, hsi),
                "msi": _realized_snr(msi_clean, msi),
            },
            "recoverability": recovery,
        },
    )
    for name in ("SRI.htf", "HSI.htf", "MSI.htf", "P1.csv", "P2.csv", "PM.csv", "manifest.json"):
        print(f"wrote {out / name}")
    return 0


def _write_trace(path, trace, elapsed):
    lines = ["iteration,objective,elapsed"]
    lines += [f"{i},{obj:.17g},{dt:.6f}" for i, (obj, dt) in enumerate(zip(trace, elapsed))]
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_fuse(args):
    """``fuse`` or, with ``args.mode`` "blind-fuse", ``blind-fuse``: read
    every input (a reference is shape-checked before the solve), solve, then
    write SRI.htf, trace.csv and report.json (on a numerical failure, the
    trace so far)."""
    cfg = _run_config(args)
    mode = args.mode
    if cfg.rank is None:
        raise ConfigError(f"{mode} needs model.rank (or --rank)")
    blind = mode == "blind-fuse"
    if blind and (cfg.p1 is not None or cfg.p2 is not None):
        print("warning: blind-fuse ignores the provided p1/p2 operators", file=sys.stderr)
    hsi_path = require_input(cfg.hsi, "inputs.hsi")
    hsi = read_htf(hsi_path)
    msi_path = require_input(cfg.msi, "inputs.msi")
    msi = read_htf(msi_path)
    # a noise-level study changes these files and not the config, so the
    # report names the images it scored by their hashes
    inputs_sha256 = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                     for name, path in (("hsi", hsi_path), ("msi", msi_path))}
    reference = None
    if cfg.reference is not None:
        reference = read_htf(require_input(cfg.reference, "inputs.reference"))
        expected = (*msi.shape[:2], hsi.shape[2])
        if reference.shape != expected:
            raise DimensionError(
                f"inputs.reference: shape {reference.shape}, expected {expected} "
                "(MSI rows, MSI cols, HSI bands)"
            )
    if blind:
        solve, ops = fuse_blind, read_matrix_csv(require_input(cfg.pm, "inputs.pm"))
    else:
        solve, ops = fuse, DegradationOps(
            p1=read_matrix_csv(require_input(cfg.p1, "inputs.p1")),
            p2=read_matrix_csv(require_input(cfg.p2, "inputs.p2")),
            pm=read_matrix_csv(require_input(cfg.pm, "inputs.pm")),
        )
    try:
        report = solve(hsi, msi, ops, cfg.rank, cfg.solver)
    except NumericalError as exc:
        if exc.trace is not None:
            _write_trace(_outdir(cfg.out) / "trace.csv", exc.trace, exc.elapsed)
        raise
    metrics = None if reference is None else evaluate(reference, report.sri, ratio=cfg.blur.ratio)
    out = _outdir(cfg.out)
    write_htf(out / "SRI.htf", report.sri)
    _write_trace(out / "trace.csv", report.objective_trace, report.elapsed)
    write_json(
        out / "report.json",
        {
            **_run_record(cfg),
            "mode": mode,
            "inputs_sha256": inputs_sha256,
            "n_terms": cfg.rank,
            "iterations": report.iterations,
            "converged": report.converged,
            "stop_reason": report.stop_reason,
            "noise_energy": None if report.noise_energy is None else dict(
                zip(("hsi", "msi"), report.noise_energy)),
            "data_scale": report.data_scale,
            "final_objective": float(report.objective_trace[-1]),
            "weights": {
                "ridge": cfg.solver.ridge_weight,
                "tv": cfg.solver.tv_weight,
                "lowrank": cfg.solver.lowrank_weight,
            },
            "metrics": metrics.to_dict() if metrics is not None else None,
            "timing": {"total_seconds": float(report.elapsed[-1])},
        },
    )
    for name in ("SRI.htf", "trace.csv", "report.json"):
        print(f"wrote {out / name}")
    return 0


def cmd_evaluate(args):
    if args.out is not None:
        _check_out(args.out, "--out")
    reference = read_htf(require_input(args.reference, "reference"))
    estimate = read_htf(require_input(args.estimate, "estimate"))
    report = evaluate(reference, estimate, ratio=args.ratio, per_band=args.per_band)
    payload = report.to_dict()
    print(_json_text(payload))
    if args.out is not None:
        write_json(_outdir(args.out) / "metrics.json", payload)
    return 0


def cmd_check(args):
    dims = []
    for flag, text in (("--msi-dims", args.msi_dims), ("--hsi-dims", args.hsi_dims)):
        try:
            dims += parse_dims(text, 2)
        except ConfigError as exc:
            raise ConfigError(f"{flag}: {exc}") from exc
    msi_rows, msi_cols, hsi_rows, hsi_cols = dims
    result = check_recoverability(
        RecoverabilityQuery(
            msi_rows=msi_rows,
            msi_cols=msi_cols,
            hsi_rows=hsi_rows,
            hsi_cols=hsi_cols,
            msi_bands=args.msi_bands,
            n_terms=args.rank,
            term_rank=args.term_rank,
            blind=args.blind,
        )
    )
    print(_json_text(asdict(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
