"""Acceptance suite: quantitative end-to-end checks with pinned thresholds.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  The thresholds are fixed here; loosening them is not a fix.
"""

import json
import time

import numpy as np

from hsrfuse.blockterm import RecoverabilityQuery, check_recoverability, random_blockterm, reconstruct
from hsrfuse.cli import main as cli_main
from hsrfuse.degradation import BlurSpec, DegradationOps, add_noise, degrade_spatial, degrade_spectral
from hsrfuse.fileio import read_matrix_csv, write_matrix_csv
from hsrfuse.metrics import evaluate
from hsrfuse.regularizers import SchattenConfig, TvConfig, schatten_majorizer, tv_majorizer
from hsrfuse.solver import (
    FusionData,
    SolverConfig,
    _apply_ph,
    coarse_step_blind,
    fuse,
    fuse_blind,
    maps_step,
    objective,
    spectra_step,
)

from _oracles import (
    central_gradient,
    dense_curvatures_blind,
    dense_curvatures_known,
    rel_error,
    schatten_majorizer_value,
    schatten_weight,
    tv_majorizer_value,
)


def _verdict(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _theorem1_instance(seed_model=42, snr_db=None, noise_seed=123):
    """24x24x16 nonnegative block-term SRI, ratio-2 width-5 blur, 4 bands."""
    factors = random_blockterm((24, 24, 16), 3, 2, seed=seed_model, nonneg=True)
    sri = reconstruct(factors)
    blur = BlurSpec(kernel_width=5, sigma=1.0, ratio=2)
    ops = DegradationOps.for_sri(sri.shape, blur, [(0, 3), (4, 7), (8, 11), (12, 15)])
    hsi = degrade_spatial(sri, ops)
    msi = degrade_spectral(sri, ops)
    if snr_db is not None:
        rng = np.random.default_rng(noise_seed)
        hsi = add_noise(hsi, snr_db, rng)
        msi = add_noise(msi, snr_db, rng)
    return sri, ops, hsi, msi


def test_criterion_1_exact_recovery_known_operators():
    sri, ops, hsi, msi = _theorem1_instance()
    cfg = SolverConfig(ridge_weight=1e-6, max_iters=2000, rel_tol=0.0, seed=7)
    start = time.perf_counter()
    report = fuse(hsi, msi, ops, 3, cfg)
    seconds = time.perf_counter() - start
    rsnr = evaluate(sri, report.sri, ratio=2).rsnr_db
    _verdict(
        1, "noiseless recovery, known operators",
        rsnr >= 40.0 and seconds <= 60.0,
        f"R-SNR {rsnr:.1f} dB (>= 40 dB), {seconds:.1f} s (<= 60 s)",
    )


def test_criterion_2_exact_recovery_blind():
    sri, ops, hsi, msi = _theorem1_instance()
    query = RecoverabilityQuery(
        msi_rows=24, msi_cols=24, hsi_rows=12, hsi_cols=12,
        msi_bands=4, n_terms=3, term_rank=2, blind=True,
    )
    assert check_recoverability(query).satisfied
    cfg = SolverConfig(ridge_weight=1e-6, max_iters=4000, rel_tol=0.0, seed=7)
    start = time.perf_counter()
    report = fuse_blind(hsi, msi, ops.pm, 3, cfg)
    seconds = time.perf_counter() - start
    rsnr = evaluate(sri, report.sri, ratio=2).rsnr_db
    _verdict(
        2, "noiseless recovery, blind spatial operators",
        rsnr >= 30.0 and seconds <= 120.0,
        f"R-SNR {rsnr:.1f} dB (>= 30 dB), {seconds:.1f} s (<= 120 s)",
    )


def test_criterion_3_gradients_match_finite_differences():
    cfg = SolverConfig(
        ridge_weight=0.3, tv_weight=0.2, lowrank_weight=0.15,
        schatten=SchattenConfig(p=0.5, tau=1.0), tv=TvConfig(q=0.5, epsilon=1e-3),
    )
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        ops = DegradationOps(
            p1=rng.normal(size=(3, 6)),
            p2=rng.normal(size=(3, 5)),
            pm=rng.normal(size=(2, 4)),
        )
        hsi = rng.normal(size=(3, 3, 4))
        msi = rng.normal(size=(6, 5, 2))
        data = FusionData.from_tensors(hsi, msi, ops)
        blind = FusionData.from_tensors_blind(hsi, msi, ops.pm)
        maps = rng.uniform(0.1, 1.0, size=(30, 3))
        spectra = rng.uniform(0.1, 1.0, size=(4, 3))
        coarse = rng.normal(size=(9, 3))
        # the known problem's T is (P2 kron P1) S; the spectra steps read the
        # fit Grams the objective returns
        tied = _apply_ph(maps, ops.p1, ops.p2)
        pairs = [
            (spectra_step(spectra, objective(maps, spectra, data, cfg, tied)[1], data, cfg)[0],
             central_gradient(lambda c: objective(maps, c, data, cfg, tied)[0], spectra)),
            (maps_step(maps, spectra, data, objective(maps, spectra, data, cfg, tied)[2][0],
                       tied)[0],
             central_gradient(
                 lambda s: objective(s, spectra, data, cfg, _apply_ph(s, ops.p1, ops.p2))[0],
                 maps)),
            (spectra_step(spectra, objective(maps, spectra, blind, cfg, coarse)[1], blind, cfg)[0],
             central_gradient(lambda c: objective(maps, c, blind, cfg, coarse)[0], spectra)),
            (maps_step(maps, spectra, blind, objective(maps, spectra, blind, cfg, coarse)[2][0])[0],
             central_gradient(lambda s: objective(s, spectra, blind, cfg, coarse)[0], maps)),
            (coarse_step_blind(coarse, spectra, blind,
                               objective(maps, spectra, blind, cfg, coarse)[2][1])[0],
             central_gradient(lambda t: objective(maps, spectra, blind, cfg, t)[0], coarse)),
        ]
        worst = max(worst, max(rel_error(g, fd) for g, fd in pairs))
    _verdict(
        3, "five block gradients vs central differences",
        worst <= 1e-5,
        f"max relative error {worst:.2e} over 20 instances (<= 1e-5)",
    )


def test_criterion_4_majorizers_tight_and_dominating():
    sch = SchattenConfig(p=0.5, tau=1.0)
    tv = TvConfig(q=0.5, epsilon=1e-3)
    rng = np.random.default_rng(4)
    worst_anchor = 0.0
    worst_gap = np.inf
    for _ in range(10):
        anchor = rng.normal(size=(5, 7)) * rng.uniform(0.2, 3)
        w = schatten_weight(anchor, sch)
        val = schatten_majorizer(anchor, sch)[0]
        worst_anchor = max(worst_anchor, abs(schatten_majorizer_value(anchor, w, sch) - val) / val)
        tv_val = tv_majorizer(anchor, tv)[0]
        worst_anchor = max(
            worst_anchor, abs(tv_majorizer_value(anchor, anchor, tv) - tv_val) / tv_val
        )
        for _ in range(100):
            x = rng.normal(size=(5, 7)) * rng.uniform(0.05, 5)
            worst_gap = min(worst_gap,
                            schatten_majorizer_value(x, w, sch) - schatten_majorizer(x, sch)[0])
            worst_gap = min(worst_gap, tv_majorizer_value(x, anchor, tv) - tv_majorizer(x, tv)[0])
    _verdict(
        4, "Schatten and TV majorizers",
        worst_anchor <= 1e-9 and worst_gap >= -1e-10,
        f"anchor gap {worst_anchor:.2e} (<= 1e-9), min domination gap {worst_gap:.2e} (>= 0)",
    )


def test_criterion_5_descent_without_extrapolation():
    worst = -np.inf
    for seed in range(10):
        factors = random_blockterm((8, 8, 8), 2, 2, seed=seed)
        sri = reconstruct(factors)
        blur = BlurSpec(kernel_width=3, sigma=1.0, ratio=2)
        ops = DegradationOps.for_sri(sri.shape, blur, [(0, 1), (2, 3), (4, 5), (6, 7)])
        rng = np.random.default_rng(5000 + seed)
        hsi = add_noise(degrade_spatial(sri, ops), 25.0, rng)
        msi = add_noise(degrade_spectral(sri, ops), 25.0, rng)
        cfg = SolverConfig(
            ridge_weight=0.05, tv_weight=0.02, lowrank_weight=0.02,
            max_iters=500, rel_tol=0.0, accelerate=False, seed=seed,
        )
        for solve in (
            lambda: fuse(hsi, msi, ops, 2, cfg),
            lambda: fuse_blind(hsi, msi, ops.pm, 2, cfg),
        ):
            trace = solve().objective_trace
            rises = np.diff(trace) / np.abs(trace[:-1])
            worst = max(worst, float(np.max(rises)))
    _verdict(
        5, "monotone descent at 1/L steps (both solvers, 10 noisy instances)",
        worst <= 1e-12,
        f"largest relative objective rise {worst:.2e} (<= 1e-12)",
    )


def test_criterion_6_lipschitz_bounds_dominate():
    cfg = SolverConfig(
        ridge_weight=0.3, tv_weight=0.2, lowrank_weight=0.15,
        schatten=SchattenConfig(p=0.5, tau=1.0), tv=TvConfig(q=0.5, epsilon=1e-3),
    )
    no_tv = SolverConfig(lowrank_weight=cfg.lowrank_weight, schatten=cfg.schatten)
    worst_margin = np.inf
    for seed in range(50):
        rng = np.random.default_rng(6000 + seed)
        ops = DegradationOps(
            p1=rng.normal(size=(3, 6)),
            p2=rng.normal(size=(3, 5)),
            pm=rng.normal(size=(2, 4)),
        )
        hsi = rng.normal(size=(3, 3, 4))
        msi = rng.normal(size=(6, 5, 2))
        data = FusionData.from_tensors(hsi, msi, ops)
        blind = FusionData.from_tensors_blind(hsi, msi, ops.pm)
        maps = rng.uniform(0.1, 1.0, size=(30, 3))
        spectra = rng.uniform(0.1, 1.0, size=(4, 3))
        coarse = rng.normal(size=(9, 3))
        tied = _apply_ph(maps, ops.p1, ops.p2)
        l_c = spectra_step(spectra, objective(maps, spectra, data, cfg, tied)[1], data, cfg)[1]
        l_s = maps_step(maps, spectra, data, objective(maps, spectra, data, cfg, tied)[2][0],
                        tied)[1]
        d_c, d_s = dense_curvatures_known(maps, spectra, data, cfg)
        b_c = spectra_step(spectra, objective(maps, spectra, blind, cfg, coarse)[1], blind, cfg)[1]
        b_s = maps_step(maps, spectra, blind, objective(maps, spectra, blind, cfg, coarse)[2][0])[1]
        b_t = coarse_step_blind(coarse, spectra, blind,
                                objective(maps, spectra, blind, cfg, coarse)[2][1])[1]
        e_c, e_s, e_t = dense_curvatures_blind(maps, coarse, spectra, blind, cfg, no_tv)
        for bound, exact in ((l_c, d_c), (l_s, d_s), (b_c, e_c), (b_s, e_s), (b_t, e_t)):
            worst_margin = min(worst_margin, (bound - exact) / max(1.0, exact))
    _verdict(
        6, "step-size bounds dominate dense curvatures (50 instances)",
        worst_margin >= -1e-12,
        f"smallest relative margin {worst_margin:.2e} (>= 0 up to rounding)",
    )


def test_criterion_7_acceleration_reaches_plain_level_sooner():
    sri, ops, hsi, msi = _theorem1_instance(snr_db=30.0)
    base = dict(ridge_weight=1e-6, max_iters=200, rel_tol=0.0, seed=7)
    plain = fuse(hsi, msi, ops, 3, SolverConfig(accelerate=False, **base))
    accel = fuse(hsi, msi, ops, 3, SolverConfig(accelerate=True, **base))
    target = plain.objective_trace[200]
    reached = np.nonzero(accel.objective_trace <= target)[0]
    first = int(reached[0]) if reached.size else 10**9
    _verdict(
        7, "extrapolation reaches the plain iteration-200 objective sooner",
        first < 200,
        f"accelerated run matched it at iteration {first} (< 200)",
    )


def _conditions_by_hand(msi_rows, msi_cols, hsi_rows, hsi_cols, msi_bands, r, l, blind):
    """Independent arithmetic re-statement of the recovery conditions."""
    import math

    def block_sum(rows, cols):
        total = min(math.floor(rows / l), r) + min(math.floor(cols / l), r)
        return total + min(msi_bands, r)

    if blind:
        checks = [
            hsi_rows * hsi_cols >= l * l * r,
            block_sum(hsi_rows, hsi_cols) >= 2 * r + 2,
            msi_bands >= 2,
        ]
    else:
        checks = [
            msi_rows * msi_cols >= l * l * r,
            hsi_rows * hsi_cols >= l * r,
            block_sum(msi_rows, msi_cols) >= 2 * r + 2,
        ]
    return all(checks), sum(not c for c in checks)


def test_criterion_8_recoverability_checker_against_arithmetic():
    pavia = check_recoverability(
        RecoverabilityQuery(
            msi_rows=256, msi_cols=256, hsi_rows=64, hsi_cols=64,
            msi_bands=4, n_terms=4, term_rank=32,
        )
    )
    agree = pavia.satisfied is True
    rng = np.random.default_rng(8)
    for _ in range(20):
        msi_rows, msi_cols = int(rng.integers(1, 300)), int(rng.integers(1, 300))
        dims = {
            "msi_rows": msi_rows,
            "msi_cols": msi_cols,
            # no instance has an HSI larger than its MSI, and no query may
            "hsi_rows": int(rng.integers(1, min(80, msi_rows + 1))),
            "hsi_cols": int(rng.integers(1, min(80, msi_cols + 1))),
            "msi_bands": int(rng.integers(1, 12)),
        }
        r = int(rng.integers(1, 9))
        l = int(rng.integers(1, 9))
        blind = bool(rng.integers(0, 2))
        result = check_recoverability(
            RecoverabilityQuery(n_terms=r, term_rank=l, blind=blind, **dims)
        )
        expected_ok, expected_failures = _conditions_by_hand(
            r=r, l=l, blind=blind, **dims
        )
        agree &= result.satisfied == expected_ok
        agree &= len(result.failed_conditions) == expected_failures
    _verdict(
        8, "recovery checker matches independent arithmetic",
        agree,
        "Pavia configuration plus 20 randomized cases agree",
    )


def test_criterion_9_metric_calibration():
    rng = np.random.default_rng(9)
    ref = rng.uniform(0.2, 1.0, size=(14, 13, 6))
    noisy = add_noise(ref, 20.0, seed=77)
    noisy_report = evaluate(ref, noisy, ratio=4)
    ident = evaluate(ref, ref.copy(), ratio=4)
    ok = (
        abs(noisy_report.rsnr_db - 20.0) <= 1e-9
        and ident.rmse == 0.0
        and ident.sam_rad == 0.0
        and ident.ergas == 0.0
        and ident.ssim == 1.0
        and ident.uiqi == 1.0
        and abs(ident.cc - 1.0) <= 1e-13
    )
    _verdict(
        9, "metric calibration",
        ok,
        f"R-SNR {noisy_report.rsnr_db:.12f} dB at injected 20 dB; "
        f"identical pair -> rmse/sam/ergas 0, ssim/uiqi/cc 1",
    )


SIM_CFG = """
[synthesis]
dims = 16,16,8

[model]
rank = 2
term_rank = 2

[blur]
kernel_width = 5
sigma = 1.0
ratio = 2

[spectral]
bands = 0-1,2-3,4-5,6-7

[noise]
snr_db = 30

[run]
seed = 21
out = {out}
"""

FUSE_CFG = """
[inputs]
hsi = {d}/HSI.htf
msi = {d}/MSI.htf
p1 = {d}/P1.csv
p2 = {d}/P2.csv
pm = {d}/PM.csv
reference = {d}/SRI.htf

[model]
rank = 2

[blur]
kernel_width = 5
sigma = 1.0
ratio = 2

[solver]
ridge_weight = 1e-6
max_iters = 80
rel_tol = 0

[run]
seed = 5
out = {out}
"""

ARTIFACTS = ("SRI.htf", "HSI.htf", "MSI.htf", "P1.csv", "P2.csv", "PM.csv", "manifest.json")


def test_criterion_10_io_roundtrips_and_determinism(tmp_path):
    # matrix CSV round trip is bit-exact (HTF exactness is implied below by
    # byte-identical tensor artifacts across runs)
    rng = np.random.default_rng(10)
    mat = rng.normal(size=(5, 7)) * np.pi
    write_matrix_csv(tmp_path / "m.csv", mat)
    csv_ok = np.array_equal(read_matrix_csv(tmp_path / "m.csv"), mat)

    for run in ("a", "b"):
        cfg = tmp_path / f"sim_{run}.cfg"
        cfg.write_text(SIM_CFG.format(out=tmp_path / f"sim_{run}"))
        assert cli_main(["simulate", "--config", str(cfg)]) == 0
    sim_ok = all(
        (tmp_path / "sim_a" / name).read_bytes() == (tmp_path / "sim_b" / name).read_bytes()
        for name in ARTIFACTS
    )

    for run in ("a", "b"):
        cfg = tmp_path / f"fuse_{run}.cfg"
        cfg.write_text(FUSE_CFG.format(d=tmp_path / "sim_a", out=tmp_path / f"fuse_{run}"))
        assert cli_main(["fuse", "--config", str(cfg)]) == 0
    sri_ok = (
        (tmp_path / "fuse_a" / "SRI.htf").read_bytes()
        == (tmp_path / "fuse_b" / "SRI.htf").read_bytes()
    )
    reports = []
    for run in ("a", "b"):
        payload = json.loads((tmp_path / f"fuse_{run}" / "report.json").read_text())
        payload.pop("timing")  # wall time is the one legitimately varying field
        reports.append(payload)
    traces = [
        [line.rsplit(",", 1)[0] for line in
         (tmp_path / f"fuse_{run}" / "trace.csv").read_text().splitlines()]
        for run in ("a", "b")
    ]
    fuse_ok = sri_ok and reports[0] == reports[1] and traces[0] == traces[1]
    _verdict(
        10, "bit-exact round trips and same-seed determinism",
        csv_ok and sim_ok and fuse_ok,
        "CSV round trip exact; simulate artifacts byte-identical; "
        "fused tensor, report and objective trace identical (timing excluded)",
    )
