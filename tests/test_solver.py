import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsrfuse import solver
from hsrfuse.blockterm import random_blockterm, reconstruct
from hsrfuse.degradation import BlurSpec, DegradationOps, add_noise, degrade_spatial, degrade_spectral
from hsrfuse.errors import DimensionError, NumericalError
from hsrfuse.metrics import evaluate
from hsrfuse.regularizers import SchattenConfig, TvConfig
from hsrfuse.solver import (
    FusionData,
    SolverConfig,
    _apply_ph,
    _apply_ph_t,
    _sq_norm,
    apg_step,
    coarse_step_blind,
    extrapolate,
    fuse,
    fuse_blind,
    maps_step,
    objective,
    spectra_step,
)
from hsrfuse.tensors import unfold

from _oracles import (
    central_gradient,
    dense_curvatures_blind,
    dense_curvatures_known,
    kron,
    loop_reconstruct,
    loop_unfold,
    rel_error,
    schatten_by_svd,
    schatten_gradient,
    tv_by_loops,
)

WEIGHTED = SolverConfig(
    ridge_weight=0.3,
    tv_weight=0.2,
    lowrank_weight=0.15,
    schatten=SchattenConfig(p=0.5, tau=1.0),
    tv=TvConfig(q=0.5, epsilon=1e-3),
)


def random_instance(seed, dims=(6, 5, 4), hsi_dims=(3, 3), msi_bands=2, n_terms=3):
    """Random operators and observations (not necessarily consistent data)."""
    rng = np.random.default_rng(seed)
    ops = DegradationOps(
        p1=rng.normal(size=(hsi_dims[0], dims[0])),
        p2=rng.normal(size=(hsi_dims[1], dims[1])),
        pm=rng.normal(size=(msi_bands, dims[2])),
    )
    hsi = rng.normal(size=hsi_dims + (dims[2],))
    msi = rng.normal(size=dims[:2] + (msi_bands,))
    maps = rng.uniform(0.1, 1.0, size=(dims[0] * dims[1], n_terms))
    spectra = rng.uniform(0.1, 1.0, size=(dims[2], n_terms))
    coarse = rng.normal(size=(hsi_dims[0] * hsi_dims[1], n_terms))
    data = FusionData.from_tensors(hsi, msi, ops)
    blind = FusionData.from_tensors_blind(hsi, msi, ops.pm)
    return data, blind, maps, spectra, coarse


def tied(maps, data):
    """(P2 kron P1) S: the coarse factor T of the known-operator problem."""
    return _apply_ph(maps, data.ops.p1, data.ops.p2)


def value(maps, spectra, data, cfg, coarse=None):
    """The objective alone; T is the tied image unless given (blind: required)."""
    return objective(maps, spectra, data, cfg, tied(maps, data) if coarse is None else coarse)[0]


def fit_grams(maps, spectra, data, coarse=None):
    """The fit Grams the spectra step reads, as the objective returns them at (S, C, T)."""
    coarse = tied(maps, data) if coarse is None else coarse
    return objective(maps, spectra, data, SolverConfig(), coarse)[1]


def majorizers(maps, data, cfg, coarse=None):
    """The penalties' majorizers (maps, coarse) the map steps read, as the
    objective forms them at (S, T); T is the tied image unless given.  They
    do not depend on the spectra."""
    coarse = tied(maps, data) if coarse is None else coarse
    spectra = np.zeros((data.sri_dims[2], maps.shape[1]))
    return objective(maps, spectra, data, cfg, coarse)[2]


def consistent_instance(seed=0, dims=(24, 24, 16), n_terms=3, term_rank=2, snr_db=None):
    """Ground-truth block-term SRI degraded by the default small protocol."""
    factors = random_blockterm(dims, n_terms, term_rank, seed=seed)
    sri = reconstruct(factors)
    blur = BlurSpec(kernel_width=5, sigma=1.0, ratio=2)
    k = dims[2]
    width = k // 4
    bands = [(m * width, (m + 1) * width - 1) for m in range(4)]
    ops = DegradationOps.for_sri(dims, blur, bands)
    hsi = degrade_spatial(sri, ops)
    msi = degrade_spectral(sri, ops)
    if snr_db is not None:
        hsi = add_noise(hsi, snr_db, seed=seed + 1)
        msi = add_noise(msi, snr_db, seed=seed + 2)
    return sri, factors, ops, hsi, msi


def run_solver(hsi, msi, ops, blind, cfg, init=None):
    """``fuse_blind`` if ``blind``, else ``fuse``, with two terms."""
    if blind:
        return fuse_blind(hsi, msi, ops.pm, 2, cfg, init=init)
    return fuse(hsi, msi, ops, 2, cfg, init=init)


# small noisy instances for the solver property tests: either solver,
# accelerated or plain, with or without the TV and Schatten terms
SOLVER_RUNS = dict(
    seed=st.integers(0, 10_000),
    rows=st.sampled_from((6, 8, 10)),
    cols=st.sampled_from((6, 8, 10)),
    blind=st.booleans(),
    accelerate=st.booleans(),
    regularized=st.booleans(),
)


def property_config(regularized, **controls):
    weights = dict(tv_weight=0.01, lowrank_weight=0.01) if regularized else {}
    return SolverConfig(ridge_weight=0.01, rel_tol=0.0, **weights, **controls)


# ---------------------------------------------------------------------------
# structured products
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", ["C", "F"])
def test_spatial_products_match_dense_kron(order):
    # I != J and Ih != Jh, so a swapped axis changes the values or the shapes
    rng = np.random.default_rng(14)
    p1, p2 = rng.normal(size=(3, 7)), rng.normal(size=(2, 5))
    ph = kron(p2, p1)
    x = np.asarray(rng.normal(size=(35, 4)), order=order)
    y = np.asarray(rng.normal(size=(6, 4)), order=order)
    px, pty = _apply_ph(x, p1, p2), _apply_ph_t(y, p1, p2)
    assert rel_error(px, ph @ x) <= 1e-14
    assert rel_error(pty, ph.T @ y) <= 1e-14
    assert px.flags.f_contiguous and pty.flags.f_contiguous
    # adjoint identity <P x, y> = <x, P' y>
    assert np.vdot(px, y) == pytest.approx(np.vdot(x, pty), rel=1e-13)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_terms=st.integers(1, 4),
    bands=st.integers(1, 6),
    rows=st.sampled_from(("one", "chunk-1", "chunk", "chunk+1", "several")),
    f_order=st.booleans(),
)
def test_fit_pass_matches_dense_residual_and_grams(seed, n_terms, bands, rows, f_order):
    # 2 KiB chunks hold 16 to 128 rows here, so every row count below is
    # cheap and the chunk boundaries fall everywhere
    with mock.patch.object(solver, "_CHUNK_BYTES", 2048):
        chunk = 2048 // (8 * (n_terms + 2 * bands))
        n = {"one": 1, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1,
             "several": 3 * chunk + 5}[rows]
        rng = np.random.default_rng(seed)
        order = "F" if f_order else "C"
        x = np.asarray(rng.normal(size=(n, n_terms)), order=order)
        target = np.asarray(rng.normal(size=(n, bands)), order=order)
        m = rng.normal(size=(bands, n_terms))
        assert solver._chunk_rows(target, n_terms) == min(n, chunk)
        buffer = np.empty(solver._chunk_size(target, n_terms))
        for scratch in (None, buffer):
            half_sq, (gram, cross) = solver._fit_pass(x, m, target, scratch)
            assert half_sq == pytest.approx(0.5 * np.sum((x @ m.T - target) ** 2), rel=1e-13)
            assert rel_error(gram, x.T @ x) <= 1e-13
            assert rel_error(cross, x.T @ target) <= 1e-13


@pytest.mark.parametrize("rows", [1, 5, 6, 7, 23])
def test_add_fit_grad_matches_dense_over_chunks(rows):
    # a 12-entry buffer holds 6 rows of a 2-term gradient, so the row counts
    # fall below, on and across chunk boundaries; the gradient is added to
    # what ``out`` already holds
    rng = np.random.default_rng(rows)
    x = np.asfortranarray(rng.normal(size=(rows, 2)))
    target = np.asfortranarray(rng.normal(size=(rows, 3)))
    m = rng.normal(size=(3, 2))
    start = np.asfortranarray(rng.normal(size=(rows, 2)))
    out = start.copy(order="F")
    assert solver._add_fit_grad(x, m, target, out, np.empty(12)) is out
    assert rel_error(out, start + x @ m.T @ m - target @ m) <= 1e-14


def test_objective_zero_at_exact_fit():
    sri, factors, ops, hsi, msi = consistent_instance(dims=(8, 8, 6), n_terms=2)
    data = FusionData.from_tensors(hsi, msi, ops)
    cfg = SolverConfig()
    maps = unfold(factors.maps)
    val = value(maps, factors.spectra, data, cfg)
    assert 0.0 <= val <= 1e-20 * np.sum(hsi**2)


def test_objective_zero_factors_is_data_energy():
    data, _, maps, spectra, _ = random_instance(0)
    cfg = SolverConfig()
    val = value(np.zeros_like(maps), np.zeros_like(spectra), data, cfg)
    expected = 0.5 * np.sum(data.hsi_mat**2) + 0.5 * np.sum(data.msi_mat**2)
    assert val == pytest.approx(expected, rel=1e-15)


def _objective_by_loops(maps, spectra, hsi, msi, ops, cfg, dims):
    i, j, k = dims
    maps_list = [maps[:, r].reshape(i, j, order="F") for r in range(maps.shape[1])]
    sri_est = loop_reconstruct(maps_list, spectra)
    hsi_est = np.einsum("ai,ijk,bj->abk", ops.p1, sri_est, ops.p2)
    msi_est = np.einsum("ijk,mk->ijm", sri_est, ops.pm)
    val = 0.5 * np.sum((hsi - hsi_est) ** 2) + 0.5 * np.sum((msi - msi_est) ** 2)
    val += 0.5 * cfg.ridge_weight * np.sum(spectra**2)
    for img in maps_list:
        val += cfg.tv_weight * tv_by_loops(img, cfg.tv.q, cfg.tv.epsilon)
        val += cfg.lowrank_weight * schatten_by_svd(img, cfg.schatten.p, cfg.schatten.tau)
    return val


def test_objective_matches_loop_oracle():
    data, _, maps, spectra, _ = random_instance(1)
    hsi = data.hsi_mat.reshape(3, 3, 4, order="F")
    msi = data.msi_mat.reshape(6, 5, 2, order="F")
    expected = _objective_by_loops(maps, spectra, hsi, msi, data.ops, WEIGHTED, (6, 5, 4))
    got = value(maps, spectra, data, WEIGHTED)
    assert got == pytest.approx(expected, rel=1e-10)


def test_blind_model_with_tied_coarse_block_is_the_known_model():
    # with its coarse block set to (P2 kron P1) S, the blind data fit is the
    # known-operator one; only the coarse Schatten term (off here) and the
    # spectra curvature bound may tell the two problems apart.  Bit equality
    # on several instances catches a second code path that rounds differently.
    # The one maps step relies on the chain rule: the known maps gradient is
    # the blind one plus (P2 kron P1)' of the coarse-block gradient, and its
    # bound adds |C|^2 |P2 kron P1|^2.
    cfg = SolverConfig(ridge_weight=0.3, tv_weight=0.2)
    for seed in range(8):
        data, blind, maps, spectra, _ = random_instance(seed + 30)
        image = tied(maps, data)
        known_f, known_grams, known_major = objective(maps, spectra, data, cfg, image)
        blind_f, blind_grams, blind_major = objective(maps, spectra, blind, cfg, image)
        assert known_f == blind_f
        assert np.array_equal(
            spectra_step(spectra, known_grams, data, cfg)[0],
            spectra_step(spectra, blind_grams, blind, cfg)[0],
        )

        g_known, l_known = maps_step(maps, spectra, data, known_major[0], image)
        g_blind, l_blind = maps_step(maps, spectra, blind, blind_major[0])
        g_coarse = coarse_step_blind(image, spectra, blind, blind_major[1])[0]
        chained = g_blind + _apply_ph_t(g_coarse, data.ops.p1, data.ops.p2)
        assert rel_error(g_known, chained) <= 1e-12
        assert l_known == l_blind + _sq_norm(spectra) * data.ph_gram_norm


# ---------------------------------------------------------------------------
# gradients vs central finite differences
# ---------------------------------------------------------------------------

def test_grad_spectra_finite_differences():
    data, _, maps, spectra, _ = random_instance(2)
    grad = spectra_step(spectra, fit_grams(maps, spectra, data), data, WEIGHTED)[0]
    fd = central_gradient(lambda c: value(maps, c, data, WEIGHTED), spectra)
    assert rel_error(grad, fd) <= 1e-5


def test_grad_maps_finite_differences():
    data, _, maps, spectra, _ = random_instance(3)
    grad = maps_step(maps, spectra, data, majorizers(maps, data, WEIGHTED)[0], tied(maps, data))[0]
    fd = central_gradient(lambda s: value(s, spectra, data, WEIGHTED), maps)
    assert rel_error(grad, fd) <= 1e-5


def test_blind_gradients_finite_differences():
    _, blind, maps, spectra, coarse = random_instance(4)
    g_c = spectra_step(spectra, fit_grams(maps, spectra, blind, coarse), blind, WEIGHTED)[0]
    fd_c = central_gradient(lambda c: value(maps, c, blind, WEIGHTED, coarse), spectra)
    assert rel_error(g_c, fd_c) <= 1e-5

    major = majorizers(maps, blind, WEIGHTED, coarse)
    g_s = maps_step(maps, spectra, blind, major[0])[0]
    fd_s = central_gradient(lambda s: value(s, spectra, blind, WEIGHTED, coarse), maps)
    assert rel_error(g_s, fd_s) <= 1e-5

    g_t = coarse_step_blind(coarse, spectra, blind, major[1])[0]
    fd_t = central_gradient(lambda t: value(maps, spectra, blind, WEIGHTED, t), coarse)
    assert rel_error(g_t, fd_t) <= 1e-5


def test_blind_grad_spectra_with_identity_pm():
    # spectral operator = identity, coarse fixed at the unfolded-HSI least-squares scale
    rng = np.random.default_rng(5)
    hsi = rng.normal(size=(3, 3, 4))
    msi = rng.normal(size=(6, 5, 4))
    blind = FusionData.from_tensors_blind(hsi, msi, np.eye(4))
    maps = rng.uniform(0.1, 1.0, size=(30, 2))
    spectra = rng.uniform(0.1, 1.0, size=(4, 2))
    coarse = loop_unfold(hsi) @ np.linalg.pinv(spectra.T)
    grad = spectra_step(spectra, fit_grams(maps, spectra, blind, coarse), blind, WEIGHTED)[0]
    fd = central_gradient(lambda c: value(maps, c, blind, WEIGHTED, coarse), spectra)
    assert rel_error(grad, fd) <= 1e-5


def test_gradients_vanish_at_exact_fit():
    sri, factors, ops, hsi, msi = consistent_instance(dims=(8, 8, 6), n_terms=2)
    data = FusionData.from_tensors(hsi, msi, ops)
    cfg = SolverConfig()
    maps, spectra = unfold(factors.maps), factors.spectra
    scale = max(np.max(np.abs(maps)), np.max(np.abs(spectra)))
    grams = fit_grams(maps, spectra, data)
    assert np.max(np.abs(spectra_step(spectra, grams, data, cfg)[0])) <= 1e-10 * scale
    grad = maps_step(maps, spectra, data, majorizers(maps, data, cfg)[0], tied(maps, data))[0]
    assert np.max(np.abs(grad)) <= 1e-10 * scale

    # blind: the coarse block absorbing the true downsampled maps is also a fit
    blind = FusionData.from_tensors_blind(hsi, msi, ops.pm)
    down = np.einsum("ai,ijr,bj->abr", ops.p1, factors.maps, ops.p2)
    coarse = down.reshape(-1, 2, order="F")
    grams = fit_grams(maps, spectra, blind, coarse)
    assert np.max(np.abs(spectra_step(spectra, grams, blind, cfg)[0])) <= 1e-10 * scale
    major = majorizers(maps, blind, cfg, coarse)
    assert np.max(np.abs(maps_step(maps, spectra, blind, major[0])[0])) <= 1e-10 * scale
    assert np.max(np.abs(coarse_step_blind(coarse, spectra, blind, major[1])[0])) <= 1e-10 * scale


def test_grad_spectra_ridge_only():
    data, _, maps, spectra, _ = random_instance(6)
    data.hsi_mat[:] = 0.0
    data.msi_mat[:] = 0.0
    cfg = SolverConfig(ridge_weight=0.7)
    zero_maps = np.zeros_like(maps)
    grad = spectra_step(spectra, fit_grams(zero_maps, spectra, data), data, cfg)[0]
    assert np.allclose(grad, 0.7 * spectra)


def test_grad_maps_schatten_only_reduction():
    data, _, maps, _, _ = random_instance(7)
    data.hsi_mat[:] = 0.0
    data.msi_mat[:] = 0.0
    cfg = SolverConfig(lowrank_weight=0.4, schatten=SchattenConfig(p=0.5, tau=1.0))
    zero_spectra = np.zeros((4, maps.shape[1]))
    grad = maps_step(maps, zero_spectra, data, majorizers(maps, data, cfg)[0], tied(maps, data))[0]
    for r in range(maps.shape[1]):
        img = maps[:, r].reshape(6, 5, order="F")
        expected = 0.4 * schatten_gradient(img, cfg.schatten).ravel(order="F")
        assert np.allclose(grad[:, r], expected, atol=1e-12)


def test_grad_coarse_without_lowrank_weight():
    _, blind, maps, spectra, coarse = random_instance(8)
    cfg = SolverConfig()
    grad = coarse_step_blind(coarse, spectra, blind, majorizers(maps, blind, cfg, coarse)[1])[0]
    expected = (coarse @ spectra.T - blind.hsi_mat) @ spectra
    assert np.allclose(grad, expected)


# ---------------------------------------------------------------------------
# step-size bounds vs dense curvature oracle
# ---------------------------------------------------------------------------

def test_step_bounds_dominate_dense_curvatures():
    for seed in range(8):
        data, _, maps, spectra, _ = random_instance(seed)
        l_c = spectra_step(spectra, fit_grams(maps, spectra, data), data, WEIGHTED)[1]
        l_s = maps_step(maps, spectra, data, majorizers(maps, data, WEIGHTED)[0],
                        tied(maps, data))[1]
        d_c, d_s = dense_curvatures_known(maps, spectra, data, WEIGHTED)
        assert l_c >= d_c - 1e-9 * max(1.0, d_c)
        assert l_s >= d_s - 1e-9 * max(1.0, d_s)


def test_step_bound_ridge_only():
    data, _, maps, spectra, _ = random_instance(9)
    cfg = SolverConfig(ridge_weight=0.5)
    l_c = spectra_step(spectra, fit_grams(np.zeros_like(maps), spectra, data), data, cfg)[1]
    assert l_c == pytest.approx(0.5, rel=1e-15)


def test_tv_curvature_bound_matches_dense_at_q2():
    # q = 2 makes every diagonal weight 1, so the bound collapses to
    # tv_weight * q * (sigma_max(H_cols)^2 + sigma_max(H_rows)^2), matching dense
    data, _, maps, spectra, _ = random_instance(10)
    cfg = SolverConfig(tv_weight=0.3, tv=TvConfig(q=2.0, epsilon=1e-3))
    l_s = maps_step(maps, spectra, data, majorizers(maps, data, cfg)[0], tied(maps, data))[1]
    _, d_s = dense_curvatures_known(maps, spectra, data, cfg)
    assert l_s == pytest.approx(d_s, rel=1e-9)


def test_blind_bounds_dominate_dense():
    no_tv = SolverConfig(lowrank_weight=WEIGHTED.lowrank_weight, schatten=WEIGHTED.schatten)
    for seed in range(6):
        _, blind, maps, spectra, coarse = random_instance(seed + 20)
        l_c = spectra_step(spectra, fit_grams(maps, spectra, blind, coarse), blind, WEIGHTED)[1]
        major = majorizers(maps, blind, WEIGHTED, coarse)
        l_s = maps_step(maps, spectra, blind, major[0])[1]
        l_t = coarse_step_blind(coarse, spectra, blind, major[1])[1]
        d_c, d_s, d_t = dense_curvatures_blind(maps, coarse, spectra, blind, WEIGHTED, no_tv)
        assert l_c >= d_c - 1e-9 * max(1.0, d_c)
        assert l_s >= d_s - 1e-9 * max(1.0, d_s)
        assert l_t >= d_t - 1e-9 * max(1.0, d_t)


# ---------------------------------------------------------------------------
# iteration primitives
# ---------------------------------------------------------------------------

def test_apg_step_contracts():
    x = np.array([0.0, 1.0, 2.0])
    grad = np.array([0.0, 5.0, -1.0])
    # the step is written into the gradient, so each call gets its own copy
    assert np.array_equal(apg_step(x, np.zeros(3), 0.5), x)
    assert np.array_equal(apg_step(np.zeros(3), np.ones(3), 1.0), np.zeros(3))
    g = grad.copy()
    stepped = apg_step(x, g, 1.0)
    assert np.array_equal(stepped, [0.0, 0.0, 3.0]) and stepped is g
    unprojected = apg_step(x, grad.copy(), 1.0, project=False)
    assert np.array_equal(unprojected, [0.0, -4.0, 3.0])
    rng = np.random.default_rng(0)
    y, g = rng.normal(size=50), rng.normal(size=50)
    assert np.array_equal(apg_step(y, g.copy(), 0.3, project=False), y - 0.3 * g)
    # the point stepped from is not written
    assert np.array_equal(x, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        apg_step(x, x, 0.0)


def test_extrapolate_golden_ratio_start():
    x, x_old = np.ones(3), np.ones(3)
    check, gamma = extrapolate(x, x_old, 1.0)
    assert gamma == pytest.approx((1 + np.sqrt(5)) / 2, rel=1e-12)
    assert np.array_equal(check, x) and check is not x
    # with momentum the look-ahead moves; it is written over the retired
    # iterate, bit for bit x_new + coef (x_new - x_old), and x_new is not written
    x_new, x_old = np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])
    retired = x_old.copy()
    check, new_gamma = extrapolate(x_new, x_old, gamma)
    assert np.array_equal(check, x_new + ((gamma - 1.0) / new_gamma) * (x_new - retired))
    assert check is x_old and np.array_equal(x_new, [1.0, 2.0, 3.0])


def test_rel_tol_never_stops_on_a_rise():
    trace = solver._Trace()
    trace.record(10.0)
    trace.record(10.0 + 1e-6)
    assert not trace.stalled(1e-4)  # a rise, however small against rel_tol
    assert not trace.stalled(1.0)
    trace.record(10.0 - 1e-6)
    assert trace.stalled(1e-4)  # a small drop
    trace.record(9.0)
    assert not trace.stalled(1e-4)  # a large drop


def test_accelerated_run_does_not_stop_on_a_rise():
    # on this instance an extrapolated sweep raises the objective by 9e-5
    # relative at iteration 43; the run used to stop there, under
    # rel_tol = 1e-4, about 12% above the objective it stops at now
    _, _, ops, hsi, msi = consistent_instance(seed=0, dims=(8, 8, 8), snr_db=30.0)
    report = fuse(hsi, msi, ops, 2, SolverConfig(ridge_weight=1e-4, max_iters=300))
    trace = report.objective_trace
    assert report.converged and trace[-1] <= trace[-2]


def test_extrapolate_momentum_coefficient_bounded():
    gamma = 1.0
    for _ in range(10_000):
        _, new_gamma = extrapolate(np.zeros(1), np.zeros(1), gamma)
        coeff = (gamma - 1) / new_gamma
        assert 0.0 <= coeff < 1.0
        assert new_gamma > gamma  # strictly increasing sequence
        gamma = new_gamma


# ---------------------------------------------------------------------------
# full solvers
# ---------------------------------------------------------------------------

def test_fuse_recovers_noiseless_instance():
    sri, _, ops, hsi, msi = consistent_instance(seed=0)
    cfg = SolverConfig(ridge_weight=1e-6, max_iters=800, rel_tol=0.0, seed=7)
    report = fuse(hsi, msi, ops, 3, cfg)
    assert evaluate(sri, report.sri, ratio=2).rsnr_db >= 40.0


def test_plain_runs_are_monotone():
    _, _, ops, hsi, msi = consistent_instance(seed=1, dims=(8, 8, 8), snr_db=25.0)
    cfg = SolverConfig(
        ridge_weight=0.05, tv_weight=0.02, lowrank_weight=0.02,
        max_iters=150, rel_tol=0.0, accelerate=False, seed=3,
    )
    trace = fuse(hsi, msi, ops, 2, cfg).objective_trace
    drops = np.diff(trace)
    assert np.all(drops <= 1e-12 * np.abs(trace[:-1]))


@settings(max_examples=25, deadline=None)
@given(**SOLVER_RUNS)
def test_fixed_seed_reproducible(seed, rows, cols, blind, accelerate, regularized):
    _, _, ops, hsi, msi = consistent_instance(seed=seed, dims=(rows, cols, 8), snr_db=30.0)
    cfg = property_config(regularized, max_iters=20, accelerate=accelerate, seed=seed)
    a = run_solver(hsi, msi, ops, blind, cfg)
    b = run_solver(hsi, msi, ops, blind, cfg)
    assert np.array_equal(a.objective_trace, b.objective_trace)
    assert np.array_equal(a.sri, b.sri)


@settings(max_examples=25, deadline=None)
@given(**SOLVER_RUNS)
def test_factors_stay_nonnegative_every_iteration(seed, rows, cols, blind, accelerate, regularized):
    _, _, ops, hsi, msi = consistent_instance(seed=seed, dims=(rows, cols, 8), snr_db=20.0)
    for iters in range(1, 5):
        cfg = property_config(regularized, max_iters=iters, accelerate=accelerate, seed=seed)
        report = run_solver(hsi, msi, ops, blind, cfg)
        assert report.maps.min() >= 0.0
        assert report.spectra.min() >= 0.0
        assert report.maps.flags.f_contiguous  # the maps come back terms-major


@pytest.mark.parametrize("blind", [False, True])
def test_warm_start_layout_does_not_change_the_run(blind):
    # a warm start is copied to the terms-major layout the solvers run, so its
    # own memory order cannot change a single rounding
    _, _, ops, hsi, msi = consistent_instance(seed=13, dims=(8, 6, 8), snr_db=25.0)
    cfg = property_config(True, max_iters=10)
    rng = np.random.default_rng(2)
    init = (rng.uniform(size=(48, 2)), rng.uniform(size=(8, 2)), rng.normal(size=(12, 2)))
    init = init if blind else init[:2]
    c_run = run_solver(hsi, msi, ops, blind, cfg, init=init)
    f_run = run_solver(hsi, msi, ops, blind, cfg, init=tuple(np.asfortranarray(x) for x in init))
    assert np.array_equal(c_run.objective_trace, f_run.objective_trace)
    assert np.array_equal(c_run.sri, f_run.sri)
    assert c_run.maps.flags.f_contiguous and f_run.maps.flags.f_contiguous


def test_objective_trace_scales_with_data():
    # scaling the data by s, the TV/low-rank weights by s^2 and the spectra
    # warm start by s scales the whole trace by s^2 (ridge untouched: its
    # argument scales instead)
    _, _, ops, hsi, msi = consistent_instance(seed=4, dims=(8, 8, 8), snr_db=25.0)
    rng = np.random.default_rng(0)
    maps0 = rng.uniform(size=(64, 2))
    spectra0 = rng.uniform(size=(8, 2))
    s = 3.0
    base = SolverConfig(
        ridge_weight=0.02, tv_weight=0.01, lowrank_weight=0.01,
        max_iters=30, rel_tol=0.0,
    )
    scaled = SolverConfig(
        ridge_weight=0.02, tv_weight=0.01 * s**2, lowrank_weight=0.01 * s**2,
        max_iters=30, rel_tol=0.0,
    )
    run_a = fuse(hsi, msi, ops, 2, base, init=(maps0, spectra0))
    run_b = fuse(s * hsi, s * msi, ops, 2, scaled, init=(maps0, s * spectra0))
    assert np.allclose(run_b.objective_trace, s**2 * run_a.objective_trace, rtol=1e-10)


@pytest.mark.parametrize("accelerate", [False, True])
def test_solvers_run_the_verified_block_steps(accelerate):
    # three sweeps by hand from the block steps the gradient and bound tests
    # check: the first momentum coefficient is 0, so only the third sweep
    # takes a gradient at an extrapolated anchor; the second makes the blind
    # spectra depend on the coarse update.  The map steps apply the
    # majorizers the last objective formed at the iterate, as the driver
    # passes them; plain, that iterate is the anchor.
    _, _, ops, hsi, msi = consistent_instance(seed=11, dims=(8, 8, 8), snr_db=25.0)
    cfg = SolverConfig(
        ridge_weight=0.05, tv_weight=0.02, lowrank_weight=0.02,
        max_iters=3, rel_tol=0.0, accelerate=accelerate,
    )
    # the sweep starts from terms-major factors, the layout the solvers run
    rng = np.random.default_rng(4)
    maps, spectra = rng.uniform(size=(64, 2)), rng.uniform(size=(8, 2))
    coarse = rng.normal(size=(16, 2))  # signed: the coarse block is not projected
    maps, spectra, coarse = (np.asfortranarray(x) for x in (maps, spectra, coarse))
    data = FusionData.from_tensors(hsi, msi, ops)
    blind = FusionData.from_tensors_blind(hsi, msi, ops.pm)

    def look_ahead(new, old, coef):
        return new if coef is None else (new - old) * coef + new

    def sweeps(factors, steps, value, image=None):
        # Nesterov momentum written out here, not taken from extrapolate; the
        # maps (b = 1) carry image(maps), moved with the maps' coefficient.
        # A step reads (anchor, factors, anchor's image, fit Grams, majorizers);
        # the Grams and majorizers come from the objective at the end of the
        # last sweep.
        anchors, gammas = list(factors), [1.0] * len(factors)
        carried = anchor_carried = None if image is None else image(factors[1])
        for _ in range(3):
            grams, major = value(factors, carried)
            for b, step in enumerate(steps):
                grad, lip = step(anchors[b], factors, anchor_carried, grams, major)
                new = apg_step(anchors[b], grad, 1.0 / lip, project=b < 2)
                coef = None
                if accelerate:
                    gamma = (1.0 + math.sqrt(1.0 + 4.0 * gammas[b] ** 2)) / 2.0
                    coef, gammas[b] = (gammas[b] - 1.0) / gamma, gamma
                anchors[b] = look_ahead(new, factors[b], coef)
                if b == 1 and image is not None:
                    new_carried = image(new)
                    anchor_carried = look_ahead(new_carried, carried, coef)
                    carried = new_carried
                factors[b] = new
        return factors

    want = sweeps([spectra, maps], [
        lambda c, f, t_anchor, grams, major: spectra_step(c, grams, data, cfg),
        lambda s, f, t_anchor, grams, major:
            maps_step(s, f[0], data, major[0], t_anchor),
    ], lambda f, t: objective(f[1], f[0], data, cfg, t)[1:],
        image=lambda s: _apply_ph(s, ops.p1, ops.p2))
    got = fuse(hsi, msi, ops, 2, cfg, init=(maps, spectra))
    assert np.array_equal(got.spectra, want[0]) and np.array_equal(got.maps, want[1])

    want = sweeps([spectra, maps, coarse], [
        lambda c, f, _, grams, major: spectra_step(c, grams, blind, cfg),
        lambda s, f, _, grams, major: maps_step(s, f[0], blind, major[0]),
        lambda t, f, _, grams, major: coarse_step_blind(t, f[0], blind, major[1]),
    ], lambda f, _: objective(f[1], f[0], blind, cfg, f[2])[1:])
    got = fuse_blind(hsi, msi, ops.pm, 2, cfg, init=(maps, spectra, coarse))
    assert np.array_equal(got.spectra, want[0]) and np.array_equal(got.maps, want[1])


def test_fuse_passes_maps_step_the_image_of_its_anchor(monkeypatch):
    # the driver extrapolates (P2 kron P1) S alongside S instead of applying
    # the operator to the anchor; the operator is linear, so the two agree
    _, _, ops, hsi, msi = consistent_instance(seed=13, dims=(8, 8, 8), snr_db=25.0)
    errors = []

    def checked(maps, spectra, data, major, coarse, *buffers):
        errors.append(rel_error(coarse, _apply_ph(maps, ops.p1, ops.p2)))
        return maps_step(maps, spectra, data, major, coarse, *buffers)

    monkeypatch.setattr(solver, "maps_step", checked)
    fuse(hsi, msi, ops, 2, SolverConfig(max_iters=20, rel_tol=0.0, accelerate=True, seed=3))
    assert len(errors) == 20 and max(errors) <= 1e-12


@pytest.mark.parametrize("accelerate", [False, True])
def test_fuse_applies_each_spatial_product_once_per_iteration(monkeypatch, accelerate):
    # P_H once for the initial objective and once per maps update; its
    # transpose once per maps gradient
    _, _, ops, hsi, msi = consistent_instance(seed=13, dims=(8, 8, 8), snr_db=25.0)
    calls = {"_apply_ph": 0, "_apply_ph_t": 0}
    for name in calls:
        def counted(*args, _name=name, _apply=getattr(solver, name)):
            calls[_name] += 1
            return _apply(*args)

        monkeypatch.setattr(solver, name, counted)
    iters = 7
    fuse(hsi, msi, ops, 2, SolverConfig(max_iters=iters, rel_tol=0.0, accelerate=accelerate))
    assert calls == {"_apply_ph": iters + 1, "_apply_ph_t": iters}


@pytest.mark.parametrize("accelerate", [False, True])
def test_solvers_factor_each_map_once_per_objective(monkeypatch, accelerate):
    # each objective forms every penalty's majorizer at the iterate it scores,
    # from one eigh per map-sized (8 x 8) and, blind, per coarse-sized (4 x 4)
    # Gram, and the steps of the next sweep only apply them; eigvalsh is left
    # to the terms-sized (2 x 2) Grams of the step bounds.  A call on a stack
    # counts once per matrix in it.
    _, _, ops, hsi, msi = consistent_instance(seed=13, dims=(8, 8, 8), snr_db=25.0)
    iters, n_terms = 5, 2
    cfg = SolverConfig(ridge_weight=0.05, tv_weight=0.02, lowrank_weight=0.02,
                       max_iters=iters, rel_tol=0.0, accelerate=accelerate)
    for blind, want in ((False, {(8, 8): n_terms * (iters + 1)}),
                        (True, {(8, 8): n_terms * (iters + 1), (4, 4): n_terms * (iters + 1)})):
        calls = {"eigh": {}, "eigvalsh": {}}
        for name, shapes in calls.items():
            def counted(mat, *args, _shapes=shapes, _apply=getattr(np.linalg, name)):
                key = mat.shape[-2:]
                _shapes[key] = _shapes.get(key, 0) + math.prod(mat.shape[:-2])
                return _apply(mat, *args)

            monkeypatch.setattr(np.linalg, name, counted)
        run_solver(hsi, msi, ops, blind, cfg)
        monkeypatch.undo()
        assert calls["eigh"] == want
        assert set(calls["eigvalsh"]) == {(n_terms, n_terms)}


@pytest.mark.parametrize("accelerate", [False, True])
def test_last_trace_value_is_objective_at_returned_factors(accelerate):
    # fuse carries one (P2 kron P1) S per maps update to the objective and
    # the next spectra step; a stale image would make the recorded value
    # disagree with a fresh evaluation
    _, _, ops, hsi, msi = consistent_instance(seed=12, dims=(8, 8, 8), snr_db=25.0)
    data = FusionData.from_tensors(hsi, msi, ops)
    for iters in range(4):
        cfg = SolverConfig(
            ridge_weight=0.05, tv_weight=0.02, lowrank_weight=0.02,
            max_iters=iters, rel_tol=0.0, accelerate=accelerate, seed=4,
        )
        report = fuse(hsi, msi, ops, 2, cfg)
        fresh = value(report.maps, report.spectra, data, cfg)
        assert report.objective_trace[-1] == fresh


@pytest.mark.parametrize("accelerate", [False, True])
def test_solvers_own_their_buffers(accelerate):
    # the driver rotates its buffers in place, so nothing it returns may be
    # an input, and no input may be written
    _, _, ops, hsi, msi = consistent_instance(seed=14, dims=(8, 6, 8), snr_db=25.0)
    rng = np.random.default_rng(3)
    init = tuple(np.asfortranarray(x) for x in (
        rng.uniform(size=(48, 2)), rng.uniform(size=(8, 2)), rng.normal(size=(12, 2))))
    cfg = property_config(True, max_iters=5, accelerate=accelerate)
    for blind in (False, True):
        given = init if blind else init[:2]
        kept = [x.copy() for x in given]
        inputs = (hsi, msi, *given)
        report = run_solver(hsi, msi, ops, blind, cfg, init=given)
        assert all(np.array_equal(x, y) for x, y in zip(given, kept))
        outputs = (report.maps, report.spectra, report.sri)
        for k, out in enumerate(outputs):
            assert not any(np.shares_memory(out, x) for x in inputs)
            assert not any(np.shares_memory(out, y) for y in outputs[k + 1:])


def test_max_iters_zero_returns_initialization():
    _, _, ops, hsi, msi = consistent_instance(seed=5, dims=(8, 8, 8))
    rng = np.random.default_rng(1)
    init = (rng.uniform(size=(64, 2)), rng.uniform(size=(8, 2)), rng.uniform(size=(16, 2)))
    cfg = SolverConfig(max_iters=0)
    report = fuse_blind(hsi, msi, ops.pm, 2, cfg, init=init)
    assert np.array_equal(report.maps, init[0])
    assert np.array_equal(report.spectra, init[1])
    assert len(report.objective_trace) == 1


def test_trace_length_bounded():
    _, _, ops, hsi, msi = consistent_instance(seed=6, dims=(8, 8, 8), snr_db=15.0)
    cfg = SolverConfig(ridge_weight=1e-3, max_iters=50, rel_tol=1e-3, seed=2)
    report = fuse_blind(hsi, msi, ops.pm, 2, cfg)
    assert len(report.objective_trace) <= 51
    if report.converged:
        assert len(report.objective_trace) < 51


def test_blind_descent_monotone():
    _, _, ops, hsi, msi = consistent_instance(seed=7, dims=(8, 8, 8), snr_db=25.0)
    cfg = SolverConfig(
        ridge_weight=0.05, tv_weight=0.02, lowrank_weight=0.02,
        max_iters=150, rel_tol=0.0, accelerate=False, seed=9,
    )
    trace = fuse_blind(hsi, msi, ops.pm, 2, cfg).objective_trace
    assert np.all(np.diff(trace) <= 1e-12 * np.abs(trace[:-1]))


def test_warm_start_shape_validated():
    _, _, ops, hsi, msi = consistent_instance(seed=8, dims=(8, 8, 8))
    maps, spectra, coarse = np.zeros((64, 2)), np.zeros((8, 2)), np.zeros((16, 2))
    with pytest.raises(DimensionError):
        fuse(hsi, msi, ops, 2, SolverConfig(), init=(np.zeros((10, 2)), spectra))
    # the factor count must match the problem: no factor dropped, none missing
    with pytest.raises(DimensionError, match=r"expected \(maps, spectra\)"):
        fuse(hsi, msi, ops, 2, SolverConfig(), init=(maps, spectra, coarse))
    with pytest.raises(DimensionError, match=r"expected \(maps, spectra, coarse maps\)"):
        fuse_blind(hsi, msi, ops.pm, 2, SolverConfig(), init=(maps, spectra))
    # a non-finite entry in any warm-start factor fails before the first objective
    runs = ((fuse, ops, (maps, spectra)), (fuse_blind, ops.pm, (maps, spectra, coarse)))
    for solver, operator, factors in runs:
        for k, label in enumerate(("maps", "spectra", "coarse maps")[: len(factors)]):
            for bad in (np.nan, np.inf, -np.inf):
                init = [f.copy() for f in factors]
                init[k][1, 0] = bad
                with pytest.raises(ValueError, match=f"warm start {label} contains non-finite"):
                    solver(hsi, msi, operator, 2, SolverConfig(), init=init)


def test_non_finite_initial_objective_raises():
    _, _, ops, hsi, msi = consistent_instance(seed=9, dims=(8, 8, 8))
    huge = np.full((64, 2), 1e300)  # finite, but its fit residual overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError):
            fuse(hsi, msi, ops, 2, SolverConfig(), init=(huge, np.ones((8, 2))))


def test_data_shape_validation():
    _, _, ops, hsi, msi = consistent_instance(seed=10, dims=(8, 8, 8))
    with pytest.raises(DimensionError):
        FusionData.from_tensors(hsi[:3], msi, ops)
    with pytest.raises(DimensionError):
        FusionData.from_tensors_blind(hsi, msi[:, :, :1], ops.pm)


def test_non_finite_observations_rejected():
    _, _, ops, hsi, msi = consistent_instance(seed=10, dims=(8, 8, 8))
    nan_hsi, inf_msi = hsi.copy(), msi.copy()
    nan_hsi[1, 2, 0] = np.nan
    inf_msi[1, 2, 0] = np.inf
    for label, args in (("HSI", (nan_hsi, msi)), ("MSI", (hsi, inf_msi))):
        with pytest.raises(ValueError, match=f"{label} contains non-finite"):
            fuse(*args, ops, 2)
        with pytest.raises(ValueError, match=f"{label} contains non-finite"):
            fuse_blind(*args, ops.pm, 2)
    with pytest.raises(ValueError, match="pm contains non-finite"):
        FusionData.from_tensors_blind(hsi, msi, np.where(ops.pm > 0, np.inf, 0.0))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(ridge_weight=-1.0)
    for name, value in (
        ("ridge_weight", np.nan), ("lowrank_weight", np.nan),
        ("tv_weight", np.inf), ("rel_tol", np.nan),
    ):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})
    with pytest.raises(ValueError):
        SolverConfig(max_iters=-1)
    with pytest.raises(ValueError, match="seed"):
        SolverConfig(seed=-1)
    with pytest.raises(ValueError):
        fuse_blind(np.zeros((2, 2, 2)), np.zeros((4, 4, 1)), np.ones((1, 2)), 0)
    # counts must be integers, numpy's included; the error names the field
    for name, value in (("max_iters", 2.5), ("seed", 1.5), ("seed", True)):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})
    assert SolverConfig(max_iters=np.int64(3), seed=np.uint8(2)).max_iters == 3
    _, _, ops, hsi, msi = consistent_instance(seed=8, dims=(8, 8, 8))
    with pytest.raises(ValueError, match="n_terms"):
        fuse(hsi, msi, ops, 2.0, SolverConfig(max_iters=1))
    report = fuse(hsi, msi, ops, np.int32(2), SolverConfig(max_iters=np.int64(1), seed=np.int64(1)))
    assert report.maps.shape == (64, 2) and report.iterations == 1


@pytest.mark.parametrize("name, fields", [
    # each was accepted and either ran with another meaning (a truthy string
    # turned extrapolation on, True was read as 1) or failed mid-solve
    # without naming the field
    ("accelerate", dict(accelerate="no")),
    ("accelerate", dict(accelerate=1)),
    ("schatten", dict(lowrank_weight=1, schatten=None)),
    ("tv", dict(tv_weight=1, tv=None)),
    ("schatten", dict(schatten=TvConfig())),
    ("ridge_weight", dict(ridge_weight="1")),
    ("tv_weight", dict(tv_weight=None)),
    ("rel_tol", dict(rel_tol=True)),
])
def test_solver_config_rejects_wrong_types(name, fields):
    with pytest.raises(ValueError, match=name):
        SolverConfig(**fields)


def test_solver_config_accepts_numpy_scalars():
    cfg = SolverConfig(ridge_weight=np.float32(0.5), rel_tol=1, accelerate=np.bool_(False))
    assert cfg.rel_tol == 1 and not cfg.accelerate
