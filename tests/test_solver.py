import itertools
import math
import tracemalloc
from dataclasses import replace
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
    _noise_energy,
    _top_eigenvalue,
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
    fit_steps_whole,
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


def unit_scale(data, report):
    """``data`` divided by the report's data scale as the solver divides it:
    the problem whose objective the report's trace holds."""
    return replace(data, hsi_mat=data.hsi_mat / report.data_scale,
                   msi_mat=data.msi_mat / report.data_scale)


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


def run_solver(hsi, msi, ops, blind, cfg):
    """``fuse_blind`` if ``blind``, else ``fuse``, with two terms."""
    if blind:
        return fuse_blind(hsi, msi, ops.pm, 2, cfg)
    return fuse(hsi, msi, ops, 2, cfg)


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
    # one function forms both products: the transpose from P1' and P2'
    px, pty = _apply_ph(x, p1, p2), _apply_ph(y, p1.T, p2.T)
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
    rows=st.integers(1, 400),
    f_order=st.booleans(),
)
def test_fit_pass_matches_dense_residual_and_grams(seed, n_terms, bands, rows, f_order):
    # the factor and the image in either memory order
    rng = np.random.default_rng(seed)
    order = "F" if f_order else "C"
    x = np.asarray(rng.normal(size=(rows, n_terms)), order=order)
    target = np.asarray(rng.normal(size=(rows, bands)), order=order)
    m = rng.normal(size=(bands, n_terms))
    half_sq, (gram, cross) = solver._fit_pass(x, m, target, float(np.sum(target**2)))
    assert half_sq == pytest.approx(0.5 * np.sum((x @ m.T - target) ** 2), rel=1e-13)
    assert rel_error(gram, x.T @ x) <= 1e-13
    assert rel_error(cross, x.T @ target) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_terms=st.integers(1, 4),
    bands=st.integers(1, 6),
    rows=st.integers(1, 400),
    snr_db=st.floats(10.0, 40.0),
)
def test_fit_pass_scores_a_noisy_fit_from_its_grams(seed, n_terms, bands, rows, snr_db):
    # Y = X M' + N at 10-40 dB: the fit is above the floor, so it is scored
    # in Gram form, which moves with the energy it is given, and matches
    # the dense residual to 1e-10 relative
    rng = np.random.default_rng(seed)
    x = np.asfortranarray(rng.uniform(size=(rows, n_terms)))
    m = rng.uniform(size=(bands, n_terms))
    signal = x @ m.T
    noise = rng.normal(size=signal.shape)
    noise *= math.sqrt(np.sum(signal**2) / np.sum(noise**2) * 10 ** (-snr_db / 10))
    target = np.asfortranarray(signal + noise)
    energy = float(np.sum(target**2))
    half_sq, _ = solver._fit_pass(x, m, target, energy)
    assert half_sq >= solver._GRAM_FLOOR * energy
    assert half_sq == pytest.approx(0.5 * np.sum((x @ m.T - target) ** 2), rel=1e-10)
    shifted, _ = solver._fit_pass(x, m, target, 1.5 * energy)
    assert shifted - half_sq == pytest.approx(0.25 * energy, rel=1e-12)


@pytest.mark.parametrize("noise", [0.0, 1e-12])
@pytest.mark.parametrize("seed", range(4))
def test_fit_pass_scores_a_near_exact_fit_from_its_residual(seed, noise):
    # at Y = X M' and at 1e-12 noise the Gram form would be rounding noise
    # of either sign; the value is the residual form's, bit for bit
    rng = np.random.default_rng(seed)
    x = np.asfortranarray(rng.uniform(size=(50, 3)))
    m = rng.uniform(size=(8, 3))
    target = np.asfortranarray(x @ m.T + noise * rng.normal(size=(50, 8)))
    half_sq, _ = solver._fit_pass(x, m, target, float(np.sum(target**2)))
    res = m @ x.T
    res -= target.T
    assert half_sq == 0.5 * float(np.vdot(res, res))
    assert half_sq >= 0.0


@pytest.mark.parametrize("blind", [False, True])
def test_residual_scoring_gives_the_same_run(blind):
    # the iteration reads the objective only in its stop rules: scoring
    # every fit from its residual gives the same iterates and a trace within
    # rounding of the Gram form's, which is what a default run scores
    _, _, ops, hsi, msi = consistent_instance(seed=5, snr_db=30)
    cfg = SolverConfig(ridge_weight=1e-6, max_iters=60, rel_tol=0.0)
    gram = run_solver(hsi, msi, ops, blind, cfg)
    with mock.patch.object(solver, "_GRAM_FLOOR", math.inf):
        residual = run_solver(hsi, msi, ops, blind, cfg)
    assert np.array_equal(gram.sri, residual.sri)
    gap = np.abs(gram.objective_trace - residual.objective_trace)
    assert np.all(gap <= 1e-11 * residual.objective_trace)
    assert not np.array_equal(gram.objective_trace, residual.objective_trace)


def test_fit_energies_follow_the_matrices():
    # the energies are formed from the matrices the objective reads, so a
    # replaced matrix gets its own, even after the original's were formed
    data, _, maps, spectra, _ = random_instance(6)
    assert data._energies == pytest.approx(
        (np.sum(data.hsi_mat**2), np.sum(data.msi_mat**2)), rel=1e-14)
    scaled = replace(data, hsi_mat=3.0 * data.hsi_mat, msi_mat=data.msi_mat / 2)
    assert scaled._energies == pytest.approx(
        (9.0 * data._energies[0], data._energies[1] / 4), rel=1e-14)
    coarse = tied(maps, scaled)
    dense = (0.5 * np.sum((coarse @ spectra.T - scaled.hsi_mat) ** 2)
             + 0.5 * np.sum((maps @ (scaled.pm @ spectra).T - scaled.msi_mat) ** 2))
    assert objective(maps, spectra, scaled, SolverConfig(), coarse)[3] == pytest.approx(
        dense, rel=1e-12)

@pytest.mark.parametrize("rows", [1, 5, 6, 7, 23])
def test_fit_grad_returns_a_fresh_gram_form_gradient(rows):
    # X M'M - Y M as a fresh terms-major array that shares memory with no
    # input and writes none; M'M and Y M come in formed, as the start's steps
    # form them once
    rng = np.random.default_rng(rows)
    x = np.asfortranarray(rng.normal(size=(rows, 2)))
    target = np.asfortranarray(rng.normal(size=(rows, 3)))
    m = rng.normal(size=(3, 2))
    args = (x, m.T @ m, np.asfortranarray(target @ m))
    given = [a.copy() for a in args]
    grad = solver._fit_grad(*args)
    assert rel_error(grad, x @ m.T @ m - target @ m) <= 1e-14
    assert grad.flags.f_contiguous
    assert not any(np.shares_memory(grad, a) for a in args)
    assert all(np.array_equal(a, b) for a, b in zip(args, given))


@pytest.mark.parametrize("blind", [False, True])
def test_spectra_gradient_is_the_fit_grad_of_each_term(blind):
    # by the chain rule, bit for bit: the HSI term's fit gradient in C, plus
    # PM' times the MSI term's fit gradient in PM C, plus the ridge
    data, blind_data, maps, spectra, coarse = random_instance(8)
    spectra = np.asfortranarray(spectra)
    data, coarse = (blind_data, coarse) if blind else (data, tied(maps, data))
    grams = fit_grams(maps, spectra, data, coarse)
    (coarse_gram, coarse_cross), (gram, cross) = grams
    expected = solver._fit_grad(spectra, coarse_gram, coarse_cross.T)
    expected += data.pm.T @ solver._fit_grad(data.pm @ spectra, gram, cross.T)
    expected += WEIGHTED.ridge_weight * spectra
    assert np.array_equal(spectra_step(spectra, grams, data, WEIGHTED)[0], expected)


def test_blind_runs_with_a_coarse_factor_larger_than_the_images():
    # HSI 12x12x3 and MSI 6x6x2 with 4 terms: the coarse factor (144 x 4) is
    # larger than either image and than the maps; the solve stays finite and
    # the coarse step matches the dense gradient at that size
    rng = np.random.default_rng(21)
    hsi, msi = rng.uniform(size=(12, 12, 3)), rng.uniform(size=(6, 6, 2))
    pm = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    cfg = SolverConfig(max_iters=5, rel_tol=0.0)
    report = fuse_blind(hsi, msi, pm, 4, cfg)
    assert report.iterations == 5 and np.all(np.isfinite(report.objective_trace))

    data = FusionData.from_tensors_blind(hsi, msi, pm)
    spectra = np.asfortranarray(rng.uniform(size=(3, 4)))
    coarse = np.asfortranarray(rng.normal(size=(144, 4)))
    grad, _ = coarse_step_blind(coarse, spectra, data, ([], 0.0))
    dense = coarse @ spectra.T @ spectra - data.hsi_mat @ spectra
    assert rel_error(grad, dense) <= 1e-13


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
    # known-operator one, spectra curvature bound included; only the coarse
    # Schatten term (off here) may tell the two problems apart.  Bit equality
    # on several instances catches a second code path that rounds differently.
    # The one maps step relies on the chain rule: the known maps gradient is
    # the blind one plus (P2 kron P1)' of the coarse-block gradient, and its
    # bound adds |C|^2 |P2 kron P1|^2.
    cfg = SolverConfig(ridge_weight=0.3, tv_weight=0.2)
    for seed in range(8):
        data, blind, maps, spectra, _ = random_instance(seed + 30)
        image = tied(maps, data)
        known_f, known_grams, known_major, _ = objective(maps, spectra, data, cfg, image)
        blind_f, blind_grams, blind_major, _ = objective(maps, spectra, blind, cfg, image)
        assert known_f == blind_f
        known_step = spectra_step(spectra, known_grams, data, cfg)
        blind_step = spectra_step(spectra, blind_grams, blind, cfg)
        assert np.array_equal(known_step[0], blind_step[0])
        assert known_step[1] == blind_step[1]

        g_known, l_known = maps_step(maps, spectra, data, known_major[0], image)
        g_blind, l_blind = maps_step(maps, spectra, blind, blind_major[0])
        g_coarse = coarse_step_blind(image, spectra, blind, blind_major[1])[0]
        chained = g_blind + _apply_ph(g_coarse, data.ops.p1.T, data.ops.p2.T)
        assert rel_error(g_known, chained) <= 1e-12
        ph_gram_norm = (data.ops.p1_norm * data.ops.p2_norm) ** 2
        assert l_known == l_blind + _top_eigenvalue(spectra.T @ spectra) * ph_gram_norm


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
    # apg_step takes the curvature bound L and moves 1/L
    x = np.array([0.0, 1.0, 2.0])
    grad = np.array([0.0, 5.0, -1.0])
    # the step is written into the gradient, so each call gets its own copy
    assert np.array_equal(apg_step(x, np.zeros(3), 2.0), x)
    assert np.array_equal(apg_step(np.zeros(3), np.ones(3), 1.0), np.zeros(3))
    g = grad.copy()
    stepped = apg_step(x, g, 1.0)
    assert np.array_equal(stepped, [0.0, 0.0, 3.0]) and stepped is g
    unprojected = apg_step(x, grad.copy(), 1.0, project=False)
    assert np.array_equal(unprojected, [0.0, -4.0, 3.0])
    rng = np.random.default_rng(0)
    y, g = rng.normal(size=50), rng.normal(size=50)
    assert np.array_equal(apg_step(y, g.copy(), 3.0, project=False), y - (1.0 / 3.0) * g)
    # the point stepped from is not written
    assert np.array_equal(x, [0.0, 1.0, 2.0])
    # a zero bound is floored at the smallest normal double: a finite step
    tiny = np.finfo(float).tiny
    assert np.array_equal(apg_step(np.zeros(2), np.array([tiny, -tiny]), 0.0, project=False),
                          [-1.0, 1.0])


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


def scripted_sweeps(monkeypatch, objectives, fit=math.inf):
    """Make the solvers' sweep stream report ``objectives`` in turn, and
    ``fit`` as every fit, around the real sweeps; the stream ends with them."""
    sweeps = solver._sweeps

    def scripted(factors, data, cfg):
        for f, (_, _, spectra, maps) in zip(objectives, sweeps(factors, data, cfg)):
            yield f, fit, spectra, maps

    monkeypatch.setattr(solver, "_sweeps", scripted)


def test_rel_tol_never_stops_on_a_rise(monkeypatch):
    # a rise, however small against rel_tol, never stalls the run; then a
    # large drop does not (under rel_tol = 1e-4) and a small one does
    _, _, ops, hsi, msi = consistent_instance(seed=4, dims=(8, 8, 8))
    objectives = [10.0, 10.0 + 1e-6, 9.0, 9.0 - 1e-6]
    scripted_sweeps(monkeypatch, objectives)
    for blind in (False, True):
        report = run_solver(hsi, msi, ops, blind, SolverConfig(max_iters=10, rel_tol=1e-4))
        assert report.stop_reason == "rel_tol"
        assert report.objective_trace.tolist() == objectives
        # with rel_tol = 1 every drop stalls, but the rise still does not
        report = run_solver(hsi, msi, ops, blind, SolverConfig(max_iters=10, rel_tol=1.0))
        assert report.stop_reason == "rel_tol"
        assert report.objective_trace.tolist() == objectives[:3]


@pytest.mark.parametrize("blind", [False, True])
def test_rel_tol_zero_runs_through_an_unchanged_objective(monkeypatch, blind):
    # rel_tol = 0 turns the stall rule off: a sweep that leaves the objective
    # exactly as it was does not stop the run, which takes max_iters sweeps;
    # any rel_tol > 0 stops on that sweep
    _, _, ops, hsi, msi = consistent_instance(seed=4, dims=(8, 8, 8))
    objectives = [3.0, 2.0, 2.0, 2.0, 2.0]
    scripted_sweeps(monkeypatch, objectives)
    report = run_solver(hsi, msi, ops, blind, SolverConfig(max_iters=4, rel_tol=0.0))
    assert report.stop_reason == "max_iters"
    assert report.objective_trace.tolist() == objectives
    report = run_solver(hsi, msi, ops, blind, SolverConfig(max_iters=4, rel_tol=1e-4))
    assert report.stop_reason == "rel_tol"
    assert report.objective_trace.tolist() == objectives[:3]


@pytest.mark.parametrize("blind", [False, True])
def test_stop_rules_apply_in_order_after_each_sweep(monkeypatch, blind):
    _, _, ops, hsi, msi = consistent_instance(seed=4, dims=(8, 8, 8), snr_db=30.0)
    # no sweep: the start alone, stopped by the cap
    for cfg in (SolverConfig(max_iters=0), SolverConfig(max_iters=0, rel_tol=0.0)):
        report = run_solver(hsi, msi, ops, blind, cfg)
        assert report.stop_reason == "max_iters" and len(report.objective_trace) == 1
    # a sweep that stalls on the capped sweep reports rel_tol
    penalized = dict(ridge_weight=1e-3, tv_weight=1e-2, rel_tol=1e-3)
    free = run_solver(hsi, msi, ops, blind, SolverConfig(max_iters=300, **penalized))
    assert free.stop_reason == "rel_tol" and 1 < free.iterations < 300
    capped = run_solver(hsi, msi, ops, blind,
                        SolverConfig(max_iters=free.iterations, **penalized))
    assert capped.stop_reason == "rel_tol" and capped.converged
    assert np.array_equal(capped.objective_trace, free.objective_trace)
    capped = run_solver(hsi, msi, ops, blind,
                        SolverConfig(max_iters=free.iterations - 1, **penalized))
    assert capped.stop_reason == "max_iters" and not capped.converged
    assert np.array_equal(capped.objective_trace, free.objective_trace[:-1])
    # the noise level wins over rel_tol on the same sweep, and neither rule
    # reads the start: a fit below the noise level from the start stops the
    # run after the first sweep, which rel_tol = 1 also calls stalled
    scripted_sweeps(monkeypatch, [2.0, 1.0, 0.5], fit=0.0)
    report = run_solver(hsi, msi, ops, blind, SolverConfig(max_iters=10, rel_tol=1.0))
    assert report.stop_reason == "noise_level" and report.objective_trace.tolist() == [2.0, 1.0]


def test_accelerated_run_does_not_stop_on_a_rise(monkeypatch):
    # on this instance an extrapolated sweep raises the objective by 3.7e-5
    # relative at sweep 37; a rule that read the size of the change alone
    # would stop there, under rel_tol = 1e-4, 8% above the objective the run
    # stops at.  The noise-level stop would end the run before the rise, so
    # its noise estimates are set to zero here
    monkeypatch.setattr(solver, "_noise_energy", lambda mat, n_terms: 0.0)
    _, _, ops, hsi, msi = consistent_instance(seed=1, dims=(8, 8, 8), snr_db=30.0)
    report = fuse(hsi, msi, ops, 2, SolverConfig(ridge_weight=1e-4, max_iters=300))
    trace = report.objective_trace
    rises = np.diff(trace) / trace[:-1]
    assert np.any((rises > 0) & (rises <= 1e-4))
    assert report.stop_reason == "rel_tol" and trace[-1] <= trace[-2]


def test_extrapolate_momentum_coefficient_bounded():
    gamma = 1.0
    for _ in range(10_000):
        _, new_gamma = extrapolate(np.zeros(1), np.zeros(1), gamma)
        coeff = (gamma - 1) / new_gamma
        assert 0.0 <= coeff < 1.0
        assert new_gamma > gamma  # strictly increasing sequence
        gamma = new_gamma


# ---------------------------------------------------------------------------
# the noise-level stop
# ---------------------------------------------------------------------------

def test_noise_energy_estimate_matches_the_noise():
    # white noise raises every eigenvalue of Y'Y by |N|^2/K, and the K - R
    # smallest hold nothing else; both images of 48x48x32 instances, R = 3
    blur = BlurSpec(kernel_width=5, sigma=1.0, ratio=2)
    bands = [(4 * m, 4 * m + 3) for m in range(8)]
    for seed in range(6):
        sri = reconstruct(random_blockterm((48, 48, 32), 3, 2, seed=seed))
        ops = DegradationOps.for_sri(sri.shape, blur, bands)
        rng = np.random.default_rng(seed + 50)
        for clean in (degrade_spatial(sri, ops), degrade_spectral(sri, ops)):
            noisy = add_noise(clean, 30.0, rng)
            truth = float(np.sum((noisy - clean) ** 2))
            assert _noise_energy(unfold(noisy), 3) == pytest.approx(truth, rel=0.03)
    # noiseless, the instance of acceptance criterion 1: rounding level
    _, _, _, hsi, msi = consistent_instance(seed=42, dims=(24, 24, 16))
    for image in (hsi, msi):
        assert _noise_energy(unfold(image), 3) <= 1e-12 * float(np.sum(image**2))


def _solve_noisy(blind, n_terms=3, **settings):
    _, _, ops, hsi, msi = consistent_instance(seed=0, dims=(24, 24, 16), snr_db=30.0)
    cfg = SolverConfig(**settings)
    if blind:
        return fuse_blind(hsi, msi, ops.pm, n_terms, cfg), hsi, msi
    return fuse(hsi, msi, ops, n_terms, cfg), hsi, msi


@pytest.mark.parametrize("blind", [False, True])
def test_unpenalized_run_stops_at_the_noise_level(blind):
    # with no ridge the trace is the fit itself: the run ends after the first
    # sweep whose fit is at most half the two images' noise energies
    # The trace and the noise energies compared with it are the unit-scale
    # problem's, the images divided by the data scale; the report gives the
    # energies in the images' units
    report, hsi, msi = _solve_noisy(blind, max_iters=400)
    scale = report.data_scale
    noise = (_noise_energy(unfold(hsi) / scale, 3), _noise_energy(unfold(msi) / scale, 3))
    trace = report.objective_trace
    assert report.stop_reason == "noise_level" and report.converged
    assert report.noise_energy == (noise[0] * scale * scale, noise[1] * scale * scale)
    assert trace[-1] <= 0.5 * (noise[0] + noise[1]) < trace[-2]
    # rel_tol = 0 runs every sweep of the same trajectory and estimates nothing
    full, _, _ = _solve_noisy(blind, max_iters=report.iterations + 20, rel_tol=0.0)
    assert full.iterations == report.iterations + 20 and full.stop_reason == "max_iters"
    assert full.noise_energy is None and not full.converged
    assert np.array_equal(full.objective_trace[: len(trace)], trace)


@pytest.mark.parametrize("blind", [False, True])
@pytest.mark.parametrize("n_terms, weights", [
    (3, dict(tv_weight=1e-3)), (3, dict(lowrank_weight=1e-3)), (4, {}), (5, {}),
])
def test_no_noise_level_stop_with_a_penalty_or_few_msi_bands(blind, n_terms, weights):
    # a TV or Schatten penalty keeps the fit off the noise in the stop's place,
    # and an MSI of 4 bands shows no noise beyond 4 or more terms: such runs
    # neither estimate the noise nor stop on it
    with mock.patch.object(solver, "_noise_energy", wraps=solver._noise_energy) as spy:
        report, _, _ = _solve_noisy(blind, n_terms, max_iters=100, **weights)
    assert not spy.called and report.noise_energy is None
    assert report.stop_reason in ("rel_tol", "max_iters")


@pytest.mark.parametrize("seed", [2010, 2076])
def test_benchmark_instances_run_to_the_noise_level(seed):
    # 96x96x48 instances built as the benchmark builds its seed-2 instances
    # (R = 6, L = 4, ratio 4, 8 bands of 6, 30 dB).  From a uniform(0, 1)
    # start fuse stopped both on rel_tol at sweep 8, far above the noise
    # level: 2010 at 20.22 dB under a looser spectra bound, 2076 at 19.44 dB
    # under the shared one.  From the data-derived start both run about 40
    # sweeps to the noise level, at 22.0-22.7 dB
    rng = np.random.default_rng(seed)
    sri = reconstruct(random_blockterm((96, 96, 48), 6, 4, seed=rng))
    ops = DegradationOps.for_sri(sri.shape, BlurSpec(9, 2.0, 4),
                                 [(6 * m, 6 * m + 5) for m in range(8)])
    hsi = add_noise(degrade_spatial(sri, ops), 30.0, rng)
    msi = add_noise(degrade_spectral(sri, ops), 30.0, rng)
    report = fuse(hsi, msi, ops, 6, SolverConfig(ridge_weight=1e-6))
    assert report.stop_reason == "noise_level"
    assert evaluate(sri, report.sri, ratio=4).rsnr_db >= 21.0


def test_both_solvers_default_to_the_same_iteration_cap():
    _, _, ops, hsi, msi = consistent_instance(seed=5, dims=(8, 8, 8))
    report = fuse_blind(hsi, msi, ops.pm, 2, SolverConfig(rel_tol=0.0))
    assert report.iterations == solver.DEFAULT_MAX_ITERS == 300


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


@settings(max_examples=20, deadline=None)
@given(**SOLVER_RUNS, k=st.integers(-1000, 1000), log_a=st.floats(-8.0, 8.0))
def test_solvers_are_scale_equivariant(seed, rows, cols, blind, accelerate, regularized, k, log_a):
    # both solvers divide the images by the MSI's RMS and start from them, so
    # scaling both images by a scales the SRI by a, weights unchanged.  With
    # a = 2^k every division and product rounds as at scale 1: the trace is
    # the same and the SRI a times the scale-1 SRI, bit for bit, over the
    # k for which every scaled entry stays a normal double (the data scale
    # is found without squaring the entries, which would overflow or
    # underflow from |k| ~ 510 on).  Any other a rounds the division, and
    # the SRIs agree to 1e-10 relative (3e-14 was the largest difference
    # over 200 such runs)
    _, _, ops, hsi, msi = consistent_instance(seed=seed, dims=(rows, cols, 8), snr_db=30.0)
    cfg = property_config(regularized, max_iters=15, accelerate=accelerate)
    base = run_solver(hsi, msi, ops, blind, cfg)
    a = 2.0**k
    run = run_solver(a * hsi, a * msi, ops, blind, cfg)
    assert np.array_equal(run.objective_trace, base.objective_trace)
    assert np.array_equal(run.sri, a * base.sri)
    a = 10.0**log_a
    run = run_solver(a * hsi, a * msi, ops, blind, cfg)
    assert np.allclose(run.sri, a * base.sri, rtol=1e-10, atol=0)


@settings(max_examples=16, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    dims=st.sampled_from(((12, 16, 8), (16, 20, 12), (24, 8, 8))),
    blind=st.booleans(),
    accelerate=st.booleans(),
    tv=st.booleans(),
)
def test_transposed_images_give_the_transposed_sri(seed, dims, blind, accelerate, tv):
    # images with their spatial axes swapped, and P1 with P2, pose the same
    # problem with the pixels reordered: the SRI comes back transposed after
    # the same sweeps and stop.  On non-square images this pins the
    # terms-major layout of _apply_ph, both ways, of the unfolded images and,
    # through TV, of _maps_as_images.  Not with the Schatten term: its
    # majorizer weights a map from the left by its row Gram, which makes the
    # penalized run depend on the maps' orientation
    _, _, ops, hsi, msi = consistent_instance(seed=seed, dims=dims, snr_db=30.0)
    cfg = SolverConfig(ridge_weight=1e-4, tv_weight=1e-2 if tv else 0.0, max_iters=100,
                       accelerate=accelerate)
    run = run_solver(hsi, msi, ops, blind, cfg)
    swapped = DegradationOps(p1=ops.p2, p2=ops.p1, pm=ops.pm)
    flipped = run_solver(hsi.transpose(1, 0, 2), msi.transpose(1, 0, 2), swapped, blind, cfg)
    assert (flipped.iterations, flipped.stop_reason) == (run.iterations, run.stop_reason)
    assert rel_error(flipped.sri, run.sri.transpose(1, 0, 2)) <= 1e-12


def test_spa_picks_the_pure_pixels():
    # noiseless mixtures of four spectra with one pure pixel each, at random
    # brightness: a bright mixed pixel can be longer than a dim pure one,
    # which the l1 normalization undoes, and the picks are the pure pixels
    rng = np.random.default_rng(3)
    spectra = rng.uniform(0.1, 1.0, size=(12, 4))
    abundances = rng.dirichlet(np.ones(4), size=200) * rng.uniform(0.2, 2.0, size=(200, 1))
    pure = [17, 58, 101, 160]
    abundances[pure] = np.diag(rng.uniform(0.2, 0.5, size=4))
    pixels = abundances @ spectra.T
    picked = solver._spa(pixels, 4)
    assert picked.shape == (12, 4) and picked.flags.f_contiguous
    assert sorted(map(tuple, picked.T)) == sorted(map(tuple, pixels[pure]))


def test_cold_start_is_spa_spectra_then_fit_steps():
    # at max_iters=0 a run records its start alone and returns it: the SPA
    # spectra of the unit-scale HSI, multiplied back to the images' units,
    # and the maps fitted to the unit-scale MSI at them; a seed draws nothing
    _, _, ops, hsi, msi = consistent_instance(seed=3, dims=(8, 8, 8), snr_db=30.0)
    for blind in (False, True):
        report = run_solver(hsi, msi, ops, blind, SolverConfig(max_iters=0))
        assert len(report.objective_trace) == 1
        unit = unit_scale(FusionData.from_tensors(hsi, msi, ops), report)
        spectra = solver._spa(unit.hsi_mat, 2)
        assert np.array_equal(report.spectra, spectra * report.data_scale)
        assert np.array_equal(report.maps, solver._fit_steps(ops.pm @ spectra, unit.msi_mat, True))
        cfg = property_config(True, max_iters=10)
        runs = [run_solver(hsi, msi, ops, blind, cfg),
                run_solver(hsi, msi, ops, blind, replace(cfg, seed=9))]
        assert np.array_equal(runs[1].objective_trace, runs[0].objective_trace)
        assert np.array_equal(runs[1].sri, runs[0].sri)


@pytest.mark.parametrize("project", [False, True])
@pytest.mark.parametrize("rows", [15, 16, 31, 32, 53])
@pytest.mark.parametrize("order", ["C", "F"])
def test_fit_steps_by_row_blocks_equal_the_whole_array_loop(monkeypatch, rows, project, order):
    # with 16-row blocks: one block below 32 rows, then 2 and 3 (53 rows as
    # 17 + 18 + 18); each row is its own problem and takes the same
    # operations, so the result is equal, not close
    monkeypatch.setattr(solver, "_INIT_ROWS", 16)
    rng = np.random.default_rng(rows)
    m = rng.normal(size=(5, 3))
    target = np.array(rng.normal(size=(rows, 5)), order=order)
    kept = m.copy(), target.copy()
    got = solver._fit_steps(m, target, project)
    assert np.array_equal(got, fit_steps_whole(m, target, project, solver._INIT_STEPS))
    assert got.shape == (rows, 3) and got.flags.f_contiguous
    assert np.array_equal(m, kept[0]) and np.array_equal(target, kept[1])
    assert not project or got.min() >= 0


def test_fit_steps_by_default_blocks_equal_the_whole_array_loop_at_256x256():
    # the benchmark's maps start: 65536 rows in eight 8192-row blocks, where
    # the whole-array products are large enough for other BLAS kernels
    rng = np.random.default_rng(256)
    m = rng.uniform(size=(8, 6))
    target = np.asfortranarray(rng.uniform(size=(256 * 256, 8)))
    assert 256 * 256 // solver._INIT_ROWS == 8
    want = fit_steps_whole(m, target, True, solver._INIT_STEPS)
    assert np.array_equal(solver._fit_steps(m, target, True), want)


@pytest.mark.parametrize("regularized", [False, True])
@pytest.mark.parametrize("blind", [False, True])
def test_start_by_row_blocks_gives_the_same_run(monkeypatch, blind, regularized):
    # the instances scripts/trace_compare.py records all start in one block;
    # at 64-row blocks this one starts its 1024 maps rows in 16 blocks and
    # its 256 blind coarse rows in 4, and the accelerated run is the same
    _, _, ops, hsi, msi = consistent_instance(seed=21, dims=(32, 32, 16), snr_db=30.0)
    weights = dict(tv_weight=0.01, lowrank_weight=0.01) if regularized else {}
    cfg = SolverConfig(max_iters=30, **weights)
    want = run_solver(hsi, msi, ops, blind, cfg)
    block_rows = []
    fit_grad = solver._fit_grad

    def recording(x, mtm, ym):
        block_rows.append(x.shape[0])
        return fit_grad(x, mtm, ym)

    monkeypatch.setattr(solver, "_INIT_ROWS", 64)
    monkeypatch.setattr(solver, "_fit_grad", recording)
    got = run_solver(hsi, msi, ops, blind, cfg)
    assert block_rows.count(64) == solver._INIT_STEPS * (20 if blind else 16)
    assert np.array_equal(got.sri, want.sri)
    assert np.array_equal(got.objective_trace, want.objective_trace)
    assert got.stop_reason == want.stop_reason


def test_start_by_row_blocks_holds_two_full_arrays_and_a_few_blocks():
    # eight blocks: X and target M in full, a block's X and its gradient;
    # the whole-array loop held a third full array, the gradient
    rows, terms = 8 * solver._INIT_ROWS, 6
    rng = np.random.default_rng(8)
    m = rng.uniform(size=(8, terms))
    target = np.asfortranarray(rng.uniform(size=(rows, 8)))
    full, block = rows * terms * 8, solver._INIT_ROWS * terms * 8
    tracemalloc.start()
    try:
        solver._fit_steps(m, target, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * full + 3 * block, (peak, full, block)


@pytest.mark.parametrize("accelerate", [False, True])
def test_solvers_run_the_verified_block_steps(accelerate):
    # three sweeps by hand from the block steps the gradient and bound tests
    # check: the first momentum coefficient is 0, so only the third sweep
    # takes a gradient at an extrapolated anchor; the second makes the blind
    # spectra depend on the coarse update.  The map steps apply the
    # majorizers the last objective formed at the iterate, as the driver
    # passes them; plain, that iterate is the anchor.
    _, _, ops, hsi, msi = consistent_instance(seed=11, dims=(8, 8, 8), snr_db=25.0)
    cfg = SolverConfig(ridge_weight=0.05, tv_weight=0.02, lowrank_weight=0.02,
                       accelerate=accelerate)
    # the driver runs on unit-RMS data, as the solvers give it, from
    # terms-major factors, the layout the solvers run; it writes its factors,
    # so it is given copies.  Its fourth record holds C and S after 3 sweeps
    scale = math.sqrt(np.mean(msi**2))
    data = FusionData.from_tensors(hsi / scale, msi / scale, ops)
    blind = FusionData.from_tensors_blind(hsi / scale, msi / scale, ops.pm)
    rng = np.random.default_rng(4)
    maps, spectra = rng.uniform(size=(64, 2)), rng.uniform(size=(8, 2))
    # signed, unlike the derived coarse start of this instance: the coarse
    # block is not projected
    coarse = rng.normal(size=(16, 2))
    maps, spectra, coarse = (np.asfortranarray(x) for x in (maps, spectra, coarse))

    def driven(factors, data):
        stream = solver._sweeps([x.copy(order="F") for x in factors], data, cfg)
        _, _, c, s = next(itertools.islice(stream, 3, None))
        return c, s

    def look_ahead(new, old, coef):
        return new if coef is None else (new - old) * coef + new

    def descend(x, step, project=True):
        grad, lip = step
        return apg_step(x, grad, lip, project)

    def sweeps(factors, steps, value):
        # Nesterov momentum written out here, not taken from extrapolate: one
        # coefficient per sweep for all three blocks (C, S, T).  A step reads
        # (anchors, factors, fit Grams, majorizers) and returns the new block;
        # the blocks before it have moved, and the Grams and majorizers come
        # from the objective at the end of the last sweep.
        anchors, gamma = list(factors), 1.0
        for _ in range(3):
            grams, major = value(factors)
            coef = None
            if accelerate:
                next_gamma = (1.0 + math.sqrt(1.0 + 4.0 * gamma**2)) / 2.0
                coef, gamma = (gamma - 1.0) / next_gamma, next_gamma
            for b, step in enumerate(steps):
                new = step(anchors, factors, grams, major)
                anchors[b] = look_ahead(new, factors[b], coef)
                factors[b] = new
        return factors

    # with known operators T is (P2 kron P1) S of the new maps, and the maps
    # step reads T's anchor
    want = sweeps([spectra, maps, _apply_ph(maps, ops.p1, ops.p2)], [
        lambda a, f, grams, major: descend(a[0], spectra_step(a[0], grams, data, cfg)),
        lambda a, f, grams, major: descend(a[1], maps_step(a[1], f[0], data, major[0], a[2])),
        lambda a, f, grams, major: _apply_ph(f[1], ops.p1, ops.p2),
    ], lambda f: objective(f[1], f[0], data, cfg, f[2])[1:3])
    got = driven([spectra, maps], data)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    want = sweeps([spectra, maps, coarse], [
        lambda a, f, grams, major: descend(a[0], spectra_step(a[0], grams, blind, cfg)),
        lambda a, f, grams, major: descend(a[1], maps_step(a[1], f[0], blind, major[0])),
        lambda a, f, grams, major:
            descend(a[2], coarse_step_blind(a[2], f[0], blind, major[1]), project=False),
    ], lambda f: objective(f[1], f[0], blind, cfg, f[2])[1:3])
    got = driven([spectra, maps, coarse], blind)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


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
    # transpose, the same function given P1' and P2', once per maps gradient
    _, _, ops, hsi, msi = consistent_instance(seed=13, dims=(8, 8, 8), snr_db=25.0)
    calls = {"all": 0, "transpose": 0}
    apply_ph = solver._apply_ph

    def counted(mat, p1, p2, *buffers):
        calls["all"] += 1
        calls["transpose"] += p1.shape == ops.p1.T.shape and p2.shape == ops.p2.T.shape
        return apply_ph(mat, p1, p2, *buffers)

    monkeypatch.setattr(solver, "_apply_ph", counted)
    iters = 7
    fuse(hsi, msi, ops, 2, SolverConfig(max_iters=iters, rel_tol=0.0, accelerate=accelerate))
    assert calls == {"all": 2 * iters + 1, "transpose": iters}


@pytest.mark.parametrize("accelerate", [False, True])
def test_solvers_factor_each_map_once_per_objective(monkeypatch, accelerate):
    # each objective forms every penalty's majorizer at the iterate it scores,
    # from one eigh per map-sized (8 x 8) and, blind, per coarse-sized (4 x 4)
    # Gram, and the steps of the next sweep only apply them; eigvalsh is left
    # to the terms-sized (2 x 2) Grams of the step bounds and of the start's
    # fit steps.  A call on a stack counts once per matrix in it.  The start
    # adds one eigh, of the HSI's band Gram (8 x 8 here too), for the SPA's
    # whitening
    _, _, ops, hsi, msi = consistent_instance(seed=13, dims=(8, 8, 8), snr_db=25.0)
    iters, n_terms = 5, 2
    cfg = SolverConfig(ridge_weight=0.05, tv_weight=0.02, lowrank_weight=0.02,
                       max_iters=iters, rel_tol=0.0, accelerate=accelerate)
    maps_calls = n_terms * (iters + 1) + 1
    for blind, want in ((False, {(8, 8): maps_calls}),
                        (True, {(8, 8): maps_calls, (4, 4): n_terms * (iters + 1)})):
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
    # disagree with a fresh evaluation.  The trace is the unit-scale
    # problem's, and the returned spectra, multiplied back to the images'
    # units, divide back to within rounding
    _, _, ops, hsi, msi = consistent_instance(seed=12, dims=(8, 8, 8), snr_db=25.0)
    data = FusionData.from_tensors(hsi, msi, ops)
    for iters in range(4):
        cfg = SolverConfig(
            ridge_weight=0.05, tv_weight=0.02, lowrank_weight=0.02,
            max_iters=iters, rel_tol=0.0, accelerate=accelerate,
        )
        report = fuse(hsi, msi, ops, 2, cfg)
        fresh = value(report.maps, report.spectra / report.data_scale, unit_scale(data, report),
                      cfg)
        assert report.objective_trace[-1] == pytest.approx(fresh, rel=1e-13)


@pytest.mark.parametrize("accelerate", [False, True])
def test_solvers_return_fresh_arrays_and_write_no_input(accelerate):
    # nothing a solver returns may share memory with an input or with another
    # output, and neither image may be written
    _, _, ops, hsi, msi = consistent_instance(seed=14, dims=(8, 6, 8), snr_db=25.0)
    cfg = property_config(True, max_iters=5, accelerate=accelerate)
    inputs = (hsi, msi)
    kept = [x.copy() for x in inputs]
    for blind in (False, True):
        report = run_solver(hsi, msi, ops, blind, cfg)
        assert all(np.array_equal(x, y) for x, y in zip(inputs, kept))
        outputs = (report.maps, report.spectra, report.sri)
        for k, out in enumerate(outputs):
            assert not any(np.shares_memory(out, x) for x in inputs)
            assert not any(np.shares_memory(out, y) for y in outputs[k + 1:])


@pytest.mark.parametrize("accelerate", [False, True])
@pytest.mark.parametrize("blind", [False, True])
def test_sweeps_hold_no_image_sized_temporary_and_leak_nothing(monkeypatch, blind, accelerate):
    # from the fourth sweep on, the peak each sweep adds to what was live
    # when it began stays below an image plus a maps factor (the steps'
    # gradients and products; an SRI-sized temporary would be 131 KB against
    # 49 KB), and what is live at each record of the sweep stream grows by
    # less than 1 KB a sweep (the trace's own entries)
    _, _, ops, hsi, msi = consistent_instance(seed=15, dims=(32, 32, 16), snr_db=30.0)
    marks = []
    sweeps = solver._sweeps

    def marked(factors, data, cfg):
        for record in sweeps(factors, data, cfg):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            yield record

    monkeypatch.setattr(solver, "_sweeps", marked)
    cfg = SolverConfig(max_iters=6, rel_tol=0.0, accelerate=accelerate)
    tracemalloc.start()
    try:
        report = run_solver(hsi, msi, ops, blind, cfg)
    finally:
        tracemalloc.stop()
    assert len(marks) == 7
    added = [peak - start for (start, _), (_, peak) in zip(marks[3:], marks[4:])]
    assert max(added) < max(hsi.nbytes, msi.nbytes) + report.maps.nbytes, added
    live = [current for current, _ in marks[3:]]
    assert max(b - a for a, b in zip(live, live[1:])) < 1024, live


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


def test_non_finite_initial_objective_raises():
    # an HSI 2^300 times the MSI's scale: the start's objective is finite,
    # the first sweep's is not, and the run stops with the start's entry
    _, _, ops, hsi, msi = consistent_instance(seed=9, dims=(8, 8, 8))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="objective became non-finite") as failure:
            fuse(np.ldexp(hsi, 300), msi, ops, 2, SolverConfig())
    assert len(failure.value.trace) == len(failure.value.elapsed) == 1


@pytest.mark.parametrize("blind", [False, True])
def test_overflowing_products_raise_a_numerical_error(blind):
    # an HSI 2^600 times the MSI's scale: a Gram of the start overflows and
    # its eigendecomposition fails; that is reported as a numerical failure
    # with the (empty) trace, not as numpy's LinAlgError, a ValueError
    _, _, ops, hsi, msi = consistent_instance(seed=9, dims=(8, 8, 8), snr_db=30.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="Gram .* became non-finite") as failure:
            run_solver(np.ldexp(hsi, 600), msi, ops, blind, SolverConfig())
    assert isinstance(failure.value.__cause__, np.linalg.LinAlgError)
    assert failure.value.trace.shape == failure.value.elapsed.shape == (0,)


@pytest.mark.parametrize("blind", [False, True])
def test_an_sri_beyond_the_largest_double_raises(monkeypatch, blind):
    # images at 2^900 with start spectra 2^140 along e0 - e1, which PM (the
    # mean of bands 0 and 1 in its first row) maps to 0 exactly: the maps
    # fit the MSI as before and the unit-scale objective stays finite, but
    # the spectra in the images' units, and so the SRI, pass the largest
    # double.  The data alone do not reach this: with images whose largest
    # entry is up to the largest double, both solvers return finite SRIs
    _, _, ops, hsi, msi = consistent_instance(seed=9, dims=(8, 8, 8), snr_db=30.0)
    null = np.zeros(8)
    null[:2] = 1.0, -1.0
    assert not (ops.pm @ null).any()
    spa = solver._spa

    def swollen(mat, n_terms):
        return np.asfortranarray(spa(mat, n_terms) + np.ldexp(null, 140)[:, None])

    monkeypatch.setattr(solver, "_spa", swollen)
    with np.errstate(over="ignore"), \
            pytest.raises(NumericalError, match="SRI overflows") as failure:
        run_solver(np.ldexp(hsi, 900), np.ldexp(msi, 900), ops, blind, SolverConfig(max_iters=0))
    assert len(failure.value.trace) == len(failure.value.elapsed) == 1


def test_data_shape_validation():
    _, _, ops, hsi, msi = consistent_instance(seed=10, dims=(8, 8, 8))
    with pytest.raises(DimensionError):
        FusionData.from_tensors(hsi[:3], msi, ops)
    with pytest.raises(DimensionError):
        FusionData.from_tensors_blind(hsi, msi[:, :, :1], ops.pm)
    with pytest.raises(DimensionError, match="must be 3-d"):
        FusionData.from_tensors(hsi[:, :, 0], msi, ops)
    with pytest.raises(DimensionError, match="HSI band count 7 does not match pm columns 8"):
        FusionData.from_tensors_blind(hsi[:, :, :7], msi, ops.pm)


@pytest.mark.parametrize("name, call", [
    # each is refused by name before the solver reads it
    ("cfg", lambda ops, hsi, msi: fuse(hsi, msi, ops, 2, {"max_iters": 1})),
    ("cfg", lambda ops, hsi, msi: fuse_blind(hsi, msi, ops.pm, 2, {"max_iters": 1})),
    ("ops", lambda ops, hsi, msi: fuse(hsi, msi, (ops.p1, ops.p2, ops.pm), 2)),
], ids=["fuse-cfg", "blind-cfg", "ops"])
def test_solver_arguments_of_the_wrong_kind_rejected(name, call):
    _, _, ops, hsi, msi = consistent_instance(seed=10, dims=(8, 8, 8))
    with pytest.raises(ValueError, match=f"^{name} must be a"):
        call(ops, hsi, msi)


@pytest.mark.parametrize("label", ["HSI", "MSI"])
def test_all_zero_image_rejected_by_name(label):
    # the solvers divide by the MSI's RMS and take their spectra from HSI
    # pixels: an all-zero image would give them 1/0 steps
    _, _, ops, hsi, msi = consistent_instance(seed=10, dims=(8, 8, 8))
    images = {"HSI": hsi, "MSI": msi}
    images[label] = np.zeros_like(images[label])
    with pytest.raises(ValueError, match=f"^{label} is all zero"):
        fuse(images["HSI"], images["MSI"], ops, 2)
    with pytest.raises(ValueError, match=f"^{label} is all zero"):
        fuse_blind(images["HSI"], images["MSI"], ops.pm, 2)


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
    with pytest.raises(ValueError, match="n_terms"):
        fuse_blind(np.ones((2, 2, 2)), np.ones((4, 4, 1)), np.ones((1, 2)), 0)
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
