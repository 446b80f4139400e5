import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsrfuse.blockterm import BlockTermFactors, random_blockterm, reconstruct
from hsrfuse.degradation import (
    BlurSpec,
    DegradationOps,
    add_noise,
    band_aggregation_matrix,
    blur_downsample_matrix,
    degrade_spatial,
    degrade_spectral,
    gaussian_kernel,
)
from hsrfuse.errors import DimensionError
from hsrfuse.tensors import unfold

from _oracles import kron, loop_blur_downsample_matrix


def test_width_one_kernel_gives_identity():
    spec = BlurSpec(kernel_width=1, sigma=1e-6, ratio=1)
    assert np.array_equal(blur_downsample_matrix(5, spec), np.eye(5))


def test_row_zero_matches_kernel_placement_oracle():
    spec = BlurSpec(kernel_width=3, sigma=1.0, ratio=4, boundary="circular")
    op = blur_downsample_matrix(8, spec)
    g = np.exp(-0.5 * np.array([0.0, 1.0]) ** 2)
    norm = g[0] + 2 * g[1]
    expected = np.array([g[0], g[1], 0, 0, 0, 0, 0, g[1]]) / norm
    assert np.allclose(op[0], expected, atol=1e-15)
    assert op.shape == (2, 8)


def test_reflect_boundary_rows_sum_to_one():
    spec = BlurSpec(kernel_width=5, sigma=1.5, ratio=2, boundary="reflect")
    op = blur_downsample_matrix(7, spec)
    assert np.allclose(op.sum(axis=1), 1.0, atol=1e-14)


def test_reflect_boundary_fold_placement():
    # width-5 kernel centered at column 0: taps -2,-1 fold onto columns 1,0
    spec = BlurSpec(kernel_width=5, sigma=1.5, ratio=4, boundary="reflect")
    op = blur_downsample_matrix(8, spec)
    g = gaussian_kernel(5, 1.5)
    expected = np.zeros(8)
    expected[0] = g[1] + g[2]  # taps -1 and 0
    expected[1] = g[0] + g[3]  # taps -2 and +1
    expected[2] = g[4]
    assert np.allclose(op[0], expected, atol=1e-15)


def test_offset_moves_kernel_center():
    base = BlurSpec(kernel_width=3, sigma=1.0, ratio=4, offset=0)
    shifted = BlurSpec(kernel_width=3, sigma=1.0, ratio=4, offset=1)
    a = blur_downsample_matrix(8, base)
    b = blur_downsample_matrix(8, shifted)
    assert np.allclose(np.roll(a[0], 1), b[0])


@pytest.mark.parametrize("boundary", ["circular", "reflect"])
@pytest.mark.parametrize("width", [1, 3, 5, 7, 9, 11])
def test_blur_downsample_matches_loop_oracle(width, boundary):
    # every ratio and offset, down to n = width, where a reflected tap of a
    # wide ratio folds past 2n more than once
    for ratio in range(1, 8):
        for offset in range(ratio):
            for n in range(width, width + 20):
                spec = BlurSpec(kernel_width=width, sigma=1.3, ratio=ratio,
                                boundary=boundary, offset=offset)
                assert np.array_equal(blur_downsample_matrix(n, spec),
                                      loop_blur_downsample_matrix(n, spec)), (n, spec)


def test_axis_shorter_than_kernel_rejected():
    with pytest.raises(DimensionError):
        blur_downsample_matrix(5, BlurSpec(kernel_width=9, sigma=2.0, ratio=2))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(5, 40), ratio=st.integers(1, 4), width=st.sampled_from([1, 3, 5]),
       sigma=st.floats(0.3, 4.0))
def test_rows_always_sum_to_one(n, ratio, width, sigma):
    op = blur_downsample_matrix(n, BlurSpec(kernel_width=width, sigma=sigma, ratio=ratio))
    assert np.allclose(op.sum(axis=1), 1.0, atol=1e-12)


def test_gaussian_kernel_normalized():
    k = gaussian_kernel(9, 2.0)
    assert k.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.argmax(k) == 4


def test_band_aggregation_identity():
    assert np.array_equal(band_aggregation_matrix([(0, 0), (1, 1)], 2), np.eye(2))


def test_band_aggregation_uniform_row():
    op = band_aggregation_matrix([(0, 3)], 4)
    assert np.array_equal(op, np.full((1, 4), 0.25))


def test_band_aggregation_disjoint_support():
    ranges = [(0, 2), (3, 5), (6, 6)]
    op = band_aggregation_matrix(ranges, 7)
    for m, (a, b) in enumerate(ranges):
        support = np.nonzero(op[m])[0]
        assert support.tolist() == list(range(a, b + 1))
    # disjoint ranges -> orthogonal rows
    assert np.allclose(op @ op.T, np.diag(np.diag(op @ op.T)))


def test_band_aggregation_rejects_bad_ranges():
    with pytest.raises(ValueError):
        band_aggregation_matrix([], 4)
    with pytest.raises(ValueError):
        band_aggregation_matrix([(2, 5)], 4)


def _default_ops(dims=(8, 8, 6)):
    spec = BlurSpec(kernel_width=3, sigma=1.0, ratio=2)
    return DegradationOps.for_sri(dims, spec, [(0, 2), (3, 5)])


def test_degrade_spatial_identity_ops():
    rng = np.random.default_rng(0)
    sri = rng.normal(size=(4, 5, 3))
    ops = DegradationOps(p1=np.eye(4), p2=np.eye(5), pm=np.eye(3))
    assert np.allclose(degrade_spatial(sri, ops), sri)
    assert np.allclose(degrade_spectral(sri, ops), sri)


def test_degrade_spatial_rank_one():
    rng = np.random.default_rng(1)
    a, b, c = rng.normal(size=8), rng.normal(size=8), rng.normal(size=6)
    sri = np.einsum("i,j,k->ijk", a, b, c)
    ops = _default_ops()
    got = degrade_spatial(sri, ops)
    expected = np.einsum("i,j,k->ijk", ops.p1 @ a, ops.p2 @ b, c)
    assert np.allclose(got, expected, atol=1e-12)


def test_degrade_spatial_matches_kronecker_path():
    rng = np.random.default_rng(2)
    sri = rng.normal(size=(8, 8, 6))
    ops = _default_ops()
    hsi = degrade_spatial(sri, ops)
    dense = kron(ops.p2, ops.p1) @ unfold(sri)
    rel = np.linalg.norm(unfold(hsi) - dense) / np.linalg.norm(dense)
    assert rel <= 1e-12


def test_degrade_spectral_is_unfolded_product():
    rng = np.random.default_rng(3)
    sri = rng.normal(size=(8, 8, 6))
    ops = _default_ops()
    msi = degrade_spectral(sri, ops)
    assert np.allclose(unfold(msi), unfold(sri) @ ops.pm.T, atol=1e-12)


def test_degrade_spectral_single_pixel():
    rng = np.random.default_rng(4)
    fiber = rng.normal(size=(1, 1, 6))
    pm = band_aggregation_matrix([(0, 2), (3, 5)], 6)
    ops = DegradationOps(p1=np.eye(1), p2=np.eye(1), pm=pm)
    msi = degrade_spectral(fiber, ops)
    assert np.allclose(msi[0, 0], pm @ fiber[0, 0])


def test_degrade_blockterm_factor_form():
    # spatial degradation maps (S_r, c_r) to (P1 S_r P2', c_r); spectral maps to (S_r, PM c_r)
    factors = random_blockterm((8, 8, 6), 2, 2, seed=5)
    sri = reconstruct(factors)
    ops = _default_ops()
    down_maps = np.einsum("ai,ijr,bj->abr", ops.p1, factors.maps, ops.p2)
    hsi_expected = reconstruct(BlockTermFactors(maps=down_maps, spectra=factors.spectra))
    assert np.allclose(degrade_spatial(sri, ops), hsi_expected, atol=1e-12)
    msi_expected = reconstruct(
        BlockTermFactors(maps=factors.maps, spectra=(ops.pm @ factors.spectra))
    )
    assert np.allclose(degrade_spectral(sri, ops), msi_expected, atol=1e-12)


def test_degradations_commute():
    rng = np.random.default_rng(6)
    sri = rng.normal(size=(8, 8, 6))
    ops = _default_ops()
    a = degrade_spectral(degrade_spatial(sri, ops), ops)
    b = degrade_spatial(degrade_spectral(sri, ops), ops)
    assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)


def test_dimension_mismatch_raises():
    ops = _default_ops()
    with pytest.raises(DimensionError):
        degrade_spatial(np.zeros((7, 8, 6)), ops)
    with pytest.raises(DimensionError):
        degrade_spectral(np.zeros((8, 8, 5)), ops)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(6, 32), ratio=st.integers(2, 4))
def test_default_operators_full_row_rank(n, ratio):
    if n < 2 * ratio:
        n = 2 * ratio + 1
    spec = BlurSpec(kernel_width=5, sigma=2.0, ratio=ratio)
    op = blur_downsample_matrix(n, spec)
    svals = np.linalg.svd(op, compute_uv=False)
    assert svals[-1] > 1e-10


def test_blur_spec_rejects_bad_integer_settings():
    # each would otherwise pass into blur_downsample_matrix and fail there
    for kwargs, name in (
        (dict(ratio=2.5), "ratio"), (dict(ratio=0), "ratio"), (dict(ratio=True), "ratio"),
        (dict(offset=0.5, ratio=2), "offset"), (dict(offset=-1), "offset"),
        (dict(kernel_width=3.0), "kernel_width"), (dict(kernel_width=0), "kernel_width"),
    ):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            BlurSpec(**kwargs)
    for kwargs, message in ((dict(kernel_width=4), "odd"), (dict(offset=2, ratio=2), "offset")):
        with pytest.raises(ValueError, match=message):
            BlurSpec(**kwargs)
    assert BlurSpec(kernel_width=np.int64(3), ratio=np.int32(2), offset=np.int64(1)).ratio == 2


def test_rank_deficient_operator_rejected():
    p1 = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])  # repeated row
    with pytest.raises(ValueError):
        DegradationOps(p1=p1, p2=np.eye(3), pm=np.eye(2, 3))


def test_non_finite_operator_rejected():
    for name in ("p1", "p2", "pm"):
        mats = dict(p1=np.eye(2, 3), p2=np.eye(3), pm=np.eye(2, 3))
        mats[name][0, 0] = np.inf
        with pytest.raises(ValueError, match=f"{name} contains non-finite"):
            DegradationOps(**mats)


def test_tall_operator_rejected():
    with pytest.raises(DimensionError):
        DegradationOps(p1=np.eye(4, 3), p2=np.eye(3), pm=np.eye(2, 3))


def test_add_noise_exact_snr():
    rng = np.random.default_rng(7)
    t = rng.normal(size=(6, 5, 4))
    noisy = add_noise(t, 30.0, seed=0)
    realized = 10 * np.log10(np.sum(t**2) / np.sum((noisy - t) ** 2))
    assert realized == pytest.approx(30.0, abs=1e-9)


def test_add_noise_infinite_snr_is_copy():
    t = np.random.default_rng(8).normal(size=(3, 3, 3))
    noisy = add_noise(t, np.inf, seed=1)
    assert np.array_equal(noisy, t)
    assert noisy is not t


def test_add_noise_seeds_differ_same_norm():
    t = np.random.default_rng(9).normal(size=(5, 5, 5))
    n1 = add_noise(t, 20.0, seed=1) - t
    n2 = add_noise(t, 20.0, seed=2) - t
    assert not np.array_equal(n1, n2)
    assert np.linalg.norm(n1) == pytest.approx(np.linalg.norm(n2), rel=1e-12)


def test_add_noise_rejects_zero_signal():
    with pytest.raises(ValueError):
        add_noise(np.zeros((2, 2, 2)), 30.0)


def test_add_noise_rejects_nan_and_negative_infinite_snr():
    t = np.random.default_rng(10).normal(size=(2, 2, 2))
    for snr_db in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="snr_db"):
            add_noise(t, snr_db)
