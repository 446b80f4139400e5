import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import ssim_two_pass, uiqi_two_pass
from hsrfuse import metrics
from hsrfuse.degradation import add_noise
from hsrfuse.errors import DimensionError
from hsrfuse.metrics import MetricReport, evaluate


def _random_pair(seed=0, dims=(12, 11, 5), noise=0.05):
    rng = np.random.default_rng(seed)
    ref = rng.uniform(0.2, 1.0, size=dims)
    est = ref + noise * rng.standard_normal(dims)
    return ref, est


def test_identical_tensors_perfect_scores():
    ref, _ = _random_pair()
    report = evaluate(ref, ref.copy(), ratio=4)
    assert report.rmse == 0.0
    assert report.sam_rad == 0.0
    assert report.ergas == 0.0
    assert report.rsnr_db == np.inf
    assert report.ssim == 1.0
    assert report.uiqi == 1.0
    assert report.cc == pytest.approx(1.0, abs=1e-13)


def test_rsnr_inverts_noise_calibration():
    ref, _ = _random_pair(seed=1)
    noisy = add_noise(ref, 20.0, seed=3)
    report = evaluate(ref, noisy, ratio=4)
    assert report.rsnr_db == pytest.approx(20.0, abs=1e-9)


def test_hand_built_pair_rmse_and_sam():
    ref = np.zeros((2, 2, 2))
    est = np.zeros((2, 2, 2))
    ref[:, :, 0] = [[1, 0], [0, 1]]
    ref[:, :, 1] = [[0, 1], [1, 0]]
    est[:, :, 0] = [[1, 0], [0, 1]]
    est[:, :, 1] = [[1, 1], [1, 1]]
    report = evaluate(ref, est, ratio=1)
    # errors: pixel (0,0) band1: 1, pixel (1,1) band1: 1 -> rmse = sqrt(2/8)
    assert report.rmse == pytest.approx(np.sqrt(2 / 8), rel=1e-12)
    # fibers: (0,0): (1,0) vs (1,1) -> pi/4; (1,1): (1,0) vs (1,1) -> pi/4; others 0
    assert report.sam_rad == pytest.approx((np.pi / 4 + np.pi / 4) / 4, rel=1e-12)


def test_sam_skips_zero_fibers():
    ref = np.ones((2, 2, 3))
    est = np.ones((2, 2, 3))
    ref[0, 0, :] = 0.0
    report = evaluate(ref, est, ratio=1)
    assert report.sam_skipped == 1
    assert report.sam_rad == 0.0


def test_sam_invariant_to_pixel_scaling():
    ref, est = _random_pair(seed=2)
    scales = np.random.default_rng(5).uniform(0.5, 3.0, size=ref.shape[:2])
    scaled = est * scales[:, :, None]
    a = evaluate(ref, est, ratio=4).sam_rad
    b = evaluate(ref, scaled, ratio=4).sam_rad
    assert a == pytest.approx(b, abs=1e-9)


def test_rmse_ergas_monotone_in_error_scale():
    ref, est = _random_pair(seed=3)
    err = est - ref
    small = evaluate(ref, ref + err, ratio=4)
    big = evaluate(ref, ref + 2 * err, ratio=4)
    assert big.rmse > small.rmse
    assert big.ergas > small.ergas


def test_ergas_ratio_scaling():
    ref, est = _random_pair(seed=4)
    r1 = evaluate(ref, est, ratio=1).ergas
    r4 = evaluate(ref, est, ratio=4).ergas
    assert r1 == pytest.approx(4 * r4, rel=1e-12)


def test_all_metrics_finite_on_noisy_pair():
    ref, est = _random_pair(seed=5, noise=0.5)
    report = evaluate(ref, est, ratio=4)
    for name in ("rsnr_db", "ssim", "cc", "uiqi", "rmse", "ergas", "sam_rad"):
        assert np.isfinite(getattr(report, name)), name
    assert -1.0 <= report.cc <= 1.0
    assert -1.0 <= report.ssim <= 1.0
    assert -1.0 <= report.uiqi <= 1.0
    assert 0.0 <= report.sam_rad <= np.pi


def test_evaluate_validates_inputs():
    ref, est = _random_pair()
    with pytest.raises(DimensionError):
        evaluate(ref, est[:, :, :3])
    with pytest.raises(ValueError):
        evaluate(np.zeros((2, 2, 2)), np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        evaluate(ref, est, ratio=0)


@pytest.mark.parametrize("ratio", [np.nan, True, 2.5, "4"])
def test_evaluate_rejects_non_integer_ratio(ratio):
    # nan passed a ``ratio < 1`` test and gave a NaN ERGAS; True was read as 1
    ref, est = _random_pair()
    with pytest.raises(ValueError, match="ratio must be an integer >= 1"):
        evaluate(ref, est, ratio=ratio)


def test_per_band_constant_difference_rows_identical():
    rng = np.random.default_rng(6)
    base = rng.uniform(0.5, 1.0, size=(6, 6))
    ref = np.stack([base] * 4, axis=2)
    est = ref + 0.01
    table = evaluate(ref, est, per_band=True).per_band
    for key in ("rsnr_db", "ssim", "uiqi", "rmse"):
        assert np.allclose(table[key], table[key][0]), key


def test_per_band_single_corrupted_band():
    ref, _ = _random_pair(seed=7)
    est = ref.copy()
    est[:, :, 2] += 0.3
    table = evaluate(ref, est, per_band=True).per_band
    assert np.isinf(table["rsnr_db"][[0, 1, 3, 4]]).all()
    assert np.isfinite(table["rsnr_db"][2])
    assert np.all(table["rmse"][[0, 1, 3, 4]] == 0.0)
    assert table["rmse"][2] > 0


def test_per_band_rmse_energy_additivity():
    ref, est = _random_pair(seed=8)
    report = evaluate(ref, est, ratio=4, per_band=True)
    table = report.per_band
    global_rmse = evaluate(ref, est, ratio=4).rmse
    assert np.mean(table["rmse"] ** 2) == pytest.approx(global_rmse**2, rel=1e-12)
    # the per-band RMSE is the array ERGAS is taken from, bit for bit
    mu = ref.mean(axis=(0, 1))
    assert report.ergas == 100.0 / 4 * float(np.sqrt(np.mean((table["rmse"] / mu) ** 2)))


def test_evaluate_attaches_per_band_table():
    ref, est = _random_pair(seed=9)
    report = evaluate(ref, est, ratio=4, per_band=True)
    assert set(report.per_band) == {"band", "rsnr_db", "ssim", "uiqi", "rmse"}
    assert len(report.per_band["band"]) == ref.shape[2]
    payload = report.to_dict()
    assert isinstance(payload["per_band"]["rmse"], list)


def test_per_band_scores_computed_once_and_averaged(monkeypatch):
    ref, est = _random_pair(seed=12)
    calls = []
    band_ssim = metrics._ssim_band

    def counted(*args):
        calls.append(args)
        return band_ssim(*args)

    monkeypatch.setattr(metrics, "_ssim_band", counted)
    report = evaluate(ref, est, ratio=4, per_band=True)
    assert len(calls) == ref.shape[2]
    assert np.mean(report.per_band["ssim"]) == report.ssim
    assert np.mean(report.per_band["uiqi"]) == report.uiqi


def test_per_band_curves_validates_inputs():
    ref, est = _random_pair(seed=13, dims=(5, 4, 3))
    table = evaluate(ref.tolist(), est.tolist(), per_band=True).per_band
    assert np.array_equal(table["rmse"], evaluate(ref, est, per_band=True).per_band["rmse"])
    with pytest.raises(DimensionError):
        evaluate(ref, est[:, :, :2], per_band=True)
    est[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="estimate"):
        evaluate(ref, est, per_band=True)


def test_uiqi_flat_bands_have_no_live_window():
    # both bands flat: their window variances are rounding noise, not signal
    ref = np.full((13, 17, 1), 0.3)
    est = np.full((13, 17, 1), 0.7)
    assert evaluate(ref, est, ratio=1).uiqi == 0.0
    assert evaluate(ref, ref.copy(), ratio=1).uiqi == 1.0


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 24),
    cols=st.integers(1, 24),
    offset=st.sampled_from([0.0, 1e3, 1e6]),
    noise=st.floats(0.01, 0.5),
    seed=st.integers(0, 2**31),
)
def test_window_metrics_match_two_pass_oracle(rows, cols, offset, noise, seed):
    rng = np.random.default_rng(seed)
    ref = offset + rng.uniform(size=(rows, cols, 2))
    est = ref + noise * rng.standard_normal(ref.shape)
    report = evaluate(ref, est, ratio=1)
    assert report.ssim == pytest.approx(ssim_two_pass(ref, est), rel=1e-9)
    assert report.uiqi == pytest.approx(uiqi_two_pass(ref, est), rel=1e-9)
    same = evaluate(ref, ref.copy(), ratio=1)
    assert same.ssim == 1.0
    assert same.uiqi == 1.0


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
@pytest.mark.parametrize(
    "rows, cols",
    [(1, 1), (1, 9), (2, 1), (4, 4), (7, 9), (8, 8), (8, 10), (10, 8), (9, 17), (16, 3)],
)
def test_clipped_windows_match_two_pass_oracle(rows, cols, offset):
    # one or both windows clip to the image on an axis; where both clip to
    # the same size, the two widths may share one window sum
    rng = np.random.default_rng(rows * 100 + cols)
    ref = offset + rng.uniform(size=(rows, cols, 2))
    est = ref + 0.1 * rng.standard_normal(ref.shape)
    report = evaluate(ref, est, ratio=1)
    assert report.ssim == pytest.approx(ssim_two_pass(ref, est), rel=1e-9)
    assert report.uiqi == pytest.approx(uiqi_two_pass(ref, est), rel=1e-9)
    same = evaluate(ref, ref.copy(), ratio=1)
    assert same.ssim == 1.0
    assert same.uiqi == 1.0


def test_uiqi_single_pixel_windows():
    # a 1x1 image has one 1-pixel window, whose variance is exactly 0
    ref = np.array([[[0.2, 0.5]]])
    assert evaluate(ref, ref.copy(), ratio=1).uiqi == 1.0
    table = evaluate(ref, np.array([[[0.3, 0.5]]]), ratio=1, per_band=True).per_band
    assert table["uiqi"].tolist() == [0.0, 1.0]


def test_small_images_shrink_windows():
    ref = np.random.default_rng(10).uniform(0.1, 1.0, size=(3, 3, 2))
    report = evaluate(ref, ref.copy(), ratio=1)
    assert report.ssim == 1.0
    assert report.uiqi == 1.0


def test_report_dataclass_roundtrip():
    report = MetricReport(
        rsnr_db=1.0, ssim=0.5, cc=0.5, uiqi=0.5, rmse=0.1, ergas=0.2, sam_rad=0.3
    )
    payload = report.to_dict()
    assert payload["rsnr_db"] == 1.0
    keys = {"rsnr_db", "ssim", "cc", "uiqi", "rmse", "ergas", "sam_rad", "sam_skipped"}
    assert set(payload) == keys
    report.per_band = {"band": np.arange(2)}
    assert set(report.to_dict()) == keys | {"per_band"}


def test_zero_energy_band_handled():
    rng = np.random.default_rng(11)
    ref = rng.uniform(0.2, 1.0, size=(6, 6, 4))
    ref[:, :, 1] = 0.0
    est = ref + 0.01 * rng.standard_normal(ref.shape)
    report = evaluate(ref, est, ratio=2)
    # global metrics stay finite; the dead band is skipped where undefined
    for name in ("rsnr_db", "ssim", "cc", "uiqi", "rmse", "ergas", "sam_rad"):
        assert np.isfinite(getattr(report, name)), name
    table = evaluate(ref, est, per_band=True).per_band
    assert table["rsnr_db"][1] == -np.inf
    assert np.isfinite(table["rsnr_db"][[0, 2, 3]]).all()
    est[:, :, 1] = 0.0  # 0/0 energies: an exact fit reads +inf, not nan
    assert evaluate(ref, est, per_band=True).per_band["rsnr_db"][1] == np.inf


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), noise=st.floats(0.0, 2.0))
def test_metrics_finite_property(seed, noise):
    rng = np.random.default_rng(seed)
    ref = rng.normal(size=(7, 6, 3))
    est = ref + noise * rng.standard_normal(ref.shape)
    report = evaluate(ref, est, ratio=4)
    for name in ("ssim", "cc", "uiqi", "rmse", "ergas", "sam_rad"):
        assert np.isfinite(getattr(report, name)), name
    assert report.rsnr_db == np.inf or np.isfinite(report.rsnr_db)


@pytest.mark.parametrize("side", [7, 96, 97])
@pytest.mark.parametrize("c", [0.1, 0.3, 0.7, 1 / 3, 123.456])
def test_cc_skips_every_constant_band(side, c):
    # the centred values of a constant band can keep a rounding residue of
    # its mean (0.1 at 96 x 96 does), so a band constant in the reference or
    # the estimate is skipped by an exact test: CC is the mean over the
    # textured bands, and exactly 0 for a noisy pair with none
    rng = np.random.default_rng(side)
    textured = rng.uniform(0.2, 1.0, size=(side, side, 3))
    noisy = textured + 0.05 * rng.standard_normal(textured.shape)
    want = evaluate(textured[..., :2], noisy[..., :2]).cc
    ref, est = textured.copy(), noisy.copy()
    ref[..., 2] = c
    assert evaluate(ref, est).cc == want
    ref, est = textured.copy(), noisy.copy()
    est[..., 2] = c
    assert evaluate(ref, est).cc == want
    flat = np.full(textured.shape, c)
    assert evaluate(flat, flat + noisy - textured).cc == 0.0


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dims", [(32, 32, 256), (96, 96, 48)])
def test_evaluate_scratch_is_band_sized(dims, order):
    # every score is formed band by band, so the scratch is a few dozen
    # band-sized arrays whatever the band count; one cube-sized temporary
    # would be 256 or 48 of them here
    ref, est = _random_pair(seed=14, dims=dims)
    ref, est = np.asarray(ref, order=order), np.asarray(est, order=order)
    evaluate(ref, est, per_band=True)
    tracemalloc.start()
    try:
        evaluate(ref, est, per_band=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * dims[0] * dims[1] * 8, peak / (dims[0] * dims[1] * 8)


@pytest.mark.parametrize("offset", [0.0, 3.0, 1e3])
@pytest.mark.parametrize("dims", [(40, 36, 12), (9, 7, 3), (2, 23, 4), (16, 16, 1)])
def test_c_and_f_ordered_pairs_score_alike(dims, offset):
    # each band is scored in one pixel order whatever the cubes' memory
    # layout, so C- and F-ordered copies of a pair give the same report bit
    # for bit, per band included; a dead fiber makes SAM skip a pixel
    ref, est = _random_pair(seed=sum(dims), dims=dims)
    ref, est = ref + offset, est + offset
    ref[0, 1, :] = 0.0
    c_report, f_report = (
        evaluate(np.asarray(ref, order=order), np.asarray(est, order=order),
                 ratio=2, per_band=True).to_dict()
        for order in "CF"
    )
    assert c_report["sam_skipped"] == 1
    assert c_report == f_report

@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(-1000, 1000),
    dims=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4)),
    noise=st.floats(0.0, 0.5),
    sign=st.sampled_from([1.0, -1.0]),
    seed=st.integers(0, 2**31),
)
def test_scores_are_exact_under_power_of_two_scaling(k, dims, noise, sign, seed):
    # a pair times 2^k scores bit for bit as the pair itself, RMSE times 2^k,
    # from 2^-1000 to 2^1000: no square, product or stabilizer under- or
    # overflows
    # a constant reference has no dynamic range, and SSIM's stabilizers fall
    # back to an absolute one
    assume(np.prod(dims) > 1)
    rng = np.random.default_rng(seed)
    ref = sign * rng.uniform(0.2, 1.0, size=dims)
    est = ref * (1.0 + noise * rng.uniform(-1.0, 1.0, size=dims))
    want = evaluate(ref, est, ratio=2, per_band=True).to_dict()
    got = evaluate(np.ldexp(ref, k), np.ldexp(est, k), ratio=2, per_band=True).to_dict()
    want["rmse"] = float(np.ldexp(want["rmse"], k))
    want["per_band"]["rmse"] = np.ldexp(want["per_band"]["rmse"], k).tolist()
    assert got == want


@pytest.mark.parametrize("scale", [1e-165, 1e-160, 1e155, 1e160, 1e300])
def test_scores_hold_at_extreme_magnitudes(scale):
    # the products of unscaled values would under- or overflow here: SSIM
    # read NaN, R-SNR and CC drifted or a zero-norm error was raised
    ref, est = _random_pair(seed=17, dims=(8, 8, 2), noise=0.3)
    want = evaluate(ref, est, ratio=2, per_band=True)
    got = evaluate(ref * scale, est * scale, ratio=2, per_band=True)
    for name in ("rsnr_db", "ssim", "cc", "uiqi", "ergas", "sam_rad"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-15), name
    assert got.rmse / scale == pytest.approx(want.rmse, rel=1e-15)


def _sam_per_pixel(ref, est):
    """Mean angle and skip count from one fiber pair at a time."""
    angles, skipped = [], 0
    for a, b in zip(ref.reshape(-1, ref.shape[2]), est.reshape(-1, est.shape[2])):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0 or nb == 0:
            skipped += 1
            continue
        angles.append(2 * np.arcsin(min(np.linalg.norm(a / na - b / nb) / 2, 1.0)))
    return (float(np.mean(angles)) if angles else 0.0), skipped


@pytest.mark.parametrize("dead", ["estimate", "both", "every", "estimate everywhere"])
def test_sam_skips_dead_fibers_on_either_side(dead):
    ref, est = _random_pair(seed=15, dims=(6, 7, 5), noise=0.3)
    if dead == "estimate":
        est[2, 3, :] = est[0, 6, :] = 0.0
    elif dead == "both":
        ref[1, 1, :] = est[4, 2, :] = 0.0
        ref[5, 6, :] = est[5, 6, :] = 0.0
    elif dead == "every":
        # each pixel is dead on one side or the other
        est[:, :3, :] = 0.0
        ref[:, 3:, :] = 0.0
    else:
        est[...] = 0.0
    report = evaluate(ref, est)
    want, skipped = _sam_per_pixel(ref, est)
    assert report.sam_skipped == skipped
    assert report.sam_rad == pytest.approx(want, rel=1e-13)
    if dead.startswith("every") or dead.endswith("everywhere"):
        assert (report.sam_rad, report.sam_skipped) == (0.0, 42)


def test_per_band_table_with_a_zero_energy_band():
    ref, est = _random_pair(seed=16, dims=(11, 13, 4), noise=0.1)
    ref[:, :, 2] = 0.0
    table = evaluate(ref, est, ratio=2, per_band=True).per_band
    drange = float(ref.max() - ref.min())
    for b in range(ref.shape[2]):
        r, e = ref[:, :, b : b + 1], est[:, :, b : b + 1]
        energy, err = np.sum(r**2), np.sum((r - e) ** 2)
        rsnr = 10 * np.log10(energy / err) if energy else -np.inf
        assert table["rsnr_db"][b] == pytest.approx(rsnr, rel=1e-13)
        assert table["rmse"][b] == pytest.approx(np.sqrt(err / r.size), rel=1e-13)
        assert table["ssim"][b] == pytest.approx(ssim_two_pass(r, e, drange=drange), rel=1e-9)
        assert table["uiqi"][b] == pytest.approx(uiqi_two_pass(r, e), rel=1e-9)
    assert table["rsnr_db"][2] == -np.inf
    assert table["uiqi"][2] == 0.0
