"""Quality metrics for reference/estimate pairs of spectral image cubes.

Conventions (the literature leaves several constants open; these are fixed
here and documented so numbers are comparable across runs of this tool):

* R-SNR   : 10*log10(|ref|_F^2 / |ref - est|_F^2), +inf for an exact match.
* RMSE    : |ref - est|_F / sqrt(I*J*K).
* SAM     : mean over pixels of the angle (radians) between spectral fibers,
            computed as 2*arcsin(|a/|a| - b/|b||/2) for numerical stability;
            fibers with zero norm on either side are skipped and counted.
* ERGAS   : 100/ratio * sqrt(mean_k(rmse_k^2 / mu_k^2)) with mu_k the
            reference band mean; bands with zero mean are skipped.
* CC      : mean over bands of the Pearson correlation of the band slabs;
            zero-variance bands are skipped.
* SSIM    : mean over bands of single-scale SSIM, 8x8 uniform sliding window,
            stabilizers c1=(0.01*D)^2, c2=(0.03*D)^2 with D the global
            dynamic range of the reference.
* UIQI    : mean over bands of the Q index, 10x10 sliding window (stride 1);
            Q is a ratio of second moments, so the variance convention
            (ddof 0 or 1) does not change it.  A window is skipped as
            degenerate when its variance sum or its luminance sum is at
            most 1e-12 of that term's largest value in the band (each term
            against its own scale, so a large common offset does not mask
            the variances).

A score with nothing left to score (CC with every band skipped, a UIQI band
with every window skipped) reads 1 for an exact match and 0 otherwise.

One loop over the bands scores CC, SSIM and UIQI.  Windows shrink to the
image when a spatial axis is smaller than the nominal window.  The window
statistics are computed band by band: both bands are centred on the
reference band's mean, and every window mean of the centred values and their
products is a separable box sum (a window sum down the first axis, then
along the second), O(I*J*w) per band for a w x w window.  Centring keeps the
one-pass variances E[x^2] - E[x]^2 exact to rounding for data on a large
offset.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionError
from .tensors import check_int, ensure_finite

SSIM_WINDOW = 8
UIQI_WINDOW = 10


@dataclass
class MetricReport:
    rsnr_db: float
    ssim: float
    cc: float
    uiqi: float
    rmse: float
    ergas: float
    sam_rad: float
    sam_skipped: int = 0
    per_band: dict = field(default=None, repr=False)

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "per_band"}
        if self.per_band is not None:
            out["per_band"] = {k: np.asarray(v).tolist() for k, v in self.per_band.items()}
        return out


def evaluate(reference, estimate, ratio=4, per_band=False):
    """Score ``estimate`` against ``reference``; both (I, J, K) tensors.

    ``ratio`` is the spatial downsampling factor entering the ERGAS scale.
    ``per_band=True`` attaches the per-band R-SNR, SSIM, UIQI and RMSE curves
    as ``per_band``.  A band fitted exactly reads +inf dB; a zero-energy
    reference band with a nonzero estimate reads -inf dB.
    """
    reference = np.asarray(reference, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if reference.shape != estimate.shape or reference.ndim != 3:
        raise DimensionError(
            f"need two equal-shape 3-d tensors, got {reference.shape} and {estimate.shape}"
        )
    ensure_finite(reference, "reference")
    ensure_finite(estimate, "estimate")
    check_int("ratio", ratio, 1)
    ref_energy = float(np.sum(reference**2))
    if ref_energy == 0.0:
        raise ValueError("reference tensor has zero norm; R-SNR is undefined")

    i, j, k = reference.shape
    sq_err = reference - estimate
    sq_err *= sq_err
    err_energy = float(np.sum(sq_err))
    band_err = np.sum(sq_err, axis=(0, 1))
    band_rmse = np.sqrt(band_err / (i * j))
    del sq_err  # free the cube before _sam allocates its own
    rmse = np.sqrt(err_energy / (i * j * k))

    sam, skipped = _sam(reference, estimate)

    mu = reference.mean(axis=(0, 1))
    live = mu != 0.0
    ergas = (
        100.0 / ratio * float(np.sqrt(np.mean((band_rmse[live] / mu[live]) ** 2)))
        if live.any()
        else 0.0
    )

    drange = float(reference.max() - reference.min()) or 1.0
    band_cc, band_ssim, band_uiqi = [], [], []
    for b in range(k):
        ref, est = reference[:, :, b], estimate[:, :, b]
        corr = _pearson(ref, est)
        if corr is not None:
            band_cc.append(corr)
        band_ssim.append(_ssim_band(ref, est, drange))
        band_uiqi.append(_uiqi_band(ref, est))

    table = None
    if per_band:
        table = {
            "band": np.arange(k),
            "rsnr_db": _db(np.sum(reference**2, axis=(0, 1)), band_err),
            "ssim": np.asarray(band_ssim),
            "uiqi": np.asarray(band_uiqi),
            "rmse": band_rmse,
        }
    return MetricReport(
        rsnr_db=float(_db(ref_energy, err_energy)),
        ssim=float(np.mean(band_ssim)),
        cc=float(np.mean(band_cc)) if band_cc else _exact_score(reference, estimate),
        uiqi=float(np.mean(band_uiqi)),
        rmse=float(rmse),
        ergas=float(ergas),
        sam_rad=sam,
        sam_skipped=skipped,
        per_band=table,
    )


def _db(signal, error):
    """10*log10(signal / error) in dB, elementwise; +inf where the error is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(error == 0, np.inf, 10.0 * np.log10(np.divide(signal, error)))


def _exact_score(ref, est):
    """The score of a pair with nothing to score: 1 for an exact match, else 0."""
    return 1.0 if np.array_equal(ref, est) else 0.0


def _sam(reference, estimate):
    i, j, k = reference.shape
    ref = reference.reshape(i * j, k, order="F")
    est = estimate.reshape(i * j, k, order="F")
    ref_norm = np.linalg.norm(ref, axis=1)
    est_norm = np.linalg.norm(est, axis=1)
    alive = (ref_norm > 0) & (est_norm > 0)
    skipped = int(np.size(ref_norm) - np.count_nonzero(alive))
    if not alive.any():
        return 0.0, skipped
    if skipped:
        ref, est = ref[alive], est[alive]
        ref_norm, est_norm = ref_norm[alive], est_norm[alive]
    gap = ref / ref_norm[:, None]
    gap -= est / est_norm[:, None]
    unit_gap = np.linalg.norm(gap, axis=1)
    angles = 2.0 * np.arcsin(np.clip(0.5 * unit_gap, 0.0, 1.0))
    return float(np.mean(angles)), skipped


def _pearson(ref, est):
    xc = ref.ravel() - ref.mean()
    yc = est.ravel() - est.mean()
    sx = float(np.sqrt(np.sum(xc * xc)))
    sy = float(np.sqrt(np.sum(yc * yc)))
    if sx == 0.0 or sy == 0.0:
        return None
    return float(np.dot(xc, yc) / (sx * sy))


def _box_mean(img, wi, wj):
    """Mean of every wi x wj window: a window sum down axis 0, then along axis 1.

    Each window sum adds shifted slices, so a window costs wi + wj adds, not
    wi * wj, and no partial sum grows past one window's sum, as the prefix
    sums of a cumulative-sum difference would.
    """
    rows = img[: img.shape[0] - wi + 1].copy()
    for s in range(1, wi):
        rows += img[s : s + rows.shape[0]]
    out = rows[:, : rows.shape[1] - wj + 1].copy()
    for s in range(1, wj):
        out += rows[:, s : s + out.shape[1]]
    out /= wi * wj
    return out


def _window_stats(ref, est, width):
    """Means, variances and covariance over every width x width window.

    Both bands are centred on the reference band's mean first.  Variances and
    the covariance do not change under a common shift, but their one-pass form
    E[x^2] - E[x]^2 loses digits in proportion to the square of the offset, so
    only the means get the shift back.
    """
    wi = min(width, ref.shape[0])
    wj = min(width, ref.shape[1])
    shift = ref.mean()
    x = ref - shift
    y = est - shift
    mx = _box_mean(x, wi, wj)
    my = _box_mean(y, wi, wj)
    vx = _box_mean(x * x, wi, wj)
    vx -= mx * mx
    vy = _box_mean(y * y, wi, wj)
    vy -= my * my
    cov = _box_mean(x * y, wi, wj)
    cov -= mx * my
    return mx + shift, my + shift, vx, vy, cov


def _ssim_band(ref, est, drange):
    mx, my, vx, vy, cov = _window_stats(ref, est, SSIM_WINDOW)
    c1 = (0.01 * drange) ** 2
    c2 = (0.03 * drange) ** 2
    num = (2 * mx * my + c1) * (2 * cov + c2)
    den = (mx * mx + my * my + c1) * (vx + vy + c2)
    return float(np.mean(num / den))


def _uiqi_band(ref, est):
    mx, my, vx, vy, cov = _window_stats(ref, est, UIQI_WINDOW)
    # the factored Q form, so an exact match evaluates to exactly 1
    lum_den = mx * mx + my * my
    var_den = vx + vy
    # each term against its own scale: a large common offset inflates the
    # luminance term, which must not mark the variances degenerate; a 1-pixel
    # window has variance exactly 0 and is skipped too
    alive = (var_den > 1e-12 * float(np.max(var_den))) & (
        lum_den > 1e-12 * float(np.max(lum_den))
    )
    if not alive.any():
        return _exact_score(ref, est)
    q = (2 * mx * my)[alive] / lum_den[alive] * (2 * cov)[alive] / var_den[alive]
    return float(np.mean(q))
