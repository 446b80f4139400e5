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
            a band constant in the reference or the estimate is skipped
            (an exact test: the centred values of a constant band can keep
            a rounding residue of its mean).
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
statistics of both widths come from one pass per band: both bands are
centred on the reference band's mean, the centred values and their products
are formed once, and every window sum of both widths is built from
power-of-two sums (a sum over 2^k entries is two sums over 2^(k-1); a width
of 10 is 8 + 2), down the first axis for both widths at once, then along the
second.  A band costs O(I*J*log w) for a w x w window.  Centring keeps the
one-pass variances E[x^2] - E[x]^2 exact to rounding for data on a large
offset.
"""

from dataclasses import dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
        ssim_stats, uiqi_stats = _window_stats(ref, est)
        band_ssim.append(_ssim_band(ssim_stats, drange))
        band_uiqi.append(_uiqi_band(uiqi_stats, ref, est))

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
    if np.ptp(ref) == 0.0 or np.ptp(est) == 0.0:
        return None
    xc = ref.ravel() - ref.mean()
    yc = est.ravel() - est.mean()
    sx = float(np.sqrt(np.sum(xc * xc)))
    sy = float(np.sqrt(np.sum(yc * yc)))
    # a band that is not constant can still have centred squares that underflow
    if sx == 0.0 or sy == 0.0:
        return None
    return float(np.dot(xc, yc) / (sx * sy))


def _run_sums(flat, step, widths):
    """Sums of every run of ``w`` entries ``step`` apart in 1-d ``flat``, per ``w``.

    Sums over 2^k entries are formed by doubling, two sums over 2^(k-1)
    entries each, and a run of ``w`` entries adds the power-of-two sums of
    w's binary digits, largest first.  So every partial sum is a pairwise sum
    over part of one run, and no partial sum grows past one run's sum, as the
    prefix sums of a cumulative-sum difference would.  Every pass is one
    contiguous 1-d add.  A result may be a view of the doubling sums, shared
    with another width of the same size.
    """
    doubled = [flat]  # doubled[k][n] sums flat[n + m * step] over m < 2^k
    while 2 ** len(doubled) <= max(widths):
        shift = 2 ** (len(doubled) - 1) * step
        doubled.append(doubled[-1][:-shift] + doubled[-1][shift:])
    sums = []
    for w in widths:
        count = flat.size - (w - 1) * step
        total, start = None, 0
        for k in reversed(range(len(doubled))):
            if w & 2**k:
                piece = doubled[k][start : start + count]
                total = piece if total is None else total + piece
                start += 2**k * step
        sums.append(total)
    return sums


def _window_stats(ref, est):
    """Means, variances and covariance over every SSIM and every UIQI window.

    Returns one ``(mx, my, vx, vy, cov)`` tuple per window width, each entry
    an array over the window grid.  Both bands are centred on the reference
    band's mean first.  Variances and the covariance do not change under a
    common shift, but their one-pass form E[x^2] - E[x]^2 loses digits in
    proportion to the square of the offset, so only the means get the shift
    back.

    The five moments (x, y, x^2, y^2, xy) are one C-ordered (5, I, J) stack,
    summed flat: down the first axis is ``step=J``, along the second
    ``step=1``.  The window sum at row r, column c of moment m lands at flat
    index (m*I + r)*J + c, as in the stack; sums that run past a row or a
    moment's end land elsewhere and are never read.
    """
    i, j = ref.shape
    shift = ref.mean()
    moments = np.empty((5, i, j))
    x, y, xx, yy, xy = moments
    np.subtract(ref, shift, out=x)
    np.subtract(est, shift, out=y)
    np.multiply(x, x, out=xx)
    np.multiply(y, y, out=yy)
    np.multiply(x, y, out=xy)
    heights = [min(width, i) for width in (SSIM_WINDOW, UIQI_WINDOW)]
    stats = []
    for width, wi, rows in zip((SSIM_WINDOW, UIQI_WINDOW), heights,
                               _run_sums(moments.ravel(), j, heights)):
        wj = min(width, j)
        (flat,) = _run_sums(rows, 1, (wj,))
        # read-only: the two widths may share one array of sums
        sums = as_strided(flat, (5, i - wi + 1, j - wj + 1), moments.strides, writeable=False)
        mx, my, mxx, myy, mxy = sums / (wi * wj)
        stats.append((mx + shift, my + shift, mxx - mx * mx, myy - my * my, mxy - mx * my))
    return stats


def _ssim_band(stats, drange):
    mx, my, vx, vy, cov = stats
    c1 = (0.01 * drange) ** 2
    c2 = (0.03 * drange) ** 2
    num = (2 * mx * my + c1) * (2 * cov + c2)
    den = (mx * mx + my * my + c1) * (vx + vy + c2)
    return float(np.mean(num / den))


def _uiqi_band(stats, ref, est):
    mx, my, vx, vy, cov = stats
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
