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
            dynamic range of the reference (1 for a constant reference).
* UIQI    : mean over bands of the Q index, 10x10 sliding window (stride 1);
            Q is a ratio of second moments, so the variance convention
            (ddof 0 or 1) does not change it.  A window is skipped as
            degenerate when its variance sum or its luminance sum is at
            most 1e-12 of that term's largest value in the band (each term
            against its own scale, so a large common offset does not mask
            the variances).

A score with nothing left to score (CC with every band skipped, a UIQI band
with every window skipped) reads 1 for an exact match and 0 otherwise.

Scoring runs in band-sized memory.  Both cubes are read one band at a time,
each band times 2^-e, the power of two that brings the pair's largest
magnitude into [0.5, 1).  The scaling is exact, so every score is that of the
unscaled pair (RMSE is scaled back), and no square, product or stabilizer
under- or overflows for data anywhere in the float range.  The scaled bands
are F-ordered whatever the cubes' layout, so every sum runs in one pixel
order and C- and F-ordered cubes score bit for bit alike.  One loop over the
bands scores CC, SSIM and UIQI and accumulates each band's reference energy,
squared error and sum and each pixel's two squared fiber norms; a second loop
accumulates each pixel's unit-fiber gap for SAM.  No cube-sized array is
formed: the scratch is about 25 band-sized (I x J) arrays whatever the band
count, most of them window sums.

Windows shrink to the image when a spatial axis is smaller than the nominal
window.  The window statistics of both widths come from one pass per band:
both bands are centred on the reference band's mean, the centred values and
their products are formed once, and every window sum of both widths is built
from power-of-two sums (a sum over 2^k entries is two sums over 2^(k-1); a
width of 10 is 8 + 2), down the first axis for both widths at once, then
along the second, one width at a time.  A band costs O(I*J*log w) for a
w x w window.  Centring keeps the one-pass variances E[x^2] - E[x]^2 exact to
rounding for data on a large offset.
"""

import math
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
    ref_max = ref_min = 0.0
    if reference.size:
        ref_max, ref_min = float(reference.max()), float(reference.min())
    if ref_max == ref_min == 0.0:
        raise ValueError("reference tensor has zero norm; R-SNR is undefined")

    # every band is scored times 2^-e, which brings the pair's largest
    # magnitude into [0.5, 1); RMSE alone is scaled back
    e = math.frexp(max(ref_max, -ref_min, float(estimate.max()), -float(estimate.min())))[1]
    # a constant reference takes D = 1; capped at 2^64 times the pair's
    # magnitude, where the stabilizers already swamp every window, so that
    # they stay finite
    drange = math.ldexp(ref_max, -e) - math.ldexp(ref_min, -e) or math.ldexp(1.0, min(-e, 64))
    i, j, k = reference.shape
    band_energy, band_err, band_sum = np.empty(k), np.empty(k), np.empty(k)
    # per pixel, the squared norms of the two spectral fibers
    ref_sq = np.zeros_like(reference[:, :, 0])
    est_sq = np.zeros_like(ref_sq)
    band_cc, band_ssim, band_uiqi = [], [], []
    for b, (ref, est) in enumerate(_scaled_bands(reference, estimate, -e)):
        sq = ref * ref
        band_energy[b] = sq.sum()
        ref_sq += sq
        np.multiply(est, est, out=sq)
        est_sq += sq
        np.subtract(ref, est, out=sq)
        sq *= sq
        band_err[b] = sq.sum()
        del sq
        band_sum[b] = ref.sum()
        corr = _pearson(ref, est)
        if corr is not None:
            band_cc.append(corr)
        windows = _window_stats(ref, est)
        band_ssim.append(_ssim_band(next(windows), drange))
        band_uiqi.append(_uiqi_band(next(windows), ref, est))

    sam, skipped = _sam(reference, estimate, -e, ref_sq, est_sq)
    band_rmse = np.sqrt(band_err / (i * j))
    mu = band_sum / (i * j)
    live = mu != 0.0
    ergas = (
        100.0 / ratio * float(np.sqrt(np.mean((band_rmse[live] / mu[live]) ** 2)))
        if live.any()
        else 0.0
    )
    err_energy = float(np.sum(band_err))
    with np.errstate(over="ignore"):  # an RMSE past the float range reads inf
        rmse = float(np.ldexp(np.sqrt(err_energy / (i * j * k)), e))
        band_rmse = np.ldexp(band_rmse, e)

    table = None
    if per_band:
        table = {
            "band": np.arange(k),
            "rsnr_db": _db(band_energy, band_err),
            "ssim": np.asarray(band_ssim),
            "uiqi": np.asarray(band_uiqi),
            "rmse": band_rmse,
        }
    return MetricReport(
        rsnr_db=float(_db(float(np.sum(band_energy)), err_energy)),
        ssim=float(np.mean(band_ssim)),
        cc=float(np.mean(band_cc)) if band_cc else _exact_score(reference, estimate),
        uiqi=float(np.mean(band_uiqi)),
        rmse=rmse,
        ergas=float(ergas),
        sam_rad=sam,
        sam_skipped=skipped,
        per_band=table,
    )


def _scaled_bands(reference, estimate, exponent):
    """Each band of the pair, both times 2^exponent: two new band-sized
    arrays, F-ordered whatever the cubes' layout, so every reduction over a
    band runs in one pixel order and C- and F-ordered cubes score alike."""
    for b in range(reference.shape[2]):
        yield (np.ldexp(reference[:, :, b], exponent, order="F"),
               np.ldexp(estimate[:, :, b], exponent, order="F"))


def _db(signal, error):
    """10*log10(signal / error) in dB, elementwise; +inf where the error is 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(error == 0, np.inf, 10.0 * np.log10(np.divide(signal, error)))


def _exact_score(ref, est):
    """The score of a pair with nothing to score: 1 for an exact match, else 0.

    A cube is compared band by band, so no cube-sized mask is formed.
    """
    ref, est = np.atleast_3d(ref, est)
    return float(all(np.array_equal(ref[:, :, b], est[:, :, b]) for b in range(ref.shape[2])))


def _sam(reference, estimate, exponent, ref_sq, est_sq):
    """Mean spectral angle over the pixels whose fibers are nonzero on both
    sides, and the count of the others.

    ``ref_sq`` and ``est_sq`` hold each pixel's squared fiber norm (of the
    pair times 2^exponent) and are overwritten.  The unit-fiber gap
    accumulates band by band, in the band order of a per-pixel norm.
    """
    alive = (ref_sq > 0) & (est_sq > 0)
    skipped = int(alive.size - np.count_nonzero(alive))
    if skipped == alive.size:
        return 0.0, skipped
    ref_norm = np.sqrt(ref_sq, out=ref_sq)
    est_norm = np.sqrt(est_sq, out=est_sq)
    # a dead pixel's fibers divide to 0 and its angle is dropped below
    ref_norm[~alive] = np.inf
    est_norm[~alive] = np.inf
    gap = np.zeros_like(ref_norm)
    for ref, est in _scaled_bands(reference, estimate, exponent):
        ref /= ref_norm
        est /= est_norm
        ref -= est
        ref *= ref
        gap += ref
    angles = 2.0 * np.arcsin(np.clip(0.5 * np.sqrt(gap), 0.0, 1.0))
    # pixels in unfolding order (down the first axis), the order of a
    # pixels-by-bands mean
    angles = angles.ravel(order="F")
    if skipped:
        angles = angles[alive.ravel(order="F")]
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
    contiguous 1-d add, and a doubling level is kept only while the next
    level or a width's digit still needs it.  A result may be a view of the
    doubling sums, shared with another width of the same size.
    """
    doubled = {0: flat}  # doubled[k][n] sums flat[n + m * step] over m < 2^k
    for k in range(1, max(widths).bit_length()):
        shift = 2 ** (k - 1) * step
        doubled[k] = doubled[k - 1][:-shift] + doubled[k - 1][shift:]
        if not any(w & 2 ** (k - 1) for w in widths):
            del doubled[k - 1]
    sums = []
    for w in widths:
        count = flat.size - (w - 1) * step
        total, start = None, 0
        for k in reversed(range(w.bit_length())):
            if w & 2**k:
                piece = doubled[k][start : start + count]
                total = piece if total is None else total + piece
                start += 2**k * step
        sums.append(total)
    return sums


def _window_stats(ref, est):
    """Means, variances and covariance over every SSIM window, then over
    every UIQI window.

    Yields one (5, ...) stack per window width, read as
    ``mx, my, vx, vy, cov``, each entry an array over the window grid; a
    width's column sums are formed only after the previous stack is
    released.  Both bands are centred on the reference band's mean first.
    Variances and the covariance do not change under a common shift, but
    their one-pass form E[x^2] - E[x]^2 loses digits in proportion to the
    square of the offset, so only the means get the shift back.

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
    strides = moments.strides
    heights = [min(width, i) for width in (SSIM_WINDOW, UIQI_WINDOW)]
    rows = _run_sums(moments.ravel(), j, heights)
    del moments, x, y, xx, yy, xy
    for width, wi in zip((SSIM_WINDOW, UIQI_WINDOW), heights):
        wj = min(width, j)
        (flat,) = _run_sums(rows.pop(0), 1, (wj,))
        # read-only: the two widths may share one array of sums
        sums = as_strided(flat, (5, i - wi + 1, j - wj + 1), strides, writeable=False)
        stats = sums / (wi * wj)
        del flat, sums
        mx, my, vx, vy, cov = stats
        vx -= mx * mx
        vy -= my * my
        cov -= mx * my
        mx += shift
        my += shift
        del mx, my, vx, vy, cov
        yield stats
        del stats


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
