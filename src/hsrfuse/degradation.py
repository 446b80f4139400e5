"""Forward degradation from a super-resolution image to its HSI/MSI pair.

The spatial degradation blurs each band with a separable 1-D Gaussian along
each spatial axis and keeps every ``ratio``-th pixel; the spectral degradation
averages contiguous band ranges.  Both are materialized as small dense
matrices: P1 (hsi_rows x sri_rows) and P2 (hsi_cols x sri_cols) act on the two
spatial modes of every slab, PM (msi_bands x sri_bands) acts on every spectral
fiber.  Calibrated i.i.d. Gaussian noise completes the simulation protocol.

Both products are BLAS matrix products on the SRI's own memory: P1 first (one
batched product over the SRI's columns), then P2, and the pixels-by-bands
unfolding times PM'.  An SRI in C order, in F order or in the layout
:func:`~hsrfuse.blockterm.reconstruct` returns (bands fastest, then rows, then
columns) is read without an SRI-sized copy; any other strided SRI still gives
the same result.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .tensors import check_int, check_real, ensure_finite

_RANK_TOL = 1e-10


@dataclass
class BlurSpec:
    """Separable Gaussian blur-and-downsample specification.

    The kernel sigma is a free parameter of the protocol (recovery quality is
    sensitive to it); ``offset`` picks which pixel of each ``ratio`` block the
    downsampler keeps.
    """

    kernel_width: int = 9
    sigma: float = 2.0
    ratio: int = 4
    boundary: str = "circular"
    offset: int = 0

    def __post_init__(self):
        if check_int("kernel_width", self.kernel_width, 1) % 2 == 0:
            raise ValueError("kernel_width must be a positive odd integer")
        if not (math.isfinite(check_real("sigma", self.sigma)) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        check_int("ratio", self.ratio, 1)
        if self.boundary not in ("circular", "reflect"):
            raise ValueError("boundary must be 'circular' or 'reflect'")
        if check_int("offset", self.offset, 0) >= self.ratio:
            raise ValueError("offset must lie in [0, ratio)")


def gaussian_kernel(width, sigma):
    """Normalized 1-D Gaussian taps at integer offsets -w//2 .. w//2."""
    half = (width - 1) // 2
    x = np.arange(-half, half + 1, dtype=float)
    g = np.exp(-0.5 * (x / sigma) ** 2)
    return g / g.sum()


def blur_downsample_matrix(n, spec):
    """Blur-and-downsample operator of shape (ceil(n / ratio), n).

    Row i carries the Gaussian kernel centered at column ``i * ratio + offset``
    (0-based), wrapped or reflected at the boundary.  Every row sums to one.
    """
    if n < spec.kernel_width:
        raise DimensionError(
            f"axis length {n} is shorter than the kernel width {spec.kernel_width}"
        )
    rows = math.ceil(n / spec.ratio)
    kernel = gaussian_kernel(spec.kernel_width, spec.sigma)
    half = (spec.kernel_width - 1) // 2
    row = np.arange(rows)[:, None]
    cols = row * spec.ratio + spec.offset + np.arange(-half, half + 1)
    if spec.boundary == "circular":
        cols %= n
    else:  # symmetric reflection about the array edges has period 2n
        cols %= 2 * n
        cols = np.where(cols < n, cols, 2 * n - 1 - cols)
    op = np.zeros((rows, n))
    # unbuffered and row-major: taps folded onto one column add in tap order
    np.add.at(op, (row, cols), kernel)
    return op


def band_aggregation_matrix(ranges, n_bands):
    """Band aggregation operator: row m uniformly averages the inclusive
    band range ``ranges[m] = (first, last)``."""
    if not ranges:
        raise ValueError("band range list is empty")
    op = np.zeros((len(ranges), n_bands))
    for m, (first, last) in enumerate(ranges):
        if not (0 <= first <= last < n_bands):
            raise ValueError(
                f"band range ({first}, {last}) falls outside [0, {n_bands})"
            )
        op[m, first : last + 1] = 1.0 / (last - first + 1)
    return op


@dataclass
class DegradationOps:
    """The three degradation matrices, validated for full row rank.

    Treated as immutable once constructed; the cached largest singular values
    feed the solver's step-size bounds.
    """

    p1: np.ndarray
    p2: np.ndarray
    pm: np.ndarray

    def __post_init__(self):
        self.p1 = np.atleast_2d(np.asarray(self.p1, dtype=float))
        self.p2 = np.atleast_2d(np.asarray(self.p2, dtype=float))
        self.pm = np.atleast_2d(np.asarray(self.pm, dtype=float))
        self.p1_norm = _check_full_row_rank(self.p1, "p1")
        self.p2_norm = _check_full_row_rank(self.p2, "p2")
        self.pm_norm = _check_full_row_rank(self.pm, "pm")

    @classmethod
    def for_sri(cls, sri_dims, blur, band_ranges):
        """Build the default operators for an SRI of shape ``sri_dims``."""
        i, j, k = sri_dims
        return cls(
            p1=blur_downsample_matrix(i, blur),
            p2=blur_downsample_matrix(j, blur),
            pm=band_aggregation_matrix(band_ranges, k),
        )

    @property
    def hsi_dims(self):
        return (self.p1.shape[0], self.p2.shape[0])


def _check_full_row_rank(mat, name):
    if mat.ndim != 2 or mat.size == 0:
        raise DimensionError(f"{name} must be a nonempty 2-d matrix, got shape {mat.shape}")
    rows, cols = mat.shape
    if rows > cols:
        raise DimensionError(f"{name} must not have more rows than columns, got {mat.shape}")
    ensure_finite(mat, name)
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals[-1] <= _RANK_TOL:
        raise ValueError(f"{name} is row-rank deficient (smallest singular value {svals[-1]:.2e})")
    return float(svals[0])


def _as_sri(sri):
    """``sri`` as an array (a view when it is one already), refused unless 3-d."""
    sri = np.asarray(sri)
    if sri.ndim != 3:
        raise DimensionError(f"SRI must be a 3-d tensor, got shape {sri.shape}")
    return sri


def degrade_spatial(sri, ops):
    """Apply P1 and P2 to the two spatial modes of every band: SRI -> HSI.

    P1 goes first, as one batched product over the (I, K) slab of every SRI
    column, giving a (J, Hi, K) half product; P2 then acts on that half
    product unfolded as (J, Hi*K).  BLAS reads each slab in place when its
    bands or its rows are adjacent in memory, as they are in C order, in F
    order and in the layout of :func:`~hsrfuse.blockterm.reconstruct`, so no
    SRI-sized copy is made.  The HSI comes back in that last layout (bands
    fastest, then rows, then columns).
    """
    sri = _as_sri(sri)
    i, j, k = sri.shape
    if ops.p1.shape[1] != i or ops.p2.shape[1] != j:
        raise DimensionError(
            f"spatial operators {ops.p1.shape}/{ops.p2.shape} do not match image dims {sri.shape}"
        )
    hi, hj = ops.hsi_dims
    half = np.matmul(ops.p1, sri.transpose(1, 0, 2))
    return (ops.p2 @ half.reshape(j, hi * k)).reshape(hj, hi, k).transpose(1, 0, 2)


def degrade_spectral(sri, ops):
    """Apply PM to every spectral fiber: SRI -> MSI.

    The (pixels, K) unfolding times PM', refolded.  Pixels are enumerated in
    whichever order makes the unfolding a view of the SRI (first spatial axis
    fastest for F order and for the layout of
    :func:`~hsrfuse.blockterm.reconstruct`, second fastest for C order), so
    no SRI-sized copy is made; the MSI is refolded in that same order.
    """
    sri = _as_sri(sri)
    i, j, k = sri.shape
    if ops.pm.shape[1] != k:
        raise DimensionError(
            f"spectral operator {ops.pm.shape} does not match band count {k}"
        )
    stride_i, stride_j, _ = sri.strides
    order = "F" if min(i, j) == 1 or stride_j == i * stride_i else "C"
    msi = sri.reshape(i * j, k, order=order) @ ops.pm.T
    return msi.reshape(i, j, -1, order=order)


def check_snr_db(snr_db):
    """Reject a noise level :func:`add_noise` cannot calibrate: NaN, -inf, or
    a finite level whose power ratio 10^(snr_db/10) is not a finite nonzero
    double; return it."""
    if math.isnan(check_real("snr_db", snr_db)) or snr_db == -math.inf:
        raise ValueError(f"snr_db must be a number or +inf, got {snr_db}")
    if math.isfinite(snr_db):
        try:
            ratio = 10.0 ** (float(snr_db) / 10)
        except OverflowError:
            ratio = math.inf
        if not 0.0 < ratio < math.inf:
            raise ValueError(
                f"snr_db must give a finite nonzero power ratio 10^(snr_db/10), got {snr_db}"
            )
    return snr_db


def add_noise(tensor, snr_db, seed=0):
    """Add zero-mean i.i.d. Gaussian noise, rescaled so the realized SNR is
    exactly ``snr_db`` (not just in expectation).  ``snr_db=inf`` returns a copy.

    ``seed`` may be an integer or a numpy Generator.
    """
    tensor = ensure_finite(np.asarray(tensor, dtype=float), "signal tensor")
    check_snr_db(snr_db)
    if math.isinf(snr_db):
        return tensor.copy()
    signal_energy = float(np.sum(np.square(tensor)))
    if signal_energy == 0.0:
        raise ValueError("cannot calibrate noise against an all-zero tensor")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(tensor.shape)
    with np.errstate(divide="ignore", over="ignore"):
        scale = math.sqrt(signal_energy / (np.sum(noise**2) * 10 ** (snr_db / 10)))
    if not 0.0 < scale < math.inf:
        raise ValueError(f"snr_db={snr_db} gives a noise scale of {scale} for this tensor")
    noise *= scale
    noise += tensor
    return noise
