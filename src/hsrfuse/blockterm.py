"""Block-term (rank-(L,L,1)) model for spectral images.

A spectral image cube is written as a sum of R terms, each the outer product
of a rank-L abundance map with one endmember spectrum:

    Y[i, j, k] = sum_r maps[i, j, r] * spectra[k, r],   rank(maps[:, :, r]) <= L.

This module holds the factor container, synthetic ground-truth generation,
and the arithmetic checker for the exact-recovery conditions of the coupled
decomposition (known-operator and blind variants).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .tensors import check_int, refold, unfold

# Recovery condition labels, returned verbatim in failure lists.
COND_MSI_PIXELS = "msi_pixels >= L**2 * R"
COND_HSI_PIXELS = "hsi_pixels >= L * R"
COND_MSI_DIVERSITY = "min(msi_rows//L, R) + min(msi_cols//L, R) + min(msi_bands, R) >= 2*R + 2"
COND_HSI_PIXELS_BLIND = "hsi_pixels >= L**2 * R"
COND_HSI_DIVERSITY = "min(hsi_rows//L, R) + min(hsi_cols//L, R) + min(msi_bands, R) >= 2*R + 2"
COND_MSI_BANDS = "msi_bands >= 2"


@dataclass
class BlockTermFactors:
    """Latent factors of a block-term image model.

    maps     : (I, J, R) abundance maps, one spatial slab per term.
    spectra  : (K, R) endmember spectra, one column per term.
    left     : optional (I, L, R) left factors with maps[:,:,r] = left[:,:,r] @ right[:,:,r].T
    right    : optional (J, L, R) right factors.
    """

    maps: np.ndarray
    spectra: np.ndarray
    left: np.ndarray = None
    right: np.ndarray = None

    def __post_init__(self):
        self.maps = np.asarray(self.maps, dtype=float)
        self.spectra = np.asarray(self.spectra, dtype=float)
        if self.maps.ndim != 3 or self.spectra.ndim != 2:
            raise DimensionError("maps must be (I, J, R) and spectra (K, R)")
        if self.maps.shape[2] != self.spectra.shape[1]:
            raise DimensionError(
                f"term count mismatch: {self.maps.shape[2]} maps vs "
                f"{self.spectra.shape[1]} spectra"
            )

    @property
    def dims(self):
        """(I, J, K) of the reconstructed tensor."""
        return (self.maps.shape[0], self.maps.shape[1], self.spectra.shape[0])


def reconstruct(factors):
    """Assemble the (I, J, K) tensor Y[i,j,k] = sum_r maps[i,j,r] spectra[k,r]."""
    return refold(unfold(factors.maps) @ factors.spectra.T, factors.dims)


def random_blockterm(dims, n_terms, term_rank, seed=0, nonneg=True):
    """Draw random factors with every map an exact rank-``term_rank`` product.

    Entries come from uniform(0, 1) when ``nonneg`` (physical regime) and from
    the standard normal otherwise; identical seeds give bit-identical factors.
    Every count is an integer >= 1; anything else raises ValueError naming it.
    """
    i, j, k = (check_int(f"dims[{n}]", d, 1) for n, d in enumerate(dims))
    check_int("n_terms", n_terms, 1)
    check_int("term_rank", term_rank, 1)
    if term_rank > min(i, j):
        raise DimensionError(
            f"term rank {term_rank} exceeds min spatial dim {min(i, j)}"
        )
    rng = np.random.default_rng(seed)
    draw = rng.uniform if nonneg else rng.standard_normal
    left = draw(size=(i, term_rank, n_terms))
    right = draw(size=(j, term_rank, n_terms))
    spectra = draw(size=(k, n_terms))
    # term r of the (R, J, I) product is right_r @ left_r', so its transpose
    # is the F-contiguous (I, J, R) stack that unfolds without a copy
    maps = np.matmul(right.transpose(2, 0, 1), left.transpose(2, 1, 0)).transpose(2, 1, 0)
    return BlockTermFactors(maps=maps, spectra=spectra, left=left, right=right)


@dataclass
class RecoverabilityQuery:
    """Dimensions of a fusion instance plus the model order (R terms, rank L).

    Every count is an integer >= 1, and the HSI is no larger than the MSI in
    either spatial dimension; anything else raises ValueError naming the field.
    """

    msi_rows: int
    msi_cols: int
    hsi_rows: int
    hsi_cols: int
    msi_bands: int
    n_terms: int
    term_rank: int
    blind: bool = False

    def __post_init__(self):
        for name in ("msi_rows", "msi_cols", "hsi_rows", "hsi_cols",
                     "msi_bands", "n_terms", "term_rank"):
            check_int(name, getattr(self, name), 1)
        if self.hsi_rows > self.msi_rows or self.hsi_cols > self.msi_cols:
            # no spatial operator maps an MSI onto a larger HSI (DegradationOps
            # refuses one), so such a query describes no instance
            raise ValueError(
                f"hsi_rows/hsi_cols {self.hsi_rows}x{self.hsi_cols} exceed the MSI size "
                f"{self.msi_rows}x{self.msi_cols}"
            )


@dataclass
class RecoverabilityResult:
    satisfied: bool
    failed_conditions: list = field(default_factory=list)
    conditions: dict = field(default_factory=dict)


def check_recoverability(query):
    """Evaluate the generic exact-recovery conditions for the coupled model.

    Known-operator case: the MSI pixel count must cover L^2*R, the HSI pixel
    count L*R, and the diversity sum over the MSI spatial blocks and MSI bands
    must reach 2R + 2.  Blind case: the HSI pixel count must cover L^2*R, the
    diversity sum is taken over the HSI spatial blocks (still with MSI bands),
    and at least two MSI bands are required.  Every violated condition is
    returned by name.
    """
    q = query
    big_l, big_r = q.term_rank, q.n_terms
    rows, cols = (q.hsi_rows, q.hsi_cols) if q.blind else (q.msi_rows, q.msi_cols)
    diversity = min(rows // big_l, big_r) + min(cols // big_l, big_r) + min(q.msi_bands, big_r)
    if q.blind:
        conditions = {
            COND_HSI_PIXELS_BLIND: q.hsi_rows * q.hsi_cols >= big_l**2 * big_r,
            COND_HSI_DIVERSITY: diversity >= 2 * big_r + 2,
            COND_MSI_BANDS: q.msi_bands >= 2,
        }
    else:
        conditions = {
            COND_MSI_PIXELS: q.msi_rows * q.msi_cols >= big_l**2 * big_r,
            COND_HSI_PIXELS: q.hsi_rows * q.hsi_cols >= big_l * big_r,
            COND_MSI_DIVERSITY: diversity >= 2 * big_r + 2,
        }
    failed = [name for name, ok in conditions.items() if not ok]
    return RecoverabilityResult(
        satisfied=not failed, failed_conditions=failed, conditions=conditions
    )
