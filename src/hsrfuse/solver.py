"""Coupled fusion solvers: alternating accelerated projected gradient.

Both solvers fit one model.  Over the stacked maps S (pixels x terms, column
r = vec of map r), the spectra C (bands x terms) and a coarse factor T:

    min  1/2 |Yh - T C'|^2 + 1/2 |Ym - S (PM C)'|^2
         + theta sum_r tv(S_r) + eta sum_r schatten(S_r) + lam/2 |C|^2
    s.t. S >= 0, C >= 0,

with Yh/Ym the pixels-by-bands unfoldings of the HSI/MSI.  With known
spatial operators T is tied to (P2 kron P1) S.  In the blind problem T is a
free block that absorbs the unknown spatial operators; it carries the
Schatten penalty eta sum_r schatten(T_r) but no TV term and no nonnegativity
constraint.  One :class:`FusionData` holds either problem (``ops`` is None
when blind), and one objective and one spectra step serve both.

Each block is a triple (step, project, image): ``step`` returns the block
gradient at an anchor and a cheap upper bound L on the block curvature (exact
for the small Gram terms, operator-norm products elsewhere), and ``image`` is
None or a linear map whose value the driver carries.  One driver serves both
solvers: it moves each block 1/L from its anchor, projected onto the
nonnegative orthant if ``project``, so the unaccelerated iteration decreases
the objective monotonically.  Nesterov extrapolation is applied per block by
default; gradients, reweighting and bounds are all evaluated at the anchor.

The objective and every step take the factors (S, C, T) themselves; T is
the coarse block in the blind problem and (P2 kron P1) S otherwise.  The maps
block and the coarse block share one image-block term, the Gram-form fit
X M'M - Y M plus the map penalties, so no full-size residual is built for a
gradient.  Each penalty contributes through its own majorizer in
``regularizers``, which returns the gradient and curvature for one map; the
solver only weights and sums them over the terms.  The maps step of the
known problem adds the HSI fit carried back through (P2 kron P1)'; the
coarse step is the same term without TV.  The only product worth sharing is
(P2 kron P1) S, and the driver carries it as the maps' image: it applies the
operator once per maps update, to the new projected maps, for the objective
after a sweep and the spectra step of the next, and extrapolates the image
with the maps' own coefficient, so the next maps step reads the anchor's
image without applying the operator again (exact up to rounding, since the
operator is linear and the projection comes before it).  An iteration applies
(P2 kron P1) once and its transpose once.  The objective keeps the residual
form: a Gram form cancels |Y|^2 against nearly equal terms and loses its
accuracy, and even its sign, near an exact fit.

Every factor is terms-major: an F-contiguous (rows, R) array, so a column
(one map, one spectrum) is contiguous and the maps' transpose is a
C-contiguous (R, J, I) stack of transposed map images.  Initial factors and
warm starts are copied into that layout, ``apg_step`` and ``extrapolate``
keep it, and every product whose result is a factor-sized array is written
``(small @ big.T).T``, because ``matmul`` returns C order.  So (P2 kron P1)
and its transpose are two matmuls on free views, the per-term images the
regularizers read are contiguous, ``vdot`` sums a residual in place, and the
SRI refolds without a copy.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .degradation import DegradationOps, _check_full_row_rank
from .errors import DimensionError, NumericalError
from .metrics import MetricReport
from .regularizers import (
    SchattenConfig,
    TvConfig,
    schatten_majorizer,
    schatten_value,
    tv_majorizer,
    tv_value,
)
from .tensors import check_int, ensure_finite, refold, unfold

_TINY = np.finfo(float).tiny

DEFAULT_MAX_ITERS = 300
DEFAULT_MAX_ITERS_BLIND = 600


@dataclass
class SolverConfig:
    """Weights, smoothing constants and run controls for both solvers.

    The TV and low-rank weights are uniform across terms.  ``max_iters=None``
    falls back to 300 (known operators) or 600 (blind).  ``rel_tol=0``
    disables the relative-change stopping rule.
    """

    ridge_weight: float = 0.0
    tv_weight: float = 0.0
    lowrank_weight: float = 0.0
    schatten: SchattenConfig = field(default_factory=SchattenConfig)
    tv: TvConfig = field(default_factory=TvConfig)
    max_iters: int = None
    rel_tol: float = 1e-4
    accelerate: bool = True
    seed: int = 0

    def __post_init__(self):
        for name in ("ridge_weight", "tv_weight", "lowrank_weight", "rel_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.max_iters is not None:
            check_int("max_iters", self.max_iters, 0)
        check_int("seed", self.seed, 0)


@dataclass
class FusionReport:
    """Solver output: recovered tensor, factors, and the objective trace."""

    sri: np.ndarray
    maps: np.ndarray
    spectra: np.ndarray
    objective_trace: np.ndarray
    elapsed: np.ndarray
    converged: bool
    metrics: MetricReport = None

    @property
    def iterations(self):
        return len(self.objective_trace) - 1


@dataclass
class FusionData:
    """Unfolded observations plus the known degradation operators.

    Both problems know the spectral operator ``pm``; ``ops`` carries all three
    operators in the known-operator problem and is None in the blind one.
    """

    hsi_mat: np.ndarray
    msi_mat: np.ndarray
    sri_dims: tuple
    hsi_dims: tuple
    pm: np.ndarray
    pm_gram_norm: float
    ops: DegradationOps = None

    @classmethod
    def from_tensors(cls, hsi, msi, ops):
        """Known-operator problem: ``ops`` is a :class:`DegradationOps`."""
        data = cls._unfold(hsi, msi, ops.pm, ops.pm_norm, ops)
        if data.hsi_dims != ops.hsi_dims:
            raise DimensionError(
                f"HSI spatial size {data.hsi_dims} does not match operators {ops.hsi_dims}"
            )
        expected = (ops.p1.shape[1], ops.p2.shape[1])
        if data.sri_dims[:2] != expected:
            raise DimensionError(
                f"MSI spatial size {data.sri_dims[:2]} does not match operators {expected}"
            )
        return data

    @classmethod
    def from_tensors_blind(cls, hsi, msi, pm):
        """Blind problem: only the spectral operator ``pm`` is known."""
        pm = np.atleast_2d(np.asarray(pm, dtype=float))
        return cls._unfold(hsi, msi, pm, _check_full_row_rank(pm, "pm"))

    @classmethod
    def _unfold(cls, hsi, msi, pm, pm_norm, ops=None):
        hsi = ensure_finite(np.asarray(hsi, dtype=float), "HSI")
        msi = ensure_finite(np.asarray(msi, dtype=float), "MSI")
        if hsi.ndim != 3 or msi.ndim != 3:
            raise DimensionError("HSI and MSI must be 3-d tensors")
        if hsi.shape[2] != pm.shape[1]:
            raise DimensionError(
                f"HSI band count {hsi.shape[2]} does not match pm columns {pm.shape[1]}"
            )
        if msi.shape[2] != pm.shape[0]:
            raise DimensionError(
                f"MSI band count {msi.shape[2]} does not match pm rows {pm.shape[0]}"
            )
        return cls(
            hsi_mat=unfold(hsi),
            msi_mat=unfold(msi),
            sri_dims=(msi.shape[0], msi.shape[1], hsi.shape[2]),
            hsi_dims=hsi.shape[:2],
            pm=pm,
            pm_gram_norm=pm_norm**2,
            ops=ops,
        )

    @property
    def ph_gram_norm(self):
        """sigma_max(P2 kron P1)^2 (known-operator problem only)."""
        return (self.ops.p1_norm * self.ops.p2_norm) ** 2


# ---------------------------------------------------------------------------
# structured matrix-free products
# ---------------------------------------------------------------------------

def _apply_ph(mat, p1, p2):
    """(P2 kron P1) @ mat for mat with I*J rows (columns are vec'd images).

    ``mat.T`` read as an (R, J, I) stack holds the transposed images X_r', so
    P1 X_r P2' is computed transposed, as P2 X_r' P1'.  Both reshapes are free
    for a terms-major ``mat``, and the result is terms-major.
    """
    cols = mat.shape[1]
    out = p2 @ mat.T.reshape(cols, p2.shape[1], p1.shape[1]) @ p1.T
    return out.reshape(cols, -1).T


def _apply_ph_t(mat, p1, p2):
    """(P2 kron P1)' @ mat for mat with Ih*Jh rows, as :func:`_apply_ph`."""
    cols = mat.shape[1]
    out = p2.T @ mat.T.reshape(cols, p2.shape[0], p1.shape[0]) @ p1
    return out.reshape(cols, -1).T


def _sq_norm(mat):
    """sigma_max(M)^2 via the small Gram matrix."""
    return _top_eigenvalue(mat.T @ mat)


def _top_eigenvalue(gram):
    if gram.size == 0:
        return 0.0
    return float(max(np.linalg.eigvalsh(gram)[-1], 0.0))


def _maps_as_images(maps, shape):
    """The columns of ``maps`` as an (I, J, R) image stack; a view when
    ``maps`` is terms-major, so writes to it reach ``maps``."""
    i, j = shape
    return maps.reshape(i, j, maps.shape[1], order="F")


def _penalties(cfg, with_tv):
    """The active map penalties as (weight, value, majorizer, params); the
    coarse block (``with_tv`` False) carries no TV term."""
    return [
        term
        for term in (
            (cfg.tv_weight if with_tv else 0.0, tv_value, tv_majorizer, cfg.tv),
            (cfg.lowrank_weight, schatten_value, schatten_majorizer, cfg.schatten),
        )
        if term[0] > 0
    ]


def _penalty_value(maps, shape, cfg, with_tv=True):
    penalties = _penalties(cfg, with_tv)
    total = 0.0
    if not penalties:
        return total
    cube = _maps_as_images(maps, shape)
    for r in range(maps.shape[1]):
        for weight, value, _, params in penalties:
            total += weight * value(cube[:, :, r], params)
    return total


def _map_penalties(maps, shape, cfg, with_tv=True):
    """Regularizer gradient at ``maps`` plus the curvature its majorizers induce.

    Returns (gradient, sum over penalties of weight * max_r curvature_r), each
    per-term pair from the penalty's majorizer.  With no penalty on, both are 0.0.
    """
    penalties = _penalties(cfg, with_tv)
    if not penalties:
        return 0.0, 0.0
    grad = np.zeros(maps.shape, order="F")
    cube = _maps_as_images(maps, shape)
    grad_cube = _maps_as_images(grad, shape)  # a view: each term is written into grad
    curvs = [0.0] * len(penalties)
    for r in range(maps.shape[1]):
        for k, (weight, _, majorizer, params) in enumerate(penalties):
            g, curv = majorizer(cube[:, :, r], params)
            grad_cube[:, :, r] += weight * g
            curvs[k] = max(curvs[k], curv)
    return grad, sum(term[0] * curv for term, curv in zip(penalties, curvs))


# ---------------------------------------------------------------------------
# objectives and block steps: each step returns (gradient, curvature bound)
# ---------------------------------------------------------------------------

def _half_sq_residual(fit, target):
    """1/2 |fit - target|^2, written into ``fit``; a terms-major ``fit`` is
    summed through its C-contiguous transpose, which ``vdot`` reads in place."""
    fit -= target
    return 0.5 * float(np.vdot(fit.T, fit.T))


def objective(maps, spectra, data, cfg, coarse=None):
    """Full objective at (S, C, T).  T defaults to the tied (P2 kron P1) S; in
    the blind problem it is the coarse block and carries its own Schatten term."""
    if coarse is None:
        coarse = _apply_ph(maps, data.ops.p1, data.ops.p2)
    f = _half_sq_residual((spectra @ coarse.T).T, data.hsi_mat)
    f += _half_sq_residual(((data.pm @ spectra) @ maps.T).T, data.msi_mat)
    f += 0.5 * cfg.ridge_weight * float(np.sum(spectra**2))
    f += _penalty_value(maps, data.sri_dims[:2], cfg)
    if data.ops is None:
        f += _penalty_value(coarse, data.hsi_dims, cfg, with_tv=False)
    return f


def spectra_step(spectra, maps, data, cfg, coarse=None):
    """Spectra-block gradient and curvature bound at (S, T), T as in :func:`objective`."""
    if coarse is None:
        coarse = _apply_ph(maps, data.ops.p1, data.ops.p2)
    pm = data.pm
    gram = maps.T @ maps
    coarse_gram = coarse.T @ coarse
    if data.ops is None:
        curv = data.pm_gram_norm * _top_eigenvalue(gram) + _top_eigenvalue(coarse_gram)
    else:
        curv = _top_eigenvalue(gram) * (data.ph_gram_norm + data.pm_gram_norm)
    g = (coarse_gram @ spectra.T).T
    g += pm.T @ (pm @ spectra) @ gram
    g += cfg.ridge_weight * spectra
    g -= data.hsi_mat.T @ coarse
    g -= pm.T @ (data.msi_mat.T @ maps)
    return g, curv + cfg.ridge_weight


def _fit_grad(x, m, target):
    """Gradient in X of 1/2 |target - X M'|^2, in Gram form: X M'M - target M."""
    g = ((m.T @ m) @ x.T).T
    g -= (m.T @ target.T).T
    return g


def _image_block(x, m, target, shape, cfg, with_tv=True):
    """Gradient and curvature bound of an image block X (maps or coarse maps of
    size ``shape``): the fit 1/2 |target - X M'|^2 plus the map penalties,
    whose gradient and curvature are those of their majorizers at X."""
    pen, curv = _map_penalties(x, shape, cfg, with_tv)
    g = _fit_grad(x, m, target)
    g += pen
    return g, _sq_norm(m) + curv


def maps_step(maps, spectra, data, cfg, coarse=None):
    """Maps-block gradient and curvature bound.

    The data gradient is S M'M - Ym M with M = PM C; with known spatial
    operators it adds P_H'(T C'C - Yh C), T = P_H S (computed when ``coarse``
    is None), and the bound |C|^2 |P_H|^2.
    """
    g, l = _image_block(maps, data.pm @ spectra, data.msi_mat, data.sri_dims[:2], cfg)
    if data.ops is not None:
        p1, p2 = data.ops.p1, data.ops.p2
        if coarse is None:
            coarse = _apply_ph(maps, p1, p2)
        g += _apply_ph_t(_fit_grad(coarse, spectra, data.hsi_mat), p1, p2)
        l += _sq_norm(spectra) * data.ph_gram_norm
    return g, l


def coarse_step_blind(coarse, spectra, data, cfg):
    """Coarse-block gradient and curvature bound: HSI fit plus Schatten, no TV."""
    return _image_block(coarse, spectra, data.hsi_mat, data.hsi_dims, cfg, with_tv=False)


# ---------------------------------------------------------------------------
# iteration primitives
# ---------------------------------------------------------------------------

def apg_step(x, grad, step, project=True):
    """One (projected) gradient step: max(x - step*grad, 0) or the unprojected move.

    Returns a new array; (-step)*grad + x equals x - step*grad exactly.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    y = np.multiply(grad, -step)
    y += x
    if project:
        np.maximum(y, 0.0, out=y)
    return y


def extrapolate(x_new, x_old, gamma_old):
    """Nesterov extrapolation; returns the look-ahead point and the new gamma.

    gamma_new = (1 + sqrt(1 + 4 gamma_old^2)) / 2, and the momentum
    coefficient (gamma_old - 1)/gamma_new always lies in [0, 1).
    """
    gamma_new = (1.0 + math.sqrt(1.0 + 4.0 * gamma_old**2)) / 2.0
    x_check = np.subtract(x_new, x_old)
    x_check *= (gamma_old - 1.0) / gamma_new
    x_check += x_new
    return x_check, gamma_new


class _Trace:
    def __init__(self):
        self.values = []
        self.elapsed = []
        self._start = time.perf_counter()

    def record(self, value):
        if not math.isfinite(value):
            raise NumericalError(
                "objective became non-finite; step sizes no longer control the iteration",
                trace=np.asarray(self.values),
                elapsed=np.asarray(self.elapsed),
            )
        self.values.append(value)
        self.elapsed.append(time.perf_counter() - self._start)

    def stalled(self, rel_tol):
        prev, last = self.values[-2], self.values[-1]
        return abs(prev - last) <= rel_tol * abs(prev)


def _run(factors, blocks, value, cfg, max_iters):
    """Block-coordinate driver shared by both solvers.

    Each sweep updates ``factors[b]`` with ``blocks[b] = (step, project,
    image)`` in order.  ``image`` is None or a linear map the driver carries
    with the block: ``images[b] = image(factors[b])`` is taken once per
    update, after projection, and the anchor's image is extrapolated from the
    last two images with the anchor's own coefficient.  ``step(anchor,
    anchor_image, factors, images)`` returns the gradient at the anchor and
    its curvature bound L, the other factors at their current values; the
    block moves 1/L from the anchor, projected onto x >= 0 if ``project``.
    Returns the factors, the trace of ``value(factors, images)`` and whether
    ``cfg.rel_tol`` stopped the run.
    """
    images = [None if image is None else image(x) for x, (_, _, image) in zip(factors, blocks)]
    anchors, anchor_images = list(factors), list(images)
    gammas = [1.0] * len(factors)
    trace = _Trace()
    trace.record(value(factors, images))
    for _ in range(max_iters):
        for b, (step, project, image) in enumerate(blocks):
            grad, lip = step(anchors[b], anchor_images[b], factors, images)
            new = apg_step(anchors[b], grad, 1.0 / max(lip, _TINY), project)
            new_image = None if image is None else image(new)
            if cfg.accelerate:
                if image is not None:
                    anchor_images[b], _ = extrapolate(new_image, images[b], gammas[b])
                anchors[b], gammas[b] = extrapolate(new, factors[b], gammas[b])
            else:
                anchors[b], anchor_images[b] = new, new_image
            factors[b], images[b] = new, new_image
        trace.record(value(factors, images))
        if trace.stalled(cfg.rel_tol):
            return factors, trace, True
    return factors, trace, False


def _report(maps, spectra, data, trace, converged):
    return FusionReport(
        sri=refold((spectra @ maps.T).T, data.sri_dims),
        maps=maps,
        spectra=spectra,
        objective_trace=np.asarray(trace.values),
        elapsed=np.asarray(trace.elapsed),
        converged=converged,
    )


def _init_factor(rng, shape, given, label):
    if given is None:
        return np.asfortranarray(rng.uniform(size=shape))
    arr = np.array(given, dtype=float, order="F")
    if arr.shape != shape:
        raise DimensionError(f"warm start {label} has shape {arr.shape}, expected {shape}")
    return ensure_finite(arr, f"warm start {label}")


# ---------------------------------------------------------------------------
# full solvers
# ---------------------------------------------------------------------------

def _solve(data, n_terms, cfg, init):
    """Setup and run shared by both solvers.

    The blocks are spectra, maps and, in the blind problem (``data.ops`` is
    None), the coarse maps; factors are drawn in the order maps, spectra,
    coarse maps.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    check_int("n_terms", n_terms, 1)
    blind = data.ops is None
    labels = ("maps", "spectra", "coarse maps")[: 3 if blind else 2]
    if cfg.max_iters is not None:
        max_iters = cfg.max_iters
    else:
        max_iters = DEFAULT_MAX_ITERS_BLIND if blind else DEFAULT_MAX_ITERS
    if init is None:
        init = (None,) * len(labels)
    elif len(init) != len(labels):
        raise DimensionError(f"warm start has {len(init)} factors, expected ({', '.join(labels)})")
    i, j, k = data.sri_dims
    shapes = ((i * j, n_terms), (k, n_terms), (math.prod(data.hsi_dims), n_terms))
    rng = np.random.default_rng(cfg.seed)
    maps, spectra, *coarse = [
        _init_factor(rng, shape, given, label) for shape, given, label in zip(shapes, init, labels)
    ]

    # T is the coarse block when blind, else the image (P2 kron P1) S that
    # _run carries with the maps
    if blind:
        ph, coarse_of = None, lambda f, im: f[2]
    else:
        ph, coarse_of = lambda s: _apply_ph(s, data.ops.p1, data.ops.p2), lambda f, im: im[1]
    blocks = [
        (lambda c, _, f, im: spectra_step(c, f[1], data, cfg, coarse_of(f, im)), True, None),
        (lambda s, t, f, im: maps_step(s, f[0], data, cfg, t), True, ph),
        (lambda t, _, f, im: coarse_step_blind(t, f[0], data, cfg), False, None),
    ]
    (spectra, maps, *_), trace, converged = _run(
        [spectra, maps, *coarse], blocks[: len(labels)],
        lambda f, im: objective(f[1], f[0], data, cfg, coarse_of(f, im)), cfg, max_iters,
    )
    return _report(maps, spectra, data, trace, converged)


def fuse(hsi, msi, ops, n_terms, cfg=None, init=None):
    """Recover the super-resolution tensor with known degradation operators.

    ``init`` optionally warm-starts (maps, spectra); otherwise both are drawn
    uniform(0, 1) from ``cfg.seed``.  Returns a :class:`FusionReport` whose
    trace holds the objective at the initializer and after every iteration.
    """
    return _solve(FusionData.from_tensors(hsi, msi, ops), n_terms, cfg, init)


def fuse_blind(hsi, msi, pm, n_terms, cfg=None, init=None):
    """Recover the super-resolution tensor with unknown spatial operators.

    Three-block iteration: spectra and maps are projected onto the
    nonnegative orthant, the coarse block is updated without projection.
    ``init`` optionally warm-starts (maps, spectra, coarse maps), the last an
    (Ih*Jh, n_terms) array; an entry of None is drawn as in :func:`fuse`.  The
    output tensor is rebuilt from (maps, spectra) only; the coarse factors are
    an internal device and are discarded.
    """
    return _solve(FusionData.from_tensors_blind(hsi, msi, pm), n_terms, cfg, init)
