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
default; gradients and bounds are evaluated at the anchor.  The penalties'
majorizers are anchored at the iterate the objective last scored (block
successive upper-bound minimization, Razaviyayn, Hong & Luo 2013; with
extrapolation as in Xu & Yin 2013): without extrapolation that iterate is
the anchor, so the plain iteration is the exact gradient step; with it the
penalty gradient is p W(X) Z, that of the majorizer at X, where Z is the
extrapolated anchor.  Accelerated regularized runs therefore differ from
releases that reweighted at Z.

The objective and every step take the factors (S, C, T) themselves; T is
the coarse block in the blind problem and (P2 kron P1) S otherwise.  The maps
block and the coarse block share one image-block term, the Gram-form fit
X M'M - Y M plus the map penalties, so no full-size residual is built for a
gradient; both products are formed a chunk of rows at a time and added to
the gradient while in cache.  Each penalty contributes through its own
majorizer in ``regularizers``, which gives the penalty value, weights and
curvature of a stack of maps from one factorization per map, and the
majorizer's gradient at any point from the weights; the solver calls each
penalty once on the (R, I, J) stack of a block's maps and weights the
result.  The maps step of the known problem adds the HSI fit carried back
through (P2 kron P1)'; the coarse step is the same term without TV.

Three kinds of products are shared.  The driver carries (P2 kron P1) S as the
maps' image: it applies the operator once per maps update, to the new
projected maps, and extrapolates the image with the maps' own coefficient,
so the next maps step reads the anchor's image without applying the
operator again (exact up to rounding, since the operator is linear and the
projection comes before it).  An iteration applies (P2 kron P1) once and its
transpose once.  And one row-chunked pass per fit term serves both the
objective after a sweep and the spectra step of the next: while a chunk of
(X, Y) is in cache it adds the chunk's residual to 1/2 |X M' - Y|^2 and its
rows to X'X and X'Y, for (S, Ym) and (T, Yh), so an iteration reads each
image once for the objective and the spectra gradient together.  The
objective returns these Grams and the driver hands them to the next sweep.
The objective keeps the residual form: a Gram form cancels |Y|^2 against
nearly equal terms and loses its accuracy, and even its sign, near an exact
fit.  And the objective forms each penalty's majorizer at the iterate it
scores, from the factorization that gives the penalty's value (one eigh
per map for Schatten, one pair of difference images for TV); the driver
hands the weights to the next sweep, whose maps and coarse steps take them
as an argument and only apply them at their anchors.  No step forms a
majorizer of its own.

After the first sweep the iteration allocates no factor-sized array (the
penalties' majorizers still allocate their own stacks of weights and
differences).  The driver owns every factor, anchor and image and a spare
per block, and rotates them: a step writes its gradient into the spare,
``apg_step`` writes the new factor over the gradient, ``extrapolate`` writes
the anchor over the factor it retires, and the old anchor becomes the next
spare.  The steps write their intermediates (the HSI-fit gradient, the
(P2 kron P1) half products, the chunks of the fit passes and fit gradients)
into one :class:`_Work` the solve allocates once.  Initial factors and warm
starts are copied, so no input is written and nothing returned shares
memory with an input.

Every factor is terms-major: an F-contiguous (rows, R) array, so a column
(one map, one spectrum) is contiguous and the maps' transpose is a
C-contiguous (R, J, I) stack of transposed map images.  Initial factors and
warm starts are copied into that layout, ``apg_step`` and ``extrapolate``
keep it, and every product whose result is a factor-sized array is computed
transposed, ``small @ big.T`` into ``out.T``, because ``matmul`` writes C
order.  So (P2 kron P1) and its transpose are two matmuls on free views, the
(R, I, J) stack the regularizers read is a view whose maps are each
contiguous, and the SRI refolds without a copy.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .degradation import DegradationOps, _check_full_row_rank
from .errors import DimensionError, NumericalError
from .regularizers import (
    SchattenConfig,
    TvConfig,
    schatten_majorizer,
    schatten_majorizer_grad,
    tv_majorizer,
    tv_majorizer_grad,
)
from .tensors import check_int, check_real, ensure_finite, refold, unfold

_TINY = np.finfo(float).tiny

DEFAULT_MAX_ITERS = 300
DEFAULT_MAX_ITERS_BLIND = 600


@dataclass
class SolverConfig:
    """Weights, smoothing constants and run controls for both solvers.

    The TV and low-rank weights are uniform across terms.  ``max_iters=None``
    falls back to 300 (known operators) or 600 (blind).  A run stops after a
    sweep that lowers the objective by at most ``rel_tol`` relative (a sweep
    that raises it never stops the run); ``rel_tol=0`` disables the rule.
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
            value = check_real(name, getattr(self, name))
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite nonnegative number, got {value!r}")
        for name, kind in (("schatten", SchattenConfig), ("tv", TvConfig)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(
                    f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        if not isinstance(self.accelerate, (bool, np.bool_)):
            raise ValueError(f"accelerate must be a bool, got {self.accelerate!r}")
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

def _apply_ph(mat, p1, p2, out=None, mid=None):
    """(P2 kron P1) @ mat for mat with I*J rows (columns are vec'd images).

    ``mat.T`` read as an (R, J, I) stack holds the transposed images X_r', so
    P1 X_r P2' is computed transposed, as (P2 X_r') P1': one product with P2
    per term, into ``mid`` (a flat buffer of at least R*Jh*I entries), then
    one with P1' for all terms, into the terms-major ``out``.  Either is
    allocated when None; every reshape is a view.
    """
    cols = mat.shape[1]
    (hi, i), (hj, j) = p1.shape, p2.shape
    out = np.empty((hi * hj, cols), order="F") if out is None else out
    mid = np.empty(cols * hj * i) if mid is None else mid
    mid = mid[: cols * hj * i].reshape(cols, hj, i)
    np.matmul(p2, mat.T.reshape(cols, j, i), out=mid)
    np.matmul(mid.reshape(cols * hj, i), p1.T, out=out.T.reshape(cols * hj, hi))
    return out


def _apply_ph_t(mat, p1, p2, out=None, mid=None):
    """(P2 kron P1)' @ mat for mat with Ih*Jh rows, as :func:`_apply_ph` with
    P2' and P1 (``mid``: at least R*J*Ih entries)."""
    cols = mat.shape[1]
    (hi, i), (hj, j) = p1.shape, p2.shape
    out = np.empty((i * j, cols), order="F") if out is None else out
    mid = np.empty(cols * j * hi) if mid is None else mid
    mid = mid[: cols * j * hi].reshape(cols, j, hi)
    np.matmul(p2.T, mat.T.reshape(cols, hj, hi), out=mid)
    np.matmul(mid.reshape(cols * j, hi), p1, out=out.T.reshape(cols * j, i))
    return out


def _sq_norm(mat):
    """sigma_max(M)^2 via the small Gram matrix."""
    return _top_eigenvalue(mat.T @ mat)


def _top_eigenvalue(gram):
    if gram.size == 0:
        return 0.0
    return float(max(np.linalg.eigvalsh(gram)[-1], 0.0))


def _maps_as_images(maps, shape):
    """The columns of ``maps`` as an (R, I, J) stack of map images; a view,
    so writes to it reach ``maps``."""
    i, j = shape
    return maps.reshape(i, j, maps.shape[1], order="F").transpose(2, 0, 1)


def _penalties(cfg, with_tv):
    """The active map penalties as (weight, majorizer, majorizer gradient,
    params); the coarse block (``with_tv`` False) carries no TV term."""
    return [
        term
        for term in (
            (cfg.tv_weight if with_tv else 0.0, tv_majorizer, tv_majorizer_grad, cfg.tv),
            (cfg.lowrank_weight, schatten_majorizer, schatten_majorizer_grad, cfg.schatten),
        )
        if term[0] > 0
    ]


def _reweight(maps, shape, cfg, with_tv=True):
    """Value of the map penalties at ``maps`` and their majorizers anchored
    there, from one majorizer call per penalty on the stack of maps.

    Returns (value, majorizers) with ``majorizers`` = (terms, curvature):
    one (weight, majorizer gradient, stacked weights) per active penalty, and
    the sum over penalties of weight * max_r curvature_r; (0.0, ([], 0.0))
    with no penalty on.
    """
    stack = _maps_as_images(maps, shape)
    total, terms, curv = 0.0, [], 0.0
    for weight, majorizer, majorizer_grad, params in _penalties(cfg, with_tv):
        value, w, c = majorizer(stack, params)
        total += weight * value
        terms.append((weight, majorizer_grad, w))
        curv += weight * c
    return total, (terms, curv)


def _map_penalties(maps, shape, grad, majorizers):
    """Add the gradient at ``maps`` of the penalties' ``majorizers``, as
    :func:`_reweight` formed them at an anchor (the solver's last scored
    iterate), into ``grad``; return the curvature they induce."""
    terms, curv = majorizers
    stack = _maps_as_images(maps, shape)
    grad_stack = _maps_as_images(grad, shape)  # a view: each term is written into grad
    for weight, majorizer_grad, w in terms:
        grad_stack += weight * majorizer_grad(w, stack)
    return curv


# ---------------------------------------------------------------------------
# objectives and block steps: each step returns (gradient, curvature bound)
# ---------------------------------------------------------------------------

# A fit pass reads a chunk of factor and target rows and writes the chunk's
# residual and a copy of its factor rows: about this many bytes in all, so
# the Grams read them from cache.
_CHUNK_BYTES = 1 << 20


def _chunk_rows(target, n_terms):
    """Rows per chunk of a fit pass over ``target``: at least one, at most all."""
    rows, bands = target.shape
    return min(rows, max(1, _CHUNK_BYTES // (8 * (n_terms + 2 * bands))))


def _chunk_size(target, n_terms):
    """Entries of the scratch buffer a fit pass over ``target`` needs."""
    return _chunk_rows(target, n_terms) * (target.shape[1] + n_terms)


def _fit_pass(x, m, target, chunk=None):
    """1/2 |X M' - Y|^2 with X'X and X'Y, from one row-chunked pass over X, Y.

    Each chunk's residual is formed transposed in the flat buffer ``chunk``
    (:func:`_chunk_size` entries, allocated when None) and summed by ``vdot``
    in place; the Grams are summed chunk by chunk while its rows are in cache.
    X_c'X_c is taken against a copy of X_c, because ``matmul`` hands a product
    of an array with itself to a symmetric rank-k update, which runs this tall,
    narrow shape several times slower than a general product; X'Y is taken
    as X_c'Y_c, which also runs faster than Y_c'X_c.
    """
    rows, bands = target.shape
    n_terms = x.shape[1]
    step = _chunk_rows(target, n_terms)
    chunk = np.empty(_chunk_size(target, n_terms)) if chunk is None else chunk
    half_sq, gram, cross = 0.0, 0.0, 0.0
    for start in range(0, rows, step):
        xc, yc = x[start:start + step], target[start:start + step]
        n = xc.shape[0]
        res = chunk[: n * bands].reshape(bands, n)
        np.matmul(m, xc.T, out=res)
        res -= yc.T
        half_sq += 0.5 * float(np.vdot(res, res))
        x_copy = chunk[step * bands: step * bands + n * n_terms].reshape(n, n_terms, order="F")
        np.copyto(x_copy, xc)
        gram = gram + x_copy.T @ xc
        cross = cross + xc.T @ yc
    return half_sq, (gram, cross)


class _Work:
    """The scratch arrays of one solve, allocated once and rewritten by every
    sweep: the HSI-fit gradient of the known maps step (``coarse_grad``), the
    half products of (P2 kron P1) and its transpose (``mid``), both None when
    blind, and the chunks of the fit passes and of the fit gradients
    (``chunk``)."""

    def __init__(self, data, n_terms):
        i, j, _ = data.sri_dims
        hi, hj = data.hsi_dims
        known = data.ops is not None
        self.coarse_grad = np.empty((hi * hj, n_terms), order="F") if known else None
        self.mid = np.empty(n_terms * max(j * hi, hj * i)) if known else None
        self.chunk = np.empty(max(_chunk_size(data.hsi_mat, n_terms),
                                  _chunk_size(data.msi_mat, n_terms)))


def objective(maps, spectra, data, cfg, coarse, chunk=None):
    """Full objective at (S, C, T), the fit Grams ((T'T, T'Yh), (S'S, S'Ym))
    that :func:`spectra_step` reads, and the penalties' majorizers anchored at
    (S, T) that :func:`maps_step` and :func:`coarse_step_blind` read.

    T is (P2 kron P1) S with known operators, and its majorizers are None; in
    the blind problem it is the coarse block and carries its own Schatten
    term.  Both fits are residual-form passes (:func:`_fit_pass`); each
    penalty's value and majorizer come from one factorization
    (:func:`_reweight`)."""
    f, hsi_grams = _fit_pass(coarse, spectra, data.hsi_mat, chunk)
    msi_fit, msi_grams = _fit_pass(maps, data.pm @ spectra, data.msi_mat, chunk)
    f += msi_fit
    f += 0.5 * cfg.ridge_weight * float(np.sum(spectra**2))
    penalty, maps_majorizers = _reweight(maps, data.sri_dims[:2], cfg)
    f += penalty
    coarse_majorizers = None
    if data.ops is None:
        penalty, coarse_majorizers = _reweight(coarse, data.hsi_dims, cfg, with_tv=False)
        f += penalty
    return f, (hsi_grams, msi_grams), (maps_majorizers, coarse_majorizers)


def spectra_step(spectra, grams, data, cfg):
    """Spectra-block gradient and curvature bound from the fit Grams
    ((T'T, T'Yh), (S'S, S'Ym)) that :func:`objective` returns at (S, T)."""
    (coarse_gram, coarse_cross), (gram, cross) = grams
    pm = data.pm
    if data.ops is None:
        curv = data.pm_gram_norm * _top_eigenvalue(gram) + _top_eigenvalue(coarse_gram)
    else:
        curv = _top_eigenvalue(gram) * (data.ph_gram_norm + data.pm_gram_norm)
    g = (coarse_gram @ spectra.T).T
    g += pm.T @ (pm @ spectra) @ gram
    g += cfg.ridge_weight * spectra
    g -= coarse_cross.T
    g -= pm.T @ cross.T
    return g, curv + cfg.ridge_weight


def _add_fit_grad(x, m, target, out, chunk):
    """Add the gradient in X of 1/2 |target - X M'|^2, in Gram form
    X M'M - target M, into the terms-major ``out``, a chunk of rows at a time:
    both products of a chunk are formed in the flat buffer ``chunk`` and added
    while they are in cache."""
    mtm = m.T @ m
    rows, n_terms = out.shape
    step = max(1, chunk.size // n_terms)
    for start in range(0, rows, step):
        part = out[start:start + step]
        prod = chunk[: part.size].reshape(n_terms, part.shape[0])
        np.matmul(mtm, x[start:start + step].T, out=prod)
        part += prod.T
        np.matmul(m.T, target[start:start + step].T, out=prod)
        part -= prod.T
    return out


def _image_block(x, m, target, shape, majorizers, out, chunk):
    """Gradient, added into ``out``, and curvature bound of an image block X
    (maps or coarse maps of size ``shape``): the fit 1/2 |target - X M'|^2 plus
    the map penalties, whose gradient and curvature are those of their
    ``majorizers`` at X."""
    _add_fit_grad(x, m, target, out, chunk)
    curv = _map_penalties(x, shape, out, majorizers)
    return out, _sq_norm(m) + curv


def maps_step(maps, spectra, data, majorizers, coarse=None, out=None, work=None):
    """Maps-block gradient and curvature bound.

    The data gradient is S M'M - Ym M with M = PM C; with known spatial
    operators it adds P_H'(T C'C - Yh C), T = P_H S given as ``coarse``, and
    the bound |C|^2 |P_H|^2.  The penalties enter through ``majorizers``, the
    maps' entry of those :func:`objective` returns; anchored at ``maps``, the
    gradient is the objective's.  The gradient is written into ``out`` and
    the intermediates into ``work`` (a :class:`_Work`); either is allocated
    when None.
    """
    out = np.empty(maps.shape, order="F") if out is None else out
    work = _Work(data, maps.shape[1]) if work is None else work
    if data.ops is None:
        out.fill(0.0)
        l_hsi = 0.0
    else:
        # the HSI term is written over out first: P_H' has no form that adds
        work.coarse_grad.fill(0.0)
        hsi_grad = _add_fit_grad(coarse, spectra, data.hsi_mat, work.coarse_grad, work.chunk)
        _apply_ph_t(hsi_grad, data.ops.p1, data.ops.p2, out, work.mid)
        l_hsi = _sq_norm(spectra) * data.ph_gram_norm
    g, l = _image_block(maps, data.pm @ spectra, data.msi_mat, data.sri_dims[:2], majorizers,
                        out, work.chunk)
    return g, l + l_hsi


def coarse_step_blind(coarse, spectra, data, majorizers, out=None, work=None):
    """Coarse-block gradient and curvature bound: HSI fit plus Schatten, no
    TV; ``majorizers`` (the coarse entry of those :func:`objective` returns),
    ``out`` and ``work`` as in :func:`maps_step`."""
    out = np.empty(coarse.shape, order="F") if out is None else out
    work = _Work(data, coarse.shape[1]) if work is None else work
    out.fill(0.0)
    return _image_block(coarse, spectra, data.hsi_mat, data.hsi_dims, majorizers, out,
                        work.chunk)


# ---------------------------------------------------------------------------
# iteration primitives
# ---------------------------------------------------------------------------

def apg_step(x, grad, step, project=True):
    """One (projected) gradient step: max(x - step*grad, 0) or the unprojected move.

    The step is written into ``grad``, which is returned; (-step)*grad + x
    equals x - step*grad exactly.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    grad *= -step
    grad += x
    if project:
        np.maximum(grad, 0.0, out=grad)
    return grad


def extrapolate(x_new, x_old, gamma_old):
    """Nesterov extrapolation; returns the look-ahead point and the new gamma.

    gamma_new = (1 + sqrt(1 + 4 gamma_old^2)) / 2, and the momentum
    coefficient (gamma_old - 1)/gamma_new always lies in [0, 1).  The
    look-ahead point is written into ``x_old``, which must not be ``x_new``;
    (x_old - x_new) * -coef is (x_new - x_old) * coef exactly.
    """
    gamma_new = (1.0 + math.sqrt(1.0 + 4.0 * gamma_old**2)) / 2.0
    x_old -= x_new
    x_old *= (1.0 - gamma_old) / gamma_new
    x_old += x_new
    return x_old, gamma_new


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
        """Whether the last sweep lowered the objective by at most ``rel_tol``
        relative; a sweep that raised it never counts as stalled."""
        prev, last = self.values[-2], self.values[-1]
        return 0.0 <= prev - last <= rel_tol * abs(prev)


def _run(factors, blocks, value, cfg, max_iters):
    """Block-coordinate driver shared by both solvers.

    Each sweep updates ``factors[b]`` with ``blocks[b] = (step, project,
    image)`` in order.  ``image`` is None or a linear map the driver carries
    with the block: ``images[b] = image(factors[b], out)`` is taken once per
    update, after projection, and the anchor's image is extrapolated from the
    last two images with the anchor's own coefficient.  ``value(factors,
    images)`` returns the objective and the Grams and majorizers it formed on
    the way; ``step(anchor, anchor_image, factors, grams, majorizers, out)``
    returns the gradient at the anchor and its curvature bound L, the other
    factors at their current values and ``grams`` and ``majorizers`` those
    of the last objective.  So the Grams hold for the factors no
    earlier block of the sweep has moved, and each block's majorizers are
    anchored at the block's last scored iterate, the point its anchor is
    extrapolated from (the anchor itself without extrapolation).  The block
    moves 1/L from the anchor, projected onto x >= 0 if ``project``.

    The driver owns three arrays per block (the factor, the anchor and a
    spare) and two per image, and rotates them: ``step`` may write the
    gradient into the spare ``out``, ``apg_step`` writes the new factor over
    the gradient, ``image`` writes the new image over the anchor's image
    (already read), and ``extrapolate`` writes each anchor over the factor or
    image it retires; the old anchor is the next spare.  Returns the factors,
    the trace of objective values and whether ``cfg.rel_tol`` stopped the run.
    """
    images = [None if image is None else image(x, None)
              for x, (_, _, image) in zip(factors, blocks)]
    anchors = [x.copy(order="K") for x in factors]
    anchor_images = [None if im is None else im.copy(order="K") for im in images]
    spares = [np.empty_like(x) for x in factors]
    gammas = [1.0] * len(factors)
    trace = _Trace()
    f, grams, majorizers = value(factors, images)
    trace.record(f)
    for _ in range(max_iters):
        for b, (step, project, image) in enumerate(blocks):
            grad, lip = step(anchors[b], anchor_images[b], factors, grams, majorizers, spares[b])
            new = apg_step(anchors[b], grad, 1.0 / max(lip, _TINY), project)
            new_image = None if image is None else image(new, anchor_images[b])
            if cfg.accelerate:
                spares[b] = anchors[b]
                if image is not None:
                    anchor_images[b], _ = extrapolate(new_image, images[b], gammas[b])
                anchors[b], gammas[b] = extrapolate(new, factors[b], gammas[b])
            else:
                spares[b] = factors[b]
                anchors[b], anchor_images[b] = new, new_image
            factors[b], images[b] = new, new_image
        f, grams, majorizers = value(factors, images)
        trace.record(f)
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

def _blocks(data, cfg, n_terms):
    """The blocks of ``data``'s problem and its objective, as :func:`_run`
    takes them: spectra, maps and, when blind, the coarse maps, all writing
    into one :class:`_Work`.  T is the coarse block when blind, else the image
    (P2 kron P1) S that the driver carries with the maps."""
    work = _Work(data, n_terms)
    if data.ops is None:
        ph, coarse_of = None, lambda f, im: f[2]
    else:
        p1, p2 = data.ops.p1, data.ops.p2
        ph, coarse_of = lambda s, out: _apply_ph(s, p1, p2, out, work.mid), lambda f, im: im[1]
    blocks = [
        (lambda c, _, f, grams, major, out: spectra_step(c, grams, data, cfg), True, None),
        (lambda s, t, f, grams, major, out: maps_step(s, f[0], data, major[0], t, out, work),
         True, ph),
        (lambda t, _, f, grams, major, out: coarse_step_blind(t, f[0], data, major[1], out, work),
         False, None),
    ]
    return (blocks[: 3 if data.ops is None else 2],
            lambda f, im: objective(f[1], f[0], data, cfg, coarse_of(f, im), work.chunk))


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

    # the blocks alone hold the solve's scratch arrays, so these are freed
    # before the report allocates the SRI
    (spectra, maps, *_), trace, converged = _run(
        [spectra, maps, *coarse], *_blocks(data, cfg, n_terms), cfg, max_iters
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
