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

Both solvers run on unit-scale data and start from it.  Setup divides both
images by s, the RMS of the MSI: the weights, ``tau``, ``epsilon`` and the
ridge act on unit-RMS data, and scaling both images by a scales the SRI by a
(bit for bit when a is a power of two and every scaled entry a normal
double, since every rounding scales with it: s is 2^e times the RMS of the
MSI times 2^-e, whose largest magnitude is in [0.5, 1), so no square in it
overflows or underflows).  Every factor of the start is derived from the
scaled data (:func:`_solve`): the spectra C by successive projection (SPA)
on the HSI pixels (:func:`_spa`), the maps S by projected gradient steps on
the MSI fit at C, and, blind, T by gradient steps on the HSI fit at C, all
through the steps and the extrapolation the sweeps use (:func:`_fit_steps`);
nothing is drawn at random.  SPA assumes that pure pixels exist; on a scene
without them it picks the most extreme pixels, and the sweeps carry the fit
from there.  The objective trace is the unit-scale problem's.  The returned
spectra are multiplied back by s, so they are in the images' units and the
maps are unit-free, and the SRI is formed once, from them.

Both problems have the same three blocks, C, S and T, and one driver,
:func:`_sweeps`, moves them in that order each sweep.  It is a stream: it
yields the objective, the fit and the factors C and S at the start and after
every sweep, and it never stops; :func:`_solve` records the trace and
applies the stop rules to the records, and closes the stream.  The factors a
record holds are the driver's own, valid until the next sweep, which may
write them.  Each block step returns its gradient and L, a cheap upper bound
on the block curvature (exact for the small Gram terms, operator-norm
products elsewhere), and the driver hands both to :func:`apg_step`, which
moves C and S 1/L from their anchors, projected onto the nonnegative
orthant, so the unaccelerated iteration decreases the objective
monotonically.  The blind T takes the same step without projection; the tied
T is (P2 kron P1) of the new maps.  Nesterov extrapolation, one momentum per
sweep for every block, is on by default; gradients and bounds are evaluated
at the anchor.  The tied T's anchor is then the image of the maps' anchor,
since the operator is linear, so the maps step reads it without applying the
operator.  The penalties' majorizers are anchored at the iterate the
objective last scored (block successive upper-bound minimization,
Razaviyayn, Hong & Luo 2013; with extrapolation as in Xu & Yin 2013):
without extrapolation that iterate is the anchor, so the plain iteration is
the exact gradient step; with it the penalty gradient is p W(X) Z, that of
the majorizer at X, where Z is the extrapolated anchor.

Three rules end a run, each read after every sweep in this order, and the
first that holds names the stop: with no TV or Schatten penalty, the fit
1/2 |Yh - T C'|^2 + 1/2 |Ym - S (PM C)'|^2 is at most half the noise energy
of the two images (Morozov's discrepancy principle, 1966; an unpenalized fit
that goes on fits the noise, and its error grows); the sweep lowered the
objective by at most ``rel_tol`` relative (a sweep that raised it never
counts); the run has taken ``max_iters`` sweeps.  So a sweep that stalls at
the cap reports ``rel_tol``, and ``max_iters=0`` records the start alone.
``rel_tol=0`` turns off the first two rules, so the run takes exactly
``max_iters`` sweeps.  Each image's noise energy is read at setup from the
eigenvalues of its band Gram beyond the R-dimensional signal subspace
(:func:`_noise_energy`); a penalized run keeps the other two rules.  A
non-finite objective, a Gram whose eigendecomposition fails because it is no
longer finite, or an SRI beyond the largest double in the images' units
raises :class:`NumericalError` with the trace recorded so far.

The objective and every step take the factors (S, C, T) themselves; T is
the coarse block in the blind problem and (P2 kron P1) S otherwise.  Every
block's fit gradient is :func:`_fit_grad`, the Gram form X M'M - Y M of
1/2 |Y - X M'|^2, so no full-size residual is built for a gradient.  The
maps and coarse blocks share one image-block term, that fit plus the map
penalties, with M'M formed once per step for the gradient and the bound; the
spectra step takes it of each fit term by the chain rule.  Each penalty
contributes through its own majorizer in ``regularizers``, which gives the
penalty value, weights and curvature of a stack of maps from one
factorization per map, and the majorizer's gradient at any point from the
weights; the solver calls each penalty once on the (R, I, J) stack of a
block's maps and weights the result.  The known maps step adds the tied HSI
term to the MSI block's gradient: the coarse step's fit term, without
penalties, carried back through (P2 kron P1)'.

Products are shared.  An iteration applies (P2 kron P1) once, to the new
maps for the tied T, and its transpose once, in the maps gradient; both
are :func:`_apply_ph`, given P1' and P2' for the transpose.  And one pass
per fit term serves both the objective after a sweep and the spectra step of
the next: it forms the Grams X'X and X'Y, for (S, Ym) and (T, Yh), and
scores 1/2 |X M' - Y|^2 from them, with no residual, as
1/2 (|Y|^2 - 2 <X'Y, M'> + <X'X, M'M>), with |Y|^2, each unit-scale image's
energy, formed once per solve.  The objective returns these Grams and the
driver hands them to the next sweep.  The Gram form cancels |Y|^2 against
nearly equal terms, so its rounding error is a few ulps of |Y|^2 whatever
the fit, and near an exact fit it loses its accuracy and even its sign.  So
a term whose Gram-form value falls below 1e-5 |Y|^2 (a fit above ~50 dB,
where that rounding could exceed ~1e-11 of the value) is scored from its
residual instead.  The iteration reads the objective's value only in its
stop rules, so the iterates do not depend on which form scored a sweep.
And the objective forms each penalty's majorizer at the iterate it scores,
from the factorization that gives the penalty's value (one eigh per map for
Schatten, one pair of difference images for TV); the driver hands the
weights to the next sweep, whose maps and coarse steps take them as an
argument and only apply them at their anchors.  No step forms a majorizer of
its own.

Every product allocates its result as a plain numpy expression: a scratch
buffer shared by the products and a spare gradient per block, rotated by
the driver, gave the same traces bit for bit and ran no faster (median
13.8 against 13.4 ms per sweep of 100-sweep solves at 256x256x128, six
alternated pairs, 2-vCPU VM).  Each is a whole-array BLAS product: passes
over cache-sized blocks of rows ran no faster with two BLAS threads (13.7
against 13.9 ms per sweep), though about a fifth faster with one.  The
start alone runs by blocks of rows, on every instance (:func:`_fit_steps`):
a sweep reads each row of a factor once, but the start's fit steps revisit
it at every step, so a block of rows kept in L2 for all of them about halved
the start when it took 100 plain steps (61 against 108 ms at 65536x6 with
two BLAS threads, 64 against 127 with one).  Its steps take the sweeps'
momentum, and 26 of them fit at least as closely as those 100 did (Beck &
Teboulle 2009: accelerated steps reach in k what plain ones reach in about
k^2/4), in 24 ms at 65536x6 with either thread count.
A step's gradient is a fresh array, so ``apg_step`` writes the new factor
over it and ``extrapolate`` writes the next anchor over the factor it
retires.  No step writes its input and the start is derived into fresh
arrays, so no input is written and nothing returned shares memory with an
input.

Every factor is terms-major: an F-contiguous (rows, R) array, so a column
(one map, one spectrum) is contiguous and the maps' transpose is a
C-contiguous (R, J, I) stack of transposed map images.  The start's
factors are formed in that layout, ``apg_step`` and ``extrapolate`` keep
it, and every product whose result is a factor-sized array is computed
transposed, as ``(small @ big.T).T``, because ``matmul`` returns C order.
So (P2 kron P1) and its transpose are two matmuls on free views, the
(R, I, J) stack the regularizers read is a view whose maps are each
contiguous, and the SRI refolds without a copy.
"""

import math
import time
from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import cached_property

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
# FusionData refuses images whose RMS values differ by more than 2^this
_SCALE_LOG2_LIMIT = 240

DEFAULT_MAX_ITERS = 300


@dataclass
class SolverConfig:
    """Weights, smoothing constants and run controls for both solvers.

    The TV and low-rank weights are uniform across terms.  The weights, the
    smoothing constants (``tau``, ``epsilon``) and the ridge act on the
    images divided by the RMS of the MSI, that is on unit-RMS data, so their
    meaning does not depend on the images' unit.  ``max_iters=None``
    falls back to ``DEFAULT_MAX_ITERS`` for both solvers.  A run stops after a
    sweep that lowers the objective by at most ``rel_tol`` relative (a sweep
    that raises it never stops the run).  A run with neither TV nor Schatten
    weight (the ridge does not count) also stops after the first sweep whose
    fit reaches the noise level the data show (see :func:`_noise_energy`):
    without a penalty nothing else keeps the fit from fitting the noise.
    ``rel_tol=0`` disables both rules, so the run takes exactly ``max_iters``
    sweeps.  ``accelerate`` turns the sweeps' Nesterov extrapolation on or
    off; the data-derived start takes its fit steps with momentum either way,
    so both settings start from the same factors.  ``seed`` is accepted and
    validated but has no effect: the solvers start from the data and draw
    nothing at random.
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
    """Solver output: recovered tensor, factors, and the objective trace.

    ``elapsed`` holds the seconds from the start of the solve, the
    data-derived start included, to each trace entry.  ``stop_reason`` is
    ``"noise_level"``, ``"rel_tol"`` or ``"max_iters"``, whichever rule ended
    the run.  ``noise_energy`` holds the (HSI, MSI) noise energies the
    noise-level rule compared the fit with, in the images' units, or None
    when the rule was off.  ``data_scale`` is the RMS of the MSI, which both
    images were divided by for the solve: the spectra are in the images'
    units and the maps are unit-free, but the objective trace is the
    unit-scale problem's (times ``data_scale**2`` for the images' units).
    """

    sri: np.ndarray
    maps: np.ndarray
    spectra: np.ndarray
    objective_trace: np.ndarray
    elapsed: np.ndarray
    stop_reason: str
    noise_energy: tuple = None
    data_scale: float = 1.0

    @property
    def iterations(self):
        return len(self.objective_trace) - 1

    @property
    def converged(self):
        """Whether a stop rule, not the iteration cap, ended the run."""
        return self.stop_reason != "max_iters"


@dataclass
class FusionData:
    """Unfolded observations plus the known degradation operators.

    Both problems know the spectral operator ``pm``; ``ops`` carries all three
    operators in the known-operator problem and is None in the blind one.

    A pair whose RMS values differ by more than 2^240
    (``_SCALE_LOG2_LIMIT``) either way is refused, because the solve's
    products cannot hold it.  At unit MSI scale let the HSI's RMS be rho.
    The start's spectra are HSI pixels, of order rho, so the maps that fit
    the MSI are of order 1/rho, and with known operators so is the coarse
    factor P_H S.  The spectra step then fits the HSI through it, which
    takes the spectra to order rho^2, and the maps step forms
    (PM C)'(PM C), of order rho^4: the largest product the solve forms (on
    a 16x16x12 instance its largest entry read 2^(4 log2 rho + 1) for rho
    from 2^60 to 2^240).  A double holds 2^1024, so log2 rho must stay
    below 256 (``fuse`` fails at 2^256 there); the limit 240 leaves a factor
    2^64 for the sums over pixels and bands and for entries above the RMS.
    The refusal is symmetric: there, the runs with the HSI 2^-200 to 2^-500
    times the MSI all stopped alike, and at 2^-600 they stopped elsewhere.
    """

    hsi_mat: np.ndarray
    msi_mat: np.ndarray
    sri_dims: tuple
    hsi_dims: tuple
    pm: np.ndarray
    pm_gram_norm: float
    ops: DegradationOps = None

    @cached_property
    def _energies(self):
        """|Yh|^2 and |Ym|^2, which the Gram-form fits start from
        (:func:`_fit_pass`).  Formed on first use; ``dataclasses.replace``
        builds a new instance, so the value never outlives the matrices."""
        # in memory order: a view of a contiguous matrix of either layout
        flats = self.hsi_mat.ravel(order="K"), self.msi_mat.ravel(order="K")
        return tuple(float(flat @ flat) for flat in flats)

    @classmethod
    def from_tensors(cls, hsi, msi, ops):
        """Known-operator problem: ``ops`` is a :class:`DegradationOps`."""
        if not isinstance(ops, DegradationOps):
            raise ValueError(f"ops must be a DegradationOps, got {type(ops).__name__}")
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
        for label, image in (("HSI", hsi), ("MSI", msi)):
            # the solvers scale by the MSI's RMS and start from HSI pixels
            if not image.any():
                raise ValueError(f"{label} is all zero: there is nothing to fuse")
        if hsi.shape[2] != pm.shape[1]:
            raise DimensionError(
                f"HSI band count {hsi.shape[2]} does not match pm columns {pm.shape[1]}"
            )
        if msi.shape[2] != pm.shape[0]:
            raise DimensionError(
                f"MSI band count {msi.shape[2]} does not match pm rows {pm.shape[0]}"
            )
        (hsi_rms, hsi_e), (msi_rms, msi_e) = _rms(hsi), _rms(msi)
        if abs(math.log2(hsi_rms / msi_rms) + hsi_e - msi_e) > _SCALE_LOG2_LIMIT:
            raise ValueError(
                f"HSI RMS {math.ldexp(hsi_rms, hsi_e):.6g} and MSI RMS "
                f"{math.ldexp(msi_rms, msi_e):.6g} differ by more than 2^{_SCALE_LOG2_LIMIT}: "
                "the solve's products cannot hold images this far apart in scale"
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


# ---------------------------------------------------------------------------
# structured matrix-free products
# ---------------------------------------------------------------------------

def _apply_ph(mat, p1, p2):
    """(P2 kron P1) @ mat for mat with P1.shape[1]*P2.shape[1] rows (columns
    are vec'd images); given P1' and P2' it is the transpose product.

    ``mat.T`` read as an (R, J, I) stack holds the transposed images X_r', so
    P1 X_r P2' is computed transposed, as (P2 X_r') P1': one product with P2
    per term, then one with P1' for all terms, whose C-order result read
    transposed is the terms-major product.  Every reshape of a terms-major
    ``mat`` is a view.
    """
    cols = mat.shape[1]
    (hi, i), (hj, j) = p1.shape, p2.shape
    mid = p2 @ mat.T.reshape(cols, j, i)
    return (mid.reshape(cols * hj, i) @ p1.T).reshape(cols, hi * hj).T


def _rms(mat):
    """The RMS of a nonzero array as (r, e), the RMS being r * 2^e: r is read
    at 2^-e, where the largest magnitude is in [0.5, 1), so no square in it
    overflows or underflows."""
    e = math.frexp(max(float(mat.max()), -float(mat.min())))[1]
    return float(np.linalg.norm(np.ldexp(mat, -e))) / math.sqrt(mat.size), e


def _top_eigenvalue(gram):
    """sigma_max(M)^2 of any M whose Gram M'M is ``gram``."""
    return float(max(np.linalg.eigvalsh(gram)[-1], 0.0))


def _noise_energy(mat, n_terms):
    """Noise energy |N|^2 of a pixels-by-bands image Y = X + N whose signal X
    spans R = ``n_terms`` dimensions of its K bands, read from the band Gram
    beyond that subspace (as HySime, Bioucas-Dias & Nascimento 2008): white
    noise adds |N|^2/K to every eigenvalue of Y'Y, and the K - R smallest
    hold nothing else, so K times their mean, clamped at 0.  Needs K > R."""
    bands = mat.shape[1]
    tail = np.linalg.eigvalsh(mat.T @ mat)[: bands - n_terms]
    return max(bands * float(np.mean(tail)), 0.0)


def _maps_as_images(maps, shape):
    """The columns of ``maps`` as an (R, I, J) stack of map images; a view,
    so writes to it reach ``maps``."""
    i, j = shape
    return maps.reshape(i, j, maps.shape[1], order="F").transpose(2, 0, 1)


def _reweight(maps, shape, cfg, with_tv=True):
    """Value of the map penalties at ``maps`` and their majorizers anchored
    there, from one majorizer call per penalty on the stack of maps; the
    coarse block (``with_tv`` False) carries no TV term.

    Returns (value, majorizers) with ``majorizers`` = (terms, curvature):
    one (weight, majorizer gradient, stacked weights) per active penalty, and
    the sum over penalties of weight * max_r curvature_r; (0.0, ([], 0.0))
    with no penalty on.
    """
    stack = _maps_as_images(maps, shape)
    total, terms, curv = 0.0, [], 0.0
    for weight, majorizer, majorizer_grad, params in (
        (cfg.tv_weight if with_tv else 0.0, tv_majorizer, tv_majorizer_grad, cfg.tv),
        (cfg.lowrank_weight, schatten_majorizer, schatten_majorizer_grad, cfg.schatten),
    ):
        if weight <= 0:
            continue
        value, w, c = majorizer(stack, params)
        total += weight * value
        terms.append((weight, majorizer_grad, w))
        curv += weight * c
    return total, (terms, curv)


# ---------------------------------------------------------------------------
# objectives and block steps: each step returns (gradient, curvature bound)
# ---------------------------------------------------------------------------

# a Gram-form fit below this share of |Y|^2 is scored from its residual
_GRAM_FLOOR = 1e-5


def _fit_pass(x, m, target, energy):
    """1/2 |X M' - Y|^2 with X'X and X'Y, given ``energy`` = |Y|^2.

    The value is the Gram form 1/2 (|Y|^2 - 2 <X'Y, M'> + <X'X, M'M>), whose
    rounding error is a few ulps of |Y|^2.  Where it reads below
    ``_GRAM_FLOOR`` |Y|^2 that error could exceed ~1e-11 of the value, and
    near an exact fit flip its sign, so there the residual is formed instead,
    transposed, M X' - Y': X' of a terms-major X is C-contiguous, and so is
    the product, which ``vdot`` sums.
    """
    gram, cross = x.T @ x, x.T @ target
    fit = 0.5 * (energy - 2.0 * float(np.vdot(cross, m.T)) + float(np.vdot(gram, m.T @ m)))
    if fit < _GRAM_FLOOR * energy:
        res = m @ x.T
        res -= target.T
        fit = 0.5 * float(np.vdot(res, res))
    return fit, (gram, cross)


def objective(maps, spectra, data, cfg, coarse):
    """Full objective at (S, C, T), the fit Grams ((T'T, T'Yh), (S'S, S'Ym))
    that :func:`spectra_step` reads, the penalties' majorizers anchored at
    (S, T) that :func:`maps_step` and :func:`coarse_step_blind` read, and the
    sum of the two fit terms, which the noise-level stop reads.

    T is (P2 kron P1) S with known operators, and its majorizers are None; in
    the blind problem it is the coarse block and carries its own Schatten
    term.  Each fit is scored from the Grams it returns and the image's
    energy, or from its residual near an exact fit (:func:`_fit_pass`); each
    penalty's value and majorizer come from one factorization
    (:func:`_reweight`)."""
    hsi_energy, msi_energy = data._energies
    fit, hsi_grams = _fit_pass(coarse, spectra, data.hsi_mat, hsi_energy)
    msi_fit, msi_grams = _fit_pass(maps, data.pm @ spectra, data.msi_mat, msi_energy)
    fit += msi_fit
    f = fit + 0.5 * cfg.ridge_weight * float(np.sum(spectra**2))
    penalty, maps_majorizers = _reweight(maps, data.sri_dims[:2], cfg)
    f += penalty
    coarse_majorizers = None
    if data.ops is None:
        penalty, coarse_majorizers = _reweight(coarse, data.hsi_dims, cfg, with_tv=False)
        f += penalty
    return f, (hsi_grams, msi_grams), (maps_majorizers, coarse_majorizers), fit


def _fit_grad(x, mtm, ym):
    """Gradient in X of 1/2 |Y - X M'|^2 in Gram form, X M'M - Y M, given
    ``mtm`` = M'M and ``ym`` = Y M (terms-major): a fresh terms-major array,
    M'M X' formed transposed, then Y M subtracted."""
    grad = (mtm @ x.T).T
    grad -= ym
    return grad


def spectra_step(spectra, grams, data, cfg):
    """Spectra-block gradient and curvature bound, from the fit Grams
    ((T'T, T'Yh), (S'S, S'Ym)) that :func:`objective` returns at (S, T).

    By the chain rule the data gradient is :func:`_fit_grad` of C against T
    plus PM' times that of PM C against S; the ridge is added last."""
    (coarse_gram, coarse_cross), (gram, cross) = grams
    pm = data.pm
    # C's Hessian is T'T + S'S kron PM'PM whether T is free or T = P_H S
    curv = data.pm_gram_norm * _top_eigenvalue(gram) + _top_eigenvalue(coarse_gram)
    grad = _fit_grad(spectra, coarse_gram, coarse_cross.T)
    grad += pm.T @ _fit_grad(pm @ spectra, gram, cross.T)
    grad += cfg.ridge_weight * spectra
    return grad, curv + cfg.ridge_weight


def _image_block(x, m, target, shape, majorizers):
    """Gradient, a fresh array, and curvature bound of an image block X
    (maps or coarse maps of size ``shape``): the fit 1/2 |target - X M'|^2
    (:func:`_fit_grad`) plus the map penalties, whose gradient and curvature
    are those of their ``majorizers`` at X, as :func:`_reweight` formed them
    at the solver's last scored iterate."""
    mtm = m.T @ m
    grad = _fit_grad(x, mtm, (m.T @ target.T).T)
    terms, curv = majorizers
    stack = _maps_as_images(x, shape)
    grad_stack = _maps_as_images(grad, shape)  # a view: each term is written into grad
    for weight, majorizer_grad, w in terms:
        grad_stack += weight * majorizer_grad(w, stack)
    return grad, _top_eigenvalue(mtm) + curv


def maps_step(maps, spectra, data, majorizers, coarse=None):
    """Maps-block gradient and curvature bound.

    The MSI image block gives the data gradient S M'M - Ym M with M = PM C
    and the penalties, which enter through ``majorizers``, the maps' entry
    of those :func:`objective` returns; anchored at ``maps``, the gradient is
    the objective's.  With known spatial operators the tied HSI term is added
    last: the gradient T C'C - Yh C and bound |C|^2 of
    :func:`coarse_step_blind` without penalties, at T = P_H S given as
    ``coarse``, carried back through P_H' (:func:`_apply_ph`), with the bound
    times (|P1| |P2|)^2.  The result is a fresh array the caller may write
    over.
    """
    grad, lip = _image_block(maps, data.pm @ spectra, data.msi_mat, data.sri_dims[:2], majorizers)
    if data.ops is not None:
        hsi_grad, l_hsi = coarse_step_blind(coarse, spectra, data, ([], 0.0))
        grad += _apply_ph(hsi_grad, data.ops.p1.T, data.ops.p2.T)
        lip += l_hsi * (data.ops.p1_norm * data.ops.p2_norm) ** 2
    return grad, lip


def coarse_step_blind(coarse, spectra, data, majorizers):
    """Coarse-block gradient and curvature bound: HSI fit plus Schatten, no
    TV; ``majorizers`` is the coarse entry of those :func:`objective`
    returns."""
    return _image_block(coarse, spectra, data.hsi_mat, data.hsi_dims, majorizers)


# ---------------------------------------------------------------------------
# iteration primitives
# ---------------------------------------------------------------------------

def apg_step(x, grad, lip, project=True):
    """One (projected) gradient step of length 1/L along ``grad``, with L the
    curvature bound ``lip`` a block step returns (floored at the smallest
    normal double, so a zero bound gives a finite step):
    max(x - grad/L, 0), or the unprojected move.

    The step is written into ``grad``, which is returned; (-1/L)*grad + x
    equals x - (1/L)*grad exactly.
    """
    grad *= -(1.0 / max(lip, _TINY))
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


def _sweeps(factors, data, cfg):
    """Block-coordinate driver shared by both solvers: a stream of sweeps,
    each moving the spectra C, the maps S and the coarse factor T, in that
    order.

    ``factors`` is [C, S, T] when blind and [C, S] with known operators, for
    which T = (P2 kron P1) S is formed here and, each sweep, from the new S.
    Yields (objective, fit, C, S) at the start and after every sweep, with
    the fit the sum of the two fit terms; the yielded factors are the
    driver's own and valid until the next sweep, which may write them.  Each
    step reads the blocks before it at their new values and the Grams and
    majorizers of the last objective: so the Grams hold for the blocks no
    earlier step of the sweep has moved, and each block's majorizers are
    anchored at its last scored iterate, the point its anchor is extrapolated
    from.  Each step returns a fresh gradient, ``apg_step`` writes the new
    factor over it and ``extrapolate`` writes the next anchor over the factor
    it retires, so a sweep keeps two arrays per block: factor and anchor.
    """
    known = data.ops is not None
    if known:
        p1, p2 = data.ops.p1, data.ops.p2
        factors.append(_apply_ph(factors[1], p1, p2))
    anchors = list(factors)
    gamma = 1.0
    while True:
        c, s, t = factors
        f, grams, (maps_major, coarse_major), fit = objective(s, c, data, cfg, t)
        yield f, fit, c, s
        c_anchor, s_anchor, t_anchor = anchors
        c = apg_step(c_anchor, *spectra_step(c_anchor, grams, data, cfg))
        s = apg_step(s_anchor, *maps_step(s_anchor, c, data, maps_major, t_anchor))
        if known:
            t = _apply_ph(s, p1, p2)
        else:
            t = apg_step(t_anchor, *coarse_step_blind(t_anchor, c, data, coarse_major),
                         project=False)
        if cfg.accelerate:
            anchors = []
            for new, old in zip((c, s, t), factors):
                anchor, next_gamma = extrapolate(new, old, gamma)
                anchors.append(anchor)
            gamma = next_gamma
        else:
            anchors = [c, s, t]
        factors = [c, s, t]


# ---------------------------------------------------------------------------
# the data-derived start
# ---------------------------------------------------------------------------

_INIT_STEPS = 26
_INIT_ROWS = 8192  # rows per block of the start's fit steps (:func:`_fit_steps`)


def _spa(mat, n_terms):
    """Endmember spectra by successive projection (SPA; Gillis & Vavasis,
    IEEE TPAMI 36(4), 2014) on preconditioned pixels: R times, pick the pixel
    (row of ``mat``) whose residual has the largest norm, then project every
    residual off it.

    SPA assumes that pure pixels exist and that a pixel's abundances sum to
    one.  So each pixel is first divided by its l1 norm, and the normalized
    pixels are whitened in their top-R band subspace (SVD preconditioning,
    Gillis & Ma, SIAM J. Imaging Sci. 8(2), 2015), which keeps the picks
    apart when the spectra are close or the pixels mixed.  Returns the
    picked pixels, as given, as the columns of a terms-major (bands, R)
    array, clipped at 0.
    """
    sums = np.abs(mat).sum(axis=1)
    pixels = mat / np.where(sums > 0, sums, 1.0)[:, None]
    w, v = np.linalg.eigh(pixels.T @ pixels)
    w, v = w[-n_terms:], v[:, -n_terms:]
    res = (pixels @ v) / np.sqrt(np.maximum(w, np.finfo(float).eps * w[-1]))
    picks = []
    for _ in range(n_terms):
        norms = np.einsum("ij,ij->i", res, res)
        pick = int(np.argmax(norms))
        picks.append(pick)
        if norms[pick] > 0:
            u = res[pick] / math.sqrt(norms[pick])
            res -= np.outer(res @ u, u)
    return np.maximum(mat[picks].T, 0.0)


def _fit_steps(m, target, project):
    """``_INIT_STEPS`` accelerated gradient steps from zero on
    1/2 |target - X M'|^2 at step 1/sigma_max(M)^2, projected onto X >= 0
    if ``project``: each step is :func:`apg_step` along :func:`_fit_grad` at
    the anchor, then :func:`extrapolate` forms the next anchor, with M'M,
    target M and sigma_max(M)^2 formed once.  The momentum is that of the
    sweeps, whatever ``accelerate`` says.  26 such steps are the fewest that
    fit no worse than 100 plain ones on every benchmark and trace-comparison
    instance measured; more cut sweeps but cost R-SNR (ROADMAP item 9).

    The problem splits into one problem per row of X (a pixel), all against
    the same M'M, so every instance runs the steps block by block: all of
    them on one block of rows, then on the next, with gamma = 1 at each
    block's first step.  ``max(1, rows // _INIT_ROWS)`` blocks of nearly
    equal size keep a block's X, anchor, gradient and rows of target M in L2
    for all ``_INIT_STEPS`` steps, so no step streams a factor-sized array
    from memory.  Each block's result is written over its rows of target M,
    which no later block reads, and target M is returned, so the start holds
    one factor-sized array beside the block's.  Each entry takes the same
    operations as on the whole array, so the result is the same bit for
    bit."""
    mtm = m.T @ m
    ym = (m.T @ target.T).T
    lip = _top_eigenvalue(mtm)
    rows = ym.shape[0]
    blocks = max(1, rows // _INIT_ROWS)
    for b in range(blocks):
        lo, hi = rows * b // blocks, rows * (b + 1) // blocks
        x = anchor = np.zeros((hi - lo, ym.shape[1]), order="F")
        gamma = 1.0
        for _ in range(_INIT_STEPS):
            new = apg_step(anchor, _fit_grad(anchor, mtm, ym[lo:hi]), lip, project)
            anchor, gamma = extrapolate(new, x, gamma)
            x = new
        ym[lo:hi] = x  # no later block reads these rows of target M
    return ym


# ---------------------------------------------------------------------------
# full solvers
# ---------------------------------------------------------------------------

def _solve(data, n_terms, cfg):
    """Setup and run shared by both solvers, on the images divided by the
    RMS s of the MSI.  Every factor is derived from the scaled data: the
    spectra first, by SPA, then the maps and, in the blind problem
    (``data.ops`` is None), the coarse maps from them, by accelerated fit
    steps (:func:`_fit_steps`) whether or not the sweeps extrapolate.  The
    returned spectra and noise energies are multiplied back by s.  The run
    is :func:`_sweeps`'s stream, whose records this function alone traces,
    times and stops (see the module docstring)."""
    cfg = cfg if cfg is not None else SolverConfig()
    if not isinstance(cfg, SolverConfig):
        raise ValueError(f"cfg must be a SolverConfig, got {type(cfg).__name__}")
    check_int("n_terms", n_terms, 1)
    max_iters = DEFAULT_MAX_ITERS if cfg.max_iters is None else cfg.max_iters

    values, elapsed = [], []  # the trace, timed from here: the timings include the start
    start = time.perf_counter()

    def failure(message):
        return NumericalError(message, trace=np.asarray(values), elapsed=np.asarray(elapsed))

    # s > 0: FusionData refuses an all-zero image
    scale = math.ldexp(*_rms(data.msi_mat))
    data = replace(data, hsi_mat=data.hsi_mat / scale, msi_mat=data.msi_mat / scale)
    try:
        spectra = _spa(data.hsi_mat, n_terms)
        maps = _fit_steps(data.pm @ spectra, data.msi_mat, project=True)
        coarse = [_fit_steps(spectra, data.hsi_mat, project=False)] if data.ops is None else []

        # rel_tol = 0 turns off both rules that can stop a run before its cap
        early_rules = cfg.rel_tol > 0
        noise, noise_level = None, None
        if (early_rules and cfg.tv_weight == cfg.lowrank_weight == 0
                and min(data.hsi_mat.shape[1], data.msi_mat.shape[1]) > n_terms):
            noise = (_noise_energy(data.hsi_mat, n_terms), _noise_energy(data.msi_mat, n_terms))
            noise_level = 0.5 * (noise[0] + noise[1])
            # a Python float product saturates at inf, where scale**2 raises
            noise = (noise[0] * scale * scale, noise[1] * scale * scale)

        # closing the stream frees the anchors and the coarse factor, which
        # it alone holds, before the SRI is allocated
        with closing(_sweeps([spectra, maps, *coarse], data, cfg)) as stream:
            for f, fit, spectra, maps in stream:
                if not math.isfinite(f):
                    raise failure(
                        "objective became non-finite; step sizes no longer control the iteration")
                values.append(f)
                elapsed.append(time.perf_counter() - start)
                early = early_rules and len(values) > 1  # neither rule reads the start
                if early and noise_level is not None and fit <= noise_level:
                    stop_reason = "noise_level"
                elif early and 0.0 <= values[-2] - f <= cfg.rel_tol * abs(values[-2]):
                    stop_reason = "rel_tol"  # a sweep that raised the objective never stalls
                elif len(values) > max_iters:
                    stop_reason = "max_iters"
                else:
                    continue
                break
    except np.linalg.LinAlgError as exc:
        raise failure(f"a Gram of the data or the factors became non-finite ({exc})") from exc
    spectra *= scale
    # every SRI entry is at most sum_r max|c_r| max|s_r|
    if not math.isfinite(float(np.abs(spectra).max(axis=0) @ np.abs(maps).max(axis=0))):
        raise failure("the SRI overflows in the images' units")
    return FusionReport(
        sri=refold((spectra @ maps.T).T, data.sri_dims),
        maps=maps,
        spectra=spectra,
        objective_trace=np.asarray(values),
        elapsed=np.asarray(elapsed),
        stop_reason=stop_reason,
        noise_energy=noise,
        data_scale=scale,
    )


def fuse(hsi, msi, ops, n_terms, cfg=None):
    """Recover the super-resolution tensor with known degradation operators.

    The start is derived from the data (see :func:`_solve`), so the run
    draws nothing at random.  The starting spectra are HSI pixels picked by
    successive projection, which assumes that pure pixels exist; on a scene
    without them the picks are the most extreme pixels, and the sweeps carry
    the fit.  The solve runs on the images divided by the RMS of the MSI:
    the weights, ``tau``, ``epsilon`` and the ridge act on that unit-RMS
    data, and the objective trace is that unit-scale problem's.  Returns a
    :class:`FusionReport` whose trace holds the objective at the start and
    after every iteration, whose spectra are in the images' units and whose
    maps are unit-free.
    """
    return _solve(FusionData.from_tensors(hsi, msi, ops), n_terms, cfg)


def fuse_blind(hsi, msi, pm, n_terms, cfg=None):
    """Recover the super-resolution tensor with unknown spatial operators.

    Three-block iteration: spectra and maps are projected onto the
    nonnegative orthant, the coarse block is updated without projection.
    The start, the units and the trace are as in :func:`fuse`.  The output
    tensor is rebuilt from (maps, spectra) only; the coarse factors are an
    internal device and are discarded.
    """
    return _solve(FusionData.from_tensors_blind(hsi, msi, pm), n_terms, cfg)
