"""Smooth nonconvex regularizers for the abundance maps.

Two penalties are used, both smoothed so the solver sees a continuously
differentiable objective:

* a smoothed Schatten-p function  phi(X) = tr((X X' + tau I)^(p/2)), an
  lp penalty on singular values that promotes low rank;
* a smoothed lq two-dimensional total variation built from circulant
  first-difference operators along both spatial axes.

Both admit quadratic majorizers that touch the function at the anchor point,
with reweighting matrices (W for Schatten, diagonal U/V for TV) formed at the
anchor.  Each penalty owns its majorizer: ``schatten_majorizer`` and
``tv_majorizer`` return, from one factorization of the anchor, the penalty's
value there, the majorizer's weights and a bound on its curvature;
``schatten_majorizer_grad`` and ``tv_majorizer_grad`` apply the weights at
any point, giving the majorizer's gradient there (the penalty's own gradient
at the anchor).  Every majorizer acts on the last two axes: it takes one
(I, J) map or an (R, I, J) stack of maps, sums the value over the stack,
returns the weights stacked and bounds the curvature by the largest of the
maps' bounds.  The solver anchors the majorizers at the iterate its
objective scores and calls each penalty once on the whole stack.  This module
holds what the solver evaluates: the majorizers and the matrix-free
difference operator; a penalty's value is the first return of its majorizer.
The reweighting matrices, the majorizer values, the penalty values by SVD
and by loops, and the dense circulant matrix that check them live with the
tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tensors import check_real


@dataclass
class SchattenConfig:
    """Smoothed Schatten-p penalty parameters; tau > 0 is mandatory because
    the reweighting exponent (p - 2)/2 is negative."""

    p: float = 0.5
    tau: float = 1.0

    def __post_init__(self):
        if not 0 < check_real("p", self.p) <= 1:
            raise ValueError("p must lie in (0, 1]")
        if not (math.isfinite(check_real("tau", self.tau)) and self.tau > 0):
            raise ValueError(f"tau must be finite and positive, got {self.tau}")


@dataclass
class TvConfig:
    """Smoothed lq total-variation parameters."""

    q: float = 0.5
    epsilon: float = 1e-3

    def __post_init__(self):
        if not 0 < check_real("q", self.q) <= 2:
            raise ValueError("q must lie in (0, 2]")
        if not (math.isfinite(check_real("epsilon", self.epsilon)) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")


# ---------------------------------------------------------------------------
# circulant first differences
# ---------------------------------------------------------------------------

def diff_norm(n):
    """Largest singular value of the circulant difference, 2*sin(pi*(n//2)/n)."""
    return 2.0 * math.sin(math.pi * (n // 2) / n)


def diff(img, axis):
    """Circular first difference along ``axis``: img - roll(img, -1, axis)."""
    return img - np.roll(img, -1, axis=axis)


def diff_adjoint(img, axis):
    """Adjoint of :func:`diff`: img - roll(img, 1, axis)."""
    return img - np.roll(img, 1, axis=axis)


# ---------------------------------------------------------------------------
# smoothed Schatten-p penalty
# ---------------------------------------------------------------------------

def schatten_majorizer(x, cfg):
    """Value at X, weight p W and curvature p sigma_max(W) of the Schatten
    majorizer anchored at X, W = (X X' + tau I)^((p-2)/2), from one
    factorization of X X'.

    All eigenvalues of the base matrix are >= tau, so the negative power is
    well defined: W is symmetric PD with eigenvalues <= tau^((p-2)/2).  The
    majorizer's gradient at any Z is ``schatten_majorizer_grad(p W, Z)``.
    Given a stack of maps, the value is summed over it, the weights are
    stacked and the curvature is the largest of the maps'.
    """
    x = np.atleast_2d(x)
    lam, vec = np.linalg.eigh(x @ np.swapaxes(x, -1, -2))
    lam = np.maximum(lam, 0.0) + cfg.tau
    w = cfg.p * lam ** ((cfg.p - 2) / 2)
    weight = (vec * w[..., None, :]) @ np.swapaxes(vec, -1, -2)
    return float(np.sum(lam ** (cfg.p / 2))), weight, float(w[..., 0].max())


def schatten_majorizer_grad(weight, z):
    """Gradient p W Z at Z of the Schatten majorizer of weight p W."""
    return weight @ z


# ---------------------------------------------------------------------------
# smoothed lq total variation
# ---------------------------------------------------------------------------

def tv_majorizer(img, cfg):
    """Value at ``img``, weights (q U, q V) and curvature
    q (|Hc|^2 max U + |Hr|^2 max V) of the TV majorizer anchored at ``img``,
    from one pass over each difference image.

    Hc and Hr are the column- and row-direction differences; the diagonal
    weights (d^2 + eps)^((q-2)/2) of each difference image d lie in
    (0, eps^((q-2)/2)] and shrink where the local difference is large.  The
    value is sum u (d^2 + eps), one power per difference image.  Given a
    stack of maps, the value is summed over it, the weights are stacked and
    the curvature is the largest of the maps' bounds.  The majorizer's
    gradient at any point is :func:`tv_majorizer_grad`.
    """
    e = (cfg.q - 2) / 2
    i, j = img.shape[-2:]
    value, weights = 0.0, []
    for sq in (diff(img, -1), diff(img, -2)):
        sq *= sq  # d^2 + eps, written over the difference image d
        sq += cfg.epsilon
        u = sq**e
        value += float(np.vdot(u, sq))
        u *= cfg.q
        weights.append(u)
    u, v = weights
    curv = (diff_norm(j) ** 2 * u.max(axis=(-2, -1))
            + diff_norm(i) ** 2 * v.max(axis=(-2, -1)))
    return value, (u, v), float(curv.max())


def tv_majorizer_grad(weights, img):
    """Gradient q (Hc' U Hc + Hr' V Hr) img at ``img`` of the TV majorizer of
    weights (q U, q V)."""
    u, v = weights
    return diff_adjoint(u * diff(img, -1), -1) + diff_adjoint(v * diff(img, -2), -2)
