"""Independent numerical oracles shared by the test modules.

Everything here is deliberately written the slow, literal way (loops, dense
matrices, central differences) so it cannot share a bug with the library
code paths it checks.  The regularizer reweighting matrices, gradients and
majorizer values are the textbook forms the library's majorizers are derived
from, built here from a full SVD and dense circulant differences rather than
from the library's eigendecomposition and matrix-free products.  The Kronecker,
Khatri-Rao and Frobenius helpers at the end are used only by the tests.
"""

import numpy as np
import scipy.linalg

from hsrfuse.degradation import gaussian_kernel
from hsrfuse.errors import DimensionError


def central_gradient(fun, x, step=1e-6):
    """Central finite differences of a scalar function, entry by entry."""
    x = np.array(x, dtype=float)
    h = step * max(1.0, float(np.max(np.abs(x))))
    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        orig = x[idx]
        x[idx] = orig + h
        f_plus = fun(x)
        x[idx] = orig - h
        f_minus = fun(x)
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    return grad


def dense_hessian(fun, x, step=1.0):
    """Hessian of a quadratic scalar function over the entries of ``x``, by
    central second differences, which are exact for a quadratic at any step."""
    x = np.array(x, dtype=float)
    n = x.size
    hess = np.zeros((n, n))
    for a in range(n):
        for b in range(a, n):
            vals = []
            for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                y = x.flatten()
                y[a] += sa * step
                y[b] += sb * step
                vals.append(fun(y.reshape(x.shape)))
            hess[a, b] = hess[b, a] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * step**2)
    return hess


def rel_error(approx, exact):
    denom = max(float(np.linalg.norm(np.ravel(exact))), 1e-300)
    return float(np.linalg.norm(np.ravel(approx) - np.ravel(exact))) / denom


def loop_blur_downsample_matrix(n, spec):
    """Blur-and-downsample operator placed tap by tap: row i carries the
    kernel centered at column i * ratio + offset, each tap wrapped or
    reflected about the array edges one fold at a time."""
    rows = -(-n // spec.ratio)
    kernel = gaussian_kernel(spec.kernel_width, spec.sigma)
    half = (spec.kernel_width - 1) // 2
    op = np.zeros((rows, n))
    for i in range(rows):
        center = i * spec.ratio + spec.offset
        for t in range(-half, half + 1):
            col = center + t
            if spec.boundary == "circular":
                col %= n
            else:
                while col < 0 or col >= n:
                    if col < 0:
                        col = -col - 1
                    else:
                        col = 2 * n - col - 1
            op[i, col] += kernel[t + half]
    return op


def loop_reconstruct(maps_list, spectra):
    """Triple-loop block-term reconstruction; maps_list[r] is an (I, J) array."""
    i, j = maps_list[0].shape
    k, r_terms = spectra.shape
    out = np.zeros((i, j, k))
    for r in range(r_terms):
        for a in range(i):
            for b in range(j):
                for c in range(k):
                    out[a, b, c] += maps_list[r][a, b] * spectra[c, r]
    return out


def loop_unfold(tensor):
    """Definition-level pixels-by-bands unfolding, row l = i + I*j."""
    i, j, k = tensor.shape
    out = np.zeros((i * j, k))
    for a in range(i):
        for b in range(j):
            out[a + i * b, :] = tensor[a, b, :]
    return out


def dense_diff(n):
    """Circulant forward-difference matrix built entry by entry."""
    h = np.zeros((n, n))
    for row in range(n):
        h[row, row] = 1.0
        h[row, (row + 1) % n] = -1.0
    return h


def schatten_by_svd(x, p, tau):
    """Schatten value from singular values, padding implicit zeros."""
    x = np.atleast_2d(x)
    svals = np.linalg.svd(x, compute_uv=False)
    vals = list(svals**2) + [0.0] * (x.shape[0] - len(svals))
    return sum((v + tau) ** (p / 2) for v in vals)


def tv_by_loops(img, q, eps):
    """Smoothed lq TV by explicit wrapped differences."""
    i, j = img.shape
    total = 0.0
    for a in range(i):
        for b in range(j):
            dx = img[a, b] - img[a, (b + 1) % j]
            dy = img[a, b] - img[(a + 1) % i, b]
            total += (dx * dx + eps) ** (q / 2) + (dy * dy + eps) ** (q / 2)
    return total


def circulant_diff(n):
    """Dense n x n circulant first-difference matrix: (Hx)_i = x_i - x_{i+1 mod n}."""
    return np.eye(n) - np.roll(np.eye(n), -1, axis=0)


def schatten_weight(x, cfg):
    """Reweighting matrix W = (X X' + tau I)^((p-2)/2), symmetric PD, from the
    full SVD X = U diag(s) V': W = U diag((s^2 + tau)^((p-2)/2)) U', with the
    implicit zero singular values of a tall X padded in."""
    x = np.atleast_2d(x)
    u, svals, _ = np.linalg.svd(x, full_matrices=True)
    sq = np.zeros(x.shape[0])
    sq[: len(svals)] = svals**2
    return (u * (sq + cfg.tau) ** ((cfg.p - 2) / 2)) @ u.T


def schatten_gradient(x, cfg):
    """Gradient p * W(X) @ X of the smoothed Schatten-p value."""
    return cfg.p * (schatten_weight(x, cfg) @ np.atleast_2d(x))


def schatten_majorizer_value(x, w_anchor, cfg):
    """Quadratic upper bound built at the anchor that produced ``w_anchor``:

        (p/2) tr(W (X X' + tau I)) + ((2-p)/2) tr(W^(p/(p-2))).

    Touches the Schatten value at the anchor and dominates it elsewhere.
    """
    x = np.atleast_2d(x)
    p, tau = cfg.p, cfg.tau
    lam_w = np.linalg.eigvalsh(w_anchor)
    const = (2 - p) / 2 * np.sum(lam_w ** (p / (p - 2)))
    quad = p / 2 * (np.sum((w_anchor @ x) * x) + tau * np.trace(w_anchor))
    return float(quad + const)


def tv_weights(img, cfg):
    """Diagonal TV reweighting (d^2 + eps)^((q-2)/2), entry by entry: u for the
    column-direction differences, v for the row-direction ones."""
    i, j = img.shape
    e = (cfg.q - 2) / 2
    u, v = np.zeros((i, j)), np.zeros((i, j))
    for a in range(i):
        for b in range(j):
            u[a, b] = ((img[a, b] - img[a, (b + 1) % j]) ** 2 + cfg.epsilon) ** e
            v[a, b] = ((img[a, b] - img[(a + 1) % i, b]) ** 2 + cfg.epsilon) ** e
    return u, v


def tv_gradient(img, cfg):
    """Gradient q * (Hx' U Hx + Hy' V Hy) vec(img), with dense circulant
    differences acting on the rows (Hy) and on the columns (Hx) of ``img``."""
    u, v = tv_weights(img, cfg)
    h_rows, h_cols = dense_diff(img.shape[0]), dense_diff(img.shape[1])
    return cfg.q * ((u * (img @ h_cols.T)) @ h_cols + h_rows.T @ (v * (h_rows @ img)))


def tv_majorizer_value(img, anchor, cfg):
    """Quadratic upper bound of the TV penalty anchored at ``anchor``.

    Per difference entry with weight w = (q/2)(d_anchor^2 + eps)^((q-2)/2):
    w*d^2 + eps*w + ((2-q)/2)(2w/q)^(q/(q-2)); tight at img == anchor.
    """
    q, eps = cfg.q, cfg.epsilon
    h_rows, h_cols = dense_diff(img.shape[0]), dense_diff(img.shape[1])
    total = 0.0
    for diff in (lambda x: x @ h_cols.T, lambda x: h_rows @ x):
        d = diff(img)
        w = q / 2 * (diff(anchor) ** 2 + eps) ** ((q - 2) / 2)
        total += float(
            np.sum(w * d * d + eps * w + (2 - q) / 2 * (2 * w / q) ** (q / (q - 2)))
        )
    return total


def _eigmax(mat):
    return float(np.linalg.eigvalsh(mat)[-1])


def penalty_curvatures_dense(maps, shape, cfg):
    """Exact regularizer curvature terms with dense difference operators."""
    i, j = shape
    hx = np.kron(dense_diff(j), np.eye(i))
    hy = np.kron(np.eye(j), dense_diff(i))
    p, tau = cfg.schatten.p, cfg.schatten.tau
    q, eps = cfg.tv.q, cfg.tv.epsilon
    w_term = 0.0
    tv_term = 0.0
    for r in range(maps.shape[1]):
        vec = maps[:, r]
        img = vec.reshape(i, j, order="F")
        if cfg.lowrank_weight > 0:
            lam = np.linalg.eigvalsh(img @ img.T)
            w_term = max(w_term, (max(lam[0], 0.0) + tau) ** ((p - 2) / 2))
        if cfg.tv_weight > 0:
            u = np.diag(((hx @ vec) ** 2 + eps) ** ((q - 2) / 2))
            v = np.diag(((hy @ vec) ** 2 + eps) ** ((q - 2) / 2))
            tv_term = max(tv_term, _eigmax(hx.T @ u @ hx) + _eigmax(hy.T @ v @ hy))
    return p * cfg.lowrank_weight * w_term + q * cfg.tv_weight * tv_term


def dense_curvatures_known(maps, spectra, data, cfg):
    """Exact per-block curvature quantities for the known-operator problem."""
    i, j, _ = data.sri_dims
    ph = np.kron(data.ops.p2, data.ops.p1)
    pm = data.ops.pm
    l_c = _eigmax(maps.T @ ph.T @ ph @ maps)
    l_c += _eigmax(pm.T @ pm) * _eigmax(maps.T @ maps) + cfg.ridge_weight
    l_s = _eigmax(spectra.T @ spectra) * _eigmax(ph.T @ ph)
    l_s += _eigmax(spectra.T @ pm.T @ pm @ spectra)
    l_s += penalty_curvatures_dense(maps, (i, j), cfg)
    return l_c, l_s


def dense_curvatures_blind(maps, coarse, spectra, data, cfg, no_tv_cfg):
    """Exact per-block curvature quantities for the blind problem."""
    pm = data.pm
    l_c = _eigmax(pm.T @ pm) * _eigmax(maps.T @ maps)
    l_c += _eigmax(coarse.T @ coarse) + cfg.ridge_weight
    l_s = _eigmax(spectra.T @ pm.T @ pm @ spectra)
    l_s += penalty_curvatures_dense(maps, data.sri_dims[:2], cfg)
    l_t = _eigmax(spectra.T @ spectra)
    l_t += penalty_curvatures_dense(coarse, data.hsi_dims, no_tv_cfg)
    return l_c, l_s, l_t


def window_stats_two_pass(ref, est, width):
    """Window statistics of two bands, one window at a time, in two passes.

    Windows are ``width`` x ``width`` (shrunk to the band), stride 1.  Each
    window's means are taken first, then the means of the centred products.
    Returns the window size and an array stacking the means of x and y, the
    variances of x and y and their covariance, each of the window grid's shape.
    """
    wi = min(width, ref.shape[0])
    wj = min(width, ref.shape[1])
    rows, cols = ref.shape[0] - wi + 1, ref.shape[1] - wj + 1
    stats = np.zeros((5, rows, cols))
    for a in range(rows):
        for b in range(cols):
            x = ref[a : a + wi, b : b + wj]
            y = est[a : a + wi, b : b + wj]
            mx, my = x.mean(), y.mean()
            stats[:, a, b] = (
                mx,
                my,
                np.mean((x - mx) * (x - mx)),
                np.mean((y - my) * (y - my)),
                np.mean((x - mx) * (y - my)),
            )
    return wi * wj, stats


def ssim_two_pass(reference, estimate, width=8):
    """Mean over bands and windows of SSIM, c1=(0.01*D)^2, c2=(0.03*D)^2."""
    drange = float(reference.max() - reference.min()) or 1.0
    c1, c2 = (0.01 * drange) ** 2, (0.03 * drange) ** 2
    bands = []
    for band in range(reference.shape[2]):
        _, (mx, my, vx, vy, cov) = window_stats_two_pass(
            reference[:, :, band], estimate[:, :, band], width
        )
        ssim = (2 * mx * my + c1) * (2 * cov + c2) / ((mx**2 + my**2 + c1) * (vx + vy + c2))
        bands.append(ssim.mean())
    return float(np.mean(bands))


def uiqi_two_pass(reference, estimate, width=10):
    """Mean over bands of the Q index with sample statistics.

    A window is skipped when its variance sum or its luminance sum is at most
    1e-12 of that term's largest value in the band; a band with no window
    left (or windows of one pixel) scores 1 if it matches exactly, else 0.
    """
    bands = []
    for band in range(reference.shape[2]):
        ref, est = reference[:, :, band], estimate[:, :, band]
        n, (mx, my, vx, vy, cov) = window_stats_two_pass(ref, est, width)
        var_den = n / (n - 1) * (vx + vy) if n > 1 else np.zeros_like(vx)
        lum_den = mx**2 + my**2
        alive = (var_den > 1e-12 * var_den.max()) & (lum_den > 1e-12 * lum_den.max())
        if not alive.any():
            bands.append(1.0 if np.array_equal(ref, est) else 0.0)
            continue
        mx, my, cov = mx[alive], my[alive], cov[alive]
        q = 2 * mx * my / lum_den[alive] * (2 * n / (n - 1) * cov) / var_den[alive]
        bands.append(q.mean())
    return float(np.mean(bands))


def kron(a, b):
    """Kronecker product: block (i, j) of the result is ``a[i, j] * b``."""
    return np.kron(a, b)


def khatri_rao_col(a, b):
    """Columnwise Khatri-Rao product: column j is ``kron(a[:, j], b[:, j])``."""
    if a.shape[1] != b.shape[1]:
        raise DimensionError(
            f"columnwise Khatri-Rao needs equal column counts, got {a.shape} and {b.shape}"
        )
    return scipy.linalg.khatri_rao(a, b)


def frobenius_norm(tensor):
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(np.ravel(tensor)))
