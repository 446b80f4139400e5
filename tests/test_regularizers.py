import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsrfuse.regularizers import (
    SchattenConfig,
    TvConfig,
    diff,
    diff_adjoint,
    diff_norm,
    schatten_majorizer,
    schatten_majorizer_grad,
    tv_majorizer,
    tv_majorizer_grad,
)

from _oracles import (
    central_gradient,
    circulant_diff,
    dense_diff,
    dense_hessian,
    rel_error,
    schatten_by_svd,
    schatten_gradient,
    schatten_majorizer_value,
    schatten_weight,
    tv_by_loops,
    tv_gradient,
    tv_majorizer_value,
    tv_weights,
)

CFG = SchattenConfig(p=0.5, tau=1.0)
TV = TvConfig(q=0.5, epsilon=1e-3)


# ---------------------------------------------------------------------------
# difference operators
# ---------------------------------------------------------------------------

def test_circulant_diff_structure():
    h = circulant_diff(4)
    assert np.array_equal(h, dense_diff(4))
    assert np.allclose(h.sum(axis=1), 0.0)
    assert np.allclose(h @ np.ones(4), 0.0)


def test_matrix_free_diffs_match_dense():
    rng = np.random.default_rng(0)
    img = rng.normal(size=(5, 7))
    h_rows = circulant_diff(5)
    h_cols = circulant_diff(7)
    assert np.allclose(diff(img, 0), h_rows @ img)
    assert np.allclose(diff(img, 1), img @ h_cols.T)
    # vectorized forms: H_y = I (x) H_rows, H_x = H_cols (x) I on vec(img)
    vec = img.ravel(order="F")
    hy = np.kron(np.eye(7), h_rows)
    hx = np.kron(h_cols, np.eye(5))
    assert np.allclose(diff(img, 0).ravel(order="F"), hy @ vec)
    assert np.allclose(diff(img, 1).ravel(order="F"), hx @ vec)


def test_diff_adjoints():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 4))
    b = rng.normal(size=(6, 4))
    for axis in (0, 1):
        assert np.sum(diff(a, axis) * b) == pytest.approx(
            np.sum(a * diff_adjoint(b, axis)), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 40))
def test_diff_norm_matches_dense_svd(n):
    dense = np.linalg.svd(circulant_diff(n), compute_uv=False)[0] if n > 0 else 0.0
    assert diff_norm(n) == pytest.approx(dense, abs=1e-12)


# ---------------------------------------------------------------------------
# smoothed Schatten-p
# ---------------------------------------------------------------------------

def test_schatten_value_zero_matrix():
    assert schatten_majorizer(np.zeros((3, 5)), CFG)[0] == pytest.approx(3.0, rel=1e-14)
    cfg2 = SchattenConfig(p=0.5, tau=4.0)
    assert schatten_majorizer(np.zeros((3, 5)), cfg2)[0] == pytest.approx(3 * 4**0.25, rel=1e-14)


def test_schatten_value_identity():
    m = 4
    assert schatten_majorizer(np.eye(m), CFG)[0] == pytest.approx(m * 2**0.25, rel=1e-14)


def test_schatten_value_matches_svd_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 5))
    assert schatten_majorizer(x, CFG)[0] == pytest.approx(schatten_by_svd(x, 0.5, 1.0), rel=1e-10)
    tall = rng.normal(size=(6, 3))  # more rows than columns: zero singular values count
    assert schatten_majorizer(tall, CFG)[0] == pytest.approx(
        schatten_by_svd(tall, 0.5, 1.0), rel=1e-10)


def test_schatten_value_orthogonal_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 6))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    assert schatten_majorizer(q @ x, CFG)[0] == pytest.approx(
        schatten_majorizer(x, CFG)[0], rel=1e-12)


def test_schatten_value_shrinks_toward_floor():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 4))
    vals = [schatten_majorizer(t * x, CFG)[0] for t in (1.0, 0.5, 0.1, 0.0)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(3.0, rel=1e-14)


def test_schatten_weight_zero_matrix():
    assert np.allclose(schatten_weight(np.zeros((3, 4)), CFG), np.eye(3))


def test_schatten_weight_identity():
    expected = 2 ** (-0.75) * np.eye(4)
    assert np.allclose(schatten_weight(np.eye(4), CFG), expected, atol=1e-14)


def test_schatten_weight_spd_and_bounded():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 7)) * 3
    w = schatten_weight(x, CFG)
    assert np.allclose(w, w.T, atol=1e-12)
    eigs = np.linalg.eigvalsh(w)
    assert eigs[0] > 0
    assert eigs[-1] <= CFG.tau ** ((CFG.p - 2) / 2) + 1e-12
    assert schatten_majorizer(x, CFG)[2] == pytest.approx(CFG.p * eigs[-1], rel=1e-10)


def test_schatten_majorizer_tangent_at_anchor():
    rng = np.random.default_rng(6)
    for _ in range(10):
        anchor = rng.normal(size=(4, 6)) * rng.uniform(0.1, 3)
        w = schatten_weight(anchor, CFG)
        value = schatten_majorizer(anchor, CFG)[0]
        major = schatten_majorizer_value(anchor, w, CFG)
        assert abs(major - value) <= 1e-9 * abs(value)


def test_schatten_majorizer_dominates():
    rng = np.random.default_rng(7)
    anchor = rng.normal(size=(4, 6))
    w = schatten_weight(anchor, CFG)
    for _ in range(100):
        x = rng.normal(size=(4, 6)) * rng.uniform(0.05, 5)
        assert schatten_majorizer_value(x, w, CFG) >= schatten_majorizer(x, CFG)[0] - 1e-10


def test_schatten_majorizer_zero_case():
    z = np.zeros((3, 5))
    w = schatten_weight(z, CFG)
    assert schatten_majorizer_value(z, w, CFG) == pytest.approx(3.0, rel=1e-12)
    assert schatten_majorizer(z, CFG)[0] == pytest.approx(3.0, rel=1e-14)


def test_schatten_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 5))
    grad = schatten_gradient(x, CFG)
    fd = central_gradient(lambda z: schatten_majorizer(z, CFG)[0], x)
    assert rel_error(grad, fd) <= 1e-5


def test_schatten_config_validation():
    with pytest.raises(ValueError):
        SchattenConfig(p=0.0)
    with pytest.raises(ValueError):
        SchattenConfig(p=0.5, tau=0.0)
    for tau in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tau"):
            SchattenConfig(p=0.5, tau=tau)


# ---------------------------------------------------------------------------
# smoothed lq total variation
# ---------------------------------------------------------------------------

def test_tv_value_constant_image():
    img = np.full((4, 6), 2.5)
    expected = 2 * 4 * 6 * TV.epsilon ** (TV.q / 2)
    assert tv_majorizer(img, TV)[0] == pytest.approx(expected, rel=1e-12)


def test_tv_value_matches_loop_oracle():
    rng = np.random.default_rng(9)
    img = rng.normal(size=(5, 7))
    assert tv_majorizer(img, TV)[0] == pytest.approx(
        tv_by_loops(img, TV.q, TV.epsilon), rel=1e-12)


def test_tv_value_spike_enumeration():
    img = np.zeros((3, 3))
    img[1, 1] = 2.0
    got = tv_majorizer(img, TV)[0]
    assert got == pytest.approx(tv_by_loops(img, TV.q, TV.epsilon), rel=1e-12)
    # two nonzero differences per direction, the rest sit at the epsilon floor
    per_direction = 7 * TV.epsilon ** (TV.q / 2) + 2 * (4.0 + TV.epsilon) ** (TV.q / 2)
    assert got == pytest.approx(2 * per_direction, rel=1e-12)


def test_tv_l1_limit_on_step_image():
    # q=1, small epsilon: approaches anisotropic l1-TV within the smoothing bound
    img = np.zeros((6, 6))
    img[:, 3:] = 1.0
    eps = 1e-10
    cfg = TvConfig(q=1.0, epsilon=eps)
    l1 = 0.0
    for a in range(6):
        for b in range(6):
            l1 += abs(img[a, b] - img[a, (b + 1) % 6]) + abs(img[a, b] - img[(a + 1) % 6, b])
    assert abs(tv_majorizer(img, cfg)[0] - l1) <= 2 * 36 * np.sqrt(eps)


def test_tv_weights_constant_image():
    u, v = tv_weights(np.full((3, 4), 1.0), TV)
    floor = TV.epsilon ** ((TV.q - 2) / 2)
    assert np.allclose(u, floor)
    assert np.allclose(v, floor)


def test_tv_weights_q2_all_ones():
    cfg = TvConfig(q=2.0, epsilon=1e-3)
    u, v = tv_weights(np.random.default_rng(10).normal(size=(4, 5)), cfg)
    assert np.allclose(u, 1.0)
    assert np.allclose(v, 1.0)


def test_tv_weights_decrease_with_difference():
    img = np.zeros((2, 4))
    img[0, 1] = 0.5
    img2 = img.copy()
    img2[0, 1] = 2.0
    u1, _ = tv_weights(img, TV)
    u2, _ = tv_weights(img2, TV)
    assert u2[0, 0] < u1[0, 0]
    assert u2[0, 1] < u1[0, 1]


def test_tv_weights_bounded():
    rng = np.random.default_rng(11)
    u, v = tv_weights(rng.normal(size=(6, 6)), TV)
    ceiling = TV.epsilon ** ((TV.q - 2) / 2)
    for w in (u, v):
        assert np.all(w > 0)
        assert np.all(w <= ceiling + 1e-12)


def test_tv_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    img = rng.normal(size=(4, 5))
    grad = tv_gradient(img, TV)
    fd = central_gradient(lambda z: tv_majorizer(z, TV)[0], img)
    assert rel_error(grad, fd) <= 1e-5


def test_tv_majorizer_tangent_and_dominating():
    rng = np.random.default_rng(13)
    anchor = rng.normal(size=(5, 4))
    value = tv_majorizer(anchor, TV)[0]
    assert abs(tv_majorizer_value(anchor, anchor, TV) - value) <= 1e-9 * abs(value)
    for _ in range(100):
        x = rng.normal(size=(5, 4)) * rng.uniform(0.05, 5)
        assert tv_majorizer_value(x, anchor, TV) >= tv_majorizer(x, TV)[0] - 1e-10


def test_tv_majorizer_reads_the_solver_stack_without_copies():
    # the solver's (R, I, J) view of a terms-major factor is not C-contiguous;
    # the value's dot product must not ravel the weights and the squared
    # differences into fresh arrays (six stack-sized arrays at peak, against
    # four for the two difference images and their weights)
    maps = np.asfortranarray(np.random.default_rng(16).uniform(size=(128 * 128, 6)))
    stack = maps.reshape(128, 128, 6, order="F").transpose(2, 0, 1)
    tracemalloc.start()
    try:
        tv_majorizer(stack, TV)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * stack.nbytes, peak


# ---------------------------------------------------------------------------
# majorizers: value, weights and curvature at the anchor, gradient anywhere
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sch", [CFG, SchattenConfig(p=0.8, tau=0.3)])
def test_schatten_majorizer_gradient_and_curvature(sch):
    rng = np.random.default_rng(14)
    for x in (rng.normal(size=(4, 6)), rng.normal(size=(6, 3)) * 2):
        value, weight, curv = schatten_majorizer(x, sch)
        assert value == pytest.approx(schatten_by_svd(x, sch.p, sch.tau), rel=1e-12)
        assert rel_error(weight, sch.p * schatten_weight(x, sch)) <= 1e-12
        grad = schatten_majorizer_grad(weight, x)
        fd = central_gradient(lambda z: schatten_by_svd(z, sch.p, sch.tau), x)
        assert rel_error(grad, fd) <= 1e-5
        assert rel_error(grad, schatten_gradient(x, sch)) <= 1e-12
        lam_max = np.linalg.eigvalsh(schatten_weight(x, sch))[-1]
        assert curv == pytest.approx(sch.p * lam_max, rel=1e-12)


@pytest.mark.parametrize("tv", [TV, TvConfig(q=1.3, epsilon=0.05)])
def test_tv_majorizer_gradient_and_curvature(tv):
    rng = np.random.default_rng(15)
    img = rng.normal(size=(5, 7))  # unequal sides: the row and column norms differ
    value, weights, curv = tv_majorizer(img, tv)
    assert value == pytest.approx(tv_by_loops(img, tv.q, tv.epsilon), rel=1e-12)
    u, v = tv_weights(img, tv)
    assert rel_error(weights[0], tv.q * u) <= 1e-12 and rel_error(weights[1], tv.q * v) <= 1e-12
    grad = tv_majorizer_grad(weights, img)
    fd = central_gradient(lambda z: tv_by_loops(z, tv.q, tv.epsilon), img)
    assert rel_error(grad, fd) <= 1e-5
    assert rel_error(grad, tv_gradient(img, tv)) <= 1e-12
    rows_sq = np.linalg.svd(circulant_diff(5), compute_uv=False)[0] ** 2
    cols_sq = np.linalg.svd(circulant_diff(7), compute_uv=False)[0] ** 2
    assert curv == pytest.approx(tv.q * (cols_sq * u.max() + rows_sq * v.max()), rel=1e-12)


@pytest.mark.parametrize("seed", [16, 17])
def test_majorizer_gradients_away_from_the_anchor(seed):
    # the solver forms each majorizer at the iterate its objective scores and
    # applies it at an extrapolated anchor: there the gradient is that of the
    # surrogate anchored at the iterate, not the penalty's, and the returned
    # curvature bounds the surrogate's Hessian everywhere
    rng = np.random.default_rng(seed)
    sch, tv = SchattenConfig(p=0.6, tau=0.5), TvConfig(q=0.7, epsilon=0.02)
    x = rng.normal(size=(5, 6))
    z = x + rng.normal(size=x.shape)

    _, weight, curv = schatten_majorizer(x, sch)
    w = schatten_weight(x, sch)
    surrogate = lambda y: schatten_majorizer_value(y, w, sch)  # noqa: E731
    grad = schatten_majorizer_grad(weight, z)
    assert rel_error(grad, central_gradient(surrogate, z)) <= 1e-6
    assert rel_error(grad, schatten_gradient(z, sch)) > 1e-3
    hess = dense_hessian(surrogate, x)
    assert curv >= np.linalg.eigvalsh(hess)[-1] * (1 - 1e-12)

    _, weights, curv = tv_majorizer(x, tv)
    surrogate = lambda y: tv_majorizer_value(y, x, tv)  # noqa: E731
    grad = tv_majorizer_grad(weights, z)
    assert rel_error(grad, central_gradient(surrogate, z)) <= 1e-6
    assert rel_error(grad, tv_gradient(z, tv)) > 1e-3
    hess = dense_hessian(surrogate, x)
    assert curv >= np.linalg.eigvalsh(hess)[-1] * (1 - 1e-12)


@settings(max_examples=40, deadline=None)
@given(n_maps=st.integers(1, 4), rows=st.integers(2, 7), extra=st.integers(1, 4),
       wide=st.booleans(), solver_layout=st.booleans(), seed=st.integers(0, 2**31))
def test_majorizers_of_a_stack_are_the_per_map_majorizers(n_maps, rows, extra, wide,
                                                          solver_layout, seed):
    # a stack of R maps with I != J, C-contiguous or laid out as the solver's
    # view of a terms-major factor: the value is the sum of the maps' values,
    # the weights, the gradients at another point and the curvature (the
    # largest of the maps') are those of one call per map
    shape = (rows, rows + extra) if wide else (rows + extra, rows)
    rng = np.random.default_rng(seed)
    x, z = (rng.normal(size=(n_maps, *shape)) for _ in range(2))
    if solver_layout:
        x, z = (np.asfortranarray(a.transpose(1, 2, 0)).transpose(2, 0, 1) for a in (x, z))
    for majorizer, majorizer_grad, params in (
            (tv_majorizer, tv_majorizer_grad, TvConfig(q=0.7, epsilon=0.02)),
            (schatten_majorizer, schatten_majorizer_grad, SchattenConfig(p=0.6, tau=0.5))):
        value, weights, curv = majorizer(x, params)
        per_map = [majorizer(x[r], params) for r in range(n_maps)]
        total = sum(m[0] for m in per_map)
        assert abs(value - total) <= 1e-13 * total
        assert np.array_equal(np.asarray(weights),
                              np.stack([np.asarray(m[1]) for m in per_map], axis=-3))
        assert curv == max(m[2] for m in per_map)
        grad = majorizer_grad(weights, z)
        assert np.array_equal(grad, np.stack(
            [majorizer_grad(m[1], z[r]) for r, m in enumerate(per_map)]))


def test_tv_config_validation():
    with pytest.raises(ValueError):
        TvConfig(q=0.0)
    with pytest.raises(ValueError):
        TvConfig(q=0.5, epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon"):
        TvConfig(q=0.5, epsilon=np.nan)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), scale=st.floats(0.1, 10.0))
def test_schatten_majorizer_dominates_property(seed, scale):
    rng = np.random.default_rng(seed)
    anchor = rng.normal(size=(3, 4))
    x = rng.normal(size=(3, 4)) * scale
    w = schatten_weight(anchor, CFG)
    assert schatten_majorizer_value(x, w, CFG) >= schatten_majorizer(x, CFG)[0] - 1e-10
