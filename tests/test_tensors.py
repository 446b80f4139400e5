import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsrfuse.errors import DimensionError
from hsrfuse.tensors import ensure_finite, refold, unfold

from _oracles import frobenius_norm, khatri_rao_col, kron, loop_unfold


def test_unfold_small_slab():
    t = np.zeros((2, 2, 1))
    t[:, :, 0] = [[1, 3], [2, 4]]
    assert unfold(t).ravel().tolist() == [1, 2, 3, 4]


def test_unfold_refold_roundtrip():
    rng = np.random.default_rng(0)
    t = rng.normal(size=(3, 4, 5))
    assert np.array_equal(refold(unfold(t), t.shape), t)
    m = rng.normal(size=(20, 3))
    assert np.array_equal(unfold(refold(m, (5, 4, 3))), m)


def test_unfold_matches_blockterm_identity():
    # unfold(sum_r S_r o c_r) == [vec(S_1) ... vec(S_R)] @ C.T, elementwise
    rng = np.random.default_rng(1)
    maps = [rng.normal(size=(4, 3)) for _ in range(2)]
    spectra = rng.normal(size=(5, 2))
    tensor = np.zeros((4, 3, 5))
    for a in range(4):
        for b in range(3):
            for c in range(5):
                for r in range(2):
                    tensor[a, b, c] += maps[r][a, b] * spectra[c, r]
    stacked = np.column_stack([m.ravel(order="F") for m in maps])
    assert np.allclose(unfold(tensor), stacked @ spectra.T, atol=1e-14)


def test_refold_zero_matrix():
    assert np.array_equal(refold(np.zeros((6, 2)), (2, 3, 2)), np.zeros((2, 3, 2)))


def test_refold_rejects_bad_dims():
    with pytest.raises(DimensionError):
        refold(np.zeros((6, 2)), (2, 2, 2))


def test_refold_columns_become_slabs():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(6, 4))
    t = refold(m, (2, 3, 4))
    for k in range(4):
        for a in range(2):
            for b in range(3):
                assert t[a, b, k] == m[a + 2 * b, k]


def test_kron_identity_blocks():
    assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_hand_example():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0], [4.0]])
    assert np.array_equal(kron(a, b), [[3.0, 6.0], [4.0, 8.0]])


def test_kron_vec_identity():
    # (a kron b) vec(X) == vec(b X a'), column-major vec
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(4, 2))
    x = rng.normal(size=(2, 3))
    lhs = kron(a, b) @ x.ravel(order="F")
    rhs = (b @ x @ a.T).ravel(order="F")
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_khatri_rao_rows():
    a = np.array([[1.0, 2.0, 3.0]])
    b = np.array([[4.0, 5.0, 6.0]])
    assert np.array_equal(khatri_rao_col(a, b), [[4.0, 10.0, 18.0]])


def test_khatri_rao_identity_selects_diagonal():
    out = khatri_rao_col(np.eye(2), np.eye(2))
    expected = np.zeros((4, 2))
    expected[0, 0] = 1.0
    expected[3, 1] = 1.0
    assert np.array_equal(out, expected)


def test_khatri_rao_vec_identity():
    # (P2 B (.)c P1 A) @ ones == vec(P1 A (P2 B)')
    rng = np.random.default_rng(4)
    p1, a = rng.normal(size=(3, 5)), rng.normal(size=(5, 2))
    p2, b = rng.normal(size=(2, 4)), rng.normal(size=(4, 2))
    lhs = khatri_rao_col(p2 @ b, p1 @ a) @ np.ones(2)
    rhs = (p1 @ a @ (p2 @ b).T).ravel(order="F")
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_khatri_rao_rejects_column_mismatch():
    with pytest.raises(DimensionError):
        khatri_rao_col(np.eye(2), np.eye(3))


def test_frobenius_values():
    assert frobenius_norm(np.ones((2, 2, 2))) == pytest.approx(np.sqrt(8), rel=1e-15)
    assert frobenius_norm(np.zeros((3, 2, 1))) == 0.0
    assert frobenius_norm(np.array([[[3.0]]])) == 3.0


dims_strategy = st.tuples(
    st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)
)


@settings(max_examples=50, deadline=None)
@given(dims=dims_strategy, seed=st.integers(0, 2**31))
def test_unfold_refold_identity_property(dims, seed):
    t = np.random.default_rng(seed).normal(size=dims)
    assert np.array_equal(refold(unfold(t), dims), t)


@settings(max_examples=50, deadline=None)
@given(dims=dims_strategy, seed=st.integers(0, 2**31))
def test_unfold_index_rule(dims, seed):
    t = np.random.default_rng(seed).normal(size=dims)
    assert np.array_equal(unfold(t), loop_unfold(t))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_kron_mixed_product(seed):
    rng = np.random.default_rng(seed)
    a, c = rng.normal(size=(2, 3)), rng.normal(size=(3, 2))
    b, d = rng.normal(size=(3, 2)), rng.normal(size=(2, 4))
    assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_kron_associativity(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 3))
    c = rng.normal(size=(3, 2))
    assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)


def test_ensure_finite_forms_no_mask():
    # an 8 MB array is checked in place: a boolean mask of it would be 1 MB
    arr = np.random.default_rng(3).standard_normal(1 << 20)
    ensure_finite(arr)
    tracemalloc.start()
    try:
        assert ensure_finite(arr, "x") is arr
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    for bad in (np.nan, np.inf, -np.inf):
        arr[12345] = bad
        with pytest.raises(ValueError, match="^x contains non-finite entries$"):
            ensure_finite(arr, "x")
    assert ensure_finite(np.empty((0, 3))).shape == (0, 3)
