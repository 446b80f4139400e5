import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsrfuse.blockterm import (
    COND_MSI_BANDS,
    COND_MSI_DIVERSITY,
    BlockTermFactors,
    RecoverabilityQuery,
    check_recoverability,
    random_blockterm,
    reconstruct,
)
from hsrfuse.errors import DimensionError
from hsrfuse.tensors import unfold

from _oracles import loop_reconstruct


def test_reconstruct_single_term():
    maps = np.ones((2, 2, 1))
    spectra = np.array([[1.0], [2.0]])
    t = reconstruct(BlockTermFactors(maps=maps, spectra=spectra))
    assert np.array_equal(t[:, :, 0], np.ones((2, 2)))
    assert np.array_equal(t[:, :, 1], 2 * np.ones((2, 2)))


def test_reconstruct_zero_spectra():
    factors = random_blockterm((3, 4, 5), 2, 2, seed=0)
    factors.spectra[:] = 0.0
    assert np.array_equal(reconstruct(factors), np.zeros((3, 4, 5)))


def test_reconstruct_matches_loop_oracle():
    for factors in (random_blockterm((6, 5, 4), 3, 2, seed=11),
                    random_blockterm((5, 6, 7), 2, 3, seed=3, nonneg=False)):
        n_terms = factors.maps.shape[2]
        expected = loop_reconstruct(
            [factors.maps[:, :, r] for r in range(n_terms)], factors.spectra
        )
        got = reconstruct(factors)
        assert np.max(np.abs(got - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))


def test_reconstruct_linear_in_factors():
    base = random_blockterm((4, 4, 3), 2, 2, seed=5)
    doubled = BlockTermFactors(maps=base.maps, spectra=2 * base.spectra)
    assert np.allclose(reconstruct(doubled), 2 * reconstruct(base))
    two_maps = BlockTermFactors(maps=2 * base.maps, spectra=base.spectra)
    assert np.allclose(reconstruct(two_maps), 2 * reconstruct(base))


def test_random_blockterm_deterministic():
    a = random_blockterm((4, 5, 3), 2, 2, seed=9)
    b = random_blockterm((4, 5, 3), 2, 2, seed=9)
    assert np.array_equal(a.maps, b.maps)
    assert np.array_equal(a.spectra, b.spectra)
    assert np.array_equal(a.left, b.left)


def test_random_blockterm_nonneg():
    f = random_blockterm((5, 5, 4), 3, 2, seed=1, nonneg=True)
    assert f.maps.min() >= 0.0
    assert f.spectra.min() >= 0.0


def test_random_blockterm_map_rank():
    f = random_blockterm((6, 7, 3), 2, 3, seed=2, nonneg=False)
    for r in range(2):
        svals = np.linalg.svd(f.maps[:, :, r], compute_uv=False)
        assert np.sum(svals > 1e-10) == 3


def test_random_blockterm_maps_are_factor_products():
    f = random_blockterm((6, 7, 3), 4, 2, seed=4, nonneg=False)
    for r in range(4):
        expected = f.left[:, :, r] @ f.right[:, :, r].T
        assert np.max(np.abs(f.maps[:, :, r] - expected)) <= 1e-14 * np.max(np.abs(expected))
    # terms-major: the pixels-by-terms unfolding is a view, as the solver keeps it
    assert np.shares_memory(unfold(f.maps), f.maps)


def test_random_blockterm_rejects_large_rank():
    with pytest.raises(DimensionError):
        random_blockterm((3, 5, 4), 2, 4)


@pytest.mark.parametrize("dims, n_terms, term_rank, name", [
    # the first four returned empty factors, the fifth blamed the term rank
    # for a negative dimension and the last two failed in numpy without
    # naming the field
    ((4, 4, 4), 2, 0, "term_rank"),
    ((4, 4, 4), 0, 2, "n_terms"),
    ((4, 4, 0), 2, 2, "dims[2]"),
    ((0, 4, 4), 2, 0, "dims[0]"),
    ((4, -4, 4), 2, 1, "dims[1]"),
    ((4, 4, 4), 2, True, "term_rank"),
    ((4, 4, 4), 2.0, 2, "n_terms"),
])
def test_random_blockterm_rejects_bad_counts(dims, n_terms, term_rank, name):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= 1")):
        random_blockterm(dims, n_terms, term_rank)


def test_factor_term_count_mismatch():
    with pytest.raises(DimensionError):
        BlockTermFactors(maps=np.zeros((2, 2, 3)), spectra=np.zeros((4, 2)))


def _pavia_query(blind=False):
    return RecoverabilityQuery(
        msi_rows=256, msi_cols=256, hsi_rows=64, hsi_cols=64,
        msi_bands=4, n_terms=4, term_rank=32, blind=blind,
    )


def test_pavia_configuration_satisfied():
    result = check_recoverability(_pavia_query())
    assert result.satisfied
    assert result.failed_conditions == []


def test_tiny_configuration_fails_diversity():
    query = RecoverabilityQuery(
        msi_rows=2, msi_cols=2, hsi_rows=1, hsi_cols=1,
        msi_bands=2, n_terms=1, term_rank=1,
    )
    result = check_recoverability(query)
    assert not result.satisfied
    assert result.failed_conditions == [COND_MSI_DIVERSITY]


def test_blind_needs_two_msi_bands():
    query = RecoverabilityQuery(
        msi_rows=64, msi_cols=64, hsi_rows=32, hsi_cols=32,
        msi_bands=1, n_terms=3, term_rank=2, blind=True,
    )
    result = check_recoverability(query)
    assert not result.satisfied
    assert COND_MSI_BANDS in result.failed_conditions


def test_query_rejects_nonpositive():
    with pytest.raises(ValueError):
        RecoverabilityQuery(
            msi_rows=0, msi_cols=4, hsi_rows=2, hsi_cols=2,
            msi_bands=2, n_terms=1, term_rank=1,
        )
    # every count must be an integer, and the error names the count
    good = dict(msi_rows=8, msi_cols=8, hsi_rows=2, hsi_cols=2,
                msi_bands=2, n_terms=1, term_rank=1)
    for name in good:
        for bad in (0, 8.5, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
                RecoverabilityQuery(**{**good, name: bad})


def test_query_rejects_hsi_larger_than_msi():
    # no spatial operator maps an MSI onto a larger HSI, so such sizes
    # describe no instance; the error names the fields and both sizes
    good = dict(msi_rows=8, msi_cols=8, hsi_rows=4, hsi_cols=4,
                msi_bands=2, n_terms=1, term_rank=1)
    for hsi in ((9, 4), (4, 9), (16, 16)):
        with pytest.raises(ValueError, match=r"hsi_rows/hsi_cols .* exceed the MSI size 8x8"):
            RecoverabilityQuery(**{**good, "hsi_rows": hsi[0], "hsi_cols": hsi[1]})
    assert RecoverabilityQuery(**{**good, "hsi_rows": 8, "hsi_cols": 8}).hsi_rows == 8
    # the random queries acceptance criterion 8 drew before it bounded the
    # HSI by the MSI: 8 of its 20 now raise
    rng = np.random.default_rng(8)
    raised = 0
    for _ in range(20):
        dims = dict(msi_rows=int(rng.integers(1, 300)), msi_cols=int(rng.integers(1, 300)),
                    hsi_rows=int(rng.integers(1, 80)), hsi_cols=int(rng.integers(1, 80)),
                    msi_bands=int(rng.integers(1, 12)))
        order = dict(n_terms=int(rng.integers(1, 9)), term_rank=int(rng.integers(1, 9)),
                     blind=bool(rng.integers(0, 2)))
        if dims["hsi_rows"] > dims["msi_rows"] or dims["hsi_cols"] > dims["msi_cols"]:
            raised += 1
            with pytest.raises(ValueError, match="exceed the MSI size"):
                RecoverabilityQuery(**dims, **order)
        else:
            RecoverabilityQuery(**dims, **order)
    assert raised == 8


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 64), cols=st.integers(1, 64),
    hsi_rows=st.integers(1, 16), hsi_cols=st.integers(1, 16),
    bands=st.integers(1, 8), n_terms=st.integers(1, 8),
    term_rank=st.integers(2, 8), blind=st.booleans(),
)
def test_recoverability_monotone_in_term_rank(
    rows, cols, hsi_rows, hsi_cols, bands, n_terms, term_rank, blind
):
    # Shrinking L relaxes every condition, so satisfied stays satisfied.
    # The HSI is clamped to the MSI size: no query may exceed it.
    hsi_rows, hsi_cols = min(hsi_rows, rows), min(hsi_cols, cols)

    def verdict(l_val):
        return check_recoverability(
            RecoverabilityQuery(
                msi_rows=rows, msi_cols=cols, hsi_rows=hsi_rows,
                hsi_cols=hsi_cols, msi_bands=bands,
                n_terms=n_terms, term_rank=l_val, blind=blind,
            )
        ).satisfied

    if verdict(term_rank):
        assert verdict(term_rank - 1)
