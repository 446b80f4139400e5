"""Dense third-order tensor utilities.

A spectral image is a plain float64 ndarray of shape (I, J, K): two spatial
axes and one spectral axis.  The canonical memory layout is Fortran order
(first index fastest), which makes the pixels-by-bands unfolding a zero-copy
reshape.  The solvers keep their pixels-by-terms factors in the same order
(terms-major): column r, the vec of map r, is contiguous, and the factor's
transpose is a C-contiguous (R, J, I) stack of the transposed maps.  An
F-contiguous pixels-by-bands matrix refolds as a view.
"""

import numbers

import numpy as np

from .errors import DimensionError


def unfold(tensor):
    """Unfold (I, J, K) into the (I*J, K) pixels-by-bands matrix.

    Row ``l`` holds the spectral fiber ``tensor[l % I, l // I, :]``, i.e.
    pixels are enumerated down the first spatial axis, then across the second.
    """
    i, j, k = tensor.shape
    return np.reshape(tensor, (i * j, k), order="F")


def refold(matrix, dims):
    """Fold a pixels-by-bands matrix back into an (I, J, K) tensor."""
    i, j, k = dims
    if matrix.shape != (i * j, k):
        raise DimensionError(
            f"cannot refold a {matrix.shape} matrix into dims {tuple(dims)}"
        )
    return np.reshape(matrix, (i, j, k), order="F")


def ensure_finite(arr, label="array"):
    """Raise ValueError if the array ``arr`` contains NaN or infinities.

    NaN propagates through ``min`` and ``max``, and an infinity is one of the
    two, so the test reads the array twice and forms no mask of it.
    """
    if arr.size:
        with np.errstate(invalid="ignore"):  # a NaN reduction may flag invalid
            lo, hi = arr.min(), arr.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"{label} contains non-finite entries")
    return arr


def check_int(name, value, minimum):
    """Reject anything but an integer (numpy's included) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def check_real(name, value):
    """Reject anything but a real number (numpy's included); bools are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value
