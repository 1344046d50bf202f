"""Dense symmetric eigensolvers: input checks and cyclic Jacobi rotations.

Matrices in this package are small (at most 65x65 for the spectral basis,
at most 16x16 for composite operators). The dihedral blocks go through a
classic cyclic Jacobi sweep, whose eigenvector bits define every chain
matrix; the chain's own spectrum comes from LAPACK (`numpy.linalg.eigh`)
behind the same input checks. Jacobi drives the off-diagonal mass below a
tolerance relative to the Frobenius norm of the input; for matrices of
order-one entries that is an absolute 1e-12.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

OFFDIAG_TOL = 1e-12
# Jacobi gives up after this many sweeps
_MAX_SWEEPS = 100


@lru_cache(maxsize=16)
def _strictly_lower(n: int) -> np.ndarray:
    mask = np.tri(n, n, -1, dtype=bool)
    mask.setflags(write=False)
    return mask


def _offdiag_norm(a: np.ndarray) -> float:
    # np.tril(a, -1), on a cached mask: np.tril builds its mask on every call
    return float(np.sqrt(np.sum(np.where(_strictly_lower(a.shape[0]), a, 0.0) ** 2) * 2.0))


# an entry above this in magnitude doubles to infinity
_HALF_MAX = float(np.finfo(float).max) / 2.0


def _exactly_symmetric(a: np.ndarray) -> bool:
    """Whether 0.5 * (a + a.T) would give back the float array `a` bit for bit.

    It does when `a` equals its transpose bit for bit (signed zeros
    included), holds no NaN and has no entry that overflows when doubled.
    """
    bits = a.view(np.uint64)
    return bool((bits == bits.T).all()) and np.abs(a).max() <= _HALF_MAX


def _checked_symmetric(matrix) -> np.ndarray:
    """The input as a new float array, averaged with its transpose.

    Raises ValueError unless it is square, non-empty and symmetric to
    1e-10 * max(1, max|a|); a NaN fails the symmetry check. LAPACK reads one
    triangle only, so it would take a non-symmetric input silently. An
    exactly symmetric input, such as every matrix the package mirrors,
    skips the test and the average, which would leave it as it is.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("empty matrix")
    if _exactly_symmetric(a):
        return a
    # equal pairs pass, infinities included; any other pair must be finite,
    # even where an infinite entry makes the tolerance infinite
    unequal = a != a.T
    diff = np.subtract(a, a.T, out=np.zeros_like(a), where=unequal)
    tol = 1e-10 * max(1.0, np.abs(a).max())
    if not (np.abs(diff).max() <= tol and np.isfinite(a[unequal]).all()):
        raise ValueError("matrix is not symmetric")
    return 0.5 * (a + a.T)


def jacobi_eigh(matrix: np.ndarray):
    """Eigenvalues and eigenvectors of a real symmetric matrix.

    Returns (w, v) with v[:, i] the eigenvector for w[i], in no particular
    order. Raises ValueError if the input is not square/symmetric or if the
    sweep limit is exceeded.
    """
    a = _checked_symmetric(matrix)
    n = a.shape[0]
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(n), np.eye(n)
    thresh = OFFDIAG_TOL * scale

    # row i holds column i of the matrix followed by eigenvector i, so the
    # two vectors one rotation turns are contiguous rows p and q
    stacked = np.hstack((a, np.eye(n)))
    a = stacked[:, :n]
    rows = list(stacked)
    heads = [row[:n] for row in rows]
    columns = [a[:, j] for j in range(n)]
    sx = np.empty(2 * n)
    sy = np.empty(2 * n)
    # rotations below this are pointless at double precision
    skip = thresh / max(n, 2)
    for _ in range(_MAX_SWEEPS):
        if _offdiag_norm(a) <= thresh:
            break
        for p in range(n - 1):
            x = rows[p]
            for q in range(p + 1, n):
                apq = x.item(q)
                if abs(apq) <= skip:
                    continue
                y = rows[q]
                app, aqq = x.item(p), y.item(q)
                tau = (aqq - app) / (2.0 * apq)
                t = 1.0
                if tau != 0.0:
                    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c

                # turn rows p and q in place into c*x - s*y and s*x + c*y
                # (x*c and y*c + s*x round exactly as c*x and s*x + c*y),
                # mirror the matrix part into columns p and q, then
                # overwrite the four pivot entries (a[p, p] is x[p], a[p, q]
                # is x[q], a[q, p] is y[p] and a[q, q] is y[q])
                np.multiply(x, s, out=sx)
                x *= c
                np.multiply(y, s, out=sy)
                x -= sy
                y *= c
                y += sx
                columns[p][...] = heads[p]
                columns[q][...] = heads[q]
                x[p] = app - t * apq
                y[q] = aqq + t * apq
                x[q] = y[p] = 0.0
    else:
        raise ValueError(
            f"Jacobi sweep limit ({_MAX_SWEEPS}) exceeded; "
            f"residual off-diagonal norm {_offdiag_norm(a):.3e}"
        )
    return np.diag(a).copy(), stacked[:, n:].T.copy()


def canonicalize_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns in place so each one's first largest-magnitude entry is positive.

    Returns the row index of that entry in every column. A column that is
    flipped has its zeros turned into -0.0, as a negation does.
    """
    peaks = np.argmax(np.abs(vectors), axis=0)
    np.negative(vectors, out=vectors, where=vectors[peaks, np.arange(vectors.shape[1])] < 0.0)
    return peaks
