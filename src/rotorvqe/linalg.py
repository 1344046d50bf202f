"""Dense symmetric eigensolvers: input checks and cyclic Jacobi rotations.

Matrices in this package are small (at most 65x65 for the spectral basis,
at most 16x16 for composite operators). The dihedral blocks go through a
classic cyclic Jacobi sweep, whose eigenvector bits define every chain
matrix; the chain's own spectrum comes from LAPACK (`numpy.linalg.eigh`)
behind the same input checks. Jacobi drives the off-diagonal mass below a
tolerance relative to the Frobenius norm of the input; for matrices of
order-one entries that is an absolute 1e-12.

Jacobi takes several matrices at once, in practice the two parity blocks
of one dihedral generator, and runs them in lockstep: one cyclic sweep
loop visits each pivot (p, q) once for all of them. Each matrix keeps its
own threshold, skip test, sweep count and sweep limit, and a matrix that
has converged, or whose pivot is below its skip test, is left alone. Where
every matrix turns at (p, q), one set of numpy calls turns all their rows
p and q together; a rotation is elementwise, so each matrix comes out bit
for bit as it would alone, and the parity blocks rotate at nearly the same
pivots, so this halves the calls of a dihedral solve.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

OFFDIAG_TOL = 1e-12
# Jacobi gives up after this many sweeps
_MAX_SWEEPS = 100
# both solvers refuse an infinite entry, and Jacobi an overflowing norm
_NOT_FINITE = "matrix has an entry or a norm that is not finite"


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


def jacobi_eigh(matrices) -> list:
    """Eigenvalues and eigenvectors of each real symmetric matrix in `matrices`.

    Returns one (w, v) per matrix, with v[:, i] the eigenvector for w[i], in
    no particular order; each comes out bit for bit as it would alone.
    Raises ValueError if a matrix is not square/symmetric, if an entry or
    the norm of one is not finite, or if a sweep limit is exceeded.
    """
    blocks = [_checked_symmetric(matrix) for matrix in matrices]
    # entries near the float limit overflow the norm, which is refused
    with np.errstate(over="ignore"):
        scales = [float(np.linalg.norm(a)) for a in blocks]
    if not all(map(math.isfinite, scales)):
        raise ValueError(_NOT_FINITE)
    k = len(blocks)
    sizes = [a.shape[0] for a in blocks]
    n = max(sizes)

    # stacked[i, b] holds column i of matrix b followed by its eigenvector i,
    # each zero-padded to n entries, so the vectors one rotation turns are
    # the contiguous rows stacked[p, b] and stacked[q, b] of matrix b, and
    # stacked[p] and stacked[q] of every matrix at once; every rotation
    # keeps the padding +0.0, so it never passes a skip test
    stacked = np.zeros((n, k, 2 * n))
    views, live = [], []
    for b, (a, m) in enumerate(zip(blocks, sizes)):
        views.append(stacked[:m, b, :m])
        stacked[:m, b, n : n + m] = np.eye(m)
        # a zero matrix stays zero and takes no sweep
        if scales[b] > 0.0:
            views[b][...] = a
            live.append(b)
    # each matrix's diagonal, which only pivot writes change
    diagonals = [view.diagonal().tolist() for view in views]
    thresholds = [OFFDIAG_TOL * scale for scale in scales]
    # rotations below this are pointless at double precision
    skips = [thresh / max(m, 2) for thresh, m in zip(thresholds, sizes)]
    rows = [list(stacked[:, b]) for b in range(k)]
    heads = [[row[:n] for row in block] for block in rows]
    columns = [[stacked[:, b, j] for j in range(n)] for b in range(k)]
    joint = list(stacked.reshape(n, -1))
    # each matrix's c and s filled across its part of a joint row: a product
    # with these vectors rounds as with the scalars, and costs less
    coeffs = np.empty((2, k, 2 * n))
    cs, ss = coeffs.reshape(2, -1)
    cparts, sparts = list(coeffs[0]), list(coeffs[1])
    # s*x and s*y of the joint rows, or of one matrix's rows
    sx, sy = np.empty((2, k * 2 * n))
    sx1, sy1 = sx[: 2 * n], sy[: 2 * n]

    for _ in range(_MAX_SWEEPS):
        live = [b for b in live if not _offdiag_norm(views[b]) <= thresholds[b]]
        if not live:
            break
        for p in range(n - 1):
            pivots = [(b, rows[b][p], rows[b], diagonals[b], skips[b]) for b in live]
            for q in range(p + 1, n):
                turns = []
                for b, x, block, diagonal, skip in pivots:
                    apq = x.item(q)
                    if abs(apq) > skip:
                        app, aqq = diagonal[p], diagonal[q]
                        tau = (aqq - app) / (2.0 * apq)
                        t = 1.0
                        if tau != 0.0:
                            t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                        c = 1.0 / math.sqrt(1.0 + t * t)
                        cparts[b].fill(c)
                        sparts[b].fill(t * c)
                        turns.append((b, x, block[q], diagonal, app - t * apq, aqq + t * apq))
                if not turns:
                    continue
                # turn rows p and q in place into c*x - s*y and s*x + c*y
                # (x*c and y*c + s*x round exactly as c*x and s*x + c*y):
                # the joint rows when every matrix turns here, else the
                # turning matrix's own
                if len(turns) == k:
                    rotations = ((joint[p], joint[q], cs, ss, sx, sy),)
                else:
                    rotations = [(x, y, cparts[b], sparts[b], sx1, sy1) for b, x, y, *_ in turns]
                for x, y, c, s, xs, ys in rotations:
                    np.multiply(x, s, out=xs)
                    x *= c
                    np.multiply(y, s, out=ys)
                    x -= ys
                    y *= c
                    y += xs
                # set the pivot entries of rows p and q (a[p, p] is x[p],
                # a[p, q] is x[q] and a[q, q] is y[q]), then mirror the
                # matrix part into columns p and q, which zeroes a[q, p]
                for b, x, y, diagonal, app, aqq in turns:
                    x[p] = diagonal[p] = app
                    y[q] = diagonal[q] = aqq
                    x[q] = 0.0
                    columns[b][p][...] = heads[b][p]
                    columns[b][q][...] = heads[b][q]
    else:
        raise ValueError(
            f"Jacobi sweep limit ({_MAX_SWEEPS}) exceeded; "
            f"residual off-diagonal norm {_offdiag_norm(views[live[0]]):.3e}"
        )
    return [
        (view.diagonal().copy(), stacked[:m, b, n : n + m].T.copy())
        for b, (view, m) in enumerate(zip(views, sizes))
    ]


def canonicalize_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns in place so each one's first largest-magnitude entry is positive.

    Returns the row index of that entry in every column. A column that is
    flipped has its zeros turned into -0.0, as a negation does.
    """
    peaks = np.argmax(np.abs(vectors), axis=0)
    np.negative(vectors, out=vectors, where=vectors[peaks, np.arange(vectors.shape[1])] < 0.0)
    return peaks
