"""Single-dihedral spectral problem in a truncated Fourier basis.

The overdamped rotational dynamics of one dihedral relaxes according to a
Smoluchowski generator. Conjugating it with the square root of the Boltzmann
density yields a self-adjoint operator with the same spectrum,

    G = -prefactor * [ d^2/dtheta^2 + U''(theta)/2 - U'(theta)^2/4 ],

where `prefactor` collects the diffusion coefficients of the two rotors the
dihedral connects. G is positive semidefinite; its ground state is
proportional to exp(-U/2) with eigenvalue 0, and excited eigenvalues are the
relaxation rates of the angle.

Everything here is expanded over the orthonormal Fourier basis on [0, 2*pi):

    index 0:        1/sqrt(2*pi)
    index 2n-1:     cos(n*theta)/sqrt(pi)      n = 1..M
    index 2n:       sin(n*theta)/sqrt(pi)      n = 1..M

Because U is a finite cosine series, all matrix elements reduce to
product-to-sum trigonometric identities and are computed exactly (up to
float rounding); no quadrature is involved. Each matrix is built by
applying those identities as index arithmetic over all basis functions at
once, and W and U' are written down from the potential's one harmonic.

The basis functions are parity eigenstates under theta -> -theta: the
constant and the cosines are even (+1), the sines odd (-1). U is even, so G
is block diagonal in parity and each block is diagonalized separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import _strictly_lower, canonicalize_signs, jacobi_eigh
from .potential import DihedralSpec, cosine_series

# relative clustering width for degenerate eigenvalues (free-rotor pairs)
_DEGENERACY_TOL = 1e-9
# kept eigenvalues must move less than this when the cutoff is doubled
_CONVERGENCE_TOL = 1e-8
# float64 entries allowed in the generator at twice the cutoff (512 MiB), so
# harmonics <= 2047
_MAX_GENERATOR_ENTRIES = 2**26


def fourier_parities(harmonics: int) -> np.ndarray:
    """Parity under theta -> -theta of each basis function (+1 or -1)."""
    p = np.ones(2 * harmonics + 1, dtype=int)
    p[2::2] = -1
    return p


# A trigonometric polynomial is a dict {(kind, n): coefficient} with kind 'c'
# for cos(n t) (n >= 0; ('c', 0) is the constant 1) and 's' for sin(n t).
# Coefficients are rounded in the order of the product-to-sum expansion that
# tests/oracles.py writes out pairwise, so both give the same bits.


def _harmonic(spec: DihedralSpec) -> tuple[int, float]:
    """(n, a) with U = const + a*cos(n*theta)."""
    series = cosine_series(spec)
    n = max(series)
    return n, series[n]


def _uprime_poly(spec: DihedralSpec) -> dict:
    """U' = -n*a*sin(n*theta); empty for a flat potential."""
    n, a = _harmonic(spec)
    return {("s", n): -n * a} if a else {}


def _effective_well_poly(spec: DihedralSpec) -> dict:
    """W = U''/2 - (U')^2/4, the effective potential of the symmetrized form.

    With U' = d1*sin(n t) and sin^2 = (1 - cos 2nt)/2, W is n*d1/2 cos(n t)
    plus -d1^2/8 and +d1^2/8 cos(2n t). The U''/2 term stays even where its
    halving underflows; the square's terms are left out where they round to 0.
    """
    n, a = _harmonic(spec)
    if not a:
        return {}
    d1 = -n * a
    square = d1 * d1
    well = {("c", n): (n * d1) * 0.5}
    for key, coeff in ((("c", 0), (0.5 * square) * -0.25), (("c", 2 * n), (-0.5 * square) * -0.25)):
        if coeff:
            well[key] = coeff
    return well


@lru_cache(maxsize=64)
def _product_plan(kind: str, n: int, harmonics: int) -> tuple:
    """Where each basis function times cos(n t) ('c') or sin(n t) ('s') lands.

    One read-only (rows, keys, signs) per product-to-sum identity term,
    holding only the terms that reach a basis function: basis function
    rows[i] times the poly term adds signs[i] times half its coefficient to
    the coefficient of basis function cols[i], at flat index
    keys[i] = rows[i] * (2 * harmonics + 1) + cols[i].
    """
    size = 2 * harmonics + 1
    rows = np.arange(size)
    freq = (rows + 1) // 2
    sine = (rows % 2 == 0) & (rows > 0)
    total, gap = freq + n, freq - n
    # (output is a sine, output frequency, sign) of each identity's two terms
    if kind == "c":
        # cos cos = c(sum) + c(|gap|); sin cos = s(sum) + sign(gap) s(|gap|)
        slots = ((sine, total, 1.0), (sine, abs(gap), np.where(sine, np.sign(gap), 1.0)))
    else:
        # cos sin = s(sum) - sign(gap) s(|gap|); sin sin = c(|gap|) - c(sum)
        slots = (
            (~sine, np.where(sine, abs(gap), total), 1.0),
            (~sine, np.where(sine, total, abs(gap)), np.where(sine, -1.0, -np.sign(gap))),
        )
    plan = []
    for out_sine, out_freq, sign in slots:
        sign = np.broadcast_to(sign, (size,))
        cols = np.where(out_sine, 2 * out_freq, np.maximum(2 * out_freq - 1, 0))
        keep = (cols < size) & (sign != 0) & ~(out_sine & (out_freq == 0))
        term = (rows[keep], rows[keep] * size + cols[keep], sign[keep])
        for array in term:
            array.setflags(write=False)
        plan.append(term)
    return tuple(plan)


@lru_cache(maxsize=8)
def _basis_norms(harmonics: int) -> np.ndarray:
    """Read-only norms of the basis functions at a cutoff."""
    norms = np.full(2 * harmonics + 1, 1.0 / math.sqrt(math.pi))
    norms[0] = 1.0 / math.sqrt(2.0 * math.pi)
    norms.setflags(write=False)
    return norms


def multiplication_matrix(poly: dict, harmonics: int) -> np.ndarray:
    """Matrix of pointwise multiplication by `poly` in the Fourier basis.

    Every basis function times each term of `poly` is expanded by the
    product-to-sum identities, as index arithmetic over all rows at once;
    entry (i, j) is 2*pi times the constant term of that expansion times
    basis function j. The index arithmetic is planned once per term and
    cutoff, so a build only does the value arithmetic.
    """
    size = 2 * harmonics + 1
    norms = _basis_norms(harmonics)
    # coeff[i, j]: coefficient of basis function j's key in basis function i times poly
    coeff = np.zeros(size * size)
    for (kind, n), value in poly.items():
        half = 0.5 * (norms * value)
        for rows, keys, signs in _product_plan(kind, n, harmonics):
            coeff[keys] += signs * half[rows]
    half = 0.5 * (coeff.reshape(size, size) * norms)
    # times the constant function, the constant key is reached twice: c(0 + 0) and c(|0 - 0|)
    half[:, 0] += half[:, 0]
    # adding 0.0 turns the -0.0 of a vanishing entry into 0.0
    entries = 2.0 * math.pi * half + 0.0
    # the upper triangle, mirrored
    return np.where(_strictly_lower(size), entries.T, entries)


@lru_cache(maxsize=8)
def _parity_blocks(harmonics: int) -> tuple:
    """Read-only (rows, cols) of the even, then the odd parity block at a cutoff.

    cols lists the block's basis functions, and matrix[rows, cols] gathers
    the block as matrix[np.ix_(cols, cols)] does.
    """
    parities = fourier_parities(harmonics)
    blocks = []
    for parity in (1, -1):
        cols = np.flatnonzero(parities == parity)
        rows = cols[:, None]
        for array in (rows, cols):
            array.setflags(write=False)
        blocks.append((rows, cols))
    return tuple(blocks)


@lru_cache(maxsize=8)
def fourier_derivative_matrix(harmonics: int) -> np.ndarray:
    """Matrix of d/dtheta in the Fourier basis (antisymmetric).

    Cached and shared between callers, so the returned array is read-only.
    """
    size = 2 * harmonics + 1
    n = np.arange(1, harmonics + 1)
    norm = 1.0 / math.sqrt(math.pi)
    out = np.zeros((size, size))
    out[2 * n, 2 * n - 1] = 2.0 * math.pi * (0.5 * ((-n * norm) * norm))
    out[2 * n - 1, 2 * n] = 2.0 * math.pi * (0.5 * ((n * norm) * norm))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=8)
def fourier_uprime_matrix(spec: DihedralSpec, harmonics: int) -> np.ndarray:
    """Matrix of multiplication by U'(theta) in the Fourier basis (symmetric).

    Cached and shared between callers, so the returned array is read-only.
    """
    out = multiplication_matrix(_uprime_poly(spec), harmonics)
    out.setflags(write=False)
    return out


def build_single_dihedral_matrix(
    spec: DihedralSpec, prefactor: float, harmonics: int = 16
) -> np.ndarray:
    """Matrix of the symmetrized single-dihedral generator.

    `prefactor` is the sum of the diffusion coefficients of the two rotors
    joined by this dihedral. The result is symmetric, positive semidefinite,
    and block diagonal in parity; one whose norm overflows raises ValueError.
    """
    if not (prefactor > 0.0 and math.isfinite(prefactor)):
        raise ValueError(f"prefactor must be finite and > 0, got {prefactor}")
    if harmonics < 1:
        raise ValueError(f"need at least one harmonic, got harmonics={harmonics}")
    freq = (np.arange(2 * harmonics + 1) + 1) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        well = multiplication_matrix(_effective_well_poly(spec), harmonics)
        matrix = prefactor * (np.diag((freq * freq).astype(float)) - well)
        if not math.isfinite(np.linalg.norm(matrix)):
            raise ValueError(f"{spec} overflows its generator matrix; lower the barrier")
    return matrix


@dataclass(frozen=True, eq=False)
class DihedralEigenbasis:
    """Lowest eigenfunctions of one dihedral's generator.

    vectors[:, i] holds the Fourier coefficients of eigenfunction i;
    eigenvalues are ascending and parities are +1 (even) or -1 (odd).
    The d/dtheta and U' elements between them are computed from the
    vectors at first use and kept, read-only, with the basis.
    """

    spec: DihedralSpec
    prefactor: float
    harmonics: int
    eigenvalues: np.ndarray
    vectors: np.ndarray
    parities: np.ndarray

    @cached_property
    def derivative_elements(self) -> np.ndarray:
        """Read-only `derivative_matrix_elements` of this basis."""
        out = derivative_matrix_elements(self)
        out.setflags(write=False)
        return out

    @cached_property
    def uprime_elements(self) -> np.ndarray:
        """Read-only `uprime_matrix_elements` of this basis."""
        out = uprime_matrix_elements(self)
        out.setflags(write=False)
        return out


# An entry holds a whole spectrum, about 10 KB at harmonics 16. Eight hold
# the distinct dihedrals of a ladder on a short chain; a scan moves on to
# fresh specs, where more entries would only hold memory.
@lru_cache(maxsize=8)
def _solve(spec: DihedralSpec, prefactor: float, harmonics: int):
    """Every mode of one dihedral's generator, and its cutoff guard's eigenvalues.

    Returns read-only (eigenvalues, vectors, parities, guard): every mode,
    ordered as `solve_dihedral` keeps them, with vectors[:, i] the i-th
    eigenfunction; and the ascending (even, odd) block eigenvalues from
    numpy's `eigvalsh` at twice the cutoff. The guard's values only bound
    the cutoff error, so they need not match the spectrum bit for bit.

    Entry (i, j) of the generator depends only on basis functions i and j,
    so the leading (2h+1) x (2h+1) block of the one build at 2h harmonics
    is, bit for bit, the generator at h. A barrier whose doubled generator
    overflows is refused, even where the block at the cutoff would not.
    """
    size = 2 * harmonics + 1
    doubled = build_single_dihedral_matrix(spec, prefactor, 2 * harmonics)
    matrix = doubled[:size, :size]

    # the even block's modes, then the odd block's, each as a full-size column
    blocks = []
    vectors = np.zeros((size, size))
    for (rows, cols), start in zip(_parity_blocks(harmonics), (0, harmonics + 1)):
        w, v = jacobi_eigh(matrix[rows, cols])
        vectors[cols, start : start + cols.size] = v
        blocks.append(w)
    values = np.concatenate(blocks)
    mode_parities = np.repeat((1, -1), (harmonics + 1, harmonics))
    peaks = canonicalize_signs(vectors)

    # ascending values; a cluster runs while a value lies within the
    # degeneracy width of the cluster's first one, and orders odd before
    # even, then by dominant Fourier index
    order = np.argsort(values, kind="stable")
    ascending = values[order].tolist()
    width = _DEGENERACY_TOL * max(1.0, abs(ascending[-1]))
    clusters, cluster, first = [], 0, ascending[0]
    for value in ascending:
        if not value - first <= width:
            cluster, first = cluster + 1, value
        clusters.append(cluster)
    order = order[np.lexsort((peaks[order], mode_parities[order], clusters))]

    spectrum = (values[order], np.ascontiguousarray(vectors[:, order]), mode_parities[order])
    guard = tuple(np.linalg.eigvalsh(doubled[r, c]) for r, c in _parity_blocks(2 * harmonics))
    for array in spectrum + guard:
        array.setflags(write=False)
    return (*spectrum, guard)


@lru_cache(maxsize=256)
def solve_dihedral(
    spec: DihedralSpec, prefactor: float, n_keep: int, harmonics: int = 16
) -> DihedralEigenbasis:
    """Diagonalize one dihedral's generator and keep the lowest n_keep modes.

    Refuses, in this order: a cutoff below one harmonic; one whose generator
    at twice the cutoff would exceed the size limit, before anything is
    built; a kept count outside [1, 2*harmonics + 1]; a prefactor that is
    not finite and positive; a barrier whose generator at twice the cutoff
    overflows; and kept eigenvalues that are not converged in the cutoff.

    The even and odd parity blocks are diagonalized independently, so every
    eigenvector has definite parity by construction. Merged ordering is by
    ascending eigenvalue; exactly degenerate pairs are resolved odd-before-
    even, then by dominant Fourier index. Eigenvector signs are fixed so the
    first largest-magnitude coefficient is positive.

    The odd-first tie-break matters: the monostable potential's excited
    spectrum is exactly doubly degenerate (one even, one odd state per level),
    and keeping the odd member of a split pair is what makes truncated sets
    alternate in parity, which the composite odd-sector dimensions rely on.

    The kept eigenvalues of each parity, in ascending order, must agree to
    1e-8 with the lowest ones of the same parity block at twice the cutoff,
    otherwise a ValueError asks for a larger basis. The doubled basis holds
    the original one and the blocks decouple, so each block's k-th eigenvalue
    can only fall as the cutoff grows, and pairing by parity and rank never
    depends on how degenerate pairs happen to be ordered.

    The full spectrum is computed once per (spec, prefactor, harmonics) and
    shared by every kept count. Returns a shared cached object whose arrays
    are read-only copies of its first n_keep modes.
    """
    if harmonics < 1:
        raise ValueError(f"need at least one harmonic, got harmonics={harmonics}")
    doubled = 4 * harmonics + 1
    if doubled * doubled > _MAX_GENERATOR_ENTRIES:
        raise ValueError(
            f"harmonics={harmonics} needs a {doubled} x {doubled} generator at twice the cutoff,"
            f" over the limit of {_MAX_GENERATOR_ENTRIES} entries; lower harmonics"
        )
    size = 2 * harmonics + 1
    if not 1 <= n_keep <= size:
        raise ValueError(
            f"kept must be in [1, 2*harmonics + 1] = [1, {size}] at harmonics={harmonics},"
            f" got kept={n_keep}; lower kept or raise harmonics"
        )
    eigenvalues, vectors, parities, (even, odd) = _solve(spec, prefactor, harmonics)
    basis = DihedralEigenbasis(
        spec=spec,
        prefactor=prefactor,
        harmonics=harmonics,
        eigenvalues=eigenvalues[:n_keep].copy(),
        vectors=vectors[:, :n_keep].copy(),
        parities=parities[:n_keep].copy(),
    )
    # the kept even eigenvalues, then the odd ones, each ascending
    kept = basis.eigenvalues[np.lexsort((basis.eigenvalues, -basis.parities))]
    n_even = np.count_nonzero(basis.parities == 1)
    refined = np.concatenate((even[:n_even], odd[: kept.size - n_even]))
    drift = float(np.max(np.abs(kept - refined)))
    if drift >= _CONVERGENCE_TOL:
        raise ValueError(
            f"eigenvalues drift by {drift:.3e} when doubling harmonics={harmonics}; "
            "increase the cutoff"
        )
    for array in (basis.eigenvalues, basis.vectors, basis.parities):
        array.setflags(write=False)
    return basis


def derivative_matrix_elements(basis: DihedralEigenbasis) -> np.ndarray:
    """<i| d/dtheta |j> between kept eigenfunctions (antisymmetric).

    d/dtheta flips parity, so entries between equal-parity eigenfunctions
    vanish identically.
    """
    dmat = fourier_derivative_matrix(basis.harmonics)
    return basis.vectors.T @ dmat @ basis.vectors


def uprime_matrix_elements(basis: DihedralEigenbasis) -> np.ndarray:
    """<i| U'(theta) |j> between kept eigenfunctions (symmetric).

    U' is odd under theta -> -theta, so this too only connects opposite
    parity eigenfunctions.
    """
    mat = fourier_uprime_matrix(basis.spec, basis.harmonics)
    return basis.vectors.T @ mat @ basis.vectors
