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
float rounding); no quadrature is involved.

The basis functions are parity eigenstates under theta -> -theta: the
constant and the cosines are even (+1), the sines odd (-1). U is even, so G
is block diagonal in parity and each block is diagonalized separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import canonical_sign, jacobi_eigh
from .potential import DihedralSpec, cosine_series

# relative clustering width for degenerate eigenvalues (free-rotor pairs)
_DEGENERACY_TOL = 1e-9
# kept eigenvalues must move less than this when the cutoff is doubled
_CONVERGENCE_TOL = 1e-8


def fourier_parities(harmonics: int) -> np.ndarray:
    """Parity under theta -> -theta of each basis function (+1 or -1)."""
    p = np.ones(2 * harmonics + 1, dtype=int)
    p[2::2] = -1
    return p


# ---------------------------------------------------------------------------
# Exact algebra on finite trigonometric polynomials.
#
# A polynomial is a dict {(kind, n): coefficient} with kind 'c' for cos(n t)
# (n >= 0; ('c', 0) is the constant 1) and 's' for sin(n t) (n >= 1).
# ---------------------------------------------------------------------------


def _tp_accumulate(poly: dict, kind: str, n: int, coeff: float) -> None:
    if coeff == 0.0:
        return
    if kind == "s" and n == 0:
        return
    key = (kind, n)
    poly[key] = poly.get(key, 0.0) + coeff


def _tp_scale(poly: dict, factor: float) -> dict:
    return {k: v * factor for k, v in poly.items()}

def _tp_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for (kind, n), v in b.items():
        _tp_accumulate(out, kind, n, v)
    return out


def _tp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (k1, n1), v1 in a.items():
        for (k2, n2), v2 in b.items():
            w = v1 * v2
            if k1 == "c" and k2 == "c":
                _tp_accumulate(out, "c", n1 + n2, 0.5 * w)
                _tp_accumulate(out, "c", abs(n1 - n2), 0.5 * w)
            elif k1 == "s" and k2 == "s":
                _tp_accumulate(out, "c", abs(n1 - n2), 0.5 * w)
                _tp_accumulate(out, "c", n1 + n2, -0.5 * w)
            else:
                # exactly one sine factor; put it first
                ns, nc = (n1, n2) if k1 == "s" else (n2, n1)
                _tp_accumulate(out, "s", ns + nc, 0.5 * w)
                if ns > nc:
                    _tp_accumulate(out, "s", ns - nc, 0.5 * w)
                elif nc > ns:
                    _tp_accumulate(out, "s", nc - ns, -0.5 * w)
    return out


def _tp_diff(a: dict) -> dict:
    out: dict = {}
    for (kind, n), v in a.items():
        if n == 0:
            continue
        if kind == "c":
            _tp_accumulate(out, "s", n, -n * v)
        else:
            _tp_accumulate(out, "c", n, n * v)
    return out


def _tp_integral(a: dict) -> float:
    """Integral over one full period [0, 2*pi)."""
    return 2.0 * math.pi * a.get(("c", 0), 0.0)


def _basis_poly(index: int) -> dict:
    if index == 0:
        return {("c", 0): 1.0 / math.sqrt(2.0 * math.pi)}
    n = (index + 1) // 2
    kind = "c" if index % 2 == 1 else "s"
    return {(kind, n): 1.0 / math.sqrt(math.pi)}


def _potential_poly(spec: DihedralSpec) -> dict:
    return {("c", n): v for n, v in cosine_series(spec).items()}


def _effective_well_poly(spec: DihedralSpec) -> dict:
    """W = U''/2 - (U')^2/4, the effective potential of the symmetrized form."""
    u = _potential_poly(spec)
    u1 = _tp_diff(u)
    u2 = _tp_diff(u1)
    return _tp_add(_tp_scale(u2, 0.5), _tp_scale(_tp_mul(u1, u1), -0.25))


def multiplication_matrix(poly: dict, harmonics: int) -> np.ndarray:
    """Matrix of pointwise multiplication by `poly` in the Fourier basis."""
    size = 2 * harmonics + 1
    out = np.zeros((size, size))
    if not poly:
        return out
    polys = [_basis_poly(i) for i in range(size)]
    for i in range(size):
        fi = _tp_mul(polys[i], poly)
        for j in range(i, size):
            val = _tp_integral(_tp_mul(fi, polys[j]))
            out[i, j] = val
            out[j, i] = val
    return out


def fourier_derivative_matrix(harmonics: int) -> np.ndarray:
    """Matrix of d/dtheta in the Fourier basis (antisymmetric)."""
    size = 2 * harmonics + 1
    out = np.zeros((size, size))
    polys = [_basis_poly(i) for i in range(size)]
    for j in range(size):
        dj = _tp_diff(polys[j])
        for i in range(size):
            out[i, j] = _tp_integral(_tp_mul(polys[i], dj))
    return out


def build_single_dihedral_matrix(
    spec: DihedralSpec, prefactor: float, harmonics: int = 16
) -> np.ndarray:
    """Matrix of the symmetrized single-dihedral generator.

    `prefactor` is the sum of the diffusion coefficients of the two rotors
    joined by this dihedral. The result is symmetric, positive semidefinite,
    and block diagonal in parity.
    """
    if not (prefactor > 0.0 and math.isfinite(prefactor)):
        raise ValueError(f"prefactor must be finite and > 0, got {prefactor}")
    if harmonics < 1:
        raise ValueError("need at least one harmonic")
    size = 2 * harmonics + 1
    kinetic = np.zeros(size)
    for n in range(1, harmonics + 1):
        kinetic[2 * n - 1] = kinetic[2 * n] = float(n * n)
    well = multiplication_matrix(_effective_well_poly(spec), harmonics)
    return prefactor * (np.diag(kinetic) - well)


@dataclass
class DihedralEigenbasis:
    """Lowest eigenfunctions of one dihedral's generator.

    vectors[:, i] holds the Fourier coefficients of eigenfunction i;
    eigenvalues are ascending and parities are +1 (even) or -1 (odd).
    """

    spec: DihedralSpec
    prefactor: float
    harmonics: int
    eigenvalues: np.ndarray
    vectors: np.ndarray
    parities: np.ndarray

    @property
    def n_kept(self) -> int:
        return len(self.eigenvalues)


def diagonalize_dihedral(
    spec: DihedralSpec, prefactor: float, n_keep: int, harmonics: int = 16
) -> DihedralEigenbasis:
    """Diagonalize one dihedral's generator and keep the lowest n_keep modes.

    The even and odd parity blocks are diagonalized independently, so every
    eigenvector has definite parity by construction. Merged ordering is by
    ascending eigenvalue; exactly degenerate pairs are resolved odd-before-
    even, then by dominant Fourier index. Eigenvector signs are fixed so the
    largest-magnitude coefficient is positive.

    The odd-first tie-break matters: the monostable potential's excited
    spectrum is exactly doubly degenerate (one even, one odd state per level),
    and keeping the odd member of a split pair is what makes truncated sets
    alternate in parity, which the composite odd-sector dimensions rely on.
    """
    size = 2 * harmonics + 1
    if not 1 <= n_keep <= size:
        raise ValueError(f"n_keep must be in [1, {size}], got {n_keep}")
    matrix = build_single_dihedral_matrix(spec, prefactor, harmonics)
    parities = fourier_parities(harmonics)

    entries = []
    for parity in (1, -1):
        idx = np.flatnonzero(parities == parity)
        w, v = jacobi_eigh(matrix[np.ix_(idx, idx)])
        for i in range(len(idx)):
            full = np.zeros(size)
            full[idx] = v[:, i]
            entries.append((float(w[i]), parity, canonical_sign(full)))

    entries.sort(key=lambda e: e[0])
    scale = max(1.0, abs(entries[-1][0]))
    ordered = []
    pos = 0
    while pos < len(entries):
        end = pos + 1
        while end < len(entries) and entries[end][0] - entries[pos][0] <= _DEGENERACY_TOL * scale:
            end += 1
        cluster = sorted(
            entries[pos:end],
            key=lambda e: (e[1], int(np.argmax(np.abs(e[2])))),
        )
        ordered.extend(cluster)
        pos = end

    kept = ordered[:n_keep]
    return DihedralEigenbasis(
        spec=spec,
        prefactor=prefactor,
        harmonics=harmonics,
        eigenvalues=np.array([e[0] for e in kept]),
        vectors=np.column_stack([e[2] for e in kept]),
        parities=np.array([e[1] for e in kept], dtype=int),
    )


@lru_cache(maxsize=256)
def solve_dihedral(
    spec: DihedralSpec,
    prefactor: float,
    n_keep: int,
    harmonics: int = 16,
    guard: bool = True,
) -> DihedralEigenbasis:
    """Cached diagonalization with an optional cutoff-convergence guard.

    With guard=True the problem is re-solved at twice the cutoff and the kept
    eigenvalues must agree to 1e-8, otherwise a ValueError asks for a larger
    basis. Returns a shared cached object; treat it as read-only.
    """
    basis = diagonalize_dihedral(spec, prefactor, n_keep, harmonics)
    if guard:
        refined = diagonalize_dihedral(spec, prefactor, n_keep, 2 * harmonics)
        drift = float(np.max(np.abs(basis.eigenvalues - refined.eigenvalues)))
        if drift >= _CONVERGENCE_TOL:
            raise ValueError(
                f"eigenvalues drift by {drift:.3e} when doubling harmonics={harmonics}; "
                "increase the cutoff"
            )
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
    u1 = _tp_diff(_potential_poly(basis.spec))
    mat = multiplication_matrix(u1, basis.harmonics)
    return basis.vectors.T @ mat @ basis.vectors
