"""Independent reference implementations used only to check the package.

Everything here deliberately avoids the package's analytic trig-identity and
bitmask code paths: matrix elements come from dense trapezoid quadrature on a
periodic grid (spectrally accurate), potential derivatives are written out by
hand, and Pauli reconstruction uses literal 2x2 matrices with np.kron, as
does the Kraus-sum noisy channel.  The exceptions: `_apply_single` and
`_apply_cnot`, the former one-gate kernels, index with the package's pair
and CNOT tables, and three oracles run on them: the trajectory noisy
estimator, a reference for a sampling law; the one-point sampled
estimator, a bit-for-bit reference for the batched one; and
`serial_noisy_distributions`, the former row-by-row density-matrix
evolution, which the Pauli-component engine reproduces within a stated
tolerance.  `gather_sampled_expectations` is the former gather-and-scatter
basis change that the compiled one reproduces bit for bit.  These four
read the package's measurement plan only for its settings, the (x, z)
masks `bases`, and, through `qsim._tally` or directly, its `offset`,
`outcomes` and `squares`; each builds its own literal basis-change gates
from the masks (`_basis_change`).  The amplitude-traversal
`exact_expectation` uses the package's bitmask convention and is itself
checked against dense matrices;
`serial_spsa` is the one-run SPSA loop, its gain schedule written out, that
the lockstep batch reproduces bit for bit, `serial_calibrated_gain` the
one-run gain calibration, written out the same way, that
`calibrated_gains` reproduces bit for bit, and `serial_seed_stream` the
Python-int splitmix64 loop that the uint64 `seed_stream` reproduces;
`per_run_evaluator` the driver's statistical objective estimated one row
at a time from its run's own shot stream (`shot_stream`), which the
batched evaluator reproduces bit for bit; `serial_nelder_mead` the former
one-point-per-call Nelder-Mead loop, which stopped by raising once its
budget was spent, and which each `nelder_mead` run that `optimize.drive`
steps, alone or in a lockstep ensemble, reproduces bit for bit;
`pairwise_multiplication_matrix`, `pairwise_derivative_matrix` and `masked_jacobi_eigh` are the former
dict-product matrix builders and masked Jacobi rotation loop, and `map_element`, `elementwise_map_operator` and
`loop_chain_matrix` the former per-element Pauli expansion and
per-state-pair chain assembly, which the package's versions reproduce bit
for bit; the masked loop solves one matrix at a time, with its own
off-diagonal norm, so it shares no Jacobi code with the package's lockstep.  The pairwise builders, `dict_uprime_poly` and
`dict_effective_well_poly` run on this module's own copy of the package's
former dict trig-polynomial algebra (`_tp_mul`, `_tp_diff` and friends),
so they share no code with the index arithmetic they check; and
`potential_value`, `potential_d1` and `potential_d2` evaluate the
package's cosine series pointwise.  `jacobi_parity_eigenvalues` diagonalizes
the package's generator blocks with the masked loop, as a reference for
the cutoff guard's LAPACK eigenvalues.  `serial_spectrum` is the former
mode-by-mode assembly of a dihedral's spectrum from its generator at the
cutoff itself, each parity block diagonalized by the masked loop and each
eigenvector's sign fixed one column at a time by `canonical_sign`, the
per-column form of the package's vectorized sign rule, and
`numpy_scalar_composite_states` the former odd-sector filter and state
order, run on numpy scalars; the package's array assembly from the doubled
build, and its array-based filter and order, reproduce them bit for bit.
`tolerance_checked_symmetric` and `allclose_symmetrized` are the former
symmetry checks of the chain solvers and of the Pauli map, which test and
average every input; the package's exact-symmetry fast path must reproduce
their results and refusals. `former_cold_build` chains the former
spectrum, state order, chain matrix, checks and Pauli map into
`build_problem`'s outputs, which the package reproduces bit for bit.
`pauli_string` parses a label such as 'XIZ' into the package's (x, z)
mask pair, and `operator_from_text` reads `rotorvqe map` output back.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

import numpy as np

from rotorvqe import driver, qsim
from rotorvqe.chain import CompositeBasis, pad_matrix, reference_spectrum
from rotorvqe.dihedral import (
    _DEGENERACY_TOL,
    DihedralEigenbasis,
    build_single_dihedral_matrix,
    derivative_matrix_elements,
    fourier_parities,
    uprime_matrix_elements,
)
from rotorvqe.linalg import OFFDIAG_TOL
from rotorvqe.paulimap import PRUNE_TOL, PauliOperator, PauliString
from rotorvqe.potential import cosine_series

TWO_PI = 2.0 * math.pi
_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def grid(npts: int = 2048) -> np.ndarray:
    return np.arange(npts) * (TWO_PI / npts)


def integrate(values: np.ndarray) -> float:
    """Trapezoid rule on the periodic grid (equals the rectangle rule)."""
    return float(np.sum(values)) * TWO_PI / len(values)


def basis_values(index: int, theta: np.ndarray) -> np.ndarray:
    if index == 0:
        return np.full_like(theta, 1.0 / math.sqrt(TWO_PI))
    n = (index + 1) // 2
    if index % 2 == 1:
        return np.cos(n * theta) / math.sqrt(math.pi)
    return np.sin(n * theta) / math.sqrt(math.pi)


def basis_second_derivative(index: int, theta: np.ndarray) -> np.ndarray:
    if index == 0:
        return np.zeros_like(theta)
    n = (index + 1) // 2
    return -float(n * n) * basis_values(index, theta)


def potential_derivatives(kind: str, barrier: float, theta: np.ndarray):
    """Hand-written (U, U', U'') for both potential shapes."""
    if kind == "monostable":
        u = 0.5 * barrier * (1.0 - np.cos(theta))
        u1 = 0.5 * barrier * np.sin(theta)
        u2 = 0.5 * barrier * np.cos(theta)
    elif kind == "bistable":
        u = 0.5 * barrier * (np.cos(2.0 * theta) + 1.0)
        u1 = -barrier * np.sin(2.0 * theta)
        u2 = -2.0 * barrier * np.cos(2.0 * theta)
    else:
        raise ValueError(kind)
    return u, u1, u2


def potential_value(spec, theta):
    """U(theta) in k_B*T. Accepts scalars or numpy arrays."""
    series = cosine_series(spec)
    out = sum(c * np.cos(n * np.asarray(theta, dtype=float)) for n, c in series.items())
    return float(out) if np.isscalar(theta) else out


def potential_d1(spec, theta):
    """dU/dtheta."""
    series = cosine_series(spec)
    out = sum(-n * c * np.sin(n * np.asarray(theta, dtype=float)) for n, c in series.items())
    return float(out) if np.isscalar(theta) else out


def potential_d2(spec, theta):
    """d^2 U / dtheta^2."""
    series = cosine_series(spec)
    out = sum(-n * n * c * np.cos(n * np.asarray(theta, dtype=float)) for n, c in series.items())
    return float(out) if np.isscalar(theta) else out


# Exact algebra on finite trigonometric polynomials, the package's former
# implementation. A polynomial is a dict {(kind, n): coefficient} with kind 'c'
# for cos(n t) (n >= 0; ('c', 0) is the constant 1) and 's' for sin(n t).


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


def _basis_poly(index: int) -> dict:
    if index == 0:
        return {("c", 0): 1.0 / math.sqrt(2.0 * math.pi)}
    n = (index + 1) // 2
    kind = "c" if index % 2 == 1 else "s"
    return {(kind, n): 1.0 / math.sqrt(math.pi)}


def _potential_poly(spec) -> dict:
    return {("c", n): v for n, v in cosine_series(spec).items()}


def dict_uprime_poly(spec) -> dict:
    """U' by the dict algebra."""
    return _tp_diff(_potential_poly(spec))


def dict_effective_well_poly(spec) -> dict:
    """W = U''/2 - (U')^2/4 by the dict algebra."""
    u1 = dict_uprime_poly(spec)
    return _tp_add(_tp_scale(_tp_diff(u1), 0.5), _tp_scale(_tp_mul(u1, u1), -0.25))


def _tp_integral(a: dict) -> float:
    """Integral over one full period [0, 2*pi)."""
    return 2.0 * math.pi * a.get(("c", 0), 0.0)


def pairwise_multiplication_matrix(poly: dict, harmonics: int) -> np.ndarray:
    """Multiplication by `poly`: the full dict product for every (i, j >= i) pair."""
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


def pairwise_derivative_matrix(harmonics: int) -> np.ndarray:
    """d/dtheta in the Fourier basis: the full dict product for every (i, j) pair."""
    size = 2 * harmonics + 1
    out = np.zeros((size, size))
    polys = [_basis_poly(i) for i in range(size)]
    for j in range(size):
        dj = _tp_diff(polys[j])
        for i in range(size):
            out[i, j] = _tp_integral(_tp_mul(polys[i], dj))
    return out


def _tril_offdiag_norm(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0))


def masked_jacobi_eigh(matrix: np.ndarray, tol: float = OFFDIAG_TOL, max_sweeps: int = 100):
    """Cyclic Jacobi with numpy scalar pivots and masked off-pivot updates, one matrix at a time."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        raise ValueError("empty matrix")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-10 * max(1.0, np.abs(a).max())):
        raise ValueError("matrix is not symmetric")
    a = 0.5 * (a + a.T)

    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(n), np.eye(n)
    thresh = tol * scale

    v = np.eye(n)
    # rotations below this are pointless at double precision
    skip = thresh / max(n, 2)
    for _ in range(max_sweeps):
        if _tril_offdiag_norm(a) <= thresh:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0.0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c

                app, aqq = a[p, p], a[q, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0

                rows = np.arange(n)
                mask = (rows != p) & (rows != q)
                arp = a[mask, p].copy()
                arq = a[mask, q].copy()
                a[mask, p] = c * arp - s * arq
                a[mask, q] = s * arp + c * arq
                a[p, mask] = a[mask, p]
                a[q, mask] = a[mask, q]

                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
    else:
        raise ValueError(
            f"Jacobi sweep limit ({max_sweeps}) exceeded; "
            f"residual off-diagonal norm {_tril_offdiag_norm(a):.3e}"
        )
    return np.diag(a).copy(), v


def jacobi_parity_eigenvalues(spec, prefactor: float, harmonics: int) -> tuple:
    """Ascending Jacobi eigenvalues of the generator's even and odd blocks."""
    matrix = build_single_dihedral_matrix(spec, prefactor, harmonics)
    parities = fourier_parities(harmonics)
    blocks = []
    for parity in (1, -1):
        idx = np.flatnonzero(parities == parity)
        blocks.append(np.sort(masked_jacobi_eigh(matrix[np.ix_(idx, idx)])[0]))
    return tuple(blocks)


def canonical_sign(vec: np.ndarray) -> np.ndarray:
    """Flip an eigenvector so its largest-magnitude entry is positive.

    Deterministic tie-break: the first entry attaining the maximum decides.
    """
    idx = int(np.argmax(np.abs(vec)))
    return -vec if vec[idx] < 0.0 else vec.copy()


def lowest_eigenvalue(matrix: np.ndarray) -> float:
    """The chain's lambda_1 read the way `build_problem` and `rotorvqe reference` read it."""
    return float(reference_spectrum(matrix)[0][0])


def serial_spectrum(spec, prefactor: float, harmonics: int):
    """A dihedral's (eigenvalues, vectors, parities), one mode at a time.

    The generator is built at the cutoff itself; each parity block's modes,
    from `masked_jacobi_eigh`, are padded to full Fourier vectors one by
    one, each sign fixed by
    `canonical_sign`, then ordered by eigenvalue, and inside each cluster
    of values within the degeneracy width of its first by (parity, dominant
    Fourier index).
    """
    size = 2 * harmonics + 1
    matrix = build_single_dihedral_matrix(spec, prefactor, harmonics)
    parities = fourier_parities(harmonics)

    entries = []
    for parity in (1, -1):
        idx = np.flatnonzero(parities == parity)
        w, v = masked_jacobi_eigh(matrix[np.ix_(idx, idx)])
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

    return (
        np.array([e[0] for e in ordered]),
        np.column_stack([e[2] for e in ordered]),
        np.array([e[1] for e in ordered], dtype=int),
    )


def numpy_scalar_composite_states(bases, kept_counts, ladder) -> tuple:
    """The odd-sector product states in `build_composite_basis`'s order.

    Parities multiply through `np.prod` and uncoupled energies are summed
    from 0 over numpy scalars; the pinned state (1, 0, ..., 0) comes first,
    then the rest by (ladder tier, energy, state).
    """
    states = [
        s
        for s in itertools.product(*(range(c) for c in kept_counts))
        if int(np.prod([bases[k].parities[n] for k, n in enumerate(s)])) == -1
    ]
    pinned = (1,) + (0,) * (len(kept_counts) - 1)

    def tier(state):
        return next(
            t for t, rung in enumerate(ladder) if all(n < c for n, c in zip(state, rung))
        )

    def energy(state):
        return float(sum(bases[k].eigenvalues[n] for k, n in enumerate(state)))

    rest = sorted((s for s in states if s != pinned), key=lambda s: (tier(s), energy(s), s))
    return (pinned, *rest)


def map_element(row: int, col: int, value: float, qubits: int) -> dict:
    """Expand value * |row><col| over the Pauli basis.

    Returns {(x, z): complex coefficient} with x fixed to row XOR col.
    """
    dim = 1 << qubits
    if not (0 <= row < dim and 0 <= col < dim):
        raise ValueError("basis index out of range")
    x = row ^ col
    scale = value / dim
    out = {}
    for z in range(dim):
        phase = _I_POW[(x & z).bit_count() & 3]
        sign = -1.0 if ((row & z).bit_count() & 1) else 1.0
        out[(x, z)] = scale * sign * phase
    return out


_BITS_FOR_LETTER = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def pauli_string(label: str) -> PauliString:
    """The Pauli string a label such as 'XIZ' names; its first letter is qubit 1."""
    x = z = 0
    for letter in label:
        if letter not in _BITS_FOR_LETTER:
            raise ValueError(f"unknown Pauli letter {letter!r}")
        xb, zb = _BITS_FOR_LETTER[letter]
        x = (x << 1) | xb
        z = (z << 1) | zb
    if not label:
        raise ValueError("empty Pauli label")
    return PauliString(qubits=len(label), x=x, z=z)


def operator_from_text(text: str) -> PauliOperator:
    """Parse `rotorvqe map` output back: one `LABEL coefficient` line per term.

    Blank lines and `#` comments are skipped; every label must have the
    same length.
    """
    strings = []
    coefficients = []
    qubits = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'LABEL value', got {line!r}")
        string = pauli_string(parts[0])
        if qubits is None:
            qubits = string.qubits
        elif string.qubits != qubits:
            raise ValueError("labels of differing length in one operator")
        strings.append(string)
        coefficients.append(float(parts[1]))
    if qubits is None:
        raise ValueError("no Pauli terms found")
    return PauliOperator(qubits=qubits, strings=tuple(strings), coefficients=tuple(coefficients))


def allclose_symmetrized(matrix) -> np.ndarray:
    """The former `map_operator` check: every input is tested and averaged.

    Symmetric to 1e-12 of its largest entry by `np.allclose`, or a
    ValueError; the average makes the imaginary parts of the expansion
    cancel exactly in floating point.
    """
    mat = np.asarray(matrix, dtype=float)
    scale = float(np.max(np.abs(mat))) or 1.0
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * scale):
        raise ValueError("matrix must be symmetric")
    return 0.5 * (mat + mat.T)


def tolerance_checked_symmetric(matrix) -> np.ndarray:
    """The former `linalg._checked_symmetric`: every input is tested and averaged."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("empty matrix")
    # equal pairs pass, infinities included; any other pair must be finite,
    # even where an infinite entry makes the tolerance infinite
    unequal = a != a.T
    diff = np.subtract(a, a.T, out=np.zeros_like(a), where=unequal)
    tol = 1e-10 * max(1.0, np.abs(a).max())
    if not (np.abs(diff).max() <= tol and np.isfinite(a[unequal]).all()):
        raise ValueError("matrix is not symmetric")
    return 0.5 * (a + a.T)


def elementwise_map_operator(matrix: np.ndarray, tol: float = PRUNE_TOL) -> PauliOperator:
    """Pauli expansion accumulated one nonzero matrix element at a time."""
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    dim = mat.shape[0]
    if dim < 2 or dim & (dim - 1):
        raise ValueError("matrix dimension must be a power of two, at least 2")
    mat = allclose_symmetrized(mat)
    qubits = dim.bit_length() - 1

    accum: dict = {}
    rows, cols = np.nonzero(mat)
    for row, col in zip(rows.tolist(), cols.tolist()):
        for key, coef in map_element(row, col, mat[row, col], qubits).items():
            accum[key] = accum.get(key, 0.0 + 0.0j) + coef

    strings = []
    coefficients = []
    for (x, z), coef in accum.items():
        if abs(coef) <= tol:
            continue
        if abs(coef.imag) > 1e-9 * max(abs(coef), 1.0):
            raise ValueError("expansion of a symmetric matrix produced a complex weight")
        strings.append(PauliString(qubits=qubits, x=x, z=z))
        coefficients.append(float(coef.real))

    order = sorted(range(len(strings)), key=lambda i: strings[i].label)
    return PauliOperator(
        qubits=qubits,
        strings=tuple(strings[i] for i in order),
        coefficients=tuple(coefficients[i] for i in order),
    )


def former_cold_build(chain, kept_counts, ladder=None, harmonics: int = 16):
    """`build_problem`'s (states, matrix, lambda1, operator), built by the former code.

    Each dihedral keeps the first kept_counts[k] modes of `serial_spectrum`;
    the states come from `numpy_scalar_composite_states`, the matrix from
    `loop_chain_matrix` padded by the package's `pad_matrix`, lambda1 from
    LAPACK behind `tolerance_checked_symmetric`, and the operator from
    `elementwise_map_operator`. The cutoff guard is left out: it can refuse
    a build, but changes no output.
    """
    kept_counts = tuple(kept_counts)
    ladder = tuple(ladder) if ladder is not None else (kept_counts,)
    bases = []
    for k, (spec, n) in enumerate(zip(chain.dihedrals, kept_counts)):
        prefactor = chain.diffusion[k] + chain.diffusion[k + 1]
        values, vectors, parities = serial_spectrum(spec, prefactor, harmonics)
        bases.append(
            DihedralEigenbasis(
                spec, prefactor, harmonics, values[:n].copy(), vectors[:, :n].copy(), parities[:n].copy()
            )
        )
    states = numpy_scalar_composite_states(bases, kept_counts, ladder)
    basis = CompositeBasis(chain, kept_counts, harmonics, ladder, tuple(bases), states)
    matrix = pad_matrix(loop_chain_matrix(basis), basis.qubits)
    lambda1 = float(np.linalg.eigh(tolerance_checked_symmetric(matrix))[0][0])
    return states, matrix, lambda1, elementwise_map_operator(matrix)


def loop_chain_matrix(basis) -> np.ndarray:
    """Chain generator matrix assembled one state pair and one dihedral pair at a time."""
    chain = basis.chain
    n_dih = chain.n_dihedrals
    evals = [b.eigenvalues for b in basis.dihedral_bases]
    dmats = [derivative_matrix_elements(b) for b in basis.dihedral_bases]
    umats = [uprime_matrix_elements(b) for b in basis.dihedral_bases]

    states = basis.states
    size = len(states)
    out = np.zeros((size, size))
    for r in range(size):
        m = states[r]
        out[r, r] = float(sum(evals[k][m[k]] for k in range(n_dih)))
        for c in range(r, size):
            n = states[c]
            acc = 0.0
            for k in range(n_dih - 1):
                if any(m[j] != n[j] for j in range(n_dih) if j not in (k, k + 1)):
                    continue
                shared = chain.diffusion[k + 1]
                acc += (
                    2.0
                    * shared
                    * (
                        dmats[k][m[k], n[k]] * dmats[k + 1][m[k + 1], n[k + 1]]
                        - 0.25 * umats[k][m[k], n[k]] * umats[k + 1][m[k + 1], n[k + 1]]
                    )
                )
            out[r, c] += acc
            if c != r:
                out[c, r] += acc
    return out


def quadrature_dihedral_matrix(
    kind: str, barrier: float, prefactor: float, harmonics: int, npts: int = 2048
) -> np.ndarray:
    """Quadrature build of the symmetrized single-dihedral generator."""
    theta = grid(npts)
    _, u1, u2 = potential_derivatives(kind, barrier, theta)
    well = 0.5 * u2 - 0.25 * u1 * u1
    size = 2 * harmonics + 1
    fvals = [basis_values(i, theta) for i in range(size)]
    out = np.empty((size, size))
    for j in range(size):
        acted = -prefactor * (basis_second_derivative(j, theta) + well * fvals[j])
        for i in range(size):
            out[i, j] = integrate(fvals[i] * acted)
    return 0.5 * (out + out.T)


def quadrature_multiplication_matrix(
    func: np.ndarray, harmonics: int, theta: np.ndarray
) -> np.ndarray:
    size = 2 * harmonics + 1
    fvals = [basis_values(i, theta) for i in range(size)]
    out = np.empty((size, size))
    for i in range(size):
        for j in range(i, size):
            val = integrate(fvals[i] * func * fvals[j])
            out[i, j] = out[j, i] = val
    return out


def quadrature_derivative_matrix(harmonics: int, npts: int = 2048) -> np.ndarray:
    """<i| d/dtheta |j> by quadrature with hand-written derivatives."""
    theta = grid(npts)
    size = 2 * harmonics + 1
    fvals = [basis_values(i, theta) for i in range(size)]
    dvals = []
    for j in range(size):
        if j == 0:
            dvals.append(np.zeros_like(theta))
        else:
            n = (j + 1) // 2
            if j % 2 == 1:
                dvals.append(-n * np.sin(n * theta) / math.sqrt(math.pi))
            else:
                dvals.append(n * np.cos(n * theta) / math.sqrt(math.pi))
    out = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            out[i, j] = integrate(fvals[i] * dvals[j])
    return out


def sqrt_boltzmann_coefficients(
    kind: str, barrier: float, harmonics: int, npts: int = 4096
) -> np.ndarray:
    """Normalized Fourier coefficients of exp(-U/2)."""
    theta = grid(npts)
    u, _, _ = potential_derivatives(kind, barrier, theta)
    f = np.exp(-0.5 * u)
    size = 2 * harmonics + 1
    coeffs = np.array([integrate(basis_values(i, theta) * f) for i in range(size)])
    return coeffs / np.linalg.norm(coeffs)


PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def dense_from_labels(terms) -> np.ndarray:
    """Dense matrix from [(label, coeff)] with the first letter acting on the
    most significant bit of the state index."""
    dim = 2 ** len(terms[0][0])
    out = np.zeros((dim, dim), dtype=complex)
    for label, coeff in terms:
        mat = np.array([[1.0 + 0.0j]])
        for ch in label:
            mat = np.kron(mat, PAULI_1Q[ch])
        out += complex(coeff) * mat
    return out


def serial_prepare_state(qubits: int, depth: int, entangler: str, params) -> np.ndarray:
    """RyRz ansatz state, one literal 2x2 gate at a time, with scalar math/cmath trig.

    Layout as documented on `qsim.ansatz_operations`: per block an Ry layer
    then an Rz layer over qubits 1..Q (qubit 1 the most significant bit),
    blocks separated by CNOTs on neighbours (linear) or on every pair (full).
    Gate arithmetic follows the single-state formula, so a batched
    preparation must reproduce this bit for bit.
    """
    dim = 1 << qubits
    idx = np.arange(dim)
    state = np.zeros(dim, dtype=complex)
    state[0] = 1.0
    if entangler == "linear":
        pairs = [(q, q + 1) for q in range(1, qubits)]
    else:
        pairs = [(i, j) for i in range(1, qubits + 1) for j in range(i + 1, qubits + 1)]

    def apply(qubit, gate):
        j0 = idx[(idx & (1 << (qubits - qubit))) == 0]
        j1 = j0 | (1 << (qubits - qubit))
        a, b = state[j0], state[j1]
        state[j0] = gate[0, 0] * a + gate[0, 1] * b
        state[j1] = gate[1, 0] * a + gate[1, 1] * b

    angles = [float(p) for p in params]
    for block in range(depth + 1):
        base = 2 * qubits * block
        for q in range(1, qubits + 1):
            theta = angles[base + q - 1]
            c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
            apply(q, np.array([[c, -s], [s, c]], dtype=complex))
        for q in range(1, qubits + 1):
            phase = cmath.exp(-0.5j * angles[base + qubits + q - 1])
            apply(q, np.array([[phase, 0.0], [0.0, phase.conjugate()]], dtype=complex))
        if block < depth:
            for control, target in pairs:
                flip = (idx >> (qubits - control)) & 1
                state = state[idx ^ (flip << (qubits - target))]
    return state


def exact_expectation(state: np.ndarray, operator) -> float:
    """<psi| operator |psi> of a PauliOperator by mask-indexed amplitude traversal."""
    psi = np.asarray(state, dtype=complex).ravel()
    if psi.size != 1 << operator.qubits:
        raise ValueError("state dimension does not match the operator register")
    idx = np.arange(psi.size)
    total = 0.0 + 0.0j
    for string, coef in operator:
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & string.z) & 1)
        phase = _I_POW[(string.x & string.z).bit_count() & 3]
        total += coef * phase * np.sum(np.conj(psi[idx ^ string.x]) * signs * psi)
    if abs(total.imag) > 1e-10 * max(1.0, abs(total.real)):
        raise RuntimeError("expectation of a Hermitian operator came out complex")
    return float(total.real)


def serial_seed_stream(master_seed: int, count: int) -> tuple:
    """The former `seed_stream`: splitmix64 one seed at a time, in Python ints masked to 64 bits."""
    mask = (1 << 64) - 1
    state = master_seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out.append(z >> 1)
    return tuple(out)


def shot_stream(seed, *key):
    """A run's (or, keyed, a study mode's) shot generator, built from the driver's spawn key `driver._SHOTS`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(driver._SHOTS,) + key))


def per_run_evaluator(problem, config, run_seeds):
    """The driver's statistical objective, one row at a time from its run's own shot stream.

    Row i of a batch belongs to run runs[i], as in `driver._batch_evaluator`.
    Each run's generator is built here (`shot_stream`), from its seed and
    the driver's spawn key, and each row is estimated alone, in row order,
    by `qsim._estimate` on that one row and its run's generator, so only
    the batching differs from the driver's.
    """
    noise = config.noise if config.mode == qsim.NOISY else None
    plan = qsim._measurement_plan(problem.operator, config.grouping)
    rngs = [shot_stream(seed) for seed in run_seeds]

    def evaluate(points, runs):
        values = []
        for point, run in zip(points, runs):
            value, _ = qsim._estimate(
                problem.ansatz, point[None, :], plan, config.shots, [rngs[run]],
                np.zeros(1, dtype=np.intp), noise, config.mitigate,
            )
            values.append(value[0])
        return np.array(values)

    return evaluate


def serial_spsa(evaluate, x0, seed, iterations, a=None):
    """One SPSA run, one point per objective call: (records, best value, best params).

    The gain schedule is written out here, not read from the package:
    a_k = a/(A+k+1)^alpha and c_k = c/(k+1)^gamma with a = 2pi/10 (unless
    given), c = 0.1, A = 0 and Spall's alpha = 0.602, gamma = 0.101 (IEEE
    TAES 34(3), 1998).  Each iteration draws its Rademacher direction with
    its own `rng.integers(0, 2, size=dim)` call, probes x +/- c_k delta,
    steps by a_k times the two-point gradient, and records the better
    probe, the + probe on ties; the end records the terminal iterate.
    records[k] is (k, params, value), and the best is the first lowest
    record that is not NaN, or the first record when all are NaN.
    `spsa_lockstep` must reproduce this bit for bit, for every run of a
    batch.
    """
    gain = 2.0 * math.pi / 10.0 if a is None else a
    c, stability, alpha, gamma = 0.1, 0.0, 0.602, 0.101
    rng = np.random.default_rng(seed)
    x = np.array(x0, dtype=float)
    records = []
    for k in range(iterations):
        c_k = c / (k + 1) ** gamma
        delta = rng.integers(0, 2, size=x.size) * 2.0 - 1.0
        up, down = x + c_k * delta, x - c_k * delta
        f_up, f_down = float(evaluate(up)), float(evaluate(down))
        gradient = (f_up - f_down) / (2.0 * c_k) * delta
        x = x - gain / (stability + k + 1) ** alpha * gradient
        records.append((k, tuple(up), f_up) if f_up <= f_down else (k, tuple(down), f_down))
    records.append((iterations, tuple(x), float(evaluate(x))))
    comparable = [record for record in records if not math.isnan(record[2])]
    best = min(comparable or records[:1], key=lambda record: record[2])
    return records, best[2], best[1]


class _Spent(Exception):
    pass


def serial_nelder_mead(evaluate, x0, budget):
    """One Nelder-Mead run, one point per objective call: (records, eval_values, termination, moves, best).

    The former one-run Nelder-Mead loop, its coefficients written out:
    start edge 0.1, reflection 1, expansion 2, contraction 0.5, shrink 0.5,
    and convergence once the simplex diameter is below 1e-6.  A call past
    `budget` evaluations raises, which ends the run ("budget").  records[k]
    is (k, params, value): the simplex's best vertex at each iteration,
    then the lowest value evaluated; moves[i] names the step that made
    evaluation i ("start", "reflect", "expand", "contract" or "shrink"),
    and best is the first lowest record that is not NaN.
    """
    start = np.asarray(x0, dtype=float).ravel()
    dim = start.size
    eval_values, moves, records = [], [], []
    best_seen = [None, math.inf]

    def call(point, move):
        if len(eval_values) >= budget:
            raise _Spent
        value = float(evaluate(point))
        eval_values.append(value)
        moves.append(move)
        if value < best_seen[1]:
            best_seen[0], best_seen[1] = tuple(point), value
        return value

    simplex = [start.copy()]
    for i in range(dim):
        vertex = start.copy()
        vertex[i] += 0.1
        simplex.append(vertex)
    termination = "budget"
    try:
        values = [call(vertex, "start") for vertex in simplex]
        while True:
            order = np.argsort(values, kind="stable")
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            records.append((len(records), tuple(simplex[0]), values[0]))
            diameter = max(float(np.linalg.norm(v - simplex[0])) for v in simplex[1:])
            if diameter < 1e-6:
                termination = "converged"
                break

            centroid = np.mean(simplex[:-1], axis=0)
            worst = simplex[-1]
            reflected = centroid + 1.0 * (centroid - worst)
            f_reflected = call(reflected, "reflect")
            if f_reflected < values[0]:
                expanded = centroid + 2.0 * (centroid - worst)
                f_expanded = call(expanded, "expand")
                if f_expanded < f_reflected:
                    simplex[-1], values[-1] = expanded, f_expanded
                else:
                    simplex[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                simplex[-1], values[-1] = reflected, f_reflected
            else:
                if f_reflected < values[-1]:
                    contracted = centroid + 0.5 * (centroid - worst)
                else:
                    contracted = centroid - 0.5 * (centroid - worst)
                f_contracted = call(contracted, "contract")
                if f_contracted < min(f_reflected, values[-1]):
                    simplex[-1], values[-1] = contracted, f_contracted
                else:
                    for i in range(1, dim + 1):
                        simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                        values[i] = call(simplex[i], "shrink")
    except _Spent:
        pass

    records.append((len(records), best_seen[0], best_seen[1]))
    comparable = [record for record in records if not math.isnan(record[2])]
    best = min(comparable or records[:1], key=lambda record: record[2])
    return records, eval_values, termination, moves, best


def serial_calibrated_gain(evaluate, x0, seed):
    """One run's calibrated SPSA gain a, one point per objective call.

    Written out from the calibration rule, not read from the package: 25
    Rademacher directions delta, one `rng.integers(0, 2, size=dim)` call
    each from `default_rng([seed, 0xCA11])`, probe x0 +/- c delta with
    c = 0.1; g is the mean of |f+ - f-|, summed term by term in trial
    order, over 2c; and a = (2pi/10)(A+1)^alpha / g with A = 0 and
    alpha = 0.602, or 2pi/10 when g <= 0.  `calibrated_gains` must
    reproduce this bit for bit for every run of a batch.
    """
    c, trials, stability, alpha = 0.1, 25, 0.0, 0.602
    first_step = 2.0 * math.pi / 10.0
    rng = np.random.default_rng([seed, 0xCA11])
    x = np.array(x0, dtype=float)
    mean = 0.0
    for _ in range(trials):
        delta = rng.integers(0, 2, size=x.size) * 2.0 - 1.0
        f_up, f_down = float(evaluate(x + c * delta)), float(evaluate(x - c * delta))
        mean += abs(f_up - f_down) / trials
    g = mean / (2.0 * c)
    return first_step if g <= 0.0 else first_step * (stability + 1.0) ** alpha / g


def _kron_all(matrices) -> np.ndarray:
    """The Kronecker product of the matrices, first one leftmost."""
    return functools.reduce(np.kron, matrices, np.array([[1.0]]))


def _register_operator(qubits: int, factors: dict) -> np.ndarray:
    """Full-register np.kron product: factors[q] on qubit q (1 = leftmost), identity elsewhere."""
    mat = np.array([[1.0 + 0.0j]])
    for q in range(1, qubits + 1):
        mat = np.kron(mat, factors.get(q, PAULI_1Q["I"]))
    return mat


@functools.lru_cache(maxsize=None)
def _fault_paulis(qubits: int, touched: tuple) -> tuple:
    """Every non-identity Pauli on the touched qubits, as a full-register matrix."""
    return tuple(
        _register_operator(qubits, dict(zip(touched, letters)))
        for letters in itertools.product(PAULI_1Q.values(), repeat=len(touched))
    )[1:]


def _kraus_depolarize(rho: np.ndarray, qubits: int, touched: tuple, p: float) -> np.ndarray:
    """(1 - p) rho + p/(4^k - 1) sum of P rho P over the non-identity Paulis P on touched."""
    paulis = _fault_paulis(qubits, touched)
    return (1.0 - p) * rho + p / len(paulis) * sum(P @ rho @ P.conj().T for P in paulis)


def kraus_outcome_distributions(
    qubits: int, depth: int, entangler: str, params, p1: float, p2: float, readout, bases
) -> np.ndarray:
    """Measured-outcome distributions of the noisy RyRz circuit, from dense Kraus sums.

    Every gate is a full 2^Q x 2^Q matrix built with np.kron and followed by
    its depolarizing channel written as a sum over Pauli operators: p1 after
    a rotation, p2 after a CNOT.  Each of `bases` names the measured Pauli
    per qubit (qubit 1 first); X is rotated to Z by Ry(-pi/2), Y by
    Rx(pi/2), each a noisy rotation too, on a copy of the circuit's density
    matrix.  `readout` is None or one 2x2 P(measured|true) matrix per qubit.
    Returns probs[len(bases), 2^Q].
    """
    dim = 1 << qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0

    def rotate(rho, q, gate):
        full = _register_operator(qubits, {q: gate})
        return _kraus_depolarize(full @ rho @ full.conj().T, qubits, (q,), p1)

    def ry(theta):
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)

    if entangler == "linear":
        pairs = [(q, q + 1) for q in range(1, qubits)]
    else:
        pairs = [(i, j) for i in range(1, qubits + 1) for j in range(i + 1, qubits + 1)]
    up, down = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    angles = [float(p) for p in params]
    for block in range(depth + 1):
        base = 2 * qubits * block
        for q in range(1, qubits + 1):
            rho = rotate(rho, q, ry(angles[base + q - 1]))
        for q in range(1, qubits + 1):
            phase = cmath.exp(-0.5j * angles[base + qubits + q - 1])
            rho = rotate(rho, q, np.diag([phase, phase.conjugate()]))
        if block < depth:
            for control, target in pairs:
                cnot = _register_operator(qubits, {control: up}) + _register_operator(
                    qubits, {control: down, target: PAULI_1Q["X"]}
                )
                rho = _kraus_depolarize(cnot @ rho @ cnot.T, qubits, (control, target), p2)
    confusion = None
    if readout is not None:
        confusion = np.array([[1.0]])
        for mat in readout:
            confusion = np.kron(confusion, np.asarray(mat, dtype=float))
    out = []
    for basis in bases:
        measured = rho
        for q, letter in enumerate(basis, start=1):
            if letter == "X":
                measured = rotate(measured, q, ry(-math.pi / 2))
            elif letter == "Y":
                c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
                measured = rotate(measured, q, np.array([[c, -1j * s], [-1j * s, c]]))
        probs = np.real(np.diag(measured))
        out.append(probs if confusion is None else probs @ confusion)
    return np.array(out).reshape(len(bases), dim)


# the trajectory oracle applies these kernels once per gate of every replayed shot
_pair_indices = functools.lru_cache(maxsize=None)(qsim._pair_indices)
_cnot_table = functools.lru_cache(maxsize=None)(qsim._cnot_table)


def _apply_single(state: np.ndarray, qubits: int, qubit: int, gate: np.ndarray) -> None:
    """gate on `qubit` of the rows of state, as g[i, 0] a + g[i, 1] b of each amplitude pair."""
    j0, j1 = _pair_indices(qubits, qubit)
    a = state[j0]
    b = state[j1]
    state[j0] = gate[0, 0] * a + gate[0, 1] * b
    state[j1] = gate[1, 0] * a + gate[1, 1] * b


def _apply_cnot(state: np.ndarray, qubits: int, control: int, target: int) -> None:
    state[:] = state[_cnot_table(qubits, control, target)]


def _rotation(kind: str, theta: float) -> np.ndarray:
    """Ry or Rz(theta) from scalar math/cmath trig."""
    if kind == "ry":
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        return np.array([[c, -s], [s, c]], dtype=complex)
    phase = cmath.exp(-0.5j * theta)
    return np.array([[phase, 0.0], [0.0, phase.conjugate()]], dtype=complex)


def _basis_change(qubits: int, x: int, z: int) -> dict:
    """{qubit: gate} taking a setting's (x, z) letters to Z: Ry(-pi/2) for X, Rx(pi/2) for Y."""
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    gates = {}
    for q in range(1, qubits + 1):
        bit = 1 << (qubits - q)
        if x & bit:
            gates[q] = np.array([[c, -1j * s], [-1j * s, c]]) if z & bit else _rotation("ry", -math.pi / 2)
    return gates


def serial_noisy_distributions(ansatz, params, noise, bases) -> np.ndarray:
    """Exact measured-outcome distribution of every setting, readout included: probs[S, 2^Q].

    The density matrix of one parameter row is evolved one gate at a time:
    U rho U^dagger as the gate on the rows, then its conjugate on the
    columns through the transposed view, then the gate's depolarizing
    channel, (1 - w) rho + w (I/2^k (x) Tr_touched rho) with
    w = p 4^k / (4^k - 1), on the bit-axis view of rho.  The ansatz is
    evolved once; each setting, an (x, z) pair of `bases`, then evolves its
    own copy through its basis change, as fault-prone as the ansatz's
    gates.  The Pauli-component engine must reproduce this within a stated
    tolerance.
    """
    qubits = ansatz.qubits
    dim = 1 << qubits

    def depolarize(rho, touched, p):
        if p == 0.0:
            return
        size = 4 ** len(touched)
        weight = p * size / (size - 1)
        view = rho.reshape((2,) * (2 * qubits))
        blocks = []
        for bits in range(1 << len(touched)):
            index = [slice(None)] * (2 * qubits)
            for k, q in enumerate(touched):
                index[q - 1] = index[qubits + q - 1] = (bits >> k) & 1
            blocks.append(tuple(index))
        mixed = sum(view[block] for block in blocks) * (weight / (1 << len(touched)))
        view *= 1.0 - weight
        for block in blocks:
            view[block] += mixed

    def evolve(rho, gates):
        for touched, matrix in gates:
            if matrix is None:
                for view in (rho, rho.T):
                    _apply_cnot(view, qubits, *touched)
                depolarize(rho, touched, noise.p2)
            else:
                _apply_single(rho, qubits, touched[0], matrix)
                _apply_single(rho.T, qubits, touched[0], matrix.conj())
                depolarize(rho, touched, noise.p1)

    angles = [float(v) for v in np.asarray(params, dtype=float).ravel()]
    circuit = [
        (op[1:], None) if op[0] == "cx" else ((op[1],), _rotation(op[0], angles[op[2]]))
        for op in qsim.ansatz_operations(ansatz)
    ]
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    evolve(rho, circuit)
    readout = noise.readout_matrices(qubits)
    confusion = None if readout is None else _kron_all(readout)
    distributions = np.empty((len(bases), dim))
    for s, (x, z) in enumerate(bases):
        tail = rho.copy()
        evolve(tail, [((q,), gate) for q, gate in _basis_change(qubits, x, z).items()])
        probs = np.clip(tail.diagonal().real, 0.0, None)
        probs /= probs.sum()
        distributions[s] = probs if confusion is None else probs @ confusion
    return distributions


def serial_sampled_expectation(ansatz, params, operator, shots, grouping=True, seed=None):
    """(value, std_error, shots_used) of one point, one setting at a time.

    Each setting's basis change acts on its own copy of the state, gate by
    gate, its counts are their own multinomial draw from the one generator,
    and its tally is a pair of scalar dot products added to running sums.
    The batched estimator must reproduce this bit for bit.
    """
    state = qsim.prepare_state(ansatz, params)
    plan = qsim._measurement_plan(operator, grouping)
    rng = np.random.default_rng(seed)
    value, variance = plan.offset, 0.0
    for (x, z), values in zip(plan.bases, plan.outcomes):
        rotated = state.copy()
        for qubit, gate in _basis_change(ansatz.qubits, x, z).items():
            _apply_single(rotated, ansatz.qubits, qubit, gate)
        probs = np.abs(rotated) ** 2
        counts = rng.multinomial(shots, probs / probs.sum())
        mean = float(counts @ values) / shots
        var = 0.0
        if shots > 1:
            var = max(float(counts @ values**2) - shots * mean * mean, 0.0) / (shots - 1)
        value += mean
        variance += var / shots
    return float(value), math.sqrt(variance), len(plan.bases) * shots


def gather_sampled_expectations(ansatz, points, operator, shots, seeds, grouping=True):
    """The former batched sampled estimator: basis changes by fancy-index gathers and scatters.

    Every setting's gates are stacked per qubit, with the identity where a
    setting does not rotate the qubit, and each qubit's rotation gathers the
    (j0, j1) amplitude halves of every row and setting and scatters
    g00 a + g01 b and g10 a + g11 b back; returns (value[K], variance[K]).
    The package's compiled gather kernel must reproduce it bit for bit.
    """
    plan = qsim._measurement_plan(operator, grouping)
    settings = len(plan.bases)
    stacked = {}
    for s, (x, z) in enumerate(plan.bases):
        for q, gate in _basis_change(ansatz.qubits, x, z).items():
            if q not in stacked:
                stacked[q] = np.zeros((2, 2, settings, 1), dtype=complex)
                stacked[q][0, 0] = stacked[q][1, 1] = 1.0
            stacked[q][:, :, s, 0] = gate
    states = qsim.prepare_states(ansatz, points)
    rotated = np.repeat(states[:, None, :], settings, axis=1)
    for q in sorted(stacked):
        (g00, g01), (g10, g11) = stacked[q]
        j0, j1 = qsim._pair_indices(ansatz.qubits, q)
        a = rotated[..., j0]
        b = rotated[..., j1]
        rotated[..., j0] = g00 * a + g01 * b
        rotated[..., j1] = g10 * a + g11 * b
    probs = np.abs(rotated) ** 2
    probs /= probs.sum(axis=-1, keepdims=True)
    counts = [np.random.default_rng(seed).multinomial(shots, p) for seed, p in zip(seeds, probs)]
    return qsim._tally(np.array(counts), plan, shots)


def trajectory_noisy_expectation(
    ansatz, params, operator, shots, noise, mitigate=True, grouping=True, seed=None
):
    """The noisy estimator as a Monte Carlo unravelling of its Pauli channel.

    Shots are split into a fault-free bulk (one multinomial draw from the
    clean distribution) and individually replayed faulty trajectories: a
    first fault drawn from the gates' fault probabilities, then independent
    faults on every later gate.  This samples the same counts law as the
    exact channel with a different use of the random stream, so it serves
    as a two-sample reference.  Unlike the other oracles it reuses the
    package's measurement settings, outcome values and tally, and runs on
    `_apply_single` and `_apply_cnot`, since it checks the noise channel and
    sampling law, not those.
    """
    qubits = ansatz.qubits
    dim = 1 << qubits
    angles = [float(v) for v in np.asarray(params, dtype=float).ravel()]
    rng = np.random.default_rng(seed)
    paulis = [None, PAULI_1Q["X"], PAULI_1Q["Y"], PAULI_1Q["Z"]]

    base = [
        ((op[1], op[2]), None, noise.p2)
        if op[0] == "cx"
        else ((op[1],), _rotation(op[0], angles[op[2]]), noise.p1)
        for op in qsim.ansatz_operations(ansatz)
    ]

    def apply(state, gate):
        touched, matrix, _ = gate
        if matrix is None:
            _apply_cnot(state, qubits, *touched)
        else:
            _apply_single(state, qubits, touched[0], matrix)

    def fault(state, gate):
        touched = gate[0]
        if len(touched) == 1:
            _apply_single(state, qubits, touched[0], paulis[rng.integers(1, 4)])
        else:
            pick = int(rng.integers(1, 16))
            for qubit, letter in zip(touched, (pick >> 2, pick & 3)):
                if letter:
                    _apply_single(state, qubits, qubit, paulis[letter])

    readout = noise.readout_matrices(qubits)
    confusion = inverse = None
    if readout is not None:
        confusion = _kron_all(readout)
        inverse = _kron_all([np.linalg.inv(m) for m in readout])
    plan = qsim._measurement_plan(operator, grouping)
    tallied = np.zeros((len(plan.bases), dim))
    for s, (x, z) in enumerate(plan.bases):
        gates = base + [((q,), matrix, noise.p1) for q, matrix in _basis_change(qubits, x, z).items()]
        prefixes = [np.zeros(dim, dtype=complex)]
        prefixes[0][0] = 1.0
        for gate in gates:
            nxt = prefixes[-1].copy()
            apply(nxt, gate)
            prefixes.append(nxt)
        fault_ps = np.array([g[2] for g in gates])
        clean_prob = float(np.prod(1.0 - fault_ps))

        counts = np.zeros(dim)
        n_faulty = int(rng.binomial(shots, 1.0 - clean_prob)) if clean_prob < 1.0 else 0
        clean_dist = np.abs(prefixes[-1]) ** 2
        clean_dist /= clean_dist.sum()
        if confusion is not None:
            clean_dist = clean_dist @ confusion
        counts += rng.multinomial(shots - n_faulty, clean_dist)
        if n_faulty:
            survive = np.concatenate(([1.0], np.cumprod(1.0 - fault_ps)[:-1]))
            first_fault = fault_ps * survive
            first_fault /= first_fault.sum()
            for g_first in rng.choice(len(gates), size=n_faulty, p=first_fault):
                state = prefixes[g_first + 1].copy()
                fault(state, gates[g_first])
                for later in range(g_first + 1, len(gates)):
                    apply(state, gates[later])
                    if rng.random() < fault_ps[later]:
                        fault(state, gates[later])
                dist = np.abs(state) ** 2
                dist /= dist.sum()
                if confusion is not None:
                    dist = dist @ confusion
                counts[rng.choice(dim, p=dist)] += 1.0

        if mitigate and inverse is not None:
            freq = np.clip(counts / shots @ inverse, 0.0, None)
            counts = shots * freq / freq.sum()
        tallied[s] = counts
    value, _ = qsim._tally(tallied, plan, shots)
    return float(value)
