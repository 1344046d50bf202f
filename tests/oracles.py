"""Independent reference implementations used only to check the package.

Everything here deliberately avoids the package's analytic trig-identity and
bitmask code paths: matrix elements come from dense trapezoid quadrature on a
periodic grid (spectrally accurate), potential derivatives are written out by
hand, and Pauli reconstruction uses literal 2x2 matrices with np.kron.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

TWO_PI = 2.0 * math.pi


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
