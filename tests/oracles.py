"""Independent reference implementations used only to check the package.

Everything here deliberately avoids the package's analytic trig-identity and
bitmask code paths: matrix elements come from dense trapezoid quadrature on a
periodic grid (spectrally accurate), potential derivatives are written out by
hand, and Pauli reconstruction uses literal 2x2 matrices with np.kron, as
does the Kraus-sum noisy channel.  The two serial estimators are the
exceptions: the trajectory noisy estimator, a reference for a sampling law,
and the one-point sampled estimator, a bit-for-bit reference for the batched
one, reuse the package's kernels.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

import numpy as np

from rotorvqe import qsim

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


def kraus_outcome_distribution(
    qubits: int, depth: int, entangler: str, params, p1: float, p2: float, readout, basis: str
) -> np.ndarray:
    """Measured-outcome distribution of the noisy RyRz circuit, from dense Kraus sums.

    Every gate is a full 2^Q x 2^Q matrix built with np.kron and followed by
    its depolarizing channel written as a sum over Pauli operators: p1 after
    a rotation, p2 after a CNOT.  `basis` names the measured Pauli per qubit
    (qubit 1 first); X is rotated to Z by Ry(-pi/2), Y by Rx(pi/2), each a
    noisy rotation too.  `readout` is None or one 2x2 P(measured|true)
    matrix per qubit.
    """
    dim = 1 << qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0

    def rotate(q, gate):
        nonlocal rho
        full = _register_operator(qubits, {q: gate})
        rho = _kraus_depolarize(full @ rho @ full.conj().T, qubits, (q,), p1)

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
            rotate(q, ry(angles[base + q - 1]))
        for q in range(1, qubits + 1):
            phase = cmath.exp(-0.5j * angles[base + qubits + q - 1])
            rotate(q, np.diag([phase, phase.conjugate()]))
        if block < depth:
            for control, target in pairs:
                cnot = _register_operator(qubits, {control: up}) + _register_operator(
                    qubits, {control: down, target: PAULI_1Q["X"]}
                )
                rho = _kraus_depolarize(cnot @ rho @ cnot.T, qubits, (control, target), p2)
    for q, letter in enumerate(basis, start=1):
        if letter == "X":
            rotate(q, ry(-math.pi / 2))
        elif letter == "Y":
            c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
            rotate(q, np.array([[c, -1j * s], [-1j * s, c]]))
    probs = np.real(np.diag(rho))
    if readout is not None:
        confusion = np.array([[1.0]])
        for mat in readout:
            confusion = np.kron(confusion, np.asarray(mat, dtype=float))
        probs = probs @ confusion
    return probs


def serial_sampled_expectation(ansatz, params, operator, shots, grouping=True, seed=None):
    """(value, std_error, shots_used) of one point, one setting at a time.

    Each setting's basis change acts on its own copy of the state, gate by
    gate, its counts are their own multinomial draw from the one generator,
    and its tally is a pair of scalar dot products added to running sums.
    The batched estimator must reproduce this bit for bit.
    """
    state = qsim.prepare_state(ansatz, params)
    offset, tails, _, outcomes = qsim._measurement_plan(operator, grouping)
    rng = np.random.default_rng(seed)
    value, variance = offset, 0.0
    for tail, values in zip(tails, outcomes):
        rotated = state.copy()
        for (qubit,), gate in tail:
            qsim._apply_single(rotated, ansatz.qubits, qubit, gate)
        probs = np.abs(rotated) ** 2
        counts = rng.multinomial(shots, probs / probs.sum())
        mean = float(counts @ values) / shots
        var = 0.0
        if shots > 1:
            var = max(float(counts @ values**2) - shots * mean * mean, 0.0) / (shots - 1)
        value += mean
        variance += var / shots
    return float(value), math.sqrt(variance), len(tails) * shots


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
    package's measurement plan, gate kernels and tally, since it checks the
    noise channel and sampling law, not those.
    """
    qubits = ansatz.qubits
    dim = 1 << qubits
    angles = [float(v) for v in np.asarray(params, dtype=float).ravel()]
    rng = np.random.default_rng(seed)
    paulis = [None, PAULI_1Q["X"], PAULI_1Q["Y"], PAULI_1Q["Z"]]

    def rotation(kind, theta):
        if kind == "ry":
            c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
            return np.array([[c, -s], [s, c]], dtype=complex)
        phase = cmath.exp(-0.5j * theta)
        return np.array([[phase, 0.0], [0.0, phase.conjugate()]], dtype=complex)

    base = [
        ((op[1], op[2]), None, noise.p2)
        if op[0] == "cx"
        else ((op[1],), rotation(op[0], angles[op[2]]), noise.p1)
        for op in qsim.ansatz_operations(ansatz)
    ]

    def apply(state, gate):
        touched, matrix, _ = gate
        if matrix is None:
            qsim._apply_cnot(state, qubits, *touched)
        else:
            qsim._apply_single(state, qubits, touched[0], matrix)

    def fault(state, gate):
        touched = gate[0]
        if len(touched) == 1:
            qsim._apply_single(state, qubits, touched[0], paulis[rng.integers(1, 4)])
        else:
            pick = int(rng.integers(1, 16))
            for qubit, letter in zip(touched, (pick >> 2, pick & 3)):
                if letter:
                    qsim._apply_single(state, qubits, qubit, paulis[letter])

    readout = noise.readout_matrices(qubits)
    confusion = inverse = None
    if readout is not None:
        confusion = qsim._total_confusion(readout)
        inverse = qsim._total_confusion([np.linalg.inv(m) for m in readout])
    offset, tails, _, outcomes = qsim._measurement_plan(operator, grouping)
    tallied = np.zeros((len(tails), dim))
    for s, tail in enumerate(tails):
        gates = base + [(touched, matrix, noise.p1) for touched, matrix in tail]
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
    value, _ = qsim._tally(tallied, outcomes, shots, offset)
    return float(value)
