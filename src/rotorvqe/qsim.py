"""Statevector and density-matrix simulation of RyRz variational circuits.

Qubit 1 is the most significant bit of a computational-basis index,
matching `paulimap`.  Rotation gates follow the half-angle convention
exp(-i theta sigma / 2).  Expectation values of a PauliOperator come in
three flavours: exact (amplitude traversal), shot-sampled, and sampled
under a parametric noise model.  The noisy estimator evolves the density
matrix exactly through every gate and its depolarizing channel, applies
the readout confusion to the measured distribution, and draws each
setting's counts in one multinomial (optionally undoing the confusion by
linear inversion).  A measurement plan is compiled once per operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .paulimap import PauliOperator, group_qubitwise_commuting

LINEAR = "linear"
FULL = "full"

EXACT = "exact"
SAMPLED = "sampled"
NOISY = "noisy"

_NORM_TOL = 1e-10
_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


@dataclass(frozen=True)
class AnsatzSpec:
    """RyRz circuit shape: rotation layer pairs separated by CNOT blocks."""

    qubits: int
    depth: int = 1
    entangler: str = LINEAR

    def __post_init__(self):
        if self.qubits < 1:
            raise ValueError("ansatz needs at least one qubit")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        if self.entangler not in (LINEAR, FULL):
            raise ValueError(f"unknown entangler {self.entangler!r}")

    @property
    def parameter_count(self) -> int:
        return 2 * self.qubits * (self.depth + 1)


def entangler_pairs(qubits: int, entangler: str) -> tuple:
    """(control, target) CNOT pairs of one entangling block, in order."""
    if entangler == LINEAR:
        return tuple((q, q + 1) for q in range(1, qubits))
    if entangler == FULL:
        return tuple(
            (i, j) for i in range(1, qubits + 1) for j in range(i + 1, qubits + 1)
        )
    raise ValueError(f"unknown entangler {entangler!r}")


@lru_cache(maxsize=64)
def ansatz_operations(ansatz: AnsatzSpec) -> tuple:
    """Flat gate program: ("ry"|"rz", qubit, param index) and ("cx", control, target).

    Each of the depth+1 blocks is an Ry layer then an Rz layer over
    qubits 1..Q; an entangler block separates consecutive rotation blocks.
    """
    ops = []
    index = 0
    for block in range(ansatz.depth + 1):
        for q in range(1, ansatz.qubits + 1):
            ops.append(("ry", q, index))
            index += 1
        for q in range(1, ansatz.qubits + 1):
            ops.append(("rz", q, index))
            index += 1
        if block < ansatz.depth:
            for control, target in entangler_pairs(ansatz.qubits, ansatz.entangler):
                ops.append(("cx", control, target))
    return tuple(ops)


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


@lru_cache(maxsize=256)
def _pair_indices(qubits: int, qubit: int):
    bit = 1 << (qubits - qubit)
    idx = np.arange(1 << qubits)
    j0 = idx[(idx & bit) == 0]
    j1 = j0 | bit
    j0.flags.writeable = False
    j1.flags.writeable = False
    return j0, j1


@lru_cache(maxsize=256)
def _cnot_table(qubits: int, control: int, target: int):
    idx = np.arange(1 << qubits)
    cbit = 1 << (qubits - control)
    tbit = 1 << (qubits - target)
    table = np.where(idx & cbit, idx ^ tbit, idx)
    table.flags.writeable = False
    return table


def _apply_single(state: np.ndarray, qubits: int, qubit: int, gate: np.ndarray) -> None:
    j0, j1 = _pair_indices(qubits, qubit)
    a = state[j0]
    b = state[j1]
    state[j0] = gate[0, 0] * a + gate[0, 1] * b
    state[j1] = gate[1, 0] * a + gate[1, 1] * b


def _apply_cnot(state: np.ndarray, qubits: int, control: int, target: int) -> None:
    state[:] = state[_cnot_table(qubits, control, target)]


@lru_cache(maxsize=64)
def _batch_program(ansatz: AnsatzSpec):
    """The circuit as one gather per rotation on a batch kept in a running column order.

    Column k of the working batch holds amplitude order[k].  A rotation on a
    qubit with amplitude pairs (j0, j1) gathers a = (x[j0], x[j0]) and
    b = (x[j1], x[j1]) as (2, len(j0)) blocks, so one product per side gives
    both new halves, stored in the order (j0, j1).  A CNOT only relabels the
    order, being its own inverse.  Returns (is_rz, steps, final): a mask of
    the Rz parameters, (parameter, a gather, b gather) per rotation, and the
    gather that restores the computational-basis order.
    """
    qubits = ansatz.qubits
    order = np.arange(1 << qubits)
    is_rz = np.zeros(ansatz.parameter_count, dtype=bool)
    steps = []
    for op in ansatz_operations(ansatz):
        if op[0] == "cx":
            order = _cnot_table(qubits, op[1], op[2])[order]
            continue
        is_rz[op[2]] = op[0] == "rz"
        column = np.argsort(order)
        j0, j1 = _pair_indices(qubits, op[1])
        steps.append((op[2], column[np.stack((j0, j0))], column[np.stack((j1, j1))]))
        order = np.concatenate((j0, j1))
    final = np.argsort(order)
    for table in [is_rz, final] + [index for step in steps for index in step[1:]]:
        table.flags.writeable = False
    return is_rz, tuple(steps), final


def _rotation_gates(is_rz: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Every rotation's 2x2 matrix for every row of values[B, P]: gates[param, row, i, j].

    The entries are those of the scalar gate matrices, bit for bit: Ry takes
    cos and sin of theta/2, as `_ry` does, and Rz the phase exp(-i theta/2),
    which is cos(-theta/2) + i sin(-theta/2), and its conjugate.
    """
    half = values.T / 2.0
    rz = is_rz[:, None]
    angle = np.where(rz, -half, half)
    cos, sin = np.cos(angle), np.sin(angle)
    gates = np.empty(half.shape + (2, 2), dtype=complex)
    gates[..., 0, 0].real = gates[..., 1, 1].real = cos
    gates[..., 0, 0].imag = np.where(rz, sin, 0.0)
    gates[..., 1, 1].imag = np.where(rz, -sin, 0.0)
    gates[..., 0, 1] = np.where(rz, 0.0, -sin)
    gates[..., 1, 0] = np.where(rz, 0.0, sin)
    return gates


def prepare_states(ansatz: AnsatzSpec, params) -> np.ndarray:
    """Run the circuit on |0...0> once per row of params[B, P]; returns states[B, 2^Q].

    Each gate acts on the whole batch at once, with the same complex products
    and sums as on a single state, so row b is bit-identical to the state of
    params[b] prepared alone.  The batch stays C-contiguous (`take` rather
    than `states[:, table]`), which the bit-identical energy contraction in
    `driver` relies on.
    """
    values = np.asarray(params, dtype=float)
    if values.ndim != 2 or values.shape[1] != ansatz.parameter_count:
        raise ValueError(
            f"expected rows of {ansatz.parameter_count} parameters, got shape {values.shape}"
        )
    is_rz, steps, final = _batch_program(ansatz)
    gates = _rotation_gates(is_rz, values)
    left, right = gates[..., :1], gates[..., 1:]  # per row, (g00, g10) and (g01, g11)
    batch = len(values)
    states = np.zeros((batch, 1 << ansatz.qubits), dtype=complex)
    states[:, 0] = 1.0
    for p, a_index, b_index in steps:
        states = left[p] * states.take(a_index, axis=1) + right[p] * states.take(b_index, axis=1)
        states = states.reshape(batch, -1)
    states = states.take(final, axis=1)
    norms = np.sum(np.abs(states) ** 2, axis=1)
    # written so that a NaN norm, from a non-finite angle, fails too
    within = np.abs(norms - 1.0) <= _NORM_TOL
    if not within.all():
        raise RuntimeError(f"state norm drifted to {float(norms[~within][0])}")
    return states


def _parameter_vector(ansatz: AnsatzSpec, params) -> np.ndarray:
    values = np.asarray(params, dtype=float).ravel()
    if values.size != ansatz.parameter_count:
        raise ValueError(f"expected {ansatz.parameter_count} parameters, got {values.size}")
    return values


def prepare_state(ansatz: AnsatzSpec, params) -> np.ndarray:
    """Run the circuit on |0...0> and return the 2^Q statevector."""
    values = _parameter_vector(ansatz, params)
    return prepare_states(ansatz, values[None, :])[0]


def exact_expectation(state: np.ndarray, operator: PauliOperator) -> float:
    """<psi| operator |psi> by mask-indexed amplitude traversal."""
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


@dataclass(frozen=True)
class ExpectationEstimate:
    value: float
    std_error: float
    shots_used: int
    mode: str


def symmetric_confusion(flip: float) -> tuple:
    """2x2 readout confusion with equal 0->1 and 1->0 flip probability."""
    if not 0.0 <= flip <= 1.0:
        raise ValueError("flip probability must lie in [0, 1]")
    return ((1.0 - flip, flip), (flip, 1.0 - flip))


@dataclass(frozen=True)
class NoiseSpec:
    """Depolarizing rates per gate kind plus per-qubit readout confusion.

    `readout` is either None (ideal), one 2x2 row-stochastic matrix
    P(measured|true) shared by all qubits, or a per-qubit tuple of such
    matrices.
    """

    p1: float = 2e-4
    p2: float = 7e-3
    readout: tuple = symmetric_confusion(2e-2)

    def __post_init__(self):
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability")
        if self.readout is not None:
            for row in self._flat_rows():
                if min(row) < -1e-12 or abs(sum(row) - 1.0) > 1e-9:
                    raise ValueError("confusion rows must be probabilities summing to 1")

    def _flat_rows(self):
        first = self.readout[0]
        matrices = (self.readout,) if np.isscalar(first[0]) else self.readout
        return [tuple(row) for mat in matrices for row in mat]

    def readout_matrices(self, qubits: int):
        """Per-qubit confusion matrices (qubit 1 first), or None if ideal."""
        if self.readout is None:
            return None
        first = self.readout[0]
        if np.isscalar(first[0]):
            mat = np.asarray(self.readout, dtype=float)
            return [mat] * qubits
        if len(self.readout) != qubits:
            raise ValueError("per-qubit readout list does not match register size")
        return [np.asarray(m, dtype=float) for m in self.readout]


def _total_confusion(matrices) -> np.ndarray:
    total = np.array([[1.0]])
    for mat in matrices:
        total = np.kron(total, mat)
    return total


def _basis_change_gates(x: int, z: int, qubits: int) -> tuple:
    """((qubit,), rotation) taking the setting's basis to the Z basis, per measured qubit."""
    gates = []
    for q in range(1, qubits + 1):
        bit = 1 << (qubits - q)
        if x & bit:
            gate = _rx(math.pi / 2) if z & bit else _ry(-math.pi / 2)
            gate.flags.writeable = False
            gates.append(((q,), gate))
    return tuple(gates)


def _outcome_values(operator: PauliOperator, members, dim: int) -> np.ndarray:
    """Summed member eigenvalues for every measured basis index."""
    idx = np.arange(dim)
    values = np.zeros(dim)
    for i in members:
        string = operator.strings[i]
        support = string.x | string.z
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & support) & 1)
        values += operator.coefficients[i] * signs
    values.flags.writeable = False
    return values


@lru_cache(maxsize=64)
def _measurement_plan(operator: PauliOperator, grouping: bool):
    """Exact identity offset plus every sampled setting's basis change and outcome values.

    A setting is one QWC group, or one string when grouping is off; the
    identity string is never measured.  Returns (offset, tails, rotations,
    outcomes): each setting's basis-change gates, for the noisy channel;
    the same gates stacked per qubit as rotations[k] = (qubit, gates[2, 2, S, 1]),
    where a setting that does not rotate the qubit takes the identity, for
    the sampled batch; and the outcome-value table outcomes[S, 2^Q].
    Compiled once per operator, so the estimators neither regroup nor
    rebuild outcome tables on each call.
    """
    qubits, strings = operator.qubits, operator.strings
    if grouping:
        settings = [(g.x, g.z, g.members) for g in group_qubitwise_commuting(operator)]
    else:
        settings = [(s.x, s.z, (i,)) for i, s in enumerate(strings)]
    tails, outcomes = [], []
    for x, z, members in settings:
        members = [i for i in members if not strings[i].is_identity]
        if members:
            tails.append(_basis_change_gates(x, z, qubits))
            outcomes.append(_outcome_values(operator, members, 1 << qubits))
    stacked = {}
    for s, tail in enumerate(tails):
        for (q,), gate in tail:
            if q not in stacked:
                stacked[q] = np.zeros((2, 2, len(tails), 1), dtype=complex)
                stacked[q][0, 0] = stacked[q][1, 1] = 1.0
            stacked[q][:, :, s, 0] = gate
    rotations = tuple((q, stacked[q]) for q in sorted(stacked))
    table = np.array(outcomes).reshape(len(tails), 1 << qubits)
    for array in [table] + [gates for _, gates in rotations]:
        array.flags.writeable = False
    return operator.identity_offset, tuple(tails), rotations, table


def _tally(counts: np.ndarray, outcomes: np.ndarray, shots: int, offset: float):
    """Estimates and their variances from counts[..., S, 2^Q] of every setting.

    Each setting contributes its sample mean of outcomes[S, 2^Q] over the
    shots and that mean's variance; the settings are summed in order onto
    the offset, as a running sum would.  Every (1, 2^Q) @ (2^Q, 1) product
    and the sequential `cumsum` make each row's figures independent of the
    rows beside it.
    """
    counts = np.asarray(counts, dtype=float)[..., None, :]
    mean = np.matmul(counts, outcomes[:, :, None])[..., 0, 0] / shots
    if shots > 1:
        second = np.matmul(counts, outcomes[:, :, None] ** 2)[..., 0, 0]
        variance = np.maximum(second - shots * mean * mean, 0.0) / (shots - 1) / shots
    else:
        variance = np.zeros_like(mean)
    start = np.zeros(mean.shape[:-1] + (1,))
    value = np.cumsum(np.concatenate((start + offset, mean), axis=-1), axis=-1)[..., -1]
    variance = np.cumsum(np.concatenate((start, variance), axis=-1), axis=-1)[..., -1]
    return value, variance


def _estimates(value: np.ndarray, variance: np.ndarray, shots_used: int, mode: str) -> tuple:
    return tuple(
        ExpectationEstimate(value=float(v), std_error=math.sqrt(e), shots_used=shots_used, mode=mode)
        for v, e in zip(value, variance)
    )


def sampled_expectations(
    ansatz: AnsatzSpec,
    points,
    operator: PauliOperator,
    shots: int,
    seeds,
    grouping: bool = True,
) -> tuple:
    """`sampled_expectation` of every row of points[B, P], row b seeded by seeds[b].

    The states are prepared as one batch, and each qubit's basis-change
    rotations act on all rows and settings at once, with the same complex
    products as on one state (an identity where a setting does not rotate,
    which changes no amplitude's magnitude).  Each row draws all its
    settings' counts in one multinomial from its own generator, so row b is
    bit-identical to the point estimated alone, whatever its neighbours.
    """
    if ansatz.qubits != operator.qubits:
        raise ValueError("ansatz and operator registers differ")
    if shots < 1:
        raise ValueError("need at least one shot")
    states = prepare_states(ansatz, points)
    if len(seeds) != len(states):
        raise ValueError(f"expected one seed per point, got {len(seeds)} for {len(states)}")
    offset, _, rotations, outcomes = _measurement_plan(operator, grouping)
    rotated = np.repeat(states[:, None, :], len(outcomes), axis=1)
    for q, ((g00, g01), (g10, g11)) in rotations:
        j0, j1 = _pair_indices(ansatz.qubits, q)
        a = rotated[..., j0]
        b = rotated[..., j1]
        rotated[..., j0] = g00 * a + g01 * b
        rotated[..., j1] = g10 * a + g11 * b
    probs = np.abs(rotated) ** 2
    probs /= probs.sum(axis=-1, keepdims=True)
    counts = [np.random.default_rng(seed).multinomial(shots, p) for seed, p in zip(seeds, probs)]
    value, variance = _tally(np.array(counts), outcomes, shots, offset)
    return _estimates(value, variance, len(outcomes) * shots, SAMPLED)


def sampled_expectation(
    ansatz: AnsatzSpec,
    params,
    operator: PauliOperator,
    shots: int,
    grouping: bool = True,
    seed=None,
) -> ExpectationEstimate:
    """Estimate <operator> from finite measurement statistics (one row of `sampled_expectations`)."""
    values = _parameter_vector(ansatz, params)
    return sampled_expectations(ansatz, values[None, :], operator, shots, [seed], grouping)[0]


@lru_cache(maxsize=256)
def _diagonal_blocks(qubits: int, touched: tuple) -> tuple:
    """Index of each block of rho, viewed on 2Q bit axes, diagonal on the touched qubits."""
    blocks = []
    for bits in range(1 << len(touched)):
        index = [slice(None)] * (2 * qubits)
        for k, q in enumerate(touched):
            index[q - 1] = index[qubits + q - 1] = (bits >> k) & 1
        blocks.append(tuple(index))
    return tuple(blocks)


def _depolarize(rho: np.ndarray, qubits: int, touched: tuple, p: float) -> None:
    """With probability p, a uniformly chosen non-identity Pauli on the touched qubits.

    For k touched qubits that is (1 - w) rho + w (I/2^k (x) Tr_touched rho)
    with w = p 4^k / (4^k - 1) (Nielsen & Chuang, ch. 8).  Acts in place,
    through a view, so rho must be C-contiguous.
    """
    if p == 0.0:
        return
    size = 4 ** len(touched)
    weight = p * size / (size - 1)
    view = rho.reshape((2,) * (2 * qubits))
    blocks = _diagonal_blocks(qubits, touched)
    mixed = sum(view[block] for block in blocks) * (weight / (1 << len(touched)))
    view *= 1.0 - weight
    for block in blocks:
        view[block] += mixed


def _evolve(rho: np.ndarray, qubits: int, gates, noise: NoiseSpec) -> None:
    """Each (touched, matrix) gate as U rho U^dagger, then its depolarizing channel.

    A matrix of None is a CNOT on touched = (control, target).  Rows are
    transformed first, then the columns through the transposed view.
    """
    for touched, matrix in gates:
        if matrix is None:
            for view in (rho, rho.T):
                _apply_cnot(view, qubits, *touched)
            _depolarize(rho, qubits, touched, noise.p2)
        else:
            _apply_single(rho, qubits, touched[0], matrix)
            _apply_single(rho.T, qubits, touched[0], matrix.conj())
            _depolarize(rho, qubits, touched, noise.p1)


def _noisy_distributions(ansatz: AnsatzSpec, values: np.ndarray, noise: NoiseSpec, tails):
    """Exact measured-outcome distribution of every setting, readout included: probs[S, 2^Q].

    The ansatz is evolved once; each setting then applies only its own
    basis-change tail, which is as fault-prone as the ansatz's gates.
    """
    qubits = ansatz.qubits
    is_rz = _batch_program(ansatz)[0]
    rotations = _rotation_gates(is_rz, values[None, :])[:, 0]
    circuit = [
        (op[1:], None) if op[0] == "cx" else ((op[1],), rotations[op[2]])
        for op in ansatz_operations(ansatz)
    ]
    dim = 1 << qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    _evolve(rho, qubits, circuit, noise)
    readout = noise.readout_matrices(qubits)
    confusion = None if readout is None else _total_confusion(readout)
    distributions = np.empty((len(tails), dim))
    for s, gates in enumerate(tails):
        tail = rho.copy()
        _evolve(tail, qubits, gates, noise)
        probs = np.clip(tail.diagonal().real, 0.0, None)
        probs /= probs.sum()
        distributions[s] = probs if confusion is None else probs @ confusion
    return distributions


def _noisy_estimates(ansatz, params, operator, shots, noise, seeds, mitigate, grouping) -> tuple:
    """`noisy_expectation` once per seed in `seeds`; evolves rho once."""
    if ansatz.qubits != operator.qubits:
        raise ValueError("ansatz and operator registers differ")
    if shots < 1:
        raise ValueError("need at least one shot")
    values = _parameter_vector(ansatz, params)
    readout = noise.readout_matrices(ansatz.qubits)
    inverse = None
    if readout is not None:
        try:
            inverse = _total_confusion([np.linalg.inv(m) for m in readout])
        except np.linalg.LinAlgError as err:
            raise ValueError("readout confusion matrix is singular") from err

    offset, tails, _, outcomes = _measurement_plan(operator, grouping)
    probs = _noisy_distributions(ansatz, values, noise, tails)
    counts = np.array([np.random.default_rng(seed).multinomial(shots, probs) for seed in seeds])
    if mitigate and inverse is not None:
        # one (1, 2^Q) @ (2^Q, 2^Q) product per setting, as for a single setting
        freq = np.matmul((counts / shots)[..., None, :], inverse)[..., 0, :]
        freq = np.clip(freq, 0.0, None)
        counts = shots * freq / freq.sum(axis=-1, keepdims=True)
    value, variance = _tally(counts, outcomes, shots, offset)
    return _estimates(value, variance, len(tails) * shots, NOISY)


def noisy_expectation(
    ansatz: AnsatzSpec,
    params,
    operator: PauliOperator,
    shots: int,
    noise: NoiseSpec,
    mitigate: bool = True,
    grouping: bool = True,
    seed=None,
) -> ExpectationEstimate:
    """Estimate <operator> under depolarizing gate faults and readout error.

    After every gate, including the basis-change rotations, a uniformly
    chosen non-identity Pauli strikes the gate's qubits with probability
    p1 (rotations) or p2 (CNOTs).  The density matrix is evolved through
    this channel exactly, the readout confusion maps its diagonal to each
    setting's outcome distribution, and the settings' counts are one
    multinomial draw from them, seeded by `seed`.  Mitigation inverts
    the readout confusion on the measured frequencies, clipping negative
    entries and renormalizing.
    """
    return _noisy_estimates(ansatz, params, operator, shots, noise, [seed], mitigate, grouping)[0]


def embed_params(ansatz: AnsatzSpec, params) -> np.ndarray:
    """Lift parameters onto one more qubit, reproducing the same state.

    The new qubit becomes qubit 1 with every rotation angle zero.  It
    stays in |0> because both entangler layouts only ever use qubit 1 as
    a CNOT control, so the enlarged circuit prepares |0> (x) |previous>
    and expectation values over a nested operator block are unchanged.
    """
    values = _parameter_vector(ansatz, params)
    q = ansatz.qubits
    out = []
    for block in range(ansatz.depth + 1):
        base = 2 * q * block
        out.append(0.0)
        out.extend(values[base : base + q])
        out.append(0.0)
        out.extend(values[base + q : base + 2 * q])
    return np.asarray(out, dtype=float)


def sample_bitstrings(state: np.ndarray, shots: int, seed=None) -> np.ndarray:
    """Draw computational-basis outcomes (as integers) from |amplitude|^2."""
    if shots < 1:
        raise ValueError("need at least one shot")
    probs = np.abs(np.asarray(state, dtype=complex)) ** 2
    rng = np.random.default_rng(seed)
    return rng.choice(probs.size, size=shots, p=probs / probs.sum())


def format_bitstrings(samples, qubits: int) -> str:
    """One line per shot, qubit 1 leftmost."""
    return "\n".join(format(int(s), f"0{qubits}b") for s in samples) + "\n"
