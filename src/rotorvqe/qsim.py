"""Statevector and density-matrix simulation of RyRz variational circuits.

Qubit 1 is the most significant bit of a computational-basis index,
matching `paulimap`.  Rotation gates follow exp(-i theta sigma / 2).
`_estimate` estimates a PauliOperator from shots, ideal (sampled) or under
a parametric noise model (noisy); exact energies are contracted in
`driver`.  Every circuit runs on one gate compiler, `_compile`: a pure
state as a register of Q qubits, a density matrix with each gate's
depolarizing channel as a superket of 2Q.  Both run in bounded row blocks,
each building its gate entries at once (`_Program`): every Rz a phase
multiply, every Ry a 2x2 gather and a pure state's first Ry layer a
product, each product with the gate or phase first.  Against full 2x2
products, only the sign of a part exactly 0 can differ.  Each setting's
outcome distribution comes off the pure state through its basis change, or
off the density matrix through one precomputed map (`_folded_map`).
Callers hash a batch's seeds at once to the PCG64 starts `default_rng(seed)`
would take (`_pcg64_states(_word_table(seeds))`); both modes draw each
start's counts and tally them alike (a noisy estimate optionally undoing
readout confusion first).
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .paulimap import PauliOperator, group_qubitwise_commuting

LINEAR = "linear"
FULL = "full"

EXACT = "exact"
SAMPLED = "sampled"
NOISY = "noisy"

_NORM_TOL = 1e-10


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


def _pair_indices(qubits: int, qubit: int):
    bit = 1 << (qubits - qubit)
    idx = np.arange(1 << qubits)
    j0 = idx[(idx & bit) == 0]
    return j0, j0 | bit


def _cnot_table(qubits: int, control: int, target: int):
    idx = np.arange(1 << qubits)
    cbit = 1 << (qubits - control)
    tbit = 1 << (qubits - target)
    return np.where(idx & cbit, idx ^ tbit, idx)


def _mix_blocks(qubits: int, pairs) -> np.ndarray:
    """blocks[b]: each index, in increasing order, where both qubits of pairs[i] read bit i of b."""
    idx = np.arange(1 << qubits)
    bits = [[(idx >> (qubits - q)) & 1 for q in pair] for pair in pairs]
    same = np.all([a == b for a, b in bits], axis=0)
    label = sum(a << i for i, (a, _) in enumerate(bits))
    return np.array([idx[same & (label == b)] for b in range(1 << len(pairs))])


def _compile(qubits: int, ops) -> tuple:
    """A gate program as one gather per step on a batch kept in a running row order.

    Row k of the working batch holds amplitude order[k].  A rotation
    (name, qubit, key) with amplitude pairs (j0, j1) gathers
    ((x[j0], x[j0]), (x[j1], x[j1])) with one stacked index of shape
    (2, 2, len(j0)), so one product per side gives both new halves, stored
    in the order (j0, j1).  A ("phase", qubit, key), a diagonal gate, keeps
    the order and holds each row's bit of the qubit, bits[2^Q], which picks
    the row's phase.  A ("mix", pairs, key) gathers its 2^k diagonal blocks
    (`_mix_blocks`) as one index[2^k, n] and keeps the order.  A
    ("cx", control, target) only relabels the order, being its own inverse.
    Returns (steps, final): (key, gather) per rotation, phase or mix, and
    the gather that restores the computational-basis order.
    """
    order = np.arange(1 << qubits)
    steps = []
    for op in ops:
        if op[0] == "cx":
            order = _cnot_table(qubits, op[1], op[2])[order]
            continue
        if op[0] == "phase":
            steps.append((op[2], (order >> (qubits - op[1])) & 1))
            continue
        row = np.argsort(order)
        if op[0] == "mix":
            steps.append((op[2], row[_mix_blocks(qubits, op[1])]))
            continue
        j0, j1 = _pair_indices(qubits, op[1])
        steps.append((op[2], row[np.stack(((j0, j0), (j1, j1)))]))
        order = np.concatenate((j0, j1))
    final = np.argsort(order)
    for table in [final] + [index for _, index in steps]:
        table.flags.writeable = False
    return tuple(steps), final


def _run_gathers(work: np.ndarray, steps, gates, noise: NoiseSpec = None, phases=None) -> None:
    """Run compiled (key, gather) steps in place on a C-contiguous work[2^Q, ...].

    A rotation's key indexes `gates`, each held as gate[j, i, 1, ...]; a
    phase's key indexes `phases`, each held as phase[bit, ...] that the
    step's bits gather, or as phase[2^Q, ...] for a step with no bits; a
    mix's key names its fault probability p, noise.p1 or noise.p2.  Every
    product takes the gate first, as the 2x2 product does: numpy's complex
    kernel rounds its cross terms in operand order, so swapping them moves
    last bits.  A mix on a superket's k (q, Q + q) pairs strikes those qubits
    with a uniformly chosen non-identity Pauli with probability p, which is
    (1 - w) rho + w (I/2^k (x) Tr_k rho), w = p 4^k / (4^k - 1) (Nielsen &
    Chuang, ch. 8): each of the 2^k diagonal blocks gains w/2^k times their
    sum.
    """
    halves = work.reshape((2, len(work) // 2) + work.shape[1:])
    terms = np.empty((2,) + halves.shape, dtype=complex)
    first, second = terms
    for key, index in steps:
        if index is None:
            np.multiply(phases[key], work, out=work)
            continue
        if index.ndim == 3:
            # terms = ((g00 a, g10 a), (g01 b, g11 b)), then their sums in place;
            # every index is in range, and "clip" skips the copy "raise" buffers
            work.take(index, axis=0, out=terms, mode="clip")
            np.multiply(gates[key], terms, out=terms)
            np.add(first, second, out=halves)
            continue
        if index.ndim == 1:
            np.multiply(phases[key].take(index, axis=0), work, out=work)
            continue
        if p := getattr(noise, key):
            size = len(index) ** 2
            weight = p * size / (size - 1)
            mixed = sum(work.take(index, axis=0, mode="clip")) * (weight / len(index))
            work *= 1.0 - weight
            # the blocks are disjoint, so one fancy-index update adds to each once
            work[index] += mixed


# rows of one block of `_evolved`: a 60-restart lockstep batch (120 rows) is
# one block, and at 4 qubits a block's phase tables stay at 256 KB, where
# fresh pages and cache misses made 3,000 rows in one block cost 1.7-1.9
# times more per row than 1,000
_STATE_ROWS = 128


@dataclass(frozen=True, eq=False)
class _Program:
    """A circuit compiled for `_evolved`: its steps and where their entries come from.

    A block of rows values[B, P] builds one float table[3P + 1, B]: the cos,
    the sin and the negated sin of every signed half angle, values[:, p]
    times signs[p], then a row of zeros.  Ry takes cos and sin of theta/2,
    as `_ry` does, and Rz the phase exp(-i theta/2) = cos(-theta/2) + i
    sin(-theta/2) and its conjugate, so these are the gate entries bit for
    bit.  Entry n is table[real[n]] + i table[imag[n]]: first each of the
    `gates` Ry gates as gate[j, i, 0] = g[i, j], then each phase's pair of
    entries, which one gather by `phases` makes the phase tables.
    `steps` key both in order (see `_run_gathers`).  factors[Q, 2^Q], for a
    pure state only, picks the first Ry layer's product factors.
    """

    signs: np.ndarray
    factors: np.ndarray
    real: np.ndarray
    imag: np.ndarray
    gates: int
    phases: np.ndarray
    steps: tuple
    final: np.ndarray


def _program(ansatz, gates, phases, steps, final, factors=None) -> _Program:
    """Lay out the entries of gates[n], an Ry's parameter, and phases[n], an Rz's (parameter, bits).

    Phase n has its own pair of entries, cos + i sin for bit 0 and cos - i
    sin for bit 1, and is gathered as the entry of each of its bits.
    """
    count, ry = ansatz.parameter_count, np.array(gates, dtype=int)
    rz = np.array([p for p, _ in phases])
    # an Ry's entries g00, g10, g01, g11 are cos, sin, -sin and cos, each + 0i
    real = np.concatenate(((ry[:, None] + count * np.array([0, 1, 2, 0])).ravel(), np.repeat(rz, 2)))
    imag = np.concatenate((np.full(4 * len(ry), 3 * count), (rz[:, None] + count * np.array([1, 2])).ravel()))
    phases = np.array([4 * len(ry) + 2 * n + bits for n, (_, bits) in enumerate(phases)])
    # theta/2 for each Ry, -theta/2 for each Rz
    signs = np.tile(np.repeat([0.5, -0.5], ansatz.qubits), ansatz.depth + 1)[:, None]
    for table in (signs, factors, real, imag, phases):
        if table is not None:
            table.flags.writeable = False
    return _Program(signs, factors, real, imag, len(ry), phases, steps, final)


@lru_cache(maxsize=64)
def _state_program(ansatz: AnsatzSpec) -> _Program:
    """The pure-state circuit, as a `_Program`.

    The first Ry layer acts on |0...0>, so amplitude k is the real product,
    in qubit order, of each qubit's cos or sin as its bit of k picks.
    `_compile` runs the rest, each Rz as a phase step and each later Ry as a
    gather.  Phase step n multiplies by row n of the phase table[n, 2^Q],
    its Rz's entry for each working row's bit, so the step holds no bits.
    """
    qubits, ops = ansatz.qubits, ansatz_operations(ansatz)
    later = [("phase",) + op[1:] if op[0] == "rz" else op for op in ops[qubits:]]
    compiled, final = _compile(qubits, later)
    steps, gates, phases = [], [], []
    for key, index in compiled:
        if index.ndim == 1:
            steps.append((len(phases), None))
            phases.append((key, index))
        else:
            steps.append((len(gates), index))
            gates.append(key)
    bits = (np.arange(1 << qubits) >> np.arange(qubits - 1, -1, -1)[:, None]) & 1
    factors = np.arange(qubits)[:, None] + ansatz.parameter_count * bits
    return _program(ansatz, gates, phases, tuple(steps), final, factors)


@lru_cache(maxsize=64)
def _superket_program(ansatz: AnsatzSpec) -> _Program:
    """The noisy circuit on a density matrix, compiled by `_compile`, as a `_Program`.

    rho, flattened in C order, is a register of 2Q qubits (a superket): row
    qubit q is qubit q and column qubit q is qubit Q + q.  So U rho U^dagger
    is the gate on q, then its conjugate on Q + q; a CNOT acts on both
    halves; and each gate's depolarizing channel follows as a mix over its
    qubits' (q, Q + q) pairs, keyed "p1" or "p2" (see `_run_gathers`).
    Each Rz keys two phase rows[2], its phase and, for the conjugate, the
    same entries with the bits swapped: conj(c + i s) = c - i s, bit for
    bit.  Ry is real, so its conjugate is the same gate.
    """
    qubits, ops, phases, gates = ansatz.qubits, [], [], []
    for op in ansatz_operations(ansatz):
        if op[0] == "cx":
            _, control, target = op
            pairs = ((control, qubits + control), (target, qubits + target))
            ops += [op, ("cx", qubits + control, qubits + target), ("mix", pairs, "p2")]
            continue
        name, q, p = op
        if name == "rz":
            op, conjugate = ("phase", q, len(phases)), ("phase", qubits + q, len(phases) + 1)
            phases += [(p, np.array([0, 1])), (p, np.array([1, 0]))]
        else:
            op, conjugate = (name, q, len(gates)), (name, qubits + q, len(gates))
            gates.append(p)
        ops += [op, conjugate, ("mix", ((q, qubits + q),), "p1")]
    return _program(ansatz, gates, phases, *_compile(2 * qubits, ops))


def prepare_states(ansatz: AnsatzSpec, params) -> np.ndarray:
    """Run the circuit on |0...0> once per row of params[B, P]; returns states[B, 2^Q].

    Row b is bit-identical to params[b] prepared alone, and to the full 2x2
    products g[i, 0] a + g[i, 1] b of every gate but for the sign of a part
    exactly 0 (`tests/oracles.py::serial_prepare_state`).  The result is
    C-contiguous, which the bit-identical energy contraction in `driver`
    relies on.
    """
    return _evolved(ansatz, _parameter_rows(ansatz, params))


def _evolved(ansatz: AnsatzSpec, values: np.ndarray, noise: NoiseSpec = None) -> np.ndarray:
    """Each row of values[B, P] run as a state[B, 2^Q], or under noise as a superket[B, 4^Q].

    Rows run in blocks of at most `_STATE_ROWS`, so a large batch costs no
    more per row than a small one.  A block is held batch-minor, as
    work[2^Q or 4^Q, rows], so each complex product runs with the rows as
    its innermost, contiguous axis.  It builds its entries once
    (`_Program`): one multiply, one cos and one sin, one gather of the real
    parts and one of the imaginary parts, then one gather of every phase
    table.  A state runs `_state_program`: the first Ry layer as a product,
    every Rz as one phase multiply, each later Ry as a gather.  A superket runs
    `_superket_program` from |0...0><0...0|.  Every product takes the gate
    or phase first, as the 2x2 product does: numpy's complex kernel rounds
    its cross terms in operand order.  Both skip the products with an exact
    zero entry of a 2x2 gate.  As x + (+-0) = x and x (+-0) = +-0, that
    changes only the sign of a part that ends exactly 0 (angles of +-0,
    say), and nothing downstream divides by one.  Each block is written
    into the C-contiguous result.
    """
    program = _state_program(ansatz) if noise is None else _superket_program(ansatz)
    count = len(program.signs)
    states = np.empty((len(values), len(program.final)), dtype=complex)
    for start in range(0, len(values), _STATE_ROWS):
        rows = values[start : start + _STATE_ROWS]
        # in C order, which numpy's cos and sin run fastest on
        half = np.multiply(program.signs, rows.T, order="C")
        table = np.empty((3 * count + 1, len(rows)))
        np.cos(half, out=table[:count])
        sin = np.sin(half, out=table[count : 2 * count])
        # negated into a temporary: numpy 2.4.6's np.negative(out=) wrote wrong
        # values with both operands strided along 3,000 rows
        table[2 * count : 3 * count] = -sin
        table[3 * count] = 0.0
        entries = np.empty((len(program.real), len(rows)), dtype=complex)
        entries.real = table.take(program.real, axis=0)
        entries.imag = table.take(program.imag, axis=0)
        if noise is None:
            # the reduction multiplies in axis order, ((f1 f2) f3) ..., as the layer's gates do
            work = np.multiply.reduce(table.take(program.factors, axis=0)).astype(complex)
        else:
            work = np.zeros((len(program.final), len(rows)), dtype=complex)
            work[0] = 1.0
        gates = entries[: 4 * program.gates].reshape(program.gates, 2, 2, 1, len(rows))
        _run_gathers(work, program.steps, gates, noise, entries.take(program.phases, axis=0))
        block = states[start : start + len(rows)]
        work.T.take(program.final, axis=1, out=block, mode="clip")
        # a density matrix's norm is its trace; written so that a NaN norm, from
        # a non-finite angle, fails too
        norms = np.vecdot(block, block) if noise is None else block[:, :: (1 << ansatz.qubits) + 1].sum(1)
        drift = np.abs(norms.real - 1.0)
        if not np.maximum.reduce(drift) <= _NORM_TOL:
            raise RuntimeError(f"state norm drifted to {float(norms.real[~(drift <= _NORM_TOL)][0])}")
    return states


def _parameter_rows(ansatz: AnsatzSpec, params) -> np.ndarray:
    values = np.asarray(params, dtype=float)
    if values.ndim != 2 or values.shape[1] != ansatz.parameter_count:
        raise ValueError(
            f"expected rows of {ansatz.parameter_count} parameters, got shape {values.shape}"
        )
    return values


def _parameter_vector(ansatz: AnsatzSpec, params) -> np.ndarray:
    values = np.asarray(params, dtype=float).ravel()
    if values.size != ansatz.parameter_count:
        raise ValueError(f"expected {ansatz.parameter_count} parameters, got {values.size}")
    return values


def prepare_state(ansatz: AnsatzSpec, params) -> np.ndarray:
    """Run the circuit on |0...0> and return the 2^Q statevector."""
    return prepare_states(ansatz, _parameter_vector(ansatz, params)[None, :])[0]


def symmetric_confusion(flip: float) -> tuple:
    """2x2 readout confusion with equal 0->1 and 1->0 flip probability."""
    if not 0.0 <= flip <= 1.0:
        raise ValueError("flip probability must lie in [0, 1]")
    return ((1.0 - flip, flip), (flip, 1.0 - flip))


@dataclass(frozen=True)
class NoiseSpec:
    """Depolarizing rates per gate kind plus per-qubit readout confusion.

    `readout` is either None (ideal), one 2x2 row-stochastic matrix
    P(measured|true) shared by all qubits, or a per-qubit sequence of such
    matrices; it is kept as nested tuples of floats, so a spec is hashable.
    """

    p1: float = 2e-4
    p2: float = 7e-3
    readout: tuple = symmetric_confusion(2e-2)

    def __post_init__(self):
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability")
        if self.readout is not None:
            matrices = self._matrices()
            rows = matrices.reshape(-1, 2)
            # written so that a NaN entry fails too
            if not ((rows >= -1e-12).all() and (np.abs(rows.sum(axis=1) - 1.0) <= 1e-9).all()):
                raise ValueError("confusion rows must be probabilities summing to 1")
            object.__setattr__(self, "readout", _nested_tuples(matrices.tolist()))

    def _matrices(self) -> np.ndarray:
        """`readout` as one shared matrix[2, 2] or a per-qubit stack[Q, 2, 2]."""
        try:
            matrices = np.asarray(self.readout, dtype=float)
        except (TypeError, ValueError) as err:
            raise ValueError("readout must be one 2x2 matrix or one per qubit") from err
        if matrices.ndim not in (2, 3) or matrices.shape[-2:] != (2, 2):
            raise ValueError("readout must be one 2x2 matrix or one per qubit")
        return matrices

    def readout_matrices(self, qubits: int):
        """Per-qubit confusion matrices (qubit 1 first), or None if ideal."""
        if self.readout is None:
            return None
        matrices = self._matrices()
        if matrices.ndim == 2:
            return [matrices] * qubits
        if len(matrices) != qubits:
            raise ValueError("per-qubit readout list does not match register size")
        return list(matrices)


def _nested_tuples(items):
    return tuple(map(_nested_tuples, items)) if isinstance(items, list) else items


@lru_cache(maxsize=64)
def _inverse_readout(noise: NoiseSpec, qubits: int) -> np.ndarray:
    """The inverse of the register's readout confusion; None if ideal."""
    matrices = noise.readout_matrices(qubits)
    if matrices is None:
        return None
    try:
        total = reduce(np.kron, [np.linalg.inv(m) for m in matrices])
    except np.linalg.LinAlgError as err:
        raise ValueError("readout confusion matrix is singular") from err
    total.flags.writeable = False
    return total


def _basis_change_gates(x: int, z: int, qubits: int) -> dict:
    """{qubit: rotation} taking the setting's basis to the Z basis, per rotated qubit."""
    gates = {}
    for q in range(1, qubits + 1):
        bit = 1 << (qubits - q)
        if x & bit:
            gate = _rx(math.pi / 2) if z & bit else _ry(-math.pi / 2)
            gate.flags.writeable = False
            gates[q] = gate
    return gates


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


@dataclass(frozen=True, eq=False)
class _MeasurementPlan:
    """Exact identity offset plus every sampled setting's basis change and outcome values.

    A setting is one QWC group, or one string when grouping is off; the
    identity string is never measured.  Setting s has basis-change gates
    tails[s], as {qubit: rotation}, outcome values outcomes[s] and their
    squares squares[s].  `pure` holds them all compiled for a state, as
    (steps, gates, measured gather), an identity for a qubit not rotated.
    """

    offset: float
    tails: tuple
    outcomes: np.ndarray
    squares: np.ndarray
    pure: tuple


@lru_cache(maxsize=64)
def _measurement_plan(operator: PauliOperator, grouping: bool) -> _MeasurementPlan:
    """The operator's `_MeasurementPlan`, compiled once per operator."""
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
    rotated = sorted({q for tail in tails for q in tail})
    stack = [[tail.get(q, np.eye(2)) for tail in tails] for q in rotated]
    stack = np.array(stack, dtype=complex).reshape(len(rotated), len(tails), 2, 2)
    gates = np.ascontiguousarray(stack.transpose(0, 3, 2, 1)[:, :, :, None, :, None])
    steps, final = _compile(qubits, [("basis", q, r) for r, q in enumerate(rotated)])
    table = np.array(outcomes).reshape(len(tails), 1 << qubits)
    squares = table**2
    for array in (gates, table, squares):
        array.flags.writeable = False
    pure = (steps, gates, final)
    return _MeasurementPlan(operator.identity_offset, tuple(tails), table, squares, pure)


# a map is up to 7 MB at 4 qubits, and a process uses a noise model or two
@lru_cache(maxsize=8)
def _folded_map(plan: _MeasurementPlan, p1: float, readout) -> np.ndarray:
    """The noisy measurement as one real map[2 4^Q, S 2^Q] from a density matrix.

    Setting s reads outcome m with probability Tr(E rho), E the product over
    qubits of e(m_q) = (1 - w) U^dagger |m><m| U + w I/2, w = 4 p1 / 3, where
    its basis change rotates the qubit by U and depolarizes it, else |m><m|.
    Readout confusion C acts per qubit, so the map is a Kronecker product of
    2 x 4 maps sum_m C[m, m'] e(m)[j, i] from rho_q[i, j] (Greenbaum,
    arXiv:1509.02921).  Rows take rho in C order as (real, imaginary) float
    pairs; columns are (setting, outcome).
    """
    qubits, settings = plan.outcomes.shape[1].bit_length() - 1, len(plan.tails)
    confusion = NoiseSpec(p1, 0.0, readout).readout_matrices(qubits) or [np.eye(2)] * qubits
    weight = 4.0 * p1 / 3.0
    projectors, mixed = np.eye(2)[:, :, None] * np.eye(2)[:, None, :], weight / 2 * np.eye(2)
    folded = np.ones((settings, 1, 1, 1), dtype=complex)
    for q, mix in enumerate(confusion, start=1):
        # effects[s, m, i, j]: the coefficient of rho_q[i, j] in setting s's outcome m
        effects = [
            projectors if gate is None else (1 - weight) * gate.T @ projectors @ gate.conj() + mixed
            for gate in (tail.get(q) for tail in plan.tails)
        ]
        effects = np.einsum("mn,smij->snij", mix, np.reshape(effects, (settings, 2, 2, 2)))
        folded = folded[:, :, None, :, None, :, None] * effects[:, None, :, None, :, None, :]
        folded = folded.reshape(settings, 2 << (q - 1), 2 << (q - 1), 2 << (q - 1))
    # Re(f rho) = Re f Re rho - Im f Im rho
    pairs = np.stack((folded.real, -folded.imag), axis=-1).transpose(2, 3, 4, 0, 1)
    pairs = np.ascontiguousarray(pairs).reshape(2 << (2 * qubits), settings << qubits)
    pairs.flags.writeable = False
    return pairs


def _tally(counts: np.ndarray, plan, shots: int):
    """Estimates and their variances from counts[..., S, 2^Q] of a measurement plan's settings.

    Each setting's sample mean of the outcome values and that mean's
    variance are summed in order onto the offset, as a running sum would;
    every (1, 2^Q) @ (2^Q, 1) product and the sequential `cumsum` keep each
    row's figures independent of the rows beside it.
    """
    counts = np.asarray(counts, dtype=float)[..., None, :]
    mean = np.matmul(counts, plan.outcomes[:, :, None])[..., 0, 0] / shots
    if shots > 1:
        second = np.matmul(counts, plan.squares[:, :, None])[..., 0, 0]
        variance = np.maximum(second - shots * mean * mean, 0.0) / (shots - 1) / shots
    else:
        variance = np.zeros_like(mean)
    start = np.zeros(mean.shape[:-1] + (1,))
    value = np.cumsum(np.concatenate((start + plan.offset, mean), axis=-1), axis=-1)[..., -1]
    variance = np.cumsum(np.concatenate((start, variance), axis=-1), axis=-1)[..., -1]
    return value, variance


# complex entries of one block of rows' working array in `_distributions`
# (4 MB); its gathers hold about three times that besides
_BLOCK_ENTRIES = 1 << 18


def _distributions(ansatz: AnsatzSpec, values: np.ndarray, plan, noise: NoiseSpec) -> np.ndarray:
    """Every row's measured-outcome distribution of every setting: probs[B, S, 2^Q].

    A row's state is held as (2^Q, S, B) through the plan's basis changes,
    or its density matrix mapped by `_folded_map` and clipped at 0.  Rows run
    in blocks of at most `_BLOCK_ENTRIES` working entries (or one row), and
    each row gets the products it would get alone.
    """
    settings, dim = plan.outcomes.shape
    if noise is None:
        steps, gates, measured = plan.pure
        width = max(1, settings) * dim
    else:
        folded = _folded_map(plan, noise.p1, noise.readout)
        width = dim * dim
    size = max(1, _BLOCK_ENTRIES // width)
    probs = np.empty((len(values), settings, dim))
    for i in range(0, len(values), size):
        block, rows = probs[i : i + size], values[i : i + size]
        if noise is None:
            work = np.repeat(_evolved(ansatz, rows).T[:, None, :], settings, axis=1)
            _run_gathers(work, steps, gates)
            # stored in C order, which makes each row's sum the one a lone distribution gets
            block[...] = (np.abs(work.take(measured, axis=0)) ** 2).T
        else:
            # one (1, 2 4^Q) @ (2 4^Q, S 2^Q) product per row
            rho = _evolved(ansatz, rows, noise).view(float)
            np.matmul(rho[:, None, :], folded, out=block.reshape(len(block), 1, -1))
    if noise is not None:
        np.clip(probs, 0.0, None, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


# settings up to which one 1-D multinomial per setting beats one 2-D call: at
# 20,000 shots and 4 to 16 outcomes a 2-D call costs about 11-14 us plus
# 0.1-1.5 us per setting and a 1-D call 1.3-2.9 us, so they cross at 8-10
_ROW_DRAWS = 8

# numpy's SeedSequence (numpy/random/bit_generator.pyx) with its default
# pool of four 32-bit words, and PCG64's 128-bit LCG multiplier
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# 0-d arrays, which numpy applies without the cast a Python int operand costs
_MIX_L, _MIX_R, _XSHIFT = (np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


def _hash_constants(init: int, mult: int, count: int) -> tuple:
    """(xors, mults): the constants of `count` successive SeedSequence hashes from `init`.

    Each hash xors its value with the running constant, multiplies the
    constant by `mult` and the value by the new constant.
    """
    running = [init]
    for _ in range(count):
        running.append(running[-1] * mult & _MASK32)
    return np.array(running[:-1], dtype=np.uint32), np.array(running[1:], dtype=np.uint32)


def _entropy_hashes() -> tuple:
    """(xors, mults)[1 + _POOL, _POOL]: mix_entropy's hash constants, one step per row.

    Step 0 hashes each pool word.  Step 1 + src hashes word src once per
    other word, in order, to mix into that word; its own slot takes the
    zero constants, and its result is never used.
    """
    xors, mults = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
    mixes = iter(range(_POOL, _POOL * _POOL))
    slots = [list(range(_POOL))] + [
        [_POOL * _POOL if dst == src else next(mixes) for dst in range(_POOL)] for src in range(_POOL)
    ]
    return tuple(np.append(table, np.uint32(0))[slots] for table in (xors, mults))


_ENTROPY_HASHES = _entropy_hashes()
# generate_state's: one per output word, two passes over the pool
_STATE_HASHES = tuple(t.reshape(2, _POOL) for t in _hash_constants(_INIT_B, _MULT_B, 2 * _POOL))


def _hashed(values: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each value: xor, multiply, then xorshift by 16."""
    values = (values ^ xors) * mults
    values ^= values >> _XSHIFT
    return values


def _word_table(seeds) -> np.ndarray:
    """words[K, _POOL]: the SeedSequence entropy of every seed the package makes, as uint32.

    A seed is an integer in [0, 2^64) (`seed_stream`'s) or a pair [s, k] of
    them (`driver._evaluation_seed`'s).  SeedSequence reads each value as
    its little-endian 32-bit words, a single word below 2^32, and hashes a
    missing pool word as 0.  So a pair whose s is below 2^32 moves k one
    word down: [5, 3] is the words [5, 3, 0, 0], not [5, 0, 3, 0].
    """
    values = np.asarray(seeds, dtype="<u8")
    words = np.zeros((len(values), _POOL), dtype=np.uint32)
    split = values.reshape(len(values), -1).view("<u4")
    words[:, : split.shape[1]] = split
    if values.ndim == 2:
        short = split[:, 1] == 0
        words[short, 1:3] = split[short, 2:]
        words[short, 3] = 0
    return words


def _pcg64_states(words: np.ndarray) -> list:
    """Each seed's `default_rng` start: PCG64 (state, inc) per row of words[K, _POOL].

    `PCG64(SeedSequence(entropy))` runs as uint32 arithmetic on all rows at
    once.  mix_entropy hashes each pool word, then mixes every source word's
    hash into each other word: mix(x, y) = L x - R y, xorshifted, the three
    mixes from one source in one step.  generate_state(4, uint64) hashes the
    pool twice over into 8 words, paired little-endian into (initstate_hi,
    initstate_lo, initseq_hi, initseq_lo), and PCG64 seeds from them: inc =
    2 initseq + 1, state = ((inc + initstate) M + inc) mod 2^128.
    """
    xors, mults = _ENTROPY_HASHES
    pool = _hashed(words, xors[0], mults[0])
    for src in range(_POOL):
        hashes = _hashed(pool[:, src, None], xors[1 + src], mults[1 + src])
        hashes *= _MIX_R
        mixed = pool * _MIX_L
        mixed -= hashes
        mixed ^= mixed >> _XSHIFT
        mixed[:, src] = pool[:, src]
        pool = mixed
    seeded = _hashed(pool[:, None], *_STATE_HASHES).astype("<u4").view("<u8").reshape(-1, _POOL)
    states = []
    for a, b, c, d in seeded.tolist():
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        states.append((((a << 64 | b) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


_THREAD = threading.local()


def _counts(states, shots: int, probs: np.ndarray) -> np.ndarray:
    """counts[K, S, 2^Q], row k bit for bit `default_rng(seed k).multinomial(shots, probs[k])`.

    states[K] holds the seeds' PCG64 (state, inc) starts (`_pcg64_states`),
    probs[B, S, 2^Q] a table per seed or one for all.  The calling thread's
    one Generator (none is built per call or shared between threads) is set
    to each start in turn and draws that seed's counts.  numpy draws a 2-D
    multinomial row by row from one stream, so up to `_ROW_DRAWS` settings
    1-D draws per setting give the same counts.
    """
    if not hasattr(_THREAD, "rng"):
        _THREAD.rng = np.random.default_rng(0)  # its state is replaced before each draw
    # the setter only reads the dict, so one serves every seed
    rng, pcg = _THREAD.rng, {}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    # each table's draw inputs (its rows, or itself past _ROW_DRAWS) are listed once, not once per seed
    split = probs.shape[1] <= _ROW_DRAWS
    inputs = itertools.cycle([list(table) if split else [table] for table in probs])
    draws = []
    for (pcg["state"], pcg["inc"]), ps in zip(states, inputs):
        rng.bit_generator.state = state
        draws += [rng.multinomial(shots, p) for p in ps]
    return np.array(draws, dtype=np.int64).reshape((len(states),) + probs.shape[1:])


def _estimate(ansatz, points, operator, shots, starts, noise=None, mitigate=True, grouping=True):
    """Estimate <operator> from `shots` per measurement setting, once per PCG64 start.

    points[B, P] holds one row per start, or one row that every start
    shares; starts[K] are (state, inc) pairs, as `_pcg64_states` gives them.
    Each row's measured-outcome distribution of every setting is made once,
    from its pure state when `noise` is None (sampled), else from its
    density matrix under `noise` (noisy), and estimate k draws its
    settings' counts from its row's as `default_rng` at start k would
    (`_counts`).  When noisy and `mitigate`, the inverted readout confusion
    is applied to the measured frequencies, clipping negative entries and
    renormalizing.  Returns (value[K], variance[K]), each bit-identical to
    its row and start estimated alone.

    Under noise, after every gate, the basis-change rotations included, a
    uniformly chosen non-identity Pauli strikes the gate's qubits with
    probability p1 (rotations) or p2 (CNOTs), exactly as a channel on the
    density matrix (`_distributions`).
    """
    if ansatz.qubits != operator.qubits:
        raise ValueError("ansatz and operator registers differ")
    if shots < 1:
        raise ValueError("need at least one shot")
    values = _parameter_rows(ansatz, points)
    if len(starts) < 1 or len(values) not in (1, len(starts)):
        raise ValueError(f"expected one seed per point, got {len(starts)} for {len(values)}")
    inverse = _inverse_readout(noise, ansatz.qubits) if noise is not None and mitigate else None
    plan = _measurement_plan(operator, grouping)
    counts = _counts(starts, shots, _distributions(ansatz, values, plan, noise))
    if inverse is not None:
        # one (1, 2^Q) @ (2^Q, 2^Q) product per setting, as for a single setting
        freq = np.matmul((counts / shots)[..., None, :], inverse)[..., 0, :]
        freq = np.clip(freq, 0.0, None)
        counts = shots * freq / freq.sum(axis=-1, keepdims=True)
    return _tally(counts, plan, shots)


def embed_params(ansatz: AnsatzSpec, params) -> np.ndarray:
    """Lift parameters onto one more qubit, reproducing the same state.

    The new qubit becomes qubit 1 with every rotation angle zero.  It
    stays in |0> because both entangler layouts only ever use qubit 1 as
    a CNOT control, so the enlarged circuit prepares |0> (x) |previous>
    and expectation values over a nested operator block are unchanged.
    """
    # each block's Ry layer, then its Rz layer, gains a leading zero angle
    layers = _parameter_vector(ansatz, params).reshape(ansatz.depth + 1, 2, ansatz.qubits)
    return np.pad(layers, ((0, 0), (0, 0), (1, 0))).ravel()


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
