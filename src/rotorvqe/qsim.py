"""Statevector and Pauli-component simulation of RyRz variational circuits.

Qubit 1 is the most significant bit of a computational-basis index,
matching `paulimap`.  Rotation gates follow exp(-i theta sigma / 2).
`_estimate` estimates a PauliOperator from shots, ideal (sampled) or under
a parametric noise model (noisy); exact energies are contracted in
`driver`.  A pure state runs on one gate compiler, `_compile`, in bounded
row blocks, each building its gate entries at once (`_Program`): the first
Ry layer a product, every Rz a phase multiply and every later Ry a 2x2
gather, each product with the gate or phase first.  Against full 2x2
products, only the sign of a part exactly 0 can differ.  A noisy state runs
as its 4^Q real Pauli components (`_components`), each gate and its
depolarizing channel one real step.  Each setting's outcome distribution
comes off the pure state through its basis change, or off the components
through one gather, a Walsh-Hadamard transform and the readout confusion.
Callers pass numpy Generators, `streams`, and each estimate's run, an
index into them; both modes draw each estimate's counts from its run's
stream, each stream all its rows in one multinomial call, in row order
(`_shot_counts`, a noisy estimate optionally undoing readout confusion),
and tally them alike (`_tally`).
The tally keeps rows apart, so the counts of several calls, stacked, are
tallied in one.
"""

from __future__ import annotations

import math
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


def _bits(qubits: int) -> np.ndarray:
    """bits[Q, 2^Q]: each qubit's bit of every basis index, qubit 1 first."""
    return (np.arange(1 << qubits) >> np.arange(qubits - 1, -1, -1)[:, None]) & 1


def _compile(qubits: int, ops) -> tuple:
    """A gate program as one gather per step on a batch kept in a running row order.

    Row k of the working batch holds amplitude order[k].  A rotation
    (name, qubit, key) with amplitude pairs (j0, j1) gathers
    ((x[j0], x[j0]), (x[j1], x[j1])) with one stacked index of shape
    (2, 2, len(j0)), so one product per side gives both new halves, stored
    in the order (j0, j1).  A ("phase", qubit, key), a diagonal gate, keeps
    the order and holds each row's bit of the qubit, bits[2^Q], which picks
    the row's phase.  A ("cx", control, target) only relabels the order,
    being its own inverse.  Returns (steps, final): (key, gather) per
    rotation or phase, and the gather that restores the computational-basis
    order.
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
        j0, j1 = _pair_indices(qubits, op[1])
        steps.append((op[2], row[np.stack(((j0, j0), (j1, j1)))]))
        order = np.concatenate((j0, j1))
    final = np.argsort(order)
    for table in [final] + [index for _, index in steps]:
        table.flags.writeable = False
    return tuple(steps), final


def _run_gathers(work: np.ndarray, steps, gates, phases=None) -> None:
    """Run compiled (key, gather) steps in place on a C-contiguous work[2^Q, ...].

    A rotation's key indexes `gates`, each held as gate[j, i, 1, ...]; a
    phase step, one with no gather, multiplies by phases[key], held as
    phase[2^Q, ...].  Every product takes the gate first, as the 2x2 product
    does: numpy's complex kernel rounds its cross terms in operand order, so
    swapping them moves last bits.
    """
    halves = work.reshape((2, len(work) // 2) + work.shape[1:])
    terms = np.empty((2,) + halves.shape, dtype=complex)
    first, second = terms
    for key, index in steps:
        if index is None:
            np.multiply(phases[key], work, out=work)
            continue
        # terms = ((g00 a, g10 a), (g01 b, g11 b)), then their sums in place;
        # every index is in range, and "clip" skips the copy "raise" buffers
        work.take(index, axis=0, out=terms, mode="clip")
        np.multiply(gates[key], terms, out=terms)
        np.add(first, second, out=halves)


# rows of one block of `_evolved`: a 60-restart lockstep batch (120 rows) is
# one block, and at 4 qubits a block's phase tables stay at 256 KB, where
# fresh pages and cache misses made 3,000 rows in one block cost 1.7-1.9
# times more per row than 1,000
_STATE_ROWS = 128


@dataclass(frozen=True, eq=False)
class _Program:
    """The pure-state circuit compiled for `_evolved`: its steps and where their entries come from.

    A block of rows values[B, P] builds one float table[3P + 1, B]: the cos,
    the sin and the negated sin of every signed half angle, values[:, p]
    times signs[p], then a row of zeros.  Ry(theta) is [[c, -s], [s, c]] in
    the cos c and sin s of theta/2, and Rz the phase exp(-i theta/2) =
    cos(-theta/2) + i sin(-theta/2) and its conjugate, so these are the
    gate entries bit for bit.  Entry n is table[real[n]] + i
    table[imag[n]]: first each of the `gates` Ry gates as gate[j, i, 0] =
    g[i, j], then each phase's pair of entries, which one gather by
    `phases` makes the phase tables.
    `steps` key both in order (see `_run_gathers`).  factors[Q, 2^Q] picks
    the first Ry layer's product factors.
    """

    signs: np.ndarray
    factors: np.ndarray
    real: np.ndarray
    imag: np.ndarray
    gates: int
    phases: np.ndarray
    steps: tuple
    final: np.ndarray


@lru_cache(maxsize=64)
def _state_program(ansatz: AnsatzSpec) -> _Program:
    """The pure-state circuit, as a `_Program`.

    The first Ry layer acts on |0...0>, so amplitude k is the real product,
    in qubit order, of each qubit's cos or sin as its bit of k picks.
    `_compile` runs the rest, each Rz as a phase step and each later Ry as a
    gather.  Phase step n multiplies by row n of the phase table[n, 2^Q]:
    its Rz's own pair of entries, cos + i sin for bit 0 and cos - i sin for
    bit 1, gathered by each working row's bit, so the step holds no bits.
    """
    qubits, count, ops = ansatz.qubits, ansatz.parameter_count, ansatz_operations(ansatz)
    later = [("phase",) + op[1:] if op[0] == "rz" else op for op in ops[qubits:]]
    compiled, final = _compile(qubits, later)
    steps, ry, rz, bits = [], [], [], []
    for key, index in compiled:
        if index.ndim == 1:
            steps.append((len(rz), None))
            rz.append(key)
            bits.append(index)
        else:
            steps.append((len(ry), index))
            ry.append(key)
    ry, rz = np.array(ry, dtype=int), np.array(rz)
    # an Ry's entries g00, g10, g01, g11 are cos, sin, -sin and cos, each + 0i
    real = np.concatenate(((ry[:, None] + count * np.array([0, 1, 2, 0])).ravel(), np.repeat(rz, 2)))
    imag = np.concatenate((np.full(4 * len(ry), 3 * count), (rz[:, None] + count * np.array([1, 2])).ravel()))
    phases = 4 * len(ry) + 2 * np.arange(len(rz))[:, None] + np.array(bits)
    # theta/2 for each Ry, -theta/2 for each Rz
    signs = np.tile(np.repeat([0.5, -0.5], qubits), ansatz.depth + 1)[:, None]
    factors = np.arange(qubits)[:, None] + count * _bits(qubits)
    for table in (signs, factors, real, imag, phases):
        table.flags.writeable = False
    return _Program(signs, factors, real, imag, len(ry), phases, tuple(steps), final)


def prepare_states(ansatz: AnsatzSpec, params) -> np.ndarray:
    """Run the circuit on |0...0> once per row of params[B, P]; returns states[B, 2^Q].

    Row b is bit-identical to params[b] prepared alone, and to the full 2x2
    products g[i, 0] a + g[i, 1] b of every gate but for the sign of a part
    exactly 0 (`tests/oracles.py::serial_prepare_state`).  The result is
    C-contiguous, which the bit-identical energy contraction in `driver`
    relies on.
    """
    return _evolved(ansatz, _parameter_rows(ansatz, params))


def _check_norms(norms: np.ndarray) -> None:
    """Fail unless every norm lies within `_NORM_TOL` of 1; a NaN norm, from a non-finite angle, fails too."""
    drift = np.abs(norms - 1.0)
    if not np.maximum.reduce(drift, axis=None, initial=0.0) <= _NORM_TOL:
        raise RuntimeError(f"state norm drifted to {float(norms[~(drift <= _NORM_TOL)][0])}")


def _evolved(ansatz: AnsatzSpec, values: np.ndarray) -> np.ndarray:
    """Each row of values[B, P] run as a state[B, 2^Q].

    Rows run in blocks of at most `_STATE_ROWS`, so a large batch costs no
    more per row than a small one.  A block is held batch-minor, as
    work[2^Q, rows], so each complex product runs with the rows as its
    innermost, contiguous axis.  It builds its entries once (`_Program`):
    one multiply, one cos and one sin, one gather of the real parts and one
    of the imaginary parts, then one gather of every phase table.  It runs
    `_state_program`: the first Ry layer as a product, every Rz as one phase
    multiply, each later Ry as a gather.  Every product takes the gate or
    phase first, as the 2x2 product does: numpy's complex kernel rounds its
    cross terms in operand order.  The gathers skip the products with an
    exact zero entry of a 2x2 gate.  As x + (+-0) = x and x (+-0) = +-0,
    that changes only the sign of a part that ends exactly 0 (angles of
    +-0, say), and nothing downstream divides by one.  Each block is
    written into the C-contiguous result.
    """
    program = _state_program(ansatz)
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
        # the reduction multiplies in axis order, ((f1 f2) f3) ..., as the layer's gates do
        work = np.multiply.reduce(table.take(program.factors, axis=0)).astype(complex)
        gates = entries[: 4 * program.gates].reshape(program.gates, 2, 2, 1, len(rows))
        _run_gathers(work, program.steps, gates, entries.take(program.phases, axis=0))
        block = states[start : start + len(rows)]
        work.T.take(program.final, axis=1, out=block, mode="clip")
        _check_norms(np.vecdot(block, block).real)
    return states


# component k of a noisy row is r_P = Tr(rho P) of the string P whose qubit q
# digit, at place 4^(Q - q), is 2x + z: I 0, Z 1, X 2, Y 3.  An Ry turns the
# pair from digit 1, (Z, X), and scales Y; an Rz turns (X, Y) and scales Z
_TURNS = {"ry": (1, 3), "rz": (2, 1)}
_TURN_SIGNS = np.array([-1.0, 1.0]).reshape(2, 1, 1)
_TURN_SIGNS.flags.writeable = False


@lru_cache(maxsize=64)
def _pauli_program(ansatz: AnsatzSpec) -> tuple:
    """The noisy circuit past its first Ry and Rz layers, as steps on Pauli components.

    A rotation stays its op.  A CNOT (c, t) becomes ("cx", source, sign,
    touched): r'_P = sign[P] r[source[P]], as C P C = sign[P] source[P] by
    the tableau rule x_t ^= x_c, z_c ^= z_t, sign (-1)^(x_c z_t (x_t ^ z_c ^
    1)) (Aaronson & Gottesman, PRA 70, 052328 (2004)); touched[P] is 1
    where P acts on c or t.
    """
    qubits, index = ansatz.qubits, np.arange(4**ansatz.qubits)
    steps = []
    for op in ansatz_operations(ansatz)[2 * qubits :]:
        if op[0] != "cx":
            steps.append(op)
            continue
        shifts = [2 * (qubits - q) for q in op[1:]]
        (xc, zc), (xt, zt) = [((index >> (shift + 1)) & 1, (index >> shift) & 1) for shift in shifts]
        source = index ^ (xc << (shifts[1] + 1)) ^ (zt << shifts[0])
        sign = 1.0 - 2.0 * (xc & zt & (xt ^ zc ^ 1))
        touched = (xc | zc | xt | zt).astype(float)
        for table in (source, sign, touched):
            table.flags.writeable = False
        steps.append(("cx", source, sign, touched))
    return tuple(steps)


def _components(ansatz: AnsatzSpec, values: np.ndarray, noise: NoiseSpec) -> np.ndarray:
    """Each row of values[B, P] run under noise as its Pauli components r[4^Q, B].

    A gate's channel, a uniformly chosen non-identity Pauli on its k qubits
    with probability p, keeps the identity part and scales the rest by
    1 - p 4^k / (4^k - 1) (Nielsen & Chuang, ch. 8).  So Ry or Rz at angle
    theta turns its pair (u, v) (`_TURNS`) to (c u - s v, c v + s u), with
    (c, s) = (1 - 4 p1 / 3) (cos theta, sin theta), and scales the third
    component by 1 - 4 p1 / 3.  The first Ry and Rz layers leave each qubit
    (1, Z, X, Y) = (1, (1 - 4 p1 / 3) c, s c', s s'), c' and s' its Rz's,
    and the row their product.  A CNOT is one signed gather
    (`_pauli_program`) times 1 - 16 p2 / 15 on the components it touches.
    Every step is elementwise along the rows.
    """
    qubits, rows = ansatz.qubits, len(values)
    decay = 1.0 - 4.0 * noise.p1 / 3.0
    cos, sin = decay * np.cos(values.T), decay * np.sin(values.T)
    ry, rz = slice(0, qubits), slice(qubits, 2 * qubits)
    # each qubit's (1, Z, X, Y), written in place, where stacking fresh products cost more
    layer = np.empty((qubits, 4, rows))
    layer[:, 0] = 1.0
    np.multiply(decay, cos[ry], out=layer[:, 1])
    np.multiply(sin[ry], cos[rz], out=layer[:, 2])
    np.multiply(sin[ry], sin[rz], out=layer[:, 3])
    work = reduce(lambda left, right: (left[:, None] * right).reshape(-1, rows), layer)
    # each turn adds (-s v, s u) to (c u, c v)
    signed = sin[:, None, None] * _TURN_SIGNS
    for step in _pauli_program(ansatz):
        if step[0] == "cx":
            _, source, sign, touched = step
            work = work.take(source, axis=0) * (sign * (1.0 - 16.0 * noise.p2 / 15.0) ** touched)[:, None]
            continue
        name, q, p = step
        view = work.reshape(4 ** (q - 1), 4, -1, rows)
        first, rest = _TURNS[name]
        pair = view[:, first : first + 2]
        swapped = pair[:, ::-1] * signed[p]
        pair *= cos[p]
        pair += swapped
        view[:, rest] *= decay
    return work


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
def _confusion(noise: NoiseSpec, qubits: int, inverse: bool = False) -> np.ndarray:
    """The register's readout confusion (x)_q C_q, or its inverse; None if ideal."""
    matrices = noise.readout_matrices(qubits)
    if matrices is None:
        return None
    try:
        total = reduce(np.kron, [np.linalg.inv(m) for m in matrices] if inverse else matrices)
    except np.linalg.LinAlgError as err:
        raise ValueError("readout confusion matrix is singular") from err
    total.flags.writeable = False
    return total


# the gate taking a measured letter to Z, picked by x + x z of its (x, z)
# bits: the identity for Z or no letter, Ry(-pi/2) for X, Rx(pi/2) for Y
_C, _S = math.cos(math.pi / 4), math.sin(math.pi / 4)
_BASIS_CHANGES = np.array([np.eye(2), [[_C, _S], [-_S, _C]], [[_C, -1j * _S], [-1j * _S, _C]]], dtype=complex)
_BASIS_CHANGES.flags.writeable = False


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
    """Exact identity offset plus every sampled setting's basis and outcome values.

    A setting is one QWC group, or one string when grouping is off; the
    identity string is never measured.  Setting s measures the letters of
    its (x, z) masks bases[s] and has outcome values outcomes[s] and their
    squares squares[s].  `pure` holds the basis changes compiled for a
    state, as (steps, gates, measured gather): each qubit some setting
    rotates takes, per setting, the `_BASIS_CHANGES` gate its letter picks.
    `paulis` holds them for Pauli components as (index, turns, hadamard):
    setting s reads the Z-string on qubit subset T (an index's bits) as
    component index[s, T] times (1 - 4 p1 / 3) ** turns[s, T], the count
    of T's qubits it rotates, as Ry(-pi/2) takes X and Rx(pi/2) Y to +Z;
    hadamard[T, m] is (-1)^(T.m) / 2^Q.
    """

    offset: float
    bases: tuple
    outcomes: np.ndarray
    squares: np.ndarray
    pure: tuple
    paulis: tuple


def _measurement_plan(operator: PauliOperator, grouping: bool) -> _MeasurementPlan:
    """The operator's `_MeasurementPlan`; a `driver.Problem` compiles and keeps one per grouping."""
    qubits, strings = operator.qubits, operator.strings
    if grouping:
        settings = [(g.x, g.z, g.members) for g in group_qubitwise_commuting(operator)]
    else:
        settings = [(s.x, s.z, (i,)) for i, s in enumerate(strings)]
    outcomes, bases = [], []
    for x, z, members in settings:
        members = [i for i in members if not strings[i].is_identity]
        if members:
            outcomes.append(_outcome_values(operator, members, 1 << qubits))
            bases.append((x, z))
    table = np.array(outcomes).reshape(len(bases), 1 << qubits)
    squares = table**2
    bits, shifts = _bits(qubits), np.arange(qubits - 1, -1, -1)
    x, z = (np.array(bases, dtype=np.int64).reshape(-1, 2).T[:, :, None] >> shifts) & 1
    # gates[R, 2, 2, 1, S, 1], gate[j, i] of every setting on each rotated qubit
    rotated = np.flatnonzero(x.any(axis=0)).tolist()
    stack = _BASIS_CHANGES[(x + x * z)[:, rotated].T]
    gates = np.ascontiguousarray(stack.transpose(0, 3, 2, 1)[:, :, :, None, :, None])
    steps, final = _compile(qubits, [("basis", q + 1, r) for r, q in enumerate(rotated)])
    # a measured qubit reads X (2) where x alone is set, Y (3) where both are, else Z (1)
    index = ((2 * x + (z | 1 - x)) << 2 * shifts) @ bits
    turns = x @ bits
    hadamard = (1.0 - 2.0 * ((bits.T @ bits) & 1)) / (1 << qubits)
    for array in (gates, table, squares, index, turns, hadamard):
        array.flags.writeable = False
    pure, paulis = (steps, gates, final), (index, turns, hadamard)
    return _MeasurementPlan(operator.identity_offset, tuple(bases), table, squares, pure, paulis)


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


# entries of one block of rows' working arrays in `_distributions` (4 MB as
# complex): a state's (2^Q, S, rows), or a noisy row's 4^Q components and S
# 2^Q outcomes; its gathers hold about three times that besides
_BLOCK_ENTRIES = 1 << 18


def _distributions(ansatz: AnsatzSpec, values: np.ndarray, plan, noise: NoiseSpec, states=None) -> np.ndarray:
    """Every row's measured-outcome distribution of every setting: probs[B, S, 2^Q].

    A row's state, from `states` when given, is held as (2^Q, S, B) through
    the plan's basis changes.  Under noise, each setting gathers its
    Z-string components (`_MeasurementPlan.paulis`); one (S, 2^Q) @
    (2^Q, 2^Q) product per row, a Walsh-Hadamard transform, gives
    p(m) = sum_T r_T (-1)^(T.m) / 2^Q (Greenbaum, arXiv:1509.02921), whose
    totals, 1 or NaN from a non-finite angle, are checked; one more applies
    the readout confusion, then a clip at 0.  Rows run in blocks of at most `_BLOCK_ENTRIES` working entries
    (or one row), and each row gets the products it would get alone.
    """
    settings, dim = plan.outcomes.shape
    if noise is None:
        steps, gates, measured = plan.pure
    else:
        index, turns, hadamard = plan.paulis
        weights = (1.0 - 4.0 * noise.p1 / 3.0) ** turns
        confusion = _confusion(noise, ansatz.qubits)
    size = max(1, _BLOCK_ENTRIES // (max(1, settings, dim) * dim))
    probs = np.empty((len(values), settings, dim))
    for i in range(0, len(values), size):
        block, rows = probs[i : i + size], values[i : i + size]
        if noise is None:
            prepared = _evolved(ansatz, rows) if states is None else states[i : i + size]
            work = np.repeat(prepared.T[:, None, :], settings, axis=1)
            _run_gathers(work, steps, gates)
            # stored in C order, which makes each row's sum the one a lone distribution gets
            block[...] = (np.abs(work.take(measured, axis=0)) ** 2).T
        else:
            outcomes = _components(ansatz, rows, noise).T.take(index, axis=1)
            outcomes *= weights
            np.matmul(outcomes, hadamard, out=block)
            _check_norms(block.sum(axis=-1))
            if confusion is not None:
                block[...] = block @ confusion
            np.clip(block, 0.0, None, out=block)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


# tables a generator draws in one estimate up to which one 1-D multinomial per
# table beats one call on all of them: at 20,000 shots and 4, 8 and 16
# outcomes one call cost 14.0-16.9 us on 1 table and 19.1-35.5 us on 16, the
# 1-D calls 3.8-5.6 and 34.2-57.0 us; on 8 tables 18.4 against 17.5, 21.2
# against 23.2 and 27.3 against 25.8 us, so they cross at 6-10 (best of
# 5 x 3 x 500 calls on a 2-core host)
_ROW_DRAWS = 8


def _draw(rng, shots: int, tables: np.ndarray) -> np.ndarray:
    """rng's counts of tables[..., 2^Q], table by table in order.

    One multinomial call draws all the tables, or, up to `_ROW_DRAWS`
    tables, one 1-D call each: numpy draws a multi-table call table by
    table from one stream, so both give the same counts.
    """
    if tables.size > _ROW_DRAWS * tables.shape[-1]:
        return rng.multinomial(shots, tables)
    draws = [rng.multinomial(shots, p) for p in tables.reshape(-1, tables.shape[-1])]
    return np.array(draws, dtype=np.int64).reshape(tables.shape)


def _counts(streams, runs, shots: int, probs: np.ndarray) -> np.ndarray:
    """counts[K, S, 2^Q], row k `streams[runs[k]].multinomial(shots, probs[k])`, drawn in row order.

    probs[B, S, 2^Q] holds a table per row or one for all.  Each run's
    stream draws all its rows, in the order they come, in one `_draw` on
    their stacked tables (a broadcast of the one shared table), so the
    counts are those of one call per row.  A lone stream, such as a
    distribution study mode's, draws the tables as given with no Python
    loop over the rows.  Several, as a lockstep batch's runs, group their
    rows under their run, which on batches of a few rows costs less than
    sorting the rows by run.
    """
    tables = probs if len(probs) == len(runs) else np.broadcast_to(probs, (len(runs),) + probs.shape[1:])
    if len(streams) == 1:
        return _draw(streams[0], shots, tables)
    rows = {}
    for k, run in enumerate(runs.tolist()):
        rows.setdefault(run, []).append(k)
    counts = np.empty(tables.shape, dtype=np.int64)
    for run, ks in rows.items():
        counts[ks] = _draw(streams[run], shots, tables[ks])
    return counts


def _shot_counts(ansatz, points, plan, shots, streams, runs, noise=None, mitigate=True, states=None):
    """The counts `_estimate` tallies: float counts[K, S, 2^Q], estimate k's from streams[runs[k]].

    points[B, P] holds one row per estimate, runs[K] naming each one's
    stream, or one row that every estimate shares.  Each row's
    measured-outcome distribution of every setting is made once
    (`_distributions`), from its pure state when `noise` is None
    (sampled), else from its Pauli components under `noise` (noisy), and
    estimate k draws its settings' counts from its row's with its run's
    stream, in row order (`_counts`).  A sampled estimate reads the rows'
    prepared states[B, 2^Q] when given, as `prepare_states` makes them, in
    place of preparing them again.  When noisy and `mitigate`, the
    inverted readout confusion is applied to the measured frequencies,
    clipping negative entries and renormalizing.
    """
    if plan.outcomes.shape[1] != 1 << ansatz.qubits:
        raise ValueError("ansatz and operator registers differ")
    if shots < 1:
        raise ValueError("need at least one shot")
    values = _parameter_rows(ansatz, points)
    if len(runs) < 1 or len(values) not in (1, len(runs)):
        raise ValueError(f"expected one run per point, got {len(runs)} for {len(values)}")
    inverse = _confusion(noise, ansatz.qubits, True) if noise is not None and mitigate else None
    counts = _counts(streams, runs, shots, _distributions(ansatz, values, plan, noise, states))
    if inverse is None:
        return counts.astype(float)
    # one (1, 2^Q) @ (2^Q, 2^Q) product per setting, as for a single setting
    freq = np.matmul((counts / shots)[..., None, :], inverse)[..., 0, :]
    freq = np.clip(freq, 0.0, None)
    return shots * freq / freq.sum(axis=-1, keepdims=True)


def _estimate(ansatz, points, plan, shots, streams, runs, noise=None, mitigate=True, states=None):
    """Estimate an operator from `shots` per setting of its `plan`, once per entry of runs.

    `_tally` of `_shot_counts`, which takes the same arguments: returns
    (value[K], variance[K]), each bit-identical to its row estimated alone
    from its run's stream in its state.  As `_tally` keeps rows apart,
    callers with several estimates' counts, such as a distribution study's
    modes, may tally them in one call.

    Under noise, after every gate, the basis-change rotations included, a
    uniformly chosen non-identity Pauli strikes the gate's qubits with
    probability p1 (rotations) or p2 (CNOTs), exactly as a channel on the
    state's Pauli components (`_components`, `_distributions`).
    """
    return _tally(_shot_counts(ansatz, points, plan, shots, streams, runs, noise, mitigate, states), plan, shots)


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
    """Draw computational-basis outcomes (as integers) from |amplitude|^2.

    `seed` is anything `np.random.default_rng` takes; a Generator is drawn
    from as it is.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    probs = np.abs(np.asarray(state, dtype=complex)) ** 2
    rng = np.random.default_rng(seed)
    return rng.choice(probs.size, size=shots, p=probs / probs.sum())


def format_bitstrings(samples, qubits: int) -> str:
    """One line per shot, qubit 1 leftmost."""
    return "\n".join(format(int(s), f"0{qubits}b") for s in samples) + "\n"
