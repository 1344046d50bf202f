"""Exact Pauli-string expansion of small real symmetric matrices.

A 2^n x 2^n matrix is written in the Hermitian basis
P(x, z) = i^{|x AND z|} X^x Z^z, where x and z are n-bit masks and qubit 1
corresponds to the most significant bit of a computational basis index.
For real symmetric input every coefficient is real and every retained
string contains an even number of Y letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .linalg import _exactly_symmetric

PRUNE_TOL = 1e-12

_LETTER_FOR_BITS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, encoded as an (x, z) mask pair."""

    qubits: int
    x: int
    z: int

    def __post_init__(self):
        if self.qubits < 1:
            raise ValueError("a Pauli string needs at least one qubit")
        limit = 1 << self.qubits
        if not (0 <= self.x < limit and 0 <= self.z < limit):
            raise ValueError("bitmask does not fit the qubit register")

    @property
    def label(self) -> str:
        letters = []
        for q in range(self.qubits):
            shift = self.qubits - 1 - q
            letters.append(_LETTER_FOR_BITS[((self.x >> shift) & 1, (self.z >> shift) & 1)])
        return "".join(letters)

    @property
    def weight(self) -> int:
        """Number of non-identity tensor factors."""
        return (self.x | self.z).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def to_matrix(self) -> np.ndarray:
        dim = 1 << self.qubits
        mat = np.zeros((dim, dim), dtype=complex)
        phase = _I_POW[(self.x & self.z).bit_count() & 3]
        for col in range(dim):
            sign = -1.0 if ((col & self.z).bit_count() & 1) else 1.0
            mat[col ^ self.x, col] = phase * sign
        return mat


@dataclass(frozen=True)
class PauliOperator:
    """Real linear combination of Pauli strings on a fixed register."""

    qubits: int
    strings: tuple
    coefficients: tuple

    def __post_init__(self):
        if len(self.strings) != len(self.coefficients):
            raise ValueError("strings and coefficients must pair up")
        for string in self.strings:
            if string.qubits != self.qubits:
                raise ValueError("all strings must act on the same register")

    def __len__(self) -> int:
        return len(self.strings)

    def __iter__(self) -> Iterator:
        return iter(zip(self.strings, self.coefficients))

    @property
    def identity_offset(self) -> float:
        return sum(c for s, c in self if s.is_identity)

    def to_matrix(self) -> np.ndarray:
        dim = 1 << self.qubits
        total = np.zeros((dim, dim), dtype=complex)
        for string, coef in self:
            total += coef * string.to_matrix()
        return total


@lru_cache(maxsize=4)
def _expansion_tables(qubits: int):
    """Read-only tables for one register: gathers, row signs, phases and ordered strings.

    gather[row, x] is the flat index of element (row, row XOR x),
    signs[row, z] is (-1)^{|row AND z|}, and phases[k] holds the real and
    imaginary parts of i^{|x AND z|} at flat key k = x * dim + z. order
    lists the flat keys by label, and strings[k] is the string of flat key k.
    """
    dim = 1 << qubits
    idx = np.arange(dim)
    gather = idx[:, None] * dim + (idx[:, None] ^ idx)
    masks = idx[:, None] & idx
    signs = 1.0 - 2.0 * (np.bitwise_count(masks) & 1)
    powers = np.bitwise_count(masks).ravel() & 3
    phases = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])[powers]
    strings = tuple(PauliString(qubits=qubits, x=x, z=z) for x in range(dim) for z in range(dim))
    order = np.array(sorted(range(dim * dim), key=lambda k: strings[k].label))
    for array in (gather, signs, phases, order):
        array.setflags(write=False)
    return gather, signs, phases, order, strings


def map_operator(matrix: np.ndarray, tol: float = PRUNE_TOL) -> PauliOperator:
    """Expand a real symmetric matrix of power-of-two dimension exactly.

    The weight of P(x, z) is i^{|x AND z|} times the sum over rows of
    mat[row, row XOR x] / dim * (-1)^{|row AND z|}. The rows are added in
    ascending order by an accumulation, one rounding per term; `np.sum`
    adds pairwise and would round differently.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    dim = mat.shape[0]
    if dim < 2 or dim & (dim - 1):
        raise ValueError("matrix dimension must be a power of two, at least 2")
    # symmetrizing makes the imaginary parts cancel exactly in floating point;
    # an exactly symmetric matrix is already what it would give
    if not _exactly_symmetric(mat):
        scale = float(np.max(np.abs(mat))) or 1.0
        if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * scale):
            raise ValueError("matrix must be symmetric")
        mat = 0.5 * (mat + mat.T)
    qubits = dim.bit_length() - 1
    gather, signs, phases, order, strings = _expansion_tables(qubits)

    # values[row, x] = mat[row, row XOR x], and terms[row, x, z] its terms
    values = mat.take(gather)
    terms = (values / dim)[:, :, None] * signs[:, None, :]
    totals = np.add.accumulate(terms, out=terms)[-1].ravel()
    # each phase is 1, i, -1 or -i, so |totals| is the weight's modulus
    magnitude = np.abs(totals)
    # a shift x with no nonzero element contributes no strings at all
    kept = ~(magnitude <= tol) & np.repeat(np.any(values != 0.0, axis=0), dim)
    keys = order[kept[order]]
    weights = totals[keys]
    phase = phases[keys]
    if np.any(np.abs(weights * phase[:, 1]) > 1e-9 * np.maximum(magnitude[keys], 1.0)):
        raise ValueError("expansion of a symmetric matrix produced a complex weight")
    # adding 0.0 turns -0.0 into the 0.0 that a sum started at 0.0 gives
    real = weights * phase[:, 0] + 0.0
    return PauliOperator(
        qubits=qubits,
        strings=tuple(map(strings.__getitem__, keys.tolist())),
        coefficients=tuple(real.tolist()),
    )


@dataclass(frozen=True)
class MeasurementGroup:
    """Strings sharing one measurement setting, given by union masks."""

    x: int
    z: int
    members: tuple


def group_qubitwise_commuting(operator: PauliOperator) -> tuple:
    """Partition terms into qubit-wise commuting groups.

    Greedy first fit over terms sorted by descending absolute weight,
    so the heaviest strings claim measurement settings first.
    """
    order = sorted(
        range(len(operator)), key=lambda i: (-abs(operator.coefficients[i]), i)
    )
    groups: list = []
    for idx in order:
        string = operator.strings[idx]
        for group in groups:
            common = (string.x | string.z) & (group[0] | group[1])
            if ((string.x ^ group[0]) | (string.z ^ group[1])) & common:
                continue
            group[0] |= string.x
            group[1] |= string.z
            group[2].append(idx)
            break
        else:
            groups.append([string.x, string.z, [idx]])
    return tuple(
        MeasurementGroup(x=g[0], z=g[1], members=tuple(g[2])) for g in groups
    )


@dataclass(frozen=True)
class ResourceReport:
    qubits: int
    n_terms: int
    n_groups: int
    max_weight: int


def resource_report(operator: PauliOperator, groups=None) -> ResourceReport:
    if groups is None:
        groups = group_qubitwise_commuting(operator)
    return ResourceReport(
        qubits=operator.qubits,
        n_terms=len(operator),
        n_groups=len(groups),
        max_weight=max((s.weight for s in operator.strings), default=0),
    )


def operator_to_text(operator: PauliOperator) -> str:
    """One `LABEL coefficient` line per term; leftmost letter is qubit 1."""
    lines = [f"{s.label} {c:.17g}" for s, c in operator]
    return "\n".join(lines) + "\n"
