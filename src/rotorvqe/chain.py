"""Composite basis and relaxation operator for the full rotor chain.

The chain generator decomposes into one single-dihedral term per angle plus a
nearest-neighbour coupling for every adjacent pair of dihedrals (they share a
rotor). In the product basis of single-dihedral eigenfunctions the former are
diagonal, and the coupling needs only the per-dihedral matrix elements of
d/dtheta and U':

    coupling(k, k+1) = 2 * D_shared * [ d_k (x) d_{k+1} - (1/4) u_k (x) u_{k+1} ]

with D_shared the diffusion coefficient of the rotor between the two
dihedrals.

The slowest conformational transition lives in the odd sector of the global
angle-inversion symmetry, so the composite basis keeps only products whose
parities multiply to -1. The first excited function of dihedral 1 times
ground functions everywhere else is pinned to index 0; the remaining states
are ordered in tiers given by a ladder of nested kept_counts configurations
(lexicographic inside a tier), which makes a smaller configuration's state
list a prefix of every larger one on the same ladder. That prefix property is
what lets a small-register optimization warm-start a larger one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .dihedral import DihedralEigenbasis, solve_dihedral
from .linalg import _NOT_FINITE, _checked_symmetric, _strictly_lower, canonicalize_signs
from .potential import ChainSpec

PAD_PENALTY_FACTOR = 10.0


@dataclass
class CompositeBasis:
    """Odd-parity product basis for a chain.

    states[i] is a tuple of per-dihedral eigenfunction indices; state 0 is
    always (1, 0, ..., 0).
    """

    chain: ChainSpec
    kept_counts: tuple[int, ...]
    harmonics: int
    ladder: tuple[tuple[int, ...], ...]
    dihedral_bases: tuple[DihedralEigenbasis, ...] = field(repr=False)
    states: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def qubits(self) -> int:
        return max(1, math.ceil(math.log2(self.size))) if self.size > 1 else 1


def _validate_ladder(ladder, kept_counts) -> tuple[tuple[int, ...], ...]:
    rungs = [tuple(int(c) for c in rung) for rung in ladder]
    if not rungs or rungs[-1] != tuple(kept_counts):
        raise ValueError("ladder must end at kept_counts")
    for rung in rungs:
        if len(rung) != len(kept_counts):
            raise ValueError("every ladder rung needs one count per dihedral")
        if any(c < 1 for c in rung):
            raise ValueError("kept counts must be >= 1")
    for lo, hi in zip(rungs, rungs[1:]):
        if not all(a <= b for a, b in zip(lo, hi)):
            raise ValueError(f"ladder rungs must be componentwise nested, got {lo} before {hi}")
    return tuple(rungs)


@lru_cache(maxsize=16)
def _product_tiers(kept_counts: tuple, rungs: tuple) -> np.ndarray:
    """Read-only ladder tier of every product state, in lexicographic order.

    A state's tier is the first rung that holds it.
    """
    index = np.indices(kept_counts).reshape(len(kept_counts), -1)
    tiers = np.all(index < np.array(rungs)[:, :, None], axis=1).argmax(axis=0)
    tiers.setflags(write=False)
    return tiers


def build_composite_basis(
    chain: ChainSpec,
    kept_counts,
    harmonics: int = 16,
    ladder=None,
) -> CompositeBasis:
    """Solve every dihedral and assemble the ordered odd-parity product basis.

    `ladder` is an optional list of nested kept_counts configurations ending
    at `kept_counts`; it controls the tiered state ordering (default: a single
    tier). Dihedral k gets prefactor diffusion[k-1] + diffusion[k].
    """
    kept_counts = tuple(int(c) for c in kept_counts)
    if len(kept_counts) != chain.n_dihedrals:
        raise ValueError(
            f"need one kept count per dihedral ({chain.n_dihedrals}), got {len(kept_counts)}"
        )
    rungs = _validate_ladder(ladder if ladder is not None else [kept_counts], kept_counts)

    bases = tuple(
        solve_dihedral(
            spec,
            chain.diffusion[k] + chain.diffusion[k + 1],
            kept_counts[k],
            harmonics,
        )
        for k, spec in enumerate(chain.dihedrals)
    )

    # product states are flat indices into the kept_counts grid, whose C
    # order is the states' lexicographic order
    odd = reduce(np.multiply.outer, [b.parities for b in bases]).ravel() == -1
    if not odd.any():
        raise ValueError("no odd-parity product states; enlarge the kept sets")

    pinned = (1,) + (0,) * (chain.n_dihedrals - 1)
    at = math.prod(kept_counts[1:])
    if kept_counts[0] < 2 or not odd[at]:
        raise ValueError(
            f"reference state {pinned} is not in the odd sector; "
            "dihedral 1 needs at least two kept functions with an odd first excitation"
        )
    odd[at] = False
    rest = np.flatnonzero(odd)
    # summed from 0.0 in dihedral order, as a loop over the dihedrals would
    energies = reduce(np.add.outer, [b.eigenvalues for b in bases], 0.0).ravel()[rest]

    # Within a tier, ascending uncoupled energy keeps low-lying product states
    # on low register indices, which a shallow variational circuit can reach.
    # The sort is stable, so equal energies keep lexicographic order.
    order = np.lexsort((energies, _product_tiers(kept_counts, rungs)[rest]))
    indices = np.unravel_index(rest[order], kept_counts)
    return CompositeBasis(
        chain=chain,
        kept_counts=kept_counts,
        harmonics=harmonics,
        ladder=rungs,
        dihedral_bases=bases,
        states=(pinned, *zip(*(n.tolist() for n in indices))),
    )


def build_chain_matrix(basis: CompositeBasis) -> np.ndarray:
    """Dense symmetric matrix of the chain generator over the composite basis.

    The coupling of every state pair is summed from 0.0 over the adjacent
    dihedral pairs in ascending order, skipping a pair whose spectator
    indices differ; the upper triangle is computed and mirrored.
    """
    chain = basis.chain
    bases = basis.dihedral_bases
    states = np.array(basis.states)
    size = len(states)
    # each basis keeps its elements, so every ladder rung reads them once computed
    dmats = [b.derivative_elements for b in bases]
    umats = [b.uprime_elements for b in bases]

    diagonal = np.zeros(size)
    for k, b in enumerate(bases):
        diagonal = diagonal + b.eigenvalues[states[:, k]]
    coupling = np.zeros((size, size))
    for k in range(chain.n_dihedrals - 1):
        left, right = states[:, k], states[:, k + 1]
        term = 2.0 * chain.diffusion[k + 1] * (
            dmats[k][left[:, None], left] * dmats[k + 1][right[:, None], right]
            - 0.25 * umats[k][left[:, None], left] * umats[k + 1][right[:, None], right]
        )
        if chain.n_dihedrals == 2:
            coupling = coupling + term
            continue
        # one key per state for the indices of its spectator dihedrals
        spectators = np.delete(states, (k, k + 1), axis=1)
        key = np.ravel_multi_index(spectators.T, np.delete(basis.kept_counts, (k, k + 1)))
        coupling = np.where(key[:, None] == key, coupling + term, coupling)

    # the strict upper triangle, mirrored
    out = np.where(_strictly_lower(size), coupling.T, coupling)
    np.fill_diagonal(out, diagonal + np.diagonal(coupling))
    return out


def pad_matrix(matrix: np.ndarray, qubits: int) -> np.ndarray:
    """Embed a J x J matrix into the 2**qubits register dimension.

    Unused basis states receive a diagonal penalty well above the physical
    spectrum so a variational search cannot profit from leaving the encoded
    subspace.
    """
    size = matrix.shape[0]
    dim = 2**qubits
    if size > dim:
        raise ValueError(f"matrix of size {size} does not fit in {qubits} qubits")
    if size == dim:
        return matrix.copy()
    bound = float(np.max(np.sum(np.abs(matrix), axis=1)))
    out = np.zeros((dim, dim))
    out[:size, :size] = matrix
    penalty = PAD_PENALTY_FACTOR * max(bound, 1.0)
    for i in range(size, dim):
        out[i, i] = penalty
    return out


def reference_spectrum(matrix: np.ndarray):
    """Full classical eigensolution: ascending eigenvalues, eigenvector columns.

    Each column's first largest-magnitude entry is made positive.
    """
    a = _checked_symmetric(matrix)
    if not np.isfinite(a).all():
        raise ValueError(_NOT_FINITE)
    w, v = np.linalg.eigh(a)
    canonicalize_signs(v)
    return w, v


def rate_constant(lambda1: float) -> float:
    """Interconversion rate from the slowest relaxation eigenvalue: k = lambda/2."""
    if lambda1 < -1e-12:
        raise ValueError(f"relaxation eigenvalue must be >= 0, got {lambda1}")
    return 0.5 * lambda1
