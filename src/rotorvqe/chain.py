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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .dihedral import (
    DihedralEigenbasis,
    derivative_matrix_elements,
    solve_dihedral,
    uprime_matrix_elements,
)
from .linalg import canonical_sign, jacobi_eigh
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


def build_composite_basis(
    chain: ChainSpec,
    kept_counts,
    harmonics: int = 16,
    ladder=None,
    guard: bool = True,
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
            guard,
        )
        for k, spec in enumerate(chain.dihedrals)
    )

    states = [
        s
        for s in itertools.product(*(range(c) for c in kept_counts))
        if int(np.prod([bases[k].parities[n] for k, n in enumerate(s)])) == -1
    ]
    if not states:
        raise ValueError("no odd-parity product states; enlarge the kept sets")

    pinned = (1,) + (0,) * (chain.n_dihedrals - 1)
    if pinned not in states:
        raise ValueError(
            f"reference state {pinned} is not in the odd sector; "
            "dihedral 1 needs at least two kept functions with an odd first excitation"
        )

    def tier(state):
        for t, rung in enumerate(rungs):
            if all(n < c for n, c in zip(state, rung)):
                return t
        raise AssertionError("state outside final rung")

    def energy(state):
        return float(sum(bases[k].eigenvalues[n] for k, n in enumerate(state)))

    # Within a tier, ascending uncoupled energy keeps low-lying product states
    # on low register indices, which a shallow variational circuit can reach.
    rest = sorted((s for s in states if s != pinned), key=lambda s: (tier(s), energy(s), s))
    return CompositeBasis(
        chain=chain,
        kept_counts=kept_counts,
        harmonics=harmonics,
        ladder=rungs,
        dihedral_bases=bases,
        states=(pinned, *rest),
    )


def build_chain_matrix(basis: CompositeBasis) -> np.ndarray:
    """Dense symmetric matrix of the chain generator over the composite basis."""
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
    """Full classical eigensolution: ascending eigenvalues, eigenvector columns."""
    w, v = jacobi_eigh(matrix)
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]
    for i in range(v.shape[1]):
        v[:, i] = canonical_sign(v[:, i])
    return w, v


def rate_constant(lambda1: float) -> float:
    """Interconversion rate from the slowest relaxation eigenvalue: k = lambda/2."""
    if lambda1 < -1e-12:
        raise ValueError(f"relaxation eigenvalue must be >= 0, got {lambda1}")
    return 0.5 * lambda1
