"""Dihedral potentials and chain specification.

Energies are expressed in units of k_B*T throughout (beta == 1), so barrier
heights are dimensionless and Boltzmann weights are exp(-U).

Two periodic potential shapes are supported:

    monostable:  U(theta) = (delta/2) * (1 - cos(theta))
        single minimum at theta = 0, barrier `delta` at theta = pi
    bistable:    U(theta) = (delta/2) * (cos(2*theta) + 1)
        minima at theta = +/- pi/2, two barriers of height `delta`

Both are finite cosine series, which downstream spectral code exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MONOSTABLE = "monostable"
BISTABLE = "bistable"

_KINDS = (MONOSTABLE, BISTABLE)


@dataclass(frozen=True)
class DihedralSpec:
    """One dihedral angle: potential shape and barrier height (k_B*T)."""

    kind: str
    barrier: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}; expected one of {_KINDS}")
        if not (self.barrier >= 0.0 and math.isfinite(self.barrier)):
            raise ValueError(f"barrier must be finite and >= 0, got {self.barrier}")


@dataclass(frozen=True)
class ChainSpec:
    """A chain of N+1 rotors linked by N dihedral angles.

    `dihedrals` has one entry per dihedral (length N >= 1). `diffusion` has one
    rotational diffusion coefficient per rotor (length N+1, all > 0); dihedral k
    sits between rotors k-1 and k.
    """

    dihedrals: tuple[DihedralSpec, ...]
    diffusion: tuple[float, ...]

    def __post_init__(self):
        if len(self.dihedrals) < 1:
            raise ValueError("chain needs at least one dihedral")
        if len(self.diffusion) != len(self.dihedrals) + 1:
            raise ValueError(
                f"need {len(self.dihedrals) + 1} diffusion coefficients "
                f"(one per rotor), got {len(self.diffusion)}"
            )
        if any(not (d > 0.0 and math.isfinite(d)) for d in self.diffusion):
            raise ValueError("diffusion coefficients must be finite and > 0")

    @property
    def n_dihedrals(self) -> int:
        return len(self.dihedrals)


def cosine_series(spec: DihedralSpec) -> dict[int, float]:
    """Potential as a finite cosine series {harmonic: coefficient}.

    U(theta) = sum_n coeff[n] * cos(n*theta). Exact for both supported kinds.
    """
    half = 0.5 * spec.barrier
    if spec.kind == MONOSTABLE:
        return {0: half, 1: -half}
    return {0: half, 2: half}
