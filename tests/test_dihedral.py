import math

import numpy as np
import pytest

import oracles
from rotorvqe.dihedral import (
    DihedralEigenbasis,
    build_single_dihedral_matrix,
    derivative_matrix_elements,
    diagonalize_dihedral,
    fourier_derivative_matrix,
    fourier_parities,
    multiplication_matrix,
    solve_dihedral,
    uprime_matrix_elements,
)
from rotorvqe.potential import BISTABLE, MONOSTABLE, DihedralSpec

CASES = [
    (MONOSTABLE, 0.0),
    (MONOSTABLE, 0.5),
    (MONOSTABLE, 1.0),
    (MONOSTABLE, 3.0),
    (BISTABLE, 0.5),
    (BISTABLE, 1.0),
    (BISTABLE, 3.0),
]


def test_free_rotor_matrix_is_exact_diagonal():
    for kind in (MONOSTABLE, BISTABLE):
        mat = build_single_dihedral_matrix(DihedralSpec(kind, 0.0), 2.0, harmonics=3)
        assert np.array_equal(mat, np.diag([0.0, 2.0, 2.0, 8.0, 8.0, 18.0, 18.0]))
    # the constant and the cosines are even, the sines odd
    assert list(fourier_parities(3)) == [1, 1, -1, 1, -1, 1, -1]


def test_constant_element_monostable():
    # <const|G|const> for the monostable well reduces to minus the period
    # average of the effective well, times the prefactor: barrier^2/16
    mat = build_single_dihedral_matrix(DihedralSpec(MONOSTABLE, 1.0), 2.0, harmonics=8)
    oracle = oracles.quadrature_dihedral_matrix(MONOSTABLE, 1.0, 2.0, harmonics=8)
    assert mat[0, 0] == pytest.approx(0.0625, abs=1e-12)
    assert mat[0, 0] == pytest.approx(oracle[0, 0], abs=1e-10)


@pytest.mark.parametrize("kind,barrier", CASES)
def test_matrix_matches_quadrature(kind, barrier):
    mat = build_single_dihedral_matrix(DihedralSpec(kind, barrier), 2.0, harmonics=8)
    oracle = oracles.quadrature_dihedral_matrix(kind, barrier, 2.0, harmonics=8)
    assert np.allclose(mat, oracle, atol=1e-10)


@pytest.mark.parametrize("kind,barrier", CASES)
def test_matrix_symmetric_and_parity_blocked(kind, barrier):
    mat = build_single_dihedral_matrix(DihedralSpec(kind, barrier), 2.0, harmonics=8)
    assert np.array_equal(mat, mat.T)
    parities = fourier_parities(8)
    cross = mat[np.ix_(parities == 1, parities == -1)]
    assert np.abs(cross).max() == 0.0


def test_matrix_validation():
    spec = DihedralSpec(MONOSTABLE, 1.0)
    with pytest.raises(ValueError):
        build_single_dihedral_matrix(spec, 0.0)
    with pytest.raises(ValueError):
        build_single_dihedral_matrix(spec, 2.0, harmonics=0)


def test_free_rotor_spectrum_and_tiebreak():
    basis = diagonalize_dihedral(DihedralSpec(MONOSTABLE, 0.0), 2.0, n_keep=4, harmonics=4)
    assert np.allclose(basis.eigenvalues, [0.0, 2.0, 2.0, 8.0], atol=1e-12)
    # each degenerate pair holds one even and one odd member; ties resolve
    # odd first, which keeps truncated sets parity-alternating
    assert list(basis.parities) == [1, -1, 1, -1]
    pair = set(basis.parities[1:3])
    assert pair == {1, -1}


@pytest.mark.parametrize("kind,barrier", CASES)
def test_eigse_basic_properties(kind, barrier):
    basis = diagonalize_dihedral(DihedralSpec(kind, barrier), 2.0, n_keep=6, harmonics=16)
    assert basis.eigenvalues[0] == pytest.approx(0.0, abs=1e-9)
    assert np.all(np.diff(basis.eigenvalues) >= -1e-12)
    assert np.all(basis.eigenvalues >= -1e-9)
    # orthonormal eigenvectors
    assert np.allclose(basis.vectors.T @ basis.vectors, np.eye(6), atol=1e-12)
    # residuals
    mat = build_single_dihedral_matrix(DihedralSpec(kind, barrier), 2.0, harmonics=16)
    scale = max(1.0, np.abs(basis.eigenvalues).max())
    resid = mat @ basis.vectors - basis.vectors * basis.eigenvalues
    assert np.abs(resid).max() < 1e-9 * scale
    # every eigenvector has definite parity
    parities = fourier_parities(16)
    for i in range(6):
        off_block = basis.vectors[parities != basis.parities[i], i]
        assert np.abs(off_block).max() < 1e-10


@pytest.mark.parametrize("kind,barrier", [(MONOSTABLE, 1.0), (BISTABLE, 0.5), (BISTABLE, 3.0)])
def test_low_lying_parities_alternate(kind, barrier):
    basis = diagonalize_dihedral(DihedralSpec(kind, barrier), 2.0, n_keep=4, harmonics=16)
    assert list(basis.parities) == [1, -1, 1, -1]


@pytest.mark.parametrize("kind,barrier", [(MONOSTABLE, 1.0), (BISTABLE, 0.5), (BISTABLE, 3.0)])
def test_ground_state_is_sqrt_boltzmann(kind, barrier):
    basis = diagonalize_dihedral(DihedralSpec(kind, barrier), 2.0, n_keep=2, harmonics=16)
    expected = oracles.sqrt_boltzmann_coefficients(kind, barrier, harmonics=16)
    overlap = abs(float(expected @ basis.vectors[:, 0]))
    assert overlap >= 1.0 - 1e-8


def test_solve_dihedral_guard():
    basis = solve_dihedral(DihedralSpec(BISTABLE, 0.5), 2.0, 4, harmonics=16)
    assert isinstance(basis, DihedralEigenbasis)
    # a harmonic cutoff this small cannot hold the barrier-3 eigenfunctions
    with pytest.raises(ValueError):
        solve_dihedral(DihedralSpec(BISTABLE, 3.0), 2.0, 4, harmonics=2)


def test_n_keep_validation():
    spec = DihedralSpec(MONOSTABLE, 1.0)
    with pytest.raises(ValueError):
        diagonalize_dihedral(spec, 2.0, n_keep=0)
    with pytest.raises(ValueError):
        diagonalize_dihedral(spec, 2.0, n_keep=10, harmonics=4)


def test_derivative_matrix_free_rotor():
    basis = diagonalize_dihedral(DihedralSpec(MONOSTABLE, 0.0), 2.0, n_keep=3, harmonics=2)
    dmat = derivative_matrix_elements(basis)
    # kept order is [const, sin, cos]; <cos|d/dtheta|sin> = +1
    assert list(basis.parities) == [1, -1, 1]
    assert dmat[2, 1] == pytest.approx(1.0, abs=1e-12)
    assert dmat[1, 2] == pytest.approx(-1.0, abs=1e-12)
    assert dmat[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_fourier_derivative_matrix_matches_quadrature():
    mat = fourier_derivative_matrix(6)
    oracle = oracles.quadrature_derivative_matrix(6)
    assert np.allclose(mat, oracle, atol=1e-10)
    assert np.allclose(mat, -mat.T, atol=1e-14)


@pytest.mark.parametrize("kind,barrier", [(MONOSTABLE, 1.0), (BISTABLE, 0.5)])
def test_coupling_elements_properties(kind, barrier):
    basis = diagonalize_dihedral(DihedralSpec(kind, barrier), 2.0, n_keep=5, harmonics=16)
    dmat = derivative_matrix_elements(basis)
    umat = uprime_matrix_elements(basis)
    assert np.allclose(dmat, -dmat.T, atol=1e-12)
    assert np.allclose(umat, umat.T, atol=1e-12)
    # both operators flip parity, so equal-parity entries vanish
    same = np.outer(basis.parities, basis.parities) == 1
    assert np.abs(dmat[same]).max() < 1e-12
    assert np.abs(umat[same]).max() < 1e-12


def test_uprime_matrix_matches_quadrature():
    theta = oracles.grid(2048)
    for kind, barrier in [(MONOSTABLE, 1.0), (BISTABLE, 0.5)]:
        _, u1, _ = oracles.potential_derivatives(kind, barrier, theta)
        from rotorvqe.dihedral import _potential_poly, _tp_diff

        poly = _tp_diff(_potential_poly(DihedralSpec(kind, barrier)))
        mat = multiplication_matrix(poly, 6)
        oracle = oracles.quadrature_multiplication_matrix(u1, 6, theta)
        assert np.allclose(mat, oracle, atol=1e-10)


def test_uprime_zero_for_free_rotor():
    basis = diagonalize_dihedral(DihedralSpec(BISTABLE, 0.0), 2.0, n_keep=4, harmonics=4)
    assert np.abs(uprime_matrix_elements(basis)).max() == 0.0
