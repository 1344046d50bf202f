import dataclasses

import numpy as np
import pytest

import oracles
from rotorvqe import dihedral, driver
from rotorvqe.chain import (
    build_chain_matrix,
    build_composite_basis,
    pad_matrix,
    rate_constant,
    reference_spectrum,
)
from rotorvqe.dihedral import DihedralEigenbasis
from rotorvqe.driver import build_problem
from rotorvqe.linalg import jacobi_eigh
from rotorvqe.paulimap import group_qubitwise_commuting
from rotorvqe.potential import BISTABLE, MONOSTABLE, ChainSpec, DihedralSpec

LADDER = ((4, 2), (4, 4), (8, 4))


def standard_chain(bistable_barrier=0.5, monostable_barrier=1.0):
    return ChainSpec(
        dihedrals=(
            DihedralSpec(BISTABLE, bistable_barrier),
            DihedralSpec(MONOSTABLE, monostable_barrier),
        ),
        diffusion=(1.0, 1.0, 1.0),
    )


def ladder_for(kept):
    return tuple(r for r in LADDER if all(a <= b for a, b in zip(r, kept)))


def lambda1(chain, kept):
    basis = build_composite_basis(chain, kept, ladder=ladder_for(kept))
    w, _ = reference_spectrum(build_chain_matrix(basis))
    return float(w[0])


@pytest.mark.parametrize(
    "barrier,kept,expected",
    [
        (0.5, (4, 2), 1.51562),
        (0.5, (4, 4), 1.47537),
        (0.5, (8, 4), 1.47531),
        (3.0, (4, 2), 0.33310),
    ],
)
def test_reference_eigenvalues(barrier, kept, expected):
    value = lambda1(standard_chain(barrier), kept)
    assert abs(value - expected) / expected < 5e-4


@pytest.mark.parametrize("kept,size,qubits", [((4, 2), 4, 2), ((4, 4), 8, 3), ((8, 4), 16, 4)])
def test_basis_dimensions(kept, size, qubits):
    basis = build_composite_basis(standard_chain(), kept, ladder=ladder_for(kept))
    assert basis.size == size
    assert basis.qubits == qubits
    assert basis.states[0] == (1,) + (0,) * (len(kept) - 1)
    # every state is odd under simultaneous angle inversion
    for state in basis.states:
        prod = 1
        for k, n in enumerate(state):
            prod *= int(basis.dihedral_bases[k].parities[n])
        assert prod == -1


def test_state_ordering_is_nested_along_ladder():
    b42 = build_composite_basis(standard_chain(), (4, 2), ladder=ladder_for((4, 2)))
    b44 = build_composite_basis(standard_chain(), (4, 4), ladder=ladder_for((4, 4)))
    b84 = build_composite_basis(standard_chain(), (8, 4), ladder=ladder_for((8, 4)))
    assert b44.states[: b42.size] == b42.states
    assert b84.states[: b44.size] == b44.states


def test_smaller_matrix_is_leading_block_of_larger():
    b42 = build_composite_basis(standard_chain(), (4, 2), ladder=ladder_for((4, 2)))
    b44 = build_composite_basis(standard_chain(), (4, 4), ladder=ladder_for((4, 4)))
    b84 = build_composite_basis(standard_chain(), (8, 4), ladder=ladder_for((8, 4)))
    m42 = build_chain_matrix(b42)
    m44 = build_chain_matrix(b44)
    m84 = build_chain_matrix(b84)
    assert np.allclose(m44[:4, :4], m42, atol=1e-10)
    assert np.allclose(m84[:8, :8], m44, atol=1e-10)


def test_matrix_symmetric_and_psd():
    for kept in [(4, 2), (4, 4), (8, 4)]:
        basis = build_composite_basis(standard_chain(), kept, ladder=ladder_for(kept))
        mat = build_chain_matrix(basis)
        assert np.array_equal(mat, mat.T)
        w, _ = reference_spectrum(mat)
        assert w[0] > 0.0
        assert np.all(np.diff(w) >= -1e-12)


def test_diagonal_is_tensor_sum_of_dihedral_eigenvalues():
    basis = build_composite_basis(standard_chain(), (4, 4), ladder=ladder_for((4, 4)))
    mat = build_chain_matrix(basis)
    for i, state in enumerate(basis.states):
        expected = sum(
            float(basis.dihedral_bases[k].eigenvalues[n]) for k, n in enumerate(state)
        )
        # diagonal coupling contributions vanish by the parity selection rule
        assert mat[i, i] == pytest.approx(expected, abs=1e-12)


def test_free_rotor_chain_lowest_odd_mode():
    chain = ChainSpec(
        dihedrals=(DihedralSpec(BISTABLE, 0.0), DihedralSpec(MONOSTABLE, 0.0)),
        diffusion=(1.0, 1.0, 1.0),
    )
    basis = build_composite_basis(chain, (4, 2))
    mat = build_chain_matrix(basis)
    w, _ = reference_spectrum(mat)
    sums = [
        sum(float(basis.dihedral_bases[k].eigenvalues[n]) for k, n in enumerate(s))
        for s in basis.states
    ]
    assert w[0] == pytest.approx(min(sums), abs=1e-9)
    assert w[0] == pytest.approx(2.0, abs=1e-9)


def test_single_dihedral_chain():
    chain = ChainSpec(dihedrals=(DihedralSpec(BISTABLE, 0.5),), diffusion=(1.0, 1.0))
    basis = build_composite_basis(chain, (4,))
    assert basis.size == 2
    assert basis.qubits == 1
    assert basis.states == ((1,), (3,))
    mat = build_chain_matrix(basis)
    # one dihedral has no coupling partner: matrix is diagonal
    assert np.allclose(mat, np.diag(np.diag(mat)), atol=1e-15)
    assert mat[0, 0] == pytest.approx(float(basis.dihedral_bases[0].eigenvalues[1]))


def test_non_adjacent_dihedrals_do_not_couple():
    chain = ChainSpec(
        dihedrals=(
            DihedralSpec(BISTABLE, 0.5),
            DihedralSpec(MONOSTABLE, 1.0),
            DihedralSpec(MONOSTABLE, 1.0),
        ),
        diffusion=(1.0, 1.0, 1.0, 1.0),
    )
    basis = build_composite_basis(chain, (4, 2, 2))
    mat = build_chain_matrix(basis)
    checked = 0
    for i, a in enumerate(basis.states):
        for j, b in enumerate(basis.states):
            if a[0] != b[0] and a[1] == b[1] and a[2] != b[2]:
                assert mat[i, j] == 0.0
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("barrier", [0.0, 0.5, 3.0, 6.5])
def test_chain_matrix_matches_loop_oracle_bit_for_bit(barrier):
    for kept in [(4, 2), (4, 4), (8, 4), (3, 2), (6, 5)]:
        basis = build_composite_basis(standard_chain(barrier), kept)
        expected = oracles.loop_chain_matrix(basis)
        assert build_chain_matrix(basis).tobytes() == expected.tobytes()
    # unequal diffusion coefficients reach the shared-rotor factor
    chain = ChainSpec(
        dihedrals=(DihedralSpec(MONOSTABLE, barrier), DihedralSpec(BISTABLE, 1.5)),
        diffusion=(0.7, 1.3, 0.4),
    )
    basis = build_composite_basis(chain, (4, 4))
    assert build_chain_matrix(basis).tobytes() == oracles.loop_chain_matrix(basis).tobytes()


def test_three_dihedral_chain_matrix_matches_loop_oracle_bit_for_bit():
    # a pair is skipped whenever the third, spectator dihedral's index differs
    chain = ChainSpec(
        dihedrals=(
            DihedralSpec(BISTABLE, 0.5),
            DihedralSpec(MONOSTABLE, 1.0),
            DihedralSpec(BISTABLE, 2.0),
        ),
        diffusion=(1.0, 0.8, 1.2, 0.9),
    )
    for kept in [(4, 2, 2), (4, 3, 3), (2, 2, 4)]:
        basis = build_composite_basis(chain, kept)
        assert build_chain_matrix(basis).tobytes() == oracles.loop_chain_matrix(basis).tobytes()


THREE_DIHEDRALS = ChainSpec(
    dihedrals=(
        DihedralSpec(BISTABLE, 0.5),
        DihedralSpec(MONOSTABLE, 1.0),
        DihedralSpec(MONOSTABLE, 1.0),
    ),
    diffusion=(1.0, 1.0, 1.0, 1.0),
)


@pytest.mark.parametrize(
    "chain, rungs",
    [
        (standard_chain(0.5), LADDER),
        (standard_chain(3.0), LADDER),
        (THREE_DIHEDRALS, ((4, 2, 2), (4, 4, 2))),
    ],
)
def test_composite_states_and_matrix_match_numpy_scalar_oracle(chain, rungs):
    for i, kept in enumerate(rungs):
        for ladder in (rungs[: i + 1], (kept,)):
            basis = build_composite_basis(chain, kept, ladder=ladder)
            expected = oracles.numpy_scalar_composite_states(basis.dihedral_bases, kept, ladder)
            assert basis.states == expected
            # writable copies of the shared dihedral bases are new objects,
            # which compute their matrix elements afresh
            fresh = dataclasses.replace(
                basis,
                dihedral_bases=tuple(
                    DihedralEigenbasis(
                        b.spec, b.prefactor, b.harmonics,
                        b.eigenvalues.copy(), b.vectors.copy(), b.parities.copy(),
                    )
                    for b in basis.dihedral_bases
                ),
            )
            matrix = build_chain_matrix(basis)
            assert matrix.tobytes() == build_chain_matrix(basis).tobytes()
            assert matrix.tobytes() == build_chain_matrix(fresh).tobytes()
            assert matrix.tobytes() == oracles.loop_chain_matrix(fresh).tobytes()


THREE_DIHEDRAL_LADDER = ((2, 2, 2), (4, 2, 2))
# three distinct dihedrals, each with a spectrum of its own
THREE_DISTINCT = ChainSpec(
    dihedrals=(
        DihedralSpec(BISTABLE, 0.5),
        DihedralSpec(MONOSTABLE, 1.0),
        DihedralSpec(BISTABLE, 1.5),
    ),
    diffusion=(1.0, 1.0, 1.0, 1.0),
)
THREE_DISTINCT_LADDER = ((2, 2, 2), (4, 2, 2), (4, 4, 2), (4, 4, 4), (8, 4, 4))
COLD_BUILDS = [
    *(
        pytest.param(standard_chain(barrier), rung, LADDER[: i + 1], id=f"{barrier}-{rung}")
        for barrier in (0.5, 1.7, 3.0)
        for i, rung in enumerate(LADDER)
    ),
    # the three-dihedral chain as the command line builds it, with no ladder
    pytest.param(THREE_DIHEDRALS, (4, 2, 2), None, id="three-dihedrals"),
    *(
        pytest.param(THREE_DIHEDRALS, rung, THREE_DIHEDRAL_LADDER[: i + 1], id=f"three-dihedrals-{rung}")
        for i, rung in enumerate(THREE_DIHEDRAL_LADDER)
    ),
    *(
        pytest.param(THREE_DISTINCT, rung, THREE_DISTINCT_LADDER[: i + 1], id=f"three-distinct-{rung}")
        for i, rung in enumerate(THREE_DISTINCT_LADDER[:4])
    ),
]


@pytest.mark.parametrize("chain, kept, ladder", COLD_BUILDS)
def test_cold_build_matches_former_code_bit_for_bit(chain, kept, ladder):
    problem = build_problem(chain, kept, ladder=ladder)
    states, matrix, lambda1, operator = oracles.former_cold_build(chain, kept, ladder)
    assert problem.basis.states == states
    assert problem.matrix.tobytes() == matrix.tobytes()
    assert problem.reference.hex() == lambda1.hex()
    assert [s.label for s in problem.operator.strings] == [s.label for s in operator.strings]
    assert [c.hex() for c in problem.operator.coefficients] == [c.hex() for c in operator.coefficients]
    assert group_qubitwise_commuting(problem.operator) == group_qubitwise_commuting(operator)


def test_ladder_solves_each_distinct_dihedral_once(monkeypatch):
    # one spectrum per distinct dihedral, two Jacobi parity blocks each,
    # however many kept counts the ladder's rungs ask of it
    calls = []

    def counting(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return jacobi_eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(dihedral, "jacobi_eigh", counting)
    dihedral.solve_dihedral.cache_clear()
    dihedral._solve.cache_clear()
    for i, rung in enumerate(THREE_DISTINCT_LADDER):
        build_problem(THREE_DISTINCT, rung, ladder=THREE_DISTINCT_LADDER[: i + 1])
    assert len(calls) == 6
    assert dihedral._solve.cache_info().misses == 3


@pytest.mark.parametrize("barrier", [0.5, 3.0])
def test_problem_reference_is_the_lowest_spectrum_value_bit_for_bit(barrier):
    for i, rung in enumerate(LADDER):
        problem = build_problem(standard_chain(barrier), rung, ladder=LADDER[: i + 1])
        expected = float(reference_spectrum(problem.matrix)[0][0])
        assert np.float64(problem.reference).tobytes() == np.float64(expected).tobytes()
        assert type(problem.reference) is float


def test_build_problem_reads_the_driver_reference_spectrum_once(monkeypatch):
    # the reference is read through the driver's own name, the one a tracer wraps
    calls = []

    def counting(matrix):
        calls.append(matrix.shape)
        return reference_spectrum(matrix)

    monkeypatch.setattr(driver, "reference_spectrum", counting)
    shapes = []
    for i, rung in enumerate(LADDER):
        shapes.append(build_problem(standard_chain(), rung, ladder=LADDER[: i + 1]).matrix.shape)
        assert calls == shapes


def test_reference_spectrum_signs_match_the_per_column_oracle_bit_for_bit():
    # a +-x tie in magnitude, where the first entry decides; zero entries;
    # and degenerate spectra, whose eigenvectors LAPACK picks freely
    tie = np.array([[0.0, 1.0], [1.0, 0.0]])
    matrices = [
        tie,
        -tie,
        np.diag([3.0, -1.0, 2.0]),
        np.diag([2.0, 2.0, 2.0]),
        np.kron(np.eye(2), tie),
        np.kron(np.ones((2, 2)), tie),
        np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, 0.0]]),
        build_problem(standard_chain(3.0), (8, 4), ladder=LADDER).matrix,
    ]
    for matrix in matrices:
        values, raw = np.linalg.eigh(matrix)
        expected = np.column_stack([oracles.canonical_sign(raw[:, i]) for i in range(raw.shape[1])])
        w, v = reference_spectrum(matrix)
        assert w.tobytes() == values.tobytes()
        assert v.tobytes() == expected.tobytes()


# both ends of a barrier scan plus seeded heights in between
SCAN_BARRIERS = (0.5, 3.0, *np.random.default_rng(20).uniform(0.5, 3.0, 6))
# LAPACK and Jacobi round differently. Over 42 barriers x 3 rungs lambda1
# moved by at most 6.8e-16 of itself and any eigenvalue by at most 1.2e-15
# of the spectral radius.
LAMBDA1_RTOL = 2e-15
SPECTRUM_RTOL = 4e-15


@pytest.mark.parametrize("barrier", SCAN_BARRIERS, ids=lambda b: f"{b:.4f}")
def test_reference_spectrum_matches_jacobi_oracle_within_tolerance(barrier):
    for i, rung in enumerate(LADDER):
        matrix = build_problem(standard_chain(barrier), rung, ladder=LADDER[: i + 1]).matrix
        expected = np.sort(jacobi_eigh(matrix)[0])
        w, v = reference_spectrum(matrix)
        assert np.all(np.diff(w) >= 0.0)
        assert abs(w[0] - expected[0]) <= LAMBDA1_RTOL * abs(expected[0])
        assert np.max(np.abs(w - expected)) <= SPECTRUM_RTOL * np.max(np.abs(expected))
        residuals = np.linalg.norm(matrix @ v - v * w, axis=0)
        assert np.all(residuals <= 1e-12 * np.linalg.norm(matrix, 2))
        assert np.max(np.abs(v.T @ v - np.eye(len(w)))) <= 1e-12
        columns = np.arange(len(w))
        assert np.all(v[np.argmax(np.abs(v), axis=0), columns] > 0.0)


# bare LAPACK returns an empty spectrum, reads one triangle of the
# non-symmetric matrix and returns a NaN eigenvalue, and raises its own
# message on the non-square one
BAD_MATRICES = {
    "non-square": np.zeros((2, 3)),
    "empty": np.zeros((0, 0)),
    "non-symmetric": np.array([[0.0, 1.0], [2.0, 0.0]]),
    "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
}


@pytest.mark.parametrize("solver", [reference_spectrum, oracles.lowest_eigenvalue])
@pytest.mark.parametrize("kind", BAD_MATRICES)
def test_chain_solvers_reject_what_jacobi_rejects(solver, kind):
    matrix = BAD_MATRICES[kind]
    with pytest.raises(ValueError) as jacobi_error:
        jacobi_eigh(matrix)
    with pytest.raises(ValueError) as error:
        solver(matrix)
    assert str(error.value) == str(jacobi_error.value)


def test_barrier_monotonicity():
    values = [lambda1(standard_chain(b), (4, 2)) for b in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_spectral_gap_opens_with_barrier():
    basis = build_composite_basis(standard_chain(3.0), (4, 2), ladder=ladder_for((4, 2)))
    w, _ = reference_spectrum(build_chain_matrix(basis))
    assert w[1] / w[0] > 5.0


def test_rate_constant():
    assert rate_constant(1.51562) == pytest.approx(0.75781)
    assert rate_constant(0.0) == 0.0
    with pytest.raises(ValueError):
        rate_constant(-1.0)


def test_padding():
    chain = standard_chain()
    basis = build_composite_basis(chain, (3, 2))
    assert basis.size == 3
    assert basis.qubits == 2
    mat = build_chain_matrix(basis)
    padded = pad_matrix(mat, 2)
    assert padded.shape == (4, 4)
    assert np.array_equal(padded[:3, :3], mat)
    w_orig, _ = reference_spectrum(mat)
    w_pad, _ = reference_spectrum(padded)
    assert w_pad[0] == pytest.approx(w_orig[0], abs=1e-12)
    assert padded[3, 3] > w_orig[-1] * 5.0
    # already full register: unchanged
    full = build_composite_basis(chain, (4, 2))
    fmat = build_chain_matrix(full)
    assert np.array_equal(pad_matrix(fmat, 2), fmat)
    with pytest.raises(ValueError):
        pad_matrix(fmat, 1)


def test_basis_validation():
    chain = standard_chain()
    with pytest.raises(ValueError):
        build_composite_basis(chain, (4,))
    with pytest.raises(ValueError):
        build_composite_basis(chain, (4, 2), ladder=[(4, 4), (4, 2)])
    with pytest.raises(ValueError):
        build_composite_basis(chain, (4, 2), ladder=[(2, 2)])
    # all-even retained set has no odd products
    with pytest.raises(ValueError):
        build_composite_basis(chain, (1, 1))
    # odd states exist but the pinned reference state is missing
    with pytest.raises(ValueError):
        build_composite_basis(chain, (1, 2))
