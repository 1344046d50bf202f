import numpy as np
import pytest

from rotorvqe.chain import (
    build_chain_matrix,
    build_composite_basis,
    pad_matrix,
    rate_constant,
    reference_spectrum,
)
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
