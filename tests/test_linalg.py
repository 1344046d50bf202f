import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rotorvqe import chain as chain_module, linalg, paulimap
from rotorvqe.chain import build_chain_matrix, build_composite_basis, pad_matrix
from rotorvqe.dihedral import build_single_dihedral_matrix, fourier_parities
from rotorvqe.linalg import _checked_symmetric, canonicalize_signs, jacobi_eigh
from rotorvqe.potential import BISTABLE, MONOSTABLE, ChainSpec, DihedralSpec

LADDER = ((4, 2), (4, 4), (8, 4))


def assert_matches_masked_oracle(a):
    w, v = jacobi_eigh(a)
    expected_w, expected_v = oracles.masked_jacobi_eigh(a)
    assert w.tobytes() == expected_w.tobytes()
    assert v.tobytes() == expected_v.tobytes()


@pytest.mark.parametrize("size", [2, 5, 16, 33, 65])
def test_matches_numpy_eigh(size):
    rng = np.random.default_rng(size)
    a = rng.normal(size=(size, size))
    a = a + a.T
    w, v = jacobi_eigh(a)
    order = np.argsort(w)
    w = w[order]
    v = v[:, order]
    expected = np.linalg.eigvalsh(a)
    scale = max(1.0, np.abs(expected).max())
    assert np.allclose(w, expected, atol=1e-10 * scale)
    assert np.allclose(v.T @ v, np.eye(size), atol=1e-10)
    assert np.allclose(a @ v, v * w, atol=1e-9 * scale)


def test_diagonal_input_is_fixed_point():
    d = np.diag([3.0, -1.0, 2.0])
    w, v = jacobi_eigh(d)
    assert np.array_equal(np.sort(w), np.array([-1.0, 2.0, 3.0]))
    assert np.allclose(np.abs(v), np.eye(3))


def test_large_scale_entries_converge():
    # entries of order 5e2 appear for the widest spectral matrices
    rng = np.random.default_rng(7)
    a = rng.normal(scale=500.0, size=(40, 40))
    a = a + a.T
    w, _ = jacobi_eigh(a)
    expected = np.linalg.eigvalsh(a)
    assert np.allclose(np.sort(w), expected, atol=1e-8 * np.abs(expected).max())


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        jacobi_eigh(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [2.0, 0.0]]))


INF = np.inf
NOT_SQUARE = "expected a square matrix"
ASYMMETRIC = "matrix is not symmetric"


@pytest.mark.parametrize(
    "matrix, error",
    [
        pytest.param(np.zeros((2, 3)), NOT_SQUARE, id="wide"),
        pytest.param(np.zeros(4), NOT_SQUARE, id="vector"),
        pytest.param(np.zeros((2, 2, 2)), NOT_SQUARE, id="stack"),
        pytest.param(np.zeros((0, 0)), "empty matrix", id="empty"),
        pytest.param([[np.nan, 0.0], [0.0, 1.0]], ASYMMETRIC, id="nan-diagonal"),
        pytest.param([[0.0, np.nan], [np.nan, 0.0]], ASYMMETRIC, id="nan-pair"),
        pytest.param([[INF, np.nan], [np.nan, 0.0]], ASYMMETRIC, id="nan-beside-inf"),
        pytest.param([[0.0, 1.0], [1.0 + 3e-10, 0.0]], ASYMMETRIC, id="beyond-unit-tol"),
        pytest.param([[1e4, 1.0], [1.0 + 2e-6, 0.0]], ASYMMETRIC, id="beyond-scaled-tol"),
        pytest.param([[0.0, 1.0], [2.0, 0.0]], ASYMMETRIC, id="asymmetric"),
        pytest.param([[0.0, INF], [1.0, 0.0]], ASYMMETRIC, id="inf-against-finite"),
        pytest.param([[0.0, INF], [-INF, 0.0]], ASYMMETRIC, id="inf-against-minus-inf"),
        pytest.param([[0.0, 1.0], [1.0 + 5e-11, 0.0]], None, id="within-unit-tol"),
        pytest.param([[-1e4, 1.0], [1.0 + 5e-7, 0.0]], None, id="within-scaled-tol"),
        pytest.param([[INF, 1.0], [1.0, 0.0]], None, id="inf-diagonal"),
        pytest.param([[0.0, -INF], [-INF, INF]], None, id="symmetric-infs"),
        # an infinite entry makes the tolerance infinite for the finite pairs
        pytest.param([[INF, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 2.0, 0.0]], None, id="inf-bound"),
        pytest.param([[3.0]], None, id="scalar"),
    ],
)
def test_checked_symmetric_accepts_and_rejects(matrix, error):
    if error is not None:
        with pytest.raises(ValueError, match=error):
            _checked_symmetric(matrix)
        return
    a = np.array(matrix, dtype=float)
    assert np.array_equal(_checked_symmetric(matrix), 0.5 * (a + a.T))


def test_canonicalize_signs_matches_the_per_column_oracle_bit_for_bit():
    # columns: a largest entry that is negative, a +-x tie (the first entry
    # decides) either way round, all zeros, signed zeros, and one positive
    columns = [
        [0.1, -0.9, 0.3],
        [0.5, -0.5, 0.0],
        [-0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0],
        [-0.0, -0.7, 0.0],
        [0.2, 0.0, -0.1],
    ]
    vectors = np.array(columns).T
    expected = np.column_stack([oracles.canonical_sign(vectors[:, i]) for i in range(len(columns))])
    peaks = canonicalize_signs(vectors)
    assert vectors.tobytes() == expected.tobytes()
    assert peaks.tolist() == [1, 0, 0, 0, 1, 0]


@settings(max_examples=30, deadline=None)
@given(
    size=st.integers(1, 33),
    seed=st.integers(0, 2**32 - 1),
    zero_fraction=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    paired=st.booleans(),
)
def test_matches_masked_rotation_oracle_bit_for_bit(size, seed, zero_fraction, paired):
    rng = np.random.default_rng(seed)
    order = (size + 1) // 2 if paired else size
    b = rng.normal(size=(order, order))
    b[rng.random((order, order)) < zero_fraction] = 0.0
    b = b + b.T
    # two copies of one block: exactly degenerate eigenvalue pairs for even
    # sizes and exactly zero off-diagonal blocks
    a = np.kron(np.eye(2), b)[:size, :size] if paired else b
    assert_matches_masked_oracle(a)


@pytest.mark.parametrize("harmonics", [16, 32])
@pytest.mark.parametrize("kind,barrier", [(BISTABLE, 0.5), (BISTABLE, 3.0), (BISTABLE, 7.0), (MONOSTABLE, 1.0)])
def test_matches_masked_rotation_oracle_on_dihedral_parity_blocks(kind, barrier, harmonics):
    # the banded blocks every dihedral spectrum diagonalizes: orders 17 and
    # 16 at the default cutoff, 33 and 32 at a cutoff of 32 harmonics
    matrix = build_single_dihedral_matrix(DihedralSpec(kind, barrier), 2.0, harmonics)
    parities = fourier_parities(harmonics)
    for parity in (1, -1):
        idx = np.flatnonzero(parities == parity)
        assert_matches_masked_oracle(matrix[np.ix_(idx, idx)])


@pytest.mark.parametrize("barrier", [0.5, 3.0])
def test_matches_masked_rotation_oracle_on_padded_chain_matrices(barrier):
    chain = ChainSpec(
        dihedrals=(DihedralSpec(BISTABLE, barrier), DihedralSpec(MONOSTABLE, 1.0)),
        diffusion=(1.0, 1.0, 1.0),
    )
    # every ladder rung, and a 3-state basis whose padding adds a penalty row
    cases = [(rung, LADDER[: i + 1]) for i, rung in enumerate(LADDER)] + [((3, 2), None)]
    for kept, ladder in cases:
        basis = build_composite_basis(chain, kept, ladder=ladder)
        assert_matches_masked_oracle(pad_matrix(build_chain_matrix(basis), basis.qubits))


HALF_MAX = np.finfo(float).max / 2.0
NAN = np.nan
# what each symmetry check decides on: exactly symmetric input, pairs inside
# and beyond the chain solvers' 1e-10 and the Pauli map's 1e-12 tolerance,
# signed zeros that differ across the diagonal, NaN, infinities, and entries
# that overflow when doubled
SYMMETRY_INPUTS = {
    "exact": [[2.0, -1.5, 0.0, 3e-300], [-1.5, 0.5, 7.0, -0.0], [0.0, 7.0, -4.0, 1.0], [3e-300, -0.0, 1.0, 1e5]],
    "within-map-tol": [[0.0, 1.0], [1.0 + 5e-13, 0.0]],
    "beyond-map-tol": [[0.0, 1.0], [1.0 + 4e-12, 0.0]],
    "within-unit-tol": [[0.0, 1.0], [1.0 + 5e-11, 0.0]],
    "beyond-unit-tol": [[0.0, 1.0], [1.0 + 3e-10, 0.0]],
    "within-scaled-tol": [[-1e4, 1.0], [1.0 + 5e-7, 0.0]],
    "beyond-scaled-tol": [[1e4, 1.0], [1.0 + 2e-6, 0.0]],
    "signed-zeros": [[1.0, 0.0], [-0.0, 2.0]],
    "signed-zeros-alike": [[-0.0, -0.0], [-0.0, 1.0]],
    "nan-diagonal": [[NAN, 0.0], [0.0, 1.0]],
    "nan-pair": [[0.0, NAN], [NAN, 0.0]],
    "inf-diagonal": [[INF, 1.0], [1.0, 0.0]],
    "symmetric-infs": [[0.0, -INF], [-INF, INF]],
    "inf-against-finite": [[0.0, INF], [1.0, 0.0]],
    "half-max": [[HALF_MAX, -HALF_MAX], [-HALF_MAX, 1.0]],
    "beyond-half-max": [[1.7e308, 1e308], [1e308, -1.7e308]],
    "beyond-half-max-near": [[1.7e308, 1e308], [1e308 * (1.0 + 1e-12), 0.0]],
}


# name -> (solver, module, the module's symmetry check, the former check)
SYMMETRY_SOLVERS = {
    "_checked_symmetric": (
        lambda a: linalg._checked_symmetric(a), linalg, "_checked_symmetric", oracles.tolerance_checked_symmetric
    ),
    "jacobi_eigh": (jacobi_eigh, linalg, "_checked_symmetric", oracles.tolerance_checked_symmetric),
    "lowest_eigenvalue": (
        oracles.lowest_eigenvalue, chain_module, "_checked_symmetric", oracles.tolerance_checked_symmetric
    ),
    "reference_spectrum": (
        chain_module.reference_spectrum, chain_module, "_checked_symmetric", oracles.tolerance_checked_symmetric
    ),
    # with no fast path, every input takes the test and average of `allclose_symmetrized`
    "map_operator": (paulimap.map_operator, paulimap, "_exactly_symmetric", lambda a: False),
}


def _outcome(solve, matrix):
    """The result's bits, or the refusal's type and text; the input must not change."""
    given = np.array(matrix, dtype=float)
    before = given.tobytes()
    given.setflags(write=False)
    try:
        with np.errstate(all="ignore"):
            result = solve(given)
    except Exception as error:  # LAPACK may refuse NaN in its own words
        outcome = (type(error), str(error))
    else:
        if isinstance(result, float):
            outcome = result.hex()
        elif isinstance(result, np.ndarray):
            outcome = result.tobytes()
        elif isinstance(result, tuple):
            outcome = tuple(array.tobytes() for array in result)
        else:
            outcome = ([s.label for s in result.strings], [c.hex() for c in result.coefficients])
    assert given.tobytes() == before
    return outcome


@pytest.mark.parametrize("solver", SYMMETRY_SOLVERS)
@pytest.mark.parametrize("name", SYMMETRY_INPUTS)
def test_exact_symmetry_fast_path_keeps_the_former_bits_and_refusals(monkeypatch, solver, name):
    solve, module, check, former = SYMMETRY_SOLVERS[solver]
    got = _outcome(solve, SYMMETRY_INPUTS[name])
    monkeypatch.setattr(module, check, former)
    assert got == _outcome(solve, SYMMETRY_INPUTS[name])


@pytest.mark.parametrize("barrier", [0.5, 3.0])
def test_package_matrices_take_the_exact_symmetry_fast_path(barrier):
    chain = ChainSpec(
        dihedrals=(DihedralSpec(BISTABLE, barrier), DihedralSpec(MONOSTABLE, 1.0)),
        diffusion=(1.0, 1.0, 1.0),
    )
    matrix = build_single_dihedral_matrix(chain.dihedrals[0], 2.0, 16)
    parities = fourier_parities(16)
    for parity in (1, -1):
        idx = np.flatnonzero(parities == parity)
        assert linalg._exactly_symmetric(matrix[np.ix_(idx, idx)])
    for kept, ladder in [(rung, LADDER[: i + 1]) for i, rung in enumerate(LADDER)] + [((3, 2), None)]:
        basis = build_composite_basis(chain, kept, ladder=ladder)
        assert linalg._exactly_symmetric(build_chain_matrix(basis))
        assert linalg._exactly_symmetric(pad_matrix(build_chain_matrix(basis), basis.qubits))
    assert not linalg._exactly_symmetric(np.array(SYMMETRY_INPUTS["signed-zeros"]))
