import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rotorvqe import dihedral
from rotorvqe.dihedral import (
    DihedralEigenbasis,
    _effective_well_poly,
    _product_plan,
    _solve,
    _uprime_poly,
    build_single_dihedral_matrix,
    derivative_matrix_elements,
    fourier_derivative_matrix,
    fourier_parities,
    fourier_uprime_matrix,
    multiplication_matrix,
    solve_dihedral,
    uprime_matrix_elements,
)
from rotorvqe.driver import build_problem
from rotorvqe.potential import BISTABLE, MONOSTABLE, ChainSpec, DihedralSpec

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
    basis = solve_dihedral(DihedralSpec(MONOSTABLE, 0.0), 2.0, n_keep=4, harmonics=4)
    assert np.allclose(basis.eigenvalues, [0.0, 2.0, 2.0, 8.0], atol=1e-12)
    # each degenerate pair holds one even and one odd member; ties resolve
    # odd first, which keeps truncated sets parity-alternating
    assert list(basis.parities) == [1, -1, 1, -1]
    pair = set(basis.parities[1:3])
    assert pair == {1, -1}


@pytest.mark.parametrize("kind,barrier", CASES)
def test_eigse_basic_properties(kind, barrier):
    basis = solve_dihedral(DihedralSpec(kind, barrier), 2.0, n_keep=6, harmonics=16)
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
    basis = solve_dihedral(DihedralSpec(kind, barrier), 2.0, n_keep=4, harmonics=16)
    assert list(basis.parities) == [1, -1, 1, -1]


@pytest.mark.parametrize("kind,barrier", [(MONOSTABLE, 1.0), (BISTABLE, 0.5), (BISTABLE, 3.0)])
def test_ground_state_is_sqrt_boltzmann(kind, barrier):
    basis = solve_dihedral(DihedralSpec(kind, barrier), 2.0, n_keep=2, harmonics=16)
    expected = oracles.sqrt_boltzmann_coefficients(kind, barrier, harmonics=16)
    overlap = abs(float(expected @ basis.vectors[:, 0]))
    assert overlap >= 1.0 - 1e-8


def test_solve_dihedral_guard():
    basis = solve_dihedral(DihedralSpec(BISTABLE, 0.5), 2.0, 4, harmonics=16)
    assert isinstance(basis, DihedralEigenbasis)
    # a harmonic cutoff this small cannot hold the barrier-3 eigenfunctions
    with pytest.raises(ValueError, match="increase the cutoff"):
        solve_dihedral(DihedralSpec(BISTABLE, 3.0), 2.0, 4, harmonics=2)


# Near these barriers an even and an odd mode lie about 1e-7 to 1e-6 apart:
# the degeneracy window, relative to the largest eigenvalue, orders them by
# eigenvalue at the cutoff and odd-first at twice the cutoff.  Both orders
# hold converged values, so pairing per parity and rank accepts them.
@pytest.mark.parametrize(
    "barrier,harmonics,n_keep",
    [(0.03, 16, 6), (0.03, 16, 8), (0.04, 16, 6), (0.04, 16, 8), (0.02, 8, 6), (0.02, 8, 8)],
)
def test_solve_dihedral_accepts_converged_near_degenerate_pairs(barrier, harmonics, n_keep):
    spec = DihedralSpec(BISTABLE, barrier)
    basis = solve_dihedral(spec, 2.0, n_keep, harmonics)
    values, vectors, parities = oracles.serial_spectrum(spec, 2.0, harmonics)
    assert basis.eigenvalues.tobytes() == values[:n_keep].tobytes()
    assert basis.vectors.tobytes() == vectors[:, :n_keep].tobytes()
    assert basis.parities.tobytes() == parities[:n_keep].tobytes()


@pytest.mark.parametrize("kind", [MONOSTABLE, BISTABLE])
@pytest.mark.parametrize("barrier", [0.0, 0.5, 3.0, 7.0])
def test_guard_eigenvalues_match_jacobi_oracle(kind, barrier):
    # the doubled cutoff of the default 16 harmonics: blocks of order 33 and 32
    spec = DihedralSpec(kind, barrier)
    got = _solve(spec, 2.0, 16)[3]
    expected = oracles.jacobi_parity_eigenvalues(spec, 2.0, 32)
    assert [len(values) for values in got] == [33, 32]
    for values, oracle in zip(got, expected):
        assert np.max(np.abs(values - oracle)) <= 1e-10


def test_n_keep_validation():
    spec = DihedralSpec(MONOSTABLE, 1.0)
    with pytest.raises(ValueError):
        solve_dihedral(spec, 2.0, n_keep=0)
    with pytest.raises(ValueError, match=r"\[1, 9\] at harmonics=4, got kept=10"):
        solve_dihedral(spec, 2.0, n_keep=10, harmonics=4)
    # a cutoff below one harmonic is named before the kept count it bounds
    for harmonics in (0, -2):
        with pytest.raises(ValueError, match=f"at least one harmonic, got harmonics={harmonics}"):
            solve_dihedral(spec, 2.0, 4, harmonics=harmonics)


def test_oversized_cutoff_is_refused_before_any_allocation(monkeypatch):
    spec = DihedralSpec(MONOSTABLE, 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as caught:
            solve_dihedral(spec, 2.0, 4, harmonics=100000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == (
        "harmonics=100000 needs a 400001 x 400001 generator at twice the cutoff,"
        " over the limit of 67108864 entries; lower harmonics"
    )
    assert peak < 2**20
    # (4h + 1)^2 entries pass the 2^26 bound up to h = 2047; a stand-in
    # solve shows that the guard let a cutoff through, with nothing built
    def passed(*args):
        raise LookupError("past the size guard")

    monkeypatch.setattr(dihedral, "_solve", passed)
    with pytest.raises(LookupError):
        solve_dihedral(spec, 2.0, 4, harmonics=2047)
    with pytest.raises(ValueError, match="needs a 8193 x 8193 generator"):
        solve_dihedral(spec, 2.0, 4, harmonics=2048)


def test_derivative_matrix_free_rotor():
    basis = solve_dihedral(DihedralSpec(MONOSTABLE, 0.0), 2.0, n_keep=3, harmonics=2)
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
    basis = solve_dihedral(DihedralSpec(kind, barrier), 2.0, n_keep=5, harmonics=16)
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
        mat = multiplication_matrix(_uprime_poly(DihedralSpec(kind, barrier)), 6)
        oracle = oracles.quadrature_multiplication_matrix(u1, 6, theta)
        assert np.allclose(mat, oracle, atol=1e-10)


def test_uprime_zero_for_free_rotor():
    basis = solve_dihedral(DihedralSpec(BISTABLE, 0.0), 2.0, n_keep=4, harmonics=4)
    assert np.abs(uprime_matrix_elements(basis)).max() == 0.0


# exactly-zero coefficients, and subnormal ones whose matrix element
# underflows to a signed zero, exercise the dict algebra's rule that a zero
# term is never stored; full-range ones reach overflow to inf and inf - inf
coefficients = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -3e-323, 2e-323, 1e-300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
trig_terms = st.one_of(
    st.tuples(st.just("c"), st.integers(0, 8), coefficients),
    st.tuples(st.just("s"), st.integers(1, 8), coefficients),
)
trig_polys = st.lists(trig_terms, max_size=5).map(lambda terms: {(k, n): v for k, n, v in terms})
kinds = st.sampled_from([MONOSTABLE, BISTABLE])
specs = st.builds(DihedralSpec, kinds, st.floats(0.0, 8.0))
spec_polys = st.one_of(specs.map(_effective_well_poly), specs.map(_uprime_poly))


@settings(max_examples=150, deadline=None)
@given(poly=st.one_of(trig_polys, spec_polys), harmonics=st.integers(1, 32))
def test_multiplication_matrix_matches_pairwise_oracle_bit_for_bit(poly, harmonics):
    # full-range coefficients overflow on purpose (see `coefficients`)
    with np.errstate(over="ignore", invalid="ignore"):
        mat = multiplication_matrix(poly, harmonics)
        assert mat.tobytes() == oracles.pairwise_multiplication_matrix(poly, harmonics).tobytes()


def test_cached_product_plans_give_the_pairwise_oracle_bit_for_bit():
    # one set of poly keys at one cutoff, with fresh values on every build:
    # every build after the first reads the cached plans
    keys = (("c", 0), ("c", 2), ("s", 3), ("c", 4))
    rng = np.random.default_rng(3)
    before = _product_plan.cache_info()
    for _ in range(4):
        poly = dict(zip(keys, rng.normal(size=len(keys)) * 10.0 ** rng.integers(-300, 300, len(keys))))
        mat = multiplication_matrix(poly, 11)
        assert mat.tobytes() == oracles.pairwise_multiplication_matrix(poly, 11).tobytes()
    assert _product_plan.cache_info().hits >= before.hits + 3 * len(keys)
    for term in _product_plan("s", 3, 11):
        for array in term:
            with pytest.raises(ValueError):
                array[0] = 1


SPECTRUM_BARRIERS = [0.0, 0.03, 0.04, 0.5, 1.7, 3.0]


@pytest.mark.parametrize("kind", [MONOSTABLE, BISTABLE])
@pytest.mark.parametrize("barrier", SPECTRUM_BARRIERS + [25.0])
def test_spectrum_matches_serial_oracle_bit_for_bit(kind, barrier):
    # barrier 0 is the free rotor, whose excited levels are exact even/odd
    # pairs; 0.03 and 0.04 hold near-degenerate pairs around the cluster
    # width; at 25 Jacobi hands back modes whose largest entry is negative
    spec = DihedralSpec(kind, barrier)
    for harmonics in (4, 8, 16, 32):
        for prefactor in (2.0, 0.75):
            got = _solve.__wrapped__(spec, prefactor, harmonics)[:3]
            expected = oracles.serial_spectrum(spec, prefactor, harmonics)
            for array, oracle in zip(got, expected):
                assert array.dtype == oracle.dtype and array.shape == oracle.shape
                assert array.tobytes() == oracle.tobytes()
            assert got[1].flags.c_contiguous


@pytest.mark.parametrize("kind", [MONOSTABLE, BISTABLE])
@pytest.mark.parametrize("barrier", SPECTRUM_BARRIERS + [7.0, 1e6])
def test_doubled_generator_leading_block_is_the_cutoff_build(kind, barrier):
    # _solve diagonalizes the leading block of its one doubled build
    spec = DihedralSpec(kind, barrier)
    for harmonics in (1, 4, 16):
        for prefactor in (2.0, 0.75):
            size = 2 * harmonics + 1
            doubled = build_single_dihedral_matrix(spec, prefactor, 2 * harmonics)
            built = build_single_dihedral_matrix(spec, prefactor, harmonics)
            assert doubled[:size, :size].tobytes() == built.tobytes()


def test_refusals_keep_their_texts():
    spec = DihedralSpec(MONOSTABLE, 1.0)
    refusals = [
        (lambda: solve_dihedral(spec, 2.0, 4, harmonics=0), "need at least one harmonic, got harmonics=0"),
        (
            lambda: solve_dihedral(spec, 2.0, 8, harmonics=3),
            "kept must be in [1, 2*harmonics + 1] = [1, 7] at harmonics=3, got kept=8;"
            " lower kept or raise harmonics",
        ),
        (
            lambda: solve_dihedral(DihedralSpec(BISTABLE, 1e200), 2.0, 4),
            "DihedralSpec(kind='bistable', barrier=1e+200) overflows its generator matrix;"
            " lower the barrier",
        ),
    ]
    # the default two-dihedral chain, as the command line builds it
    chain = ChainSpec((DihedralSpec(BISTABLE, 0.5), DihedralSpec(MONOSTABLE, 1.0)), (1.0, 1.0, 1.0))
    refusals += [
        (lambda: build_problem(chain, (4, 2), harmonics=0), "need at least one harmonic, got harmonics=0"),
        (
            lambda: build_problem(chain, (4, 2), harmonics=4),
            "eigenvalues drift by 4.617e-05 when doubling harmonics=4; increase the cutoff",
        ),
        (
            lambda: build_problem(chain, (8, 4), harmonics=3),
            "kept must be in [1, 2*harmonics + 1] = [1, 7] at harmonics=3, got kept=8;"
            " lower kept or raise harmonics",
        ),
        (
            lambda: build_problem(
                ChainSpec((DihedralSpec(BISTABLE, 1e200), DihedralSpec(MONOSTABLE, 1.0)), (1.0, 1.0, 1.0)),
                (4, 2),
            ),
            "DihedralSpec(kind='bistable', barrier=1e+200) overflows its generator matrix;"
            " lower the barrier",
        ),
    ]
    for refuse, text in refusals:
        with pytest.raises(ValueError) as caught:
            refuse()
        assert str(caught.value) == text


@pytest.mark.parametrize(
    "kind, barrier, harmonics",
    [(BISTABLE, 8.8e76, 16), (BISTABLE, 1.25e77, 4), (MONOSTABLE, 2.46e77, 4)],
)
def test_barrier_that_overflows_only_at_twice_the_cutoff_is_refused(kind, barrier, harmonics):
    # the generator's norm is finite at the cutoff and overflows at twice it:
    # the cutoff guard needs the doubled generator, so _solve refuses its build
    spec = DihedralSpec(kind, barrier)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(np.linalg.norm(build_single_dihedral_matrix(spec, 2.0, harmonics)))
        overflows = re.escape(f"{spec} overflows its generator matrix; lower the barrier")
        with pytest.raises(ValueError, match=overflows):
            build_single_dihedral_matrix(spec, 2.0, 2 * harmonics)
        for solve in (lambda: _solve(spec, 2.0, harmonics), lambda: solve_dihedral(spec, 2.0, 4, harmonics)):
            with pytest.raises(ValueError, match=overflows):
                solve()


@pytest.mark.parametrize("barrier", [1e200, 1e150, 1e100])
def test_overflowing_barrier_fails_fast_naming_the_dihedral(barrier):
    # 1e200 overflows the matrix entries, 1e150 and 1e100 only the norm
    spec = DihedralSpec(BISTABLE, barrier)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (
            lambda: build_single_dihedral_matrix(spec, 2.0),
            lambda: solve_dihedral(spec, 2.0, 4, harmonics=16),
        ):
            with pytest.raises(ValueError, match=re.escape(f"{spec} overflows its generator matrix")):
                build()


# 1e-323 is the monostable barrier whose U''/2 term halves to zero
barriers = st.one_of(st.sampled_from([0.0, 5e-324, 1e-323, 1e-300, 1e6]), st.floats(0.0, 1e6))


@settings(max_examples=200, deadline=None)
@given(kind=kinds, barrier=barriers)
def test_closed_form_polynomials_match_dict_algebra_bit_for_bit(kind, barrier):
    spec = DihedralSpec(kind, barrier)
    for closed, oracle in (
        (_effective_well_poly, oracles.dict_effective_well_poly),
        (_uprime_poly, oracles.dict_uprime_poly),
    ):
        got = [(key, value.hex()) for key, value in closed(spec).items()]
        assert got == [(key, value.hex()) for key, value in oracle(spec).items()]


def test_fourier_derivative_matrix_matches_pairwise_oracle_bit_for_bit():
    for harmonics in range(1, 33):
        mat = fourier_derivative_matrix(harmonics)
        assert mat.tobytes() == oracles.pairwise_derivative_matrix(harmonics).tobytes()


@settings(max_examples=10, deadline=None)
@given(kind=kinds, barrier=st.floats(0.0, 4.0), n_keep=st.integers(1, 8), extra=st.integers(0, 4))
def test_solve_dihedral_is_a_bitwise_prefix_of_larger_kept_sets(kind, barrier, n_keep, extra):
    spec = DihedralSpec(kind, barrier)
    small = solve_dihedral(spec, 2.0, n_keep)
    large = solve_dihedral(spec, 2.0, n_keep + extra)
    assert small.eigenvalues.tobytes() == large.eigenvalues[:n_keep].tobytes()
    assert small.vectors.tobytes() == large.vectors[:, :n_keep].tobytes()
    assert small.parities.tobytes() == large.parities[:n_keep].tobytes()


def test_shared_caches_cannot_be_written_through_results():
    with pytest.raises(ValueError):
        fourier_derivative_matrix(4)[1, 2] = 5.0
    spec = DihedralSpec(BISTABLE, 1.25)
    shared = solve_dihedral(spec, 2.0, 4)
    for array in (shared.eigenvalues, shared.vectors, shared.parities):
        with pytest.raises(ValueError):
            array[0] = 7
    # the spectrum and the guard's doubled-cutoff eigenvalues are shared by
    # every kept count; the unwrapped solver reads both in one lookup even
    # where solve_dihedral's cache hits
    before = _solve.cache_info()
    for n_keep in (6, 8):
        solve_dihedral.__wrapped__(spec, 2.0, n_keep)
    assert _solve.cache_info().misses == before.misses
    assert _solve.cache_info().hits == before.hits + 2
    values, vectors, parities, guard = _solve(spec, 2.0, 16)
    for array in (values, vectors, parities, *guard):
        with pytest.raises(ValueError):
            array[0] = 7


def test_uprime_matrix_is_cached_read_only_and_bitwise_fresh():
    # a spec no other test builds, so the first call below is a miss
    spec = DihedralSpec(MONOSTABLE, 2.375)
    before = fourier_uprime_matrix.cache_info()
    shared = fourier_uprime_matrix(spec, 16)
    with pytest.raises(ValueError):
        shared[1, 2] = 5.0
    fresh = multiplication_matrix(_uprime_poly(spec), 16)
    assert shared.tobytes() == fresh.tobytes()
    assert fourier_uprime_matrix.cache_info().misses == before.misses + 1
    # a second build of the same spec reads the cached matrix
    basis = solve_dihedral(spec, 2.0, 4)
    first = uprime_matrix_elements(basis)
    second = uprime_matrix_elements(basis)
    assert first.tobytes() == second.tobytes()
    assert fourier_uprime_matrix.cache_info().hits >= before.hits + 2
    assert fourier_uprime_matrix.cache_info().misses == before.misses + 1


def test_solved_basis_is_frozen_and_owns_read_only_elements():
    spec = DihedralSpec(BISTABLE, 1.25)
    shared = solve_dihedral(spec, 2.0, 4)
    for name, value in (("vectors", np.eye(4)), ("eigenvalues", np.zeros(4)), ("n_keep", 4)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(shared, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        shared.derivative_elements = np.zeros((4, 4))
    assert solve_dihedral(spec, 2.0, 4).vectors is shared.vectors
    # the elements are computed once per basis, read-only and bit for bit fresh
    for cached, fresh in (
        (shared.derivative_elements, derivative_matrix_elements(shared)),
        (shared.uprime_elements, uprime_matrix_elements(shared)),
    ):
        assert cached.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            cached[0, 0] = 1.0
    assert shared.derivative_elements is shared.derivative_elements
    # a replaced basis is a new object with elements of its own
    copy = dataclasses.replace(shared, vectors=shared.vectors.copy())
    assert copy.vectors.flags.writeable and copy.uprime_elements is not shared.uprime_elements
    assert copy.uprime_elements.tobytes() == shared.uprime_elements.tobytes()
