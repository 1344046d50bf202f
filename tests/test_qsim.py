import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from rotorvqe import qsim
from rotorvqe.chain import (
    build_chain_matrix,
    build_composite_basis,
    pad_matrix,
    reference_spectrum,
)
from rotorvqe.paulimap import (
    PauliOperator,
    PauliString,
    group_qubitwise_commuting,
    map_operator,
)
from rotorvqe.potential import BISTABLE, MONOSTABLE, ChainSpec, DihedralSpec
from rotorvqe.qsim import (
    FULL,
    LINEAR,
    NOISY,
    SAMPLED,
    AnsatzSpec,
    NoiseSpec,
    embed_params,
    entangler_pairs,
    exact_expectation,
    format_bitstrings,
    noisy_expectation,
    prepare_state,
    prepare_states,
    sample_bitstrings,
    sampled_expectation,
    sampled_expectations,
    symmetric_confusion,
)

from oracles import (
    kraus_outcome_distribution,
    serial_prepare_state,
    serial_sampled_expectation,
    trajectory_noisy_expectation,
)

LADDER = ((4, 2), (4, 4), (8, 4))


def chain_problem(kept):
    chain = ChainSpec(
        dihedrals=(DihedralSpec(BISTABLE, 0.5), DihedralSpec(MONOSTABLE, 1.0)),
        diffusion=(1.0, 1.0, 1.0),
    )
    ladder = tuple(r for r in LADDER if all(a <= b for a, b in zip(r, kept)))
    basis = build_composite_basis(chain, kept, ladder=ladder)
    matrix = pad_matrix(build_chain_matrix(basis), basis.qubits)
    return basis, matrix, map_operator(matrix)


def single_z(coef=1.0):
    return PauliOperator(
        qubits=1, strings=(PauliString.from_label("Z"),), coefficients=(coef,)
    )


def test_parameter_count_and_validation():
    assert AnsatzSpec(qubits=2, depth=1).parameter_count == 8
    assert AnsatzSpec(qubits=3, depth=2).parameter_count == 18
    assert AnsatzSpec(qubits=4, depth=0).parameter_count == 8
    with pytest.raises(ValueError):
        AnsatzSpec(qubits=0)
    with pytest.raises(ValueError):
        AnsatzSpec(qubits=2, depth=-1)
    with pytest.raises(ValueError):
        AnsatzSpec(qubits=2, entangler="ring")
    with pytest.raises(ValueError):
        prepare_state(AnsatzSpec(qubits=2), np.zeros(7))


def test_entangler_layouts():
    assert entangler_pairs(3, LINEAR) == ((1, 2), (2, 3))
    assert entangler_pairs(4, FULL) == (
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    )
    assert entangler_pairs(1, LINEAR) == ()


@pytest.mark.parametrize("entangler", [LINEAR, FULL])
def test_zero_parameters_leave_vacuum(entangler):
    ansatz = AnsatzSpec(qubits=3, depth=2, entangler=entangler)
    state = prepare_state(ansatz, np.zeros(ansatz.parameter_count))
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.allclose(state, expected, atol=1e-14)


def test_rotation_conventions():
    # Ry(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>
    state = prepare_state(AnsatzSpec(qubits=1, depth=0), [math.pi / 3, 0.0])
    assert state[0] == pytest.approx(math.cos(math.pi / 6))
    assert state[1] == pytest.approx(math.sin(math.pi / 6))
    # Ry(pi)|0> = |1>
    state = prepare_state(AnsatzSpec(qubits=1, depth=0), [math.pi, 0.0])
    assert abs(state[1]) == pytest.approx(1.0)
    # Rz only contributes the half-angle phase
    state = prepare_state(AnsatzSpec(qubits=1, depth=0), [0.0, 1.2])
    assert state[0] == pytest.approx(np.exp(-0.6j))
    assert state[1] == 0.0


def test_cnot_produces_bell_state():
    ansatz = AnsatzSpec(qubits=2, depth=1, entangler=LINEAR)
    params = [math.pi / 2, 0, 0, 0, 0, 0, 0, 0]
    state = prepare_state(ansatz, params)
    inv_sqrt2 = 1 / math.sqrt(2)
    assert np.allclose(state, [inv_sqrt2, 0, 0, inv_sqrt2], atol=1e-12)


def test_qubit_one_is_most_significant_bit():
    # flipping qubit 1 moves amplitude to index 2, not 1, on two qubits
    ansatz = AnsatzSpec(qubits=2, depth=0)
    state = prepare_state(ansatz, [math.pi, 0, 0, 0])
    assert abs(state[2]) == pytest.approx(1.0)
    zi = PauliOperator(qubits=2, strings=(PauliString.from_label("ZI"),), coefficients=(1.0,))
    iz = PauliOperator(qubits=2, strings=(PauliString.from_label("IZ"),), coefficients=(1.0,))
    assert exact_expectation(state, zi) == pytest.approx(-1.0)
    assert exact_expectation(state, iz) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=12, max_size=12))
def test_states_stay_normalized(params):
    state = prepare_state(AnsatzSpec(qubits=3, depth=1, entangler=FULL), params[:12])
    assert np.sum(np.abs(state) ** 2) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    qubits=st.integers(1, 4),
    depth=st.integers(0, 2),
    entangler=st.sampled_from([LINEAR, FULL]),
    batch=st.sampled_from([1, 2, 37]),
    data=st.data(),
)
def test_prepare_states_rows_match_single_states_bit_for_bit(qubits, depth, entangler, batch, data):
    ansatz = AnsatzSpec(qubits=qubits, depth=depth, entangler=entangler)
    params = data.draw(
        arrays(np.float64, (batch, ansatz.parameter_count), elements=st.floats(-50, 50))
    )
    states = prepare_states(ansatz, params)
    assert states.shape == (batch, 1 << qubits)
    assert states.flags.c_contiguous
    for row, state in zip(params, states):
        assert state.tobytes() == prepare_state(ansatz, row).tobytes()
        assert state.tobytes() == serial_prepare_state(qubits, depth, entangler, row).tobytes()
    # the gate angles go through numpy's cos/sin; bit identity with the
    # single-state gates needs them to agree with math and cmath
    angles = params.ravel()
    half = angles / 2.0
    assert np.cos(half).tolist() == [math.cos(h) for h in half]
    assert np.sin(half).tolist() == [math.sin(h) for h in half]
    phases = [cmath.exp(-0.5j * theta) for theta in angles]
    assert np.cos(-half).tolist() == [p.real for p in phases]
    assert np.sin(-half).tolist() == [p.imag for p in phases]


def test_prepare_states_validates_shape():
    ansatz = AnsatzSpec(qubits=2, depth=1)
    with pytest.raises(ValueError):
        prepare_states(ansatz, np.zeros(8))
    with pytest.raises(ValueError):
        prepare_states(ansatz, np.zeros((3, 7)))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # cos(inf)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_prepare_states_rejects_non_finite_angles(bad):
    # a NaN norm compares False against any tolerance, so the guard must fail it too
    ansatz = AnsatzSpec(qubits=2)
    with pytest.raises(RuntimeError, match="norm drifted"):
        prepare_state(ansatz, [bad] + [0.0] * 7)
    batch = np.zeros((3, 8))
    batch[1, 4] = bad
    with pytest.raises(RuntimeError, match="norm drifted"):
        prepare_states(ansatz, batch)


def test_exact_expectation_basics():
    zero = np.array([1.0, 0.0])
    assert exact_expectation(zero, single_z()) == pytest.approx(1.0)
    plus = prepare_state(AnsatzSpec(qubits=1, depth=0), [math.pi / 2, 0.0])
    x_op = PauliOperator(qubits=1, strings=(PauliString.from_label("X"),), coefficients=(1.0,))
    assert exact_expectation(plus, x_op) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        exact_expectation(np.zeros(4), single_z())


def test_exact_expectation_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        raw = rng.normal(size=(8, 8))
        op = map_operator(raw + raw.T)
        dense = op.to_matrix()
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        expected = np.real(np.conj(amps) @ dense @ amps)
        assert exact_expectation(amps, op) == pytest.approx(expected, abs=1e-12)


def test_reference_eigenvector_expectation():
    basis, matrix, op = chain_problem((4, 2))
    w, v = reference_spectrum(matrix)
    value = exact_expectation(v[:, 0].astype(complex), op)
    assert value == pytest.approx(w[0], abs=1e-9)
    assert abs(value - 1.51562) / 1.51562 < 5e-4


def test_variational_bound_on_random_states():
    _, matrix, op = chain_problem((4, 2))
    w, _ = reference_spectrum(matrix)
    ansatz = AnsatzSpec(qubits=2, depth=1)
    rng = np.random.default_rng(5)
    for _ in range(200):
        params = rng.uniform(0, 2 * math.pi, ansatz.parameter_count)
        value = exact_expectation(prepare_state(ansatz, params), op)
        assert value >= w[0] - 1e-9


def test_sampled_identity_operator_is_exact():
    op = PauliOperator(qubits=2, strings=(PauliString.from_label("II"),), coefficients=(3.7,))
    est = sampled_expectation(AnsatzSpec(qubits=2), np.zeros(8), op, shots=100, seed=1)
    assert est.value == pytest.approx(3.7)
    assert est.std_error == 0.0
    assert est.shots_used == 0
    assert est.mode == SAMPLED


def _bits(estimate):
    return estimate.value.hex(), estimate.std_error.hex(), estimate.shots_used


@settings(max_examples=60, deadline=None)
@given(
    qubits=st.integers(1, 4),
    depth=st.integers(0, 2),
    entangler=st.sampled_from([LINEAR, FULL]),
    grouping=st.booleans(),
    batch=st.sampled_from([1, 2, 37]),
    data=st.data(),
)
def test_sampled_expectations_rows_match_single_estimates_bit_for_bit(
    qubits, depth, entangler, grouping, batch, data
):
    ansatz = AnsatzSpec(qubits=qubits, depth=depth, entangler=entangler)
    labels = data.draw(
        st.lists(st.text("IXYZ", min_size=qubits, max_size=qubits), min_size=1, max_size=12, unique=True)
    )
    coefficients = data.draw(st.lists(st.floats(-3, 3), min_size=len(labels), max_size=len(labels)))
    op = PauliOperator(
        qubits=qubits,
        strings=tuple(PauliString.from_label(label) for label in labels),
        coefficients=tuple(coefficients),
    )
    points = data.draw(
        arrays(np.float64, (batch, ansatz.parameter_count), elements=st.floats(-50, 50))
    )
    seeds = data.draw(
        st.lists(st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 1300)), min_size=batch, max_size=batch)
    )
    shots = data.draw(st.sampled_from([1, 2, 20000]) | st.integers(1, 5000))
    order = data.draw(st.permutations(range(batch)))

    rows = sampled_expectations(ansatz, points, op, shots, seeds, grouping=grouping)
    shuffled = sampled_expectations(
        ansatz, points[order], op, shots, [seeds[i] for i in order], grouping=grouping
    )
    assert len(rows) == batch
    for b in range(batch):
        alone = sampled_expectation(ansatz, points[b], op, shots, grouping=grouping, seed=seeds[b])
        assert alone.mode == rows[b].mode == SAMPLED
        assert _bits(rows[b]) == _bits(alone)
        assert _bits(shuffled[order.index(b)]) == _bits(alone)
        value, std_error, used = serial_sampled_expectation(
            ansatz, points[b], op, shots, grouping=grouping, seed=seeds[b]
        )
        assert _bits(alone) == (value.hex(), std_error.hex(), used)


def test_sampled_expectations_validation():
    ansatz = AnsatzSpec(qubits=1, depth=0)
    points = np.zeros((3, 2))
    with pytest.raises(ValueError, match="one seed per point"):
        sampled_expectations(ansatz, points, single_z(), 10, [1, 2])
    with pytest.raises(ValueError):
        sampled_expectations(ansatz, np.zeros((3, 3)), single_z(), 10, [1, 2, 3])
    with pytest.raises(ValueError):
        sampled_expectations(ansatz, points, single_z(), 0, [1, 2, 3])


def test_sampled_expectation_reproducible_and_unbiased():
    _, matrix, op = chain_problem((4, 2))
    ansatz = AnsatzSpec(qubits=2, depth=1)
    rng = np.random.default_rng(42)
    params = rng.uniform(0, 2 * math.pi, ansatz.parameter_count)
    exact = exact_expectation(prepare_state(ansatz, params), op)

    one = sampled_expectation(ansatz, params, op, shots=4000, seed=7)
    two = sampled_expectation(ansatz, params, op, shots=4000, seed=7)
    assert one == two
    assert one.shots_used > 0

    estimates = [
        sampled_expectation(ansatz, params, op, shots=20000, seed=s) for s in range(100)
    ]
    values = np.array([e.value for e in estimates])
    combined_se = math.sqrt(sum(e.std_error**2 for e in estimates)) / len(estimates)
    assert abs(values.mean() - exact) < 3 * combined_se


def test_sampled_without_grouping_agrees():
    _, _, op = chain_problem((4, 2))
    ansatz = AnsatzSpec(qubits=2, depth=1)
    params = np.linspace(0.3, 2.1, ansatz.parameter_count)
    exact = exact_expectation(prepare_state(ansatz, params), op)
    grouped = [
        sampled_expectation(ansatz, params, op, shots=20000, grouping=True, seed=s).value
        for s in range(60)
    ]
    single = [
        sampled_expectation(ansatz, params, op, shots=20000, grouping=False, seed=s).value
        for s in range(60)
    ]
    assert abs(np.mean(grouped) - exact) < 0.02
    assert abs(np.mean(single) - exact) < 0.02


def test_shot_noise_scaling():
    _, _, op = chain_problem((4, 2))
    ansatz = AnsatzSpec(qubits=2, depth=1)
    params = np.linspace(0.2, 2.8, ansatz.parameter_count)
    coarse = np.std(
        [sampled_expectation(ansatz, params, op, 5000, seed=s).value for s in range(200)]
    )
    fine = np.std(
        [
            sampled_expectation(ansatz, params, op, 20000, seed=1000 + s).value
            for s in range(200)
        ]
    )
    assert coarse / fine == pytest.approx(2.0, rel=0.2)


def test_zero_noise_matches_sampled_distribution():
    _, _, op = chain_problem((4, 2))
    ansatz = AnsatzSpec(qubits=2, depth=1)
    params = np.linspace(0.4, 2.4, ansatz.parameter_count)
    quiet = NoiseSpec(p1=0.0, p2=0.0, readout=None)
    sampled = [
        sampled_expectation(ansatz, params, op, 2000, seed=s).value for s in range(150)
    ]
    noisy = [
        noisy_expectation(
            ansatz, params, op, 2000, noise=NoiseSpec(p1=0.0, p2=0.0, readout=None), seed=s
        ).value
        for s in range(150)
    ]
    assert stats.ks_2samp(sampled, noisy).pvalue > 0.01
    assert quiet.readout_matrices(2) is None


def test_depolarizing_pulls_toward_mixed_state():
    # <Z> = 0.5 at theta = pi/3; strong depolarizing drags it toward 0
    ansatz = AnsatzSpec(qubits=1, depth=0)
    params = [math.pi / 3, 0.0]
    op = single_z()
    values = [
        noisy_expectation(
            ansatz, params, op, 20000, noise=NoiseSpec(p1=0.05, p2=0.0, readout=None), seed=s
        ).value
        for s in range(100)
    ]
    se_mean = np.std(values) / math.sqrt(len(values))
    assert np.mean(values) < 0.5 - 3 * se_mean


def test_readout_mitigation_recovers_exact_value():
    ansatz = AnsatzSpec(qubits=1, depth=0)
    params = [math.pi / 3, 0.0]
    op = single_z()
    flip = symmetric_confusion(0.02)

    mitigated = [
        noisy_expectation(
            ansatz, params, op, 20000,
            noise=NoiseSpec(p1=0.0, p2=0.0, readout=flip), mitigate=True, seed=s,
        ).value
        for s in range(60)
    ]
    raw = [
        noisy_expectation(
            ansatz, params, op, 20000,
            noise=NoiseSpec(p1=0.0, p2=0.0, readout=flip), mitigate=False, seed=s,
        ).value
        for s in range(60)
    ]
    se = np.std(mitigated) / math.sqrt(len(mitigated))
    assert abs(np.mean(mitigated) - 0.5) < 3 * se
    # unmitigated readout shrinks the expectation by 1 - 2*flip
    assert np.mean(raw) == pytest.approx(0.5 * 0.96, abs=3 * se)
    assert np.mean(raw) < np.mean(mitigated)


def test_mitigation_amplifies_shot_noise():
    ansatz = AnsatzSpec(qubits=1, depth=0)
    params = [math.pi / 3, 0.0]
    op = single_z()
    clean = np.std(
        [sampled_expectation(ansatz, params, op, 5000, seed=s).value for s in range(100)]
    )
    flipped = np.std(
        [
            noisy_expectation(
                ansatz, params, op, 5000,
                noise=NoiseSpec(p1=0.0, p2=0.0, readout=symmetric_confusion(0.15)), seed=s,
            ).value
            for s in range(100)
        ]
    )
    # inversion divides by (1 - 2*flip) = 0.7, inflating the spread
    assert flipped / clean > 1.2


def test_noisy_estimate_metadata():
    _, _, op = chain_problem((4, 2))
    ansatz = AnsatzSpec(qubits=2, depth=1)
    params = np.linspace(0.1, 1.9, ansatz.parameter_count)
    est = noisy_expectation(ansatz, params, op, 500, noise=NoiseSpec(), seed=3)
    assert est.mode == NOISY
    assert est.shots_used >= 500
    assert est.std_error > 0
    again = noisy_expectation(ansatz, params, op, 500, noise=NoiseSpec(), seed=3)
    assert est == again


def test_noisy_distributions_match_kraus_oracle():
    rng = np.random.default_rng(8)
    rates = (0.0, 1e-3, 0.2, 1.0)
    for qubits in (1, 2, 3, 4):
        labels = ["I" * qubits] + ["".join(rng.choice(list("IXYZ"), qubits)) for _ in range(5)]
        op = PauliOperator(
            qubits=qubits,
            strings=tuple(PauliString.from_label(label) for label in labels),
            coefficients=tuple(rng.normal(size=len(labels))),
        )
        flips = rng.uniform(0.0, 0.3, (qubits, 2))
        readout = tuple(((1 - e0, e0), (e1, 1 - e1)) for e0, e1 in flips)
        bases = {
            True: [
                PauliString(qubits, g.x, g.z).label
                for g in group_qubitwise_commuting(op)
                if any(not op.strings[i].is_identity for i in g.members)
            ],
            False: [s.label for s in op.strings if not s.is_identity],
        }
        for depth in (0, 1, 2):
            for shift, entangler in ((0, LINEAR), (3, FULL)):
                ansatz = AnsatzSpec(qubits=qubits, depth=depth, entangler=entangler)
                params = rng.uniform(-7.0, 7.0, ansatz.parameter_count)
                # every (p1, p2) pair of rates occurs across depths and entanglers
                for i, p1 in enumerate(rates):
                    p2 = rates[(i + depth + shift) % 4]
                    grouping = i % 2 == 0
                    noise = NoiseSpec(p1=p1, p2=p2, readout=readout)
                    plan = qsim._measurement_plan(op, grouping)[1]
                    got = qsim._noisy_distributions(ansatz, params, noise, plan)
                    assert len(got) == len(bases[grouping])
                    for basis, probs in zip(bases[grouping], got):
                        want = kraus_outcome_distribution(
                            qubits, depth, entangler, params, p1, p2, readout, basis
                        )
                        np.testing.assert_allclose(probs, want, rtol=0, atol=1e-12)


def test_exact_channel_matches_trajectory_estimator():
    # Strong noise, so faulty trajectories are a large share of the trajectory estimator's
    # shots, near |00>, where this noise moves the energy by about 0.45: an exact channel
    # with p2 swapped for p1 fails the KS test here.
    _, _, op = chain_problem((4, 2))
    ansatz = AnsatzSpec(qubits=2, depth=1)
    params = np.linspace(-0.3, 0.3, ansatz.parameter_count)
    old = [
        trajectory_noisy_expectation(
            ansatz, params, op, 100, NoiseSpec(p1=0.02, p2=0.1), seed=s
        )
        for s in range(300)
    ]
    new = [
        noisy_expectation(
            ansatz, params, op, 100, NoiseSpec(p1=0.02, p2=0.1), seed=1000 + s
        ).value
        for s in range(300)
    ]
    assert stats.ks_2samp(old, new).pvalue > 0.01
    assert stats.levene(old, new).pvalue > 0.01


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(p1=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(p2=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(readout=((0.7, 0.2), (0.2, 0.8)))
    with pytest.raises(ValueError):
        symmetric_confusion(1.2)
    singular = NoiseSpec(p1=0.0, p2=0.0, readout=symmetric_confusion(0.5))
    _, _, op = chain_problem((4, 2))
    with pytest.raises(ValueError):
        noisy_expectation(
            AnsatzSpec(qubits=2), np.zeros(8), op, 10, noise=singular
        )


def test_embedding_reproduces_smaller_register():
    rng = np.random.default_rng(17)
    for entangler in (LINEAR, FULL):
        small = AnsatzSpec(qubits=2, depth=1, entangler=entangler)
        big = AnsatzSpec(qubits=3, depth=1, entangler=entangler)
        params = rng.uniform(0, 2 * math.pi, small.parameter_count)
        lifted = embed_params(small, params)
        assert lifted.size == big.parameter_count
        phi = prepare_state(small, params)
        psi = prepare_state(big, lifted)
        assert np.allclose(psi[: phi.size], phi, atol=1e-12)
        assert np.allclose(psi[phi.size :], 0.0, atol=1e-12)


def test_embedding_preserves_objective_along_ladder():
    rng = np.random.default_rng(23)
    _, _, op2 = chain_problem((4, 2))
    _, _, op3 = chain_problem((4, 4))
    _, _, op4 = chain_problem((8, 4))
    a2 = AnsatzSpec(qubits=2, depth=1)
    a3 = AnsatzSpec(qubits=3, depth=1)
    a4 = AnsatzSpec(qubits=4, depth=1)
    for _ in range(5):
        p2 = rng.uniform(0, 2 * math.pi, a2.parameter_count)
        v2 = exact_expectation(prepare_state(a2, p2), op2)
        p3 = embed_params(a2, p2)
        v3 = exact_expectation(prepare_state(a3, p3), op3)
        assert v3 == pytest.approx(v2, abs=1e-12)
        p4 = embed_params(a3, p3)
        v4 = exact_expectation(prepare_state(a4, p4), op4)
        assert v4 == pytest.approx(v3, abs=1e-12)
    with pytest.raises(ValueError):
        embed_params(a2, np.zeros(5))


def test_bitstring_sampling_and_dump():
    state = np.array([0.0, 0.0, 1.0, 0.0])  # |10> on two qubits
    samples = sample_bitstrings(state, shots=5, seed=0)
    assert list(samples) == [2] * 5
    dump = format_bitstrings(samples, qubits=2)
    assert dump == "10\n10\n10\n10\n10\n"
    a = sample_bitstrings(np.ones(4) / 2.0, 64, seed=9)
    b = sample_bitstrings(np.ones(4) / 2.0, 64, seed=9)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        sample_bitstrings(state, 0)
