import cmath
import math
import tracemalloc

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
from rotorvqe.driver import build_problem
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
    AnsatzSpec,
    NoiseSpec,
    embed_params,
    entangler_pairs,
    format_bitstrings,
    prepare_state,
    prepare_states,
    sample_bitstrings,
    symmetric_confusion,
)

from oracles import (
    exact_expectation,
    gather_sampled_expectations,
    kraus_outcome_distributions,
    pauli_string,
    serial_noisy_distributions,
    serial_prepare_state,
    serial_sampled_expectation,
    trajectory_noisy_expectation,
)

LADDER = ((4, 2), (4, 4), (8, 4))
CHAIN = ChainSpec(
    dihedrals=(DihedralSpec(BISTABLE, 0.5), DihedralSpec(MONOSTABLE, 1.0)),
    diffusion=(1.0, 1.0, 1.0),
)


def chain_problem(kept):
    ladder = tuple(r for r in LADDER if all(a <= b for a, b in zip(r, kept)))
    basis = build_composite_basis(CHAIN, kept, ladder=ladder if kept in LADDER else None)
    matrix = pad_matrix(build_chain_matrix(basis), basis.qubits)
    return basis, matrix, map_operator(matrix)


def single_z(coef=1.0):
    return PauliOperator(
        qubits=1, strings=(pauli_string("Z"),), coefficients=(coef,)
    )


def generators(seeds) -> list:
    """A fresh `default_rng(seed)` per seed."""
    return [np.random.default_rng(seed) for seed in seeds]


def every_run(count) -> np.ndarray:
    """runs[count], row k drawn from stream k."""
    return np.arange(count)


def one_stream(count) -> np.ndarray:
    """runs[count], every row drawn from stream 0."""
    return np.zeros(count, dtype=np.intp)


def seeded_estimate(ansatz, points, op, shots, seeds, noise=None, mitigate=True, grouping=True):
    """`qsim._estimate` of op's plan, estimate k from a fresh `default_rng(seeds[k])`: (value[K], variance[K])."""
    plan = qsim._measurement_plan(op, grouping)
    return qsim._estimate(ansatz, points, plan, shots, generators(seeds), every_run(len(seeds)), noise, mitigate)


def _bits(value, variance) -> list:
    """Each estimate's value and standard error, as exact hex strings."""
    return [(v.hex(), math.sqrt(e).hex()) for v, e in zip(value.tolist(), variance.tolist())]


def hexes(values) -> list:
    """Every entry of values, as exact hex strings."""
    return [v.hex() for v in np.ravel(values).tolist()]


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
    zi = PauliOperator(qubits=2, strings=(pauli_string("ZI"),), coefficients=(1.0,))
    iz = PauliOperator(qubits=2, strings=(pauli_string("IZ"),), coefficients=(1.0,))
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
        # +-0 angles can leave a part exactly 0, whose sign alone may differ
        serial = serial_prepare_state(qubits, depth, entangler, row)
        assert (state + 0.0).tobytes() == (serial + 0.0).tobytes()
    # the gate angles go through numpy's cos/sin; bit identity with the
    # single-state gates needs them to agree with math and cmath
    angles = params.ravel()
    half = angles / 2.0
    assert np.cos(half).tolist() == [math.cos(h) for h in half]
    assert np.sin(half).tolist() == [math.sin(h) for h in half]
    phases = [cmath.exp(-0.5j * theta) for theta in angles]
    assert np.cos(-half).tolist() == [p.real for p in phases]
    assert np.sin(-half).tolist() == [p.imag for p in phases]


def zero_angle_rows(ansatz, rng):
    """Rows whose gates leave parts exactly 0: all +0, all -0, and generic rows with +-0 angles.

    The +-0 angles fall on Ry slots in half the rows and on Rz slots in the rest.
    """
    count, qubits = ansatz.parameter_count, ansatz.qubits
    slots = np.arange(count).reshape(-1, 2, qubits)
    rows = [np.zeros(count), np.full(count, -0.0)]
    for kind in (0, 1, 0, 1):
        row = rng.uniform(-7.0, 7.0, count)
        picked = rng.choice(slots[:, kind].ravel(), size=max(1, qubits // 2), replace=False)
        row[picked] = rng.choice([0.0, -0.0], size=len(picked))
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("entangler", [LINEAR, FULL])
@pytest.mark.parametrize("qubits", [1, 2, 3, 4])
def test_prepare_states_zero_angles_match_single_states_bit_for_bit(qubits, entangler):
    # the batched program skips x * 0 terms, so a part that ends exactly 0
    # may differ from the full 2x2 products in its sign alone; + 0.0 maps
    # -0.0 to 0.0 and keeps every other bit
    rng = np.random.default_rng(qubits)
    for depth in (0, 1, 2):
        ansatz = AnsatzSpec(qubits=qubits, depth=depth, entangler=entangler)
        generic = rng.uniform(-50.0, 50.0, (3, ansatz.parameter_count))
        zeros = zero_angle_rows(ansatz, rng)
        # zero and generic rows interleaved in one batch
        rows = np.concatenate((generic, zeros))[rng.permutation(len(generic) + len(zeros))]
        states = prepare_states(ansatz, rows)
        assert (states.view(float) == 0.0).any()
        for row, state in zip(rows, states):
            assert state.tobytes() == prepare_state(ansatz, row).tobytes()
            serial = serial_prepare_state(qubits, depth, entangler, row)
            assert (state + 0.0).tobytes() == (serial + 0.0).tobytes()


@pytest.mark.parametrize("entangler", [LINEAR, FULL])
def test_prepare_states_generic_rows_match_serial_states_bit_for_bit(entangler):
    rng = np.random.default_rng(23)
    for qubits in (1, 2, 3, 4):
        for depth in (0, 1, 2):
            ansatz = AnsatzSpec(qubits=qubits, depth=depth, entangler=entangler)
            rows = rng.uniform(-50.0, 50.0, (5, ansatz.parameter_count))
            for row, state in zip(rows, prepare_states(ansatz, rows)):
                assert state.tobytes() == serial_prepare_state(qubits, depth, entangler, row).tobytes()
            assert prepare_states(ansatz, rows[:0]).shape == (0, 1 << qubits)
    # a calibration-sized batch, where numpy 2.4.6's strided np.negative(out=) went wrong
    ansatz = AnsatzSpec(qubits=4, depth=1, entangler=entangler)
    rows = rng.uniform(0.0, 2.0 * math.pi, (3000, ansatz.parameter_count))
    expected = np.array([serial_prepare_state(4, 1, entangler, row) for row in rows])
    assert prepare_states(ansatz, rows).tobytes() == expected.tobytes()


@pytest.mark.parametrize("entangler", [LINEAR, FULL])
def test_prepare_states_block_edges_match_single_states_bit_for_bit(entangler):
    # batches on either side of one, two and many row blocks; each row is
    # drawn from a pool of 300 (generic, +-0 and +-pi angles), so that the
    # lone and serial references are each run once per pool row
    block = qsim._STATE_ROWS
    rng = np.random.default_rng(31)
    for qubits in (1, 2, 3, 4, 5):
        ansatz = AnsatzSpec(qubits=qubits, depth=1, entangler=entangler)
        pool = rng.uniform(-50.0, 50.0, (300, ansatz.parameter_count))
        special = rng.random(pool.shape) < 0.2
        pool[special] = rng.choice([0.0, -0.0, math.pi, -math.pi], size=special.sum())
        pool[:4] = [[0.0], [-0.0], [math.pi], [-math.pi]]
        alone = np.array([prepare_state(ansatz, row) for row in pool])
        serial = np.array([serial_prepare_state(qubits, 1, entangler, row) for row in pool])
        for size in (block - 1, block, block + 1, 2 * block + 1, 3000):
            picks = rng.integers(len(pool), size=size)
            states = prepare_states(ansatz, pool[picks])
            assert states.flags.c_contiguous
            assert states.tobytes() == alone[picks].tobytes()
            assert (states + 0.0).tobytes() == (serial[picks] + 0.0).tobytes()


def test_cached_programs_are_read_only():
    # every lru-cached program, and each plan a problem keeps, hands the
    # same arrays to every caller
    def arrays(item):
        if isinstance(item, np.ndarray):
            yield item
        elif isinstance(item, (tuple, list, dict)):
            for part in item.values() if isinstance(item, dict) else item:
                yield from arrays(part)
        elif hasattr(item, "__dataclass_fields__"):
            yield from arrays([getattr(item, name) for name in item.__dataclass_fields__])

    problem = build_problem(CHAIN, (4, 2))
    noise = NoiseSpec(readout=[symmetric_confusion(0.02), symmetric_confusion(0.05)])
    plan = problem._plan(True)
    cached = [plan, problem._plan(False), qsim._BASIS_CHANGES]
    cached += [qsim._confusion(noise, 2), qsim._confusion(noise, 2, True)]
    for qubits, depth, entangler in ((1, 0, LINEAR), (2, 1, LINEAR), (3, 2, FULL)):
        ansatz = AnsatzSpec(qubits=qubits, depth=depth, entangler=entangler)
        cached += [qsim._state_program(ansatz), qsim._pauli_program(ansatz)]
    found = list(arrays(cached))
    # the shared basis changes, the plan's Pauli gather and every CNOT's
    # source, sign and touched tables among them
    assert any(array is qsim._BASIS_CHANGES for array in found)
    assert any(array is plan.paulis[0] for array in found)
    assert len(found) > 40
    assert not any(array.flags.writeable for array in found)


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
    # each setting's outcome total, its trace, is the noisy norm, so noisy mode fails alike
    _, _, op = chain_problem((4, 2))
    with pytest.raises(RuntimeError, match="norm drifted"):
        seeded_estimate(ansatz, batch, op, 100, [1, 2, 3], NoiseSpec())


def test_exact_expectation_basics():
    zero = np.array([1.0, 0.0])
    assert exact_expectation(zero, single_z()) == pytest.approx(1.0)
    plus = prepare_state(AnsatzSpec(qubits=1, depth=0), [math.pi / 2, 0.0])
    x_op = PauliOperator(qubits=1, strings=(pauli_string("X"),), coefficients=(1.0,))
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
    # no setting to measure: both modes' distribution tables have an empty settings axis
    op = PauliOperator(qubits=2, strings=(pauli_string("II"),), coefficients=(3.7,))
    points = np.linspace(0.1, 1.5, 16).reshape(2, 8)
    assert len(qsim._measurement_plan(op, True).outcomes) == 0
    for noise in (None, NoiseSpec()):
        value, variance = seeded_estimate(AnsatzSpec(qubits=2), points, op, 100, [1, 2], noise)
        assert value.tolist() == pytest.approx([3.7, 3.7])
        assert variance.tolist() == [0.0, 0.0]


def test_measurement_bases_read_their_eigenstates_as_one():
    # every chain operator has an even number of Y letters, so a flipped
    # Y-basis sign cancels there; one qubit pins X, Y and Z each alone
    ansatz = AnsatzSpec(qubits=1, depth=0)
    eigenstates = {"Z": [0.0, 0.0], "X": [math.pi / 2, 0.0], "Y": [math.pi / 2, math.pi / 2]}
    for letter, params in eigenstates.items():
        op = PauliOperator(qubits=1, strings=(pauli_string(letter),), coefficients=(1.0,))
        for noise in (None, NoiseSpec(0.0, 0.0, None)):
            for shots in (1, 20000):
                value, variance = seeded_estimate(ansatz, [params], op, shots, range(3), noise)
                assert value.tolist() == [1.0, 1.0, 1.0], (letter, noise, shots)
                assert variance.tolist() == [0.0, 0.0, 0.0], (letter, noise, shots)


# how far a noisy distribution table may lie from serial_noisy_distributions
NOISY_TABLE_TOL = 1e-14


@settings(max_examples=60, deadline=None)
@given(
    qubits=st.integers(1, 4),
    depth=st.integers(0, 2),
    entangler=st.sampled_from([LINEAR, FULL]),
    grouping=st.booleans(),
    batch=st.sampled_from([1, 2, 37]),
    noisy=st.booleans(),
    data=st.data(),
)
def test_sampled_expectations_rows_match_single_estimates_bit_for_bit(
    qubits, depth, entangler, grouping, batch, noisy, data
):
    noise, mitigate = None, True
    if noisy:
        rates = st.sampled_from([0.0, 1e-3, 0.2])
        flips = st.lists(st.tuples(st.floats(0, 0.3), st.floats(0, 0.3)), min_size=qubits, max_size=qubits)
        readout = data.draw(st.none() | flips.map(lambda f: tuple(((1 - a, a), (b, 1 - b)) for a, b in f)))
        noise = NoiseSpec(p1=data.draw(rates), p2=data.draw(rates), readout=readout)
        mitigate = data.draw(st.booleans())
    ansatz = AnsatzSpec(qubits=qubits, depth=depth, entangler=entangler)
    labels = data.draw(
        st.lists(st.text("IXYZ", min_size=qubits, max_size=qubits), min_size=1, max_size=12, unique=True)
    )
    coefficients = data.draw(st.lists(st.floats(-3, 3), min_size=len(labels), max_size=len(labels)))
    op = PauliOperator(
        qubits=qubits,
        strings=tuple(pauli_string(label) for label in labels),
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

    def estimate(rows, row_seeds):
        return _bits(*seeded_estimate(ansatz, rows, op, shots, row_seeds, noise, mitigate, grouping))

    rows = estimate(points, seeds)
    shuffled = estimate(points[order], [seeds[i] for i in order])
    # one row shared by every seed is that row tiled once per seed
    shared = estimate(points[:1], seeds)
    tiled = estimate(np.repeat(points[:1], batch, axis=0), seeds)
    assert len(rows) == len(shared) == batch
    assert shared == tiled
    assert shared[0] == rows[0]
    if noisy:
        # the Pauli components sum a row's terms in another order than the
        # serial density-matrix evolution; the largest gap seen was 4.4e-16
        plan = qsim._measurement_plan(op, grouping)
        table = qsim._distributions(ansatz, points, plan, noise)
        for row, probs in zip(points, table):
            want = serial_noisy_distributions(ansatz, row, noise, plan.bases)
            np.testing.assert_allclose(probs, want, rtol=0, atol=NOISY_TABLE_TOL)
    else:
        gathered = gather_sampled_expectations(ansatz, points, op, shots, seeds, grouping=grouping)
        assert rows == _bits(*gathered)
    for b in range(batch):
        (alone,) = estimate(points[b : b + 1], [seeds[b]])
        assert rows[b] == alone
        assert shuffled[order.index(b)] == alone
        if not noisy:
            value, std_error, _ = serial_sampled_expectation(
                ansatz, points[b], op, shots, grouping=grouping, seed=seeds[b]
            )
            assert alone == (value.hex(), std_error.hex())


def test_distribution_tables_run_in_bounded_blocks(monkeypatch):
    # 200 noisy rows of 30 settings at 4 qubits peak at about 2.5 MB as blocks
    # of Pauli components and outcome gathers, and the sampled table's state
    # blocks at about 5 MB, so a table that held more per row shows here
    rng = np.random.default_rng(3)
    labels = sorted({"".join(rng.choice(list("XYZ"), 4)) for _ in range(40)})[:30]
    op = PauliOperator(
        qubits=4,
        strings=tuple(pauli_string(label) for label in labels),
        coefficients=tuple(rng.normal(size=len(labels))),
    )
    ansatz = AnsatzSpec(qubits=4)
    plan = qsim._measurement_plan(op, False)
    rows = rng.uniform(-3, 3, (200, ansatz.parameter_count))
    qsim._distributions(ansatz, rows[:1], plan, NoiseSpec())
    tracemalloc.start()
    try:
        qsim._distributions(ansatz, rows, plan, NoiseSpec())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    # a row's distributions do not depend on where the blocks split
    for noise in (None, NoiseSpec()):
        blocked = qsim._distributions(ansatz, rows[:40], plan, noise)
        monkeypatch.setattr(qsim, "_BLOCK_ENTRIES", 1)
        assert np.array_equal(qsim._distributions(ansatz, rows[:40], plan, noise), blocked)
        monkeypatch.undo()


def test_sampled_expectations_validation():
    ansatz = AnsatzSpec(qubits=1, depth=0)
    points = np.zeros((3, 2))
    with pytest.raises(ValueError, match="one run per point"):
        seeded_estimate(ansatz, points, single_z(), 10, [1, 2])
    with pytest.raises(ValueError, match="one run per point"):
        seeded_estimate(ansatz, points[:2], single_z(), 10, [1], noise=NoiseSpec())
    with pytest.raises(ValueError, match="one run per point"):
        seeded_estimate(ansatz, points[:1], single_z(), 10, [])
    with pytest.raises(ValueError):
        seeded_estimate(ansatz, np.zeros((3, 3)), single_z(), 10, [1, 2, 3])
    with pytest.raises(ValueError):
        seeded_estimate(ansatz, np.zeros(2), single_z(), 10, [1], noise=NoiseSpec())
    with pytest.raises(ValueError):
        seeded_estimate(ansatz, points, single_z(), 0, [1, 2, 3])


def test_estimate_refuses_a_plan_of_another_register():
    # a plan holds no operator: its outcome table, empty or not, gives its register
    identity = PauliOperator(qubits=2, strings=(pauli_string("II"),), coefficients=(1.0,))
    for op, qubits in ((single_z(), 2), (identity, 1)):
        plan = qsim._measurement_plan(op, True)
        ansatz = AnsatzSpec(qubits=qubits, depth=0)
        with pytest.raises(ValueError, match="ansatz and operator registers differ"):
            qsim._estimate(ansatz, np.zeros((1, ansatz.parameter_count)), plan, 10, generators([1]), one_stream(1))


# seeds at the uint64 edges, where SeedSequence splits an integer into one
# 32-bit word or two
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1)
RUN_SEEDS = EDGE_SEEDS + tuple(range(1, 8))


@pytest.mark.parametrize("noisy, mitigate", [(False, True), (True, True), (True, False)])
@pytest.mark.parametrize("grouping", [True, False])
def test_array_core_matches_estimates_bit_for_bit(noisy, mitigate, grouping):
    # rows that share a generator, as a run's rows in a lockstep batch do,
    # draw from it in row order: each value is the one its row estimated
    # alone gets from its generator's state
    _, _, op = chain_problem((4, 4))
    ansatz = AnsatzSpec(qubits=3)
    noise = NoiseSpec(p1=0.01, p2=0.03, readout=symmetric_confusion(0.05)) if noisy else None
    rows = np.random.default_rng(29).uniform(-7.0, 7.0, (12, ansatz.parameter_count))
    plan = qsim._measurement_plan(op, grouping)
    for runs in (1, 3, 12):
        # one row per estimate, and one row every estimate shares
        for points in (rows, rows[:1]):
            streams = generators(RUN_SEEDS[:runs])
            value, variance = qsim._estimate(ansatz, points, plan, 777, streams, every_run(12) % runs, noise, mitigate)
            assert value.shape == variance.shape == (12,)
            streams = generators(RUN_SEEDS[:runs])
            alone = [
                qsim._estimate(ansatz, points[k % len(points)][None, :], plan, 777, [streams[k % runs]], one_stream(1), noise, mitigate)
                for k in range(12)
            ]
            assert _bits(value, variance) == [_bits(*estimate)[0] for estimate in alone]


@pytest.mark.parametrize("kept", LADDER)
@pytest.mark.parametrize("grouping", [True, False])
def test_tally_of_stacked_counts_matches_each_slice_bit_for_bit(kept, grouping):
    # a distribution study tallies its modes' counts stacked in one call:
    # every slice's values and variances are those it gets tallied alone,
    # for drawn integer counts and mitigated float counts alike
    _, _, op = chain_problem(kept)
    ansatz = AnsatzSpec(qubits=op.qubits)
    plan = qsim._measurement_plan(op, grouping)
    noise = NoiseSpec(p1=0.01, p2=0.03, readout=symmetric_confusion(0.05))
    row = np.random.default_rng(sum(kept)).uniform(-7.0, 7.0, (1, ansatz.parameter_count))
    for shots in (1, 777, 20000):
        drawn = qsim._counts(generators(range(5)), every_run(5), shots, qsim._distributions(ansatz, row, plan, None))
        assert drawn.dtype == np.int64
        slices = [
            drawn,
            qsim._shot_counts(ansatz, row, plan, shots, generators(range(5, 10)), every_run(5)),
            qsim._shot_counts(ansatz, row, plan, shots, generators(range(10, 15)), every_run(5), noise),
            qsim._shot_counts(ansatz, row, plan, shots, generators(range(15, 20)), every_run(5), noise, False),
        ]
        value, variance = qsim._tally(np.stack(slices), plan, shots)
        assert value.shape == variance.shape == (len(slices), 5)
        for k, counts in enumerate(slices):
            want_value, want_variance = qsim._tally(counts, plan, shots)
            assert hexes(value[k]) == hexes(want_value)
            assert hexes(variance[k]) == hexes(want_variance)


@pytest.mark.parametrize("settings_count", [1, 8, 9, 36])
def test_counts_match_default_rng_multinomial(settings_count):
    # one 1-D draw per setting up to qsim._ROW_DRAWS settings, one 2-D draw
    # past it; numpy's own 2-D draw is the reference, from a generator per
    # row, or from one generator that every row shares, in row order
    rng = np.random.default_rng(settings_count)
    seeds = list(EDGE_SEEDS) + rng.integers(0, 2**63, 30).tolist()
    for rows in (seeds[:1], seeds[4:], seeds[:4], seeds[2:], seeds):
        for outcomes in (2, 16):
            tables = rng.dirichlet(np.ones(outcomes), size=(len(rows), settings_count))
            tables[:, 0, : outcomes // 2] = 0.0
            tables[:, 0] /= tables[:, 0].sum(axis=-1, keepdims=True)
            for shots in (1, 777, 20000):
                # one table per row, or one that every row shares
                for probs in (tables, tables[:1]):
                    counts = qsim._counts(generators(rows), every_run(len(rows)), shots, probs)
                    assert counts.dtype == np.int64
                    want = [
                        np.random.default_rng(seed).multinomial(shots, probs[k % len(probs)])
                        for k, seed in enumerate(rows)
                    ]
                    assert np.array_equal(counts, np.reshape(want, counts.shape))
                    shared = np.random.default_rng(rows[0])
                    counts = qsim._counts([shared], one_stream(len(rows)), shots, probs)
                    shared = np.random.default_rng(rows[0])
                    want = [shared.multinomial(shots, probs[k % len(probs)]) for k in range(len(rows))]
                    assert np.array_equal(counts, np.reshape(want, counts.shape))


class CountingGenerator:
    """`default_rng(seed)` that counts its multinomial calls and keeps the last tables drawn."""

    def __init__(self, seed):
        self.rng, self.calls, self.pvals = np.random.default_rng(seed), 0, None

    def multinomial(self, n, pvals):
        self.calls += 1
        self.pvals = pvals
        return self.rng.multinomial(n, pvals)


@pytest.mark.parametrize("settings_count", [1, 2, 9])
def test_one_generator_draws_all_its_rows_in_one_call(settings_count):
    # a distribution study's mode draws every repetition from its one stream:
    # it makes one multinomial call on the tables as given (no gathered
    # copy), and its counts are one call per row, in row order
    rng = np.random.default_rng(settings_count)
    for outcomes in (4, 16):
        tables = rng.dirichlet(np.ones(outcomes), size=(50, settings_count))
        for shots in (1, 777, 20000):
            # one table per row, or one that every row shares
            for probs in (tables, tables[:1]):
                spy = CountingGenerator(7)
                counts = qsim._counts([spy], one_stream(50), shots, probs)
                assert spy.calls == 1
                assert np.shares_memory(spy.pvals, probs)
                assert counts.dtype == np.int64 and counts.shape == (50, settings_count, outcomes)
                fresh = np.random.default_rng(7)
                want = [fresh.multinomial(shots, probs[k % len(probs)]) for k in range(50)]
                assert np.array_equal(counts, np.reshape(want, counts.shape))


@pytest.mark.parametrize("settings_count", [0, 1, 4, 8, 9, 72])
def test_each_generator_draws_all_its_rows_in_one_call(settings_count):
    # rows belong to runs 0, 1, 0, 1, 0, 2 of three streams: the interleaved
    # rows of a two-run lockstep call, then a run alone; or to runs 2, 0, 2,
    # out of order and leaving stream 1 out, as in a Nelder-Mead round after
    # run 1 has ended.  At S settings a run with n rows draws nS tables, so
    # S = 1, 4, 8, 9 and 72 give each side of qsim._ROW_DRAWS to every run.
    # Past it a stream makes one call, else one per table; either way each
    # row's counts are one multinomial call per row, in row order, from a
    # fresh generator, and a stream with no rows draws nothing
    seeds = (2**64 - 1, 0, 12345)
    rng = np.random.default_rng(settings_count)
    for runs in ([0, 1, 0, 1, 0, 2], [2, 0, 2]):
        for outcomes in (2, 4, 16):
            tables = rng.dirichlet(np.ones(outcomes), size=(len(runs), settings_count))
            for shots in (1, 777, 20000):
                # one table per row, or one that every row shares
                for probs in (tables, tables[:1]):
                    spies = [CountingGenerator(seed) for seed in seeds]
                    counts = qsim._counts(spies, np.array(runs), shots, probs)
                    assert counts.dtype == np.int64
                    assert counts.shape == (len(runs), settings_count, outcomes)
                    fresh = generators(seeds)
                    want = [fresh[run].multinomial(shots, probs[k % len(probs)]) for k, run in enumerate(runs)]
                    assert np.array_equal(counts, np.reshape(want, counts.shape))
                    for run, spy in enumerate(spies):
                        drawn = runs.count(run) * settings_count
                        assert spy.calls == (1 if drawn > qsim._ROW_DRAWS else drawn)


def test_list_readout_noise_spec_estimates():
    # a NoiseSpec keeps its readout as nested tuples, so it is hashable (the
    # register confusion is cached per spec) however the readout was given
    def tuples(x):
        return tuple(map(tuples, x)) if np.ndim(x) else float(x)

    _, _, op = chain_problem((4, 2))
    ansatz = AnsatzSpec(qubits=2, depth=1)
    params = np.random.default_rng(8).uniform(0, 2 * math.pi, (3, ansatz.parameter_count))
    flips = [[0.97, 0.03], [0.05, 0.95]]
    for readout in (flips, [flips, [[0.9, 0.1], [0.0, 1.0]]], np.array(flips)):
        given = NoiseSpec(p1=0.01, p2=0.02, readout=readout)
        nested = NoiseSpec(p1=0.01, p2=0.02, readout=tuples(readout))
        assert given.readout == nested.readout == tuples(readout)
        assert given == nested and hash(given) == hash(nested)
        for mitigate in (True, False):
            got = seeded_estimate(ansatz, params, op, 500, [1, 2, 3], given, mitigate)
            assert got[0].shape == got[1].shape == (3,)
            want = seeded_estimate(ansatz, params, op, 500, [1, 2, 3], nested, mitigate)
            assert _bits(*got) == _bits(*want)


def test_sampled_expectations_checks_seed_count_before_preparing_states(monkeypatch):
    def prepare(*args):
        raise AssertionError("states prepared before the seed count was checked")

    for name in ("prepare_states", "_evolved"):
        monkeypatch.setattr(qsim, name, prepare)
    with pytest.raises(ValueError, match="one run per point"):
        seeded_estimate(AnsatzSpec(qubits=1, depth=0), np.zeros((3, 2)), single_z(), 10, [1, 2])


def test_sampled_expectation_reproducible_and_unbiased():
    _, matrix, op = chain_problem((4, 2))
    ansatz = AnsatzSpec(qubits=2, depth=1)
    rng = np.random.default_rng(42)
    params = rng.uniform(0, 2 * math.pi, ansatz.parameter_count)
    exact = exact_expectation(prepare_state(ansatz, params), op)

    one, two = _bits(*seeded_estimate(ansatz, params[None, :], op, 4000, [7, 7]))
    assert one == two
    assert len(qsim._measurement_plan(op, True).outcomes) > 0

    values, variances = seeded_estimate(ansatz, params[None, :], op, 20000, range(100))
    combined_se = math.sqrt(sum(variances.tolist())) / len(values)
    assert abs(values.mean() - exact) < 3 * combined_se


def test_sampled_without_grouping_agrees():
    _, _, op = chain_problem((4, 2))
    ansatz = AnsatzSpec(qubits=2, depth=1)
    params = np.linspace(0.3, 2.1, ansatz.parameter_count)
    exact = exact_expectation(prepare_state(ansatz, params), op)
    grouped, _ = seeded_estimate(ansatz, params[None, :], op, 20000, range(60), grouping=True)
    single, _ = seeded_estimate(ansatz, params[None, :], op, 20000, range(60), grouping=False)
    assert abs(np.mean(grouped) - exact) < 0.02
    assert abs(np.mean(single) - exact) < 0.02


def test_shot_noise_scaling():
    _, _, op = chain_problem((4, 2))
    ansatz = AnsatzSpec(qubits=2, depth=1)
    params = np.linspace(0.2, 2.8, ansatz.parameter_count)
    coarse = np.std(seeded_estimate(ansatz, params[None, :], op, 5000, range(200))[0])
    fine = np.std(seeded_estimate(ansatz, params[None, :], op, 20000, range(1000, 1200))[0])
    assert coarse / fine == pytest.approx(2.0, rel=0.2)


def test_zero_noise_matches_sampled_distribution():
    _, _, op = chain_problem((4, 2))
    ansatz = AnsatzSpec(qubits=2, depth=1)
    params = np.linspace(0.4, 2.4, ansatz.parameter_count)
    quiet = NoiseSpec(p1=0.0, p2=0.0, readout=None)
    sampled, _ = seeded_estimate(ansatz, params[None, :], op, 2000, range(150))
    noisy, _ = seeded_estimate(ansatz, params[None, :], op, 2000, range(150), noise=quiet)
    assert stats.ks_2samp(sampled, noisy).pvalue > 0.01
    assert quiet.readout_matrices(2) is None


def test_depolarizing_pulls_toward_mixed_state():
    # <Z> = 0.5 at theta = pi/3; strong depolarizing drags it toward 0
    ansatz = AnsatzSpec(qubits=1, depth=0)
    params = [[math.pi / 3, 0.0]]
    op = single_z()
    values, _ = seeded_estimate(
        ansatz, params, op, 20000, range(100), noise=NoiseSpec(p1=0.05, p2=0.0, readout=None)
    )
    se_mean = np.std(values) / math.sqrt(len(values))
    assert np.mean(values) < 0.5 - 3 * se_mean


def test_readout_mitigation_recovers_exact_value():
    ansatz = AnsatzSpec(qubits=1, depth=0)
    params = [[math.pi / 3, 0.0]]
    op = single_z()
    noise = NoiseSpec(p1=0.0, p2=0.0, readout=symmetric_confusion(0.02))

    mitigated, _ = seeded_estimate(ansatz, params, op, 20000, range(60), noise, mitigate=True)
    raw, _ = seeded_estimate(ansatz, params, op, 20000, range(60), noise, mitigate=False)
    se = np.std(mitigated) / math.sqrt(len(mitigated))
    assert abs(np.mean(mitigated) - 0.5) < 3 * se
    # unmitigated readout shrinks the expectation by 1 - 2*flip
    assert np.mean(raw) == pytest.approx(0.5 * 0.96, abs=3 * se)
    assert np.mean(raw) < np.mean(mitigated)


def test_mitigation_amplifies_shot_noise():
    ansatz = AnsatzSpec(qubits=1, depth=0)
    params = [[math.pi / 3, 0.0]]
    op = single_z()
    clean = np.std(seeded_estimate(ansatz, params, op, 5000, range(100))[0])
    flipped = np.std(
        seeded_estimate(
            ansatz, params, op, 5000, range(100),
            noise=NoiseSpec(p1=0.0, p2=0.0, readout=symmetric_confusion(0.15)),
        )[0]
    )
    # inversion divides by (1 - 2*flip) = 0.7, inflating the spread
    assert flipped / clean > 1.2


def test_noisy_estimate_metadata():
    _, _, op = chain_problem((4, 2))
    ansatz = AnsatzSpec(qubits=2, depth=1)
    params = np.linspace(0.1, 1.9, ansatz.parameter_count)[None, :]
    value, variance = seeded_estimate(ansatz, params, op, 500, [3, 3], noise=NoiseSpec())
    est, again = _bits(value, variance)
    assert len(qsim._measurement_plan(op, True).outcomes) * 500 >= 500
    assert math.sqrt(variance[0]) > 0
    assert est == again


def test_noisy_distributions_match_kraus_oracle():
    rng = np.random.default_rng(8)
    # rows with angles exactly 0 turn component pairs by exact cos 0 and sin 0;
    # their own generator leaves the generic rows as they were
    zero_rng = np.random.default_rng(80)
    rates = (0.0, 1e-3, 0.2, 1.0)
    for qubits in (1, 2, 3, 4):
        labels = ["I" * qubits] + ["".join(rng.choice(list("IXYZ"), qubits)) for _ in range(5)]
        op = PauliOperator(
            qubits=qubits,
            strings=tuple(pauli_string(label) for label in labels),
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
                rows = [rng.uniform(-7.0, 7.0, (3, ansatz.parameter_count))]
                rows.append(zero_angle_rows(ansatz, zero_rng))
                if qubits > 1:
                    # a warm start: the new qubit 1 at zero angles stays |0>
                    smaller = AnsatzSpec(qubits=qubits - 1, depth=depth, entangler=entangler)
                    start = zero_rng.uniform(-7.0, 7.0, smaller.parameter_count)
                    rows.append([embed_params(smaller, start)])
                rows = np.concatenate(rows)
                # every (p1, p2) pair of rates occurs across depths and entanglers
                for i, p1 in enumerate(rates):
                    p2 = rates[(i + depth + shift) % 4]
                    grouping = i % 2 == 0
                    noise = NoiseSpec(p1=p1, p2=p2, readout=readout)
                    plan = qsim._measurement_plan(op, grouping)
                    table = qsim._distributions(ansatz, rows, plan, noise)
                    assert table.shape == (len(rows), len(bases[grouping]), 1 << qubits)
                    for params, got in zip(rows, table):
                        want = kraus_outcome_distributions(
                            qubits, depth, entangler, params, p1, p2, readout, bases[grouping]
                        )
                        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
                        want = serial_noisy_distributions(ansatz, params, noise, plan.bases)
                        np.testing.assert_allclose(got, want, rtol=0, atol=NOISY_TABLE_TOL)


def test_noisy_counts_match_serial_table_counts():
    # the tables lie within NOISY_TABLE_TOL of the serial density-matrix
    # evolution's; on generic rows no count drawn from them moves
    rng = np.random.default_rng(31)
    models = (
        NoiseSpec(),
        NoiseSpec(p1=0.01, p2=0.05, readout=None),
        NoiseSpec(p1=0.2, p2=0.0, readout=((0.9, 0.1), (0.05, 0.95))),
    )
    for kept in ((4, 2), (4, 4), (8, 4)):
        _, _, op = chain_problem(kept)
        ansatz = AnsatzSpec(qubits=op.qubits, entangler=FULL if kept == (4, 4) else LINEAR)
        plan = qsim._measurement_plan(op, kept != (4, 4))
        rows = rng.uniform(-7.0, 7.0, (6, ansatz.parameter_count))
        seeds = rng.integers(0, 2**63, 6, dtype=np.uint64).tolist()
        for noise in models:
            table = qsim._distributions(ansatz, rows, plan, noise)
            serial = np.array([serial_noisy_distributions(ansatz, row, noise, plan.bases) for row in rows])
            for shots in (1, 777, 20000):
                counts = qsim._counts(generators(seeds), every_run(6), shots, table)
                assert np.array_equal(counts, qsim._counts(generators(seeds), every_run(6), shots, serial))


def test_noisy_tables_at_five_qubits_stay_small():
    # kept=8,8 is 5 qubits and 115 settings: a row is 1,024 Pauli components
    # and 3,680 gathered outcomes, where a dense (2 4^Q, S 2^Q) measurement map
    # of the density matrix would take 60 MB
    _, _, op = chain_problem((8, 8))
    ansatz = AnsatzSpec(qubits=5)
    plan = qsim._measurement_plan(op, True)
    assert plan.outcomes.shape == (115, 32)
    noise = NoiseSpec()
    rows = np.random.default_rng(37).uniform(-7.0, 7.0, (20, ansatz.parameter_count))
    tracemalloc.start()
    try:
        table = qsim._distributions(ansatz, rows, plan, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    for row, probs in zip(rows, table):
        want = serial_noisy_distributions(ansatz, row, noise, plan.bases)
        np.testing.assert_allclose(probs, want, rtol=0, atol=NOISY_TABLE_TOL)


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
    new, _ = seeded_estimate(
        ansatz, params[None, :], op, 100, range(1000, 1300), NoiseSpec(p1=0.02, p2=0.1)
    )
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
        NoiseSpec(readout=((float("nan"), 1.0), (0.0, 1.0)))
    # only 2x2 confusion matrices, shared or one per qubit
    flip = symmetric_confusion(0.1)
    for readout in (
        ((1.0,),),
        (),
        ((0.5, 0.5, 0.0), (0.0, 0.5, 0.5)),
        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        (flip, ((1.0,),)),
        (flip, (1.0, 0.0)),
        ((flip,),),
    ):
        with pytest.raises(ValueError):
            NoiseSpec(readout=readout)
    with pytest.raises(ValueError, match="register size"):
        NoiseSpec(readout=(flip, flip)).readout_matrices(3)
    with pytest.raises(ValueError):
        symmetric_confusion(1.2)
    singular = NoiseSpec(p1=0.0, p2=0.0, readout=symmetric_confusion(0.5))
    _, _, op = chain_problem((4, 2))
    with pytest.raises(ValueError):
        seeded_estimate(AnsatzSpec(qubits=2), np.zeros((1, 8)), op, 10, [None], noise=singular)
    # without mitigation nothing is inverted, so a singular confusion is fine
    unmitigated = seeded_estimate(
        AnsatzSpec(qubits=2), np.zeros((1, 8)), op, 10, [1, 2], noise=singular, mitigate=False
    )
    assert all(math.isfinite(v) and math.isfinite(math.sqrt(e)) for v, e in zip(*unmitigated))


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
