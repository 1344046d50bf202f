import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rotorvqe.chain import build_chain_matrix, build_composite_basis, pad_matrix
from rotorvqe.driver import build_problem
from rotorvqe.paulimap import (
    PRUNE_TOL,
    MeasurementGroup,
    PauliOperator,
    PauliString,
    group_qubitwise_commuting,
    map_operator,
    operator_to_text,
    resource_report,
)
from rotorvqe.potential import BISTABLE, MONOSTABLE, ChainSpec, DihedralSpec

from oracles import PAULI_1Q, dense_from_labels, map_element, operator_from_text, pauli_string

LADDER = ((4, 2), (4, 4), (8, 4))
# exact and signed zeros, subnormals, the smallest normal, and values whose
# share of a coefficient lands on either side of the 1e-12 prune line
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2e-323, 2.2250738585072014e-308, 1e-300, 1e-12, -1e-12, 1.0)


def operator_from_labels(pairs):
    strings = tuple(pauli_string(label) for label, _ in pairs)
    coefficients = tuple(coef for _, coef in pairs)
    return PauliOperator(qubits=strings[0].qubits, strings=strings, coefficients=coefficients)


def standard_chain(barrier=0.5):
    return ChainSpec(
        dihedrals=(DihedralSpec(BISTABLE, barrier), DihedralSpec(MONOSTABLE, 1.0)),
        diffusion=(1.0, 1.0, 1.0),
    )


def standard_operator(kept):
    chain = standard_chain()
    basis = build_composite_basis(chain, kept)
    mat = pad_matrix(build_chain_matrix(basis), basis.qubits)
    return mat, map_operator(mat)


def test_label_round_trip_and_bit_order():
    assert PauliString(qubits=2, x=2, z=0).label == "XI"
    assert PauliString(qubits=2, x=1, z=1).label == "IY"
    assert PauliString(qubits=3, x=0, z=4).label == "ZII"
    for label in ["I", "Y", "XZ", "IYXZ", "ZZZZ"]:
        assert pauli_string(label).label == label
    with pytest.raises(ValueError):
        pauli_string("XQ")
    with pytest.raises(ValueError):
        PauliString(qubits=1, x=2, z=0)


def test_single_qubit_matrices():
    for label in "IXYZ":
        got = pauli_string(label).to_matrix()
        assert np.array_equal(got, PAULI_1Q[label])


def test_string_matrices_match_kron_oracle():
    rng = np.random.default_rng(7)
    letters = np.array(list("IXYZ"))
    for _ in range(50):
        n = int(rng.integers(1, 5))
        label = "".join(rng.choice(letters, size=n))
        got = pauli_string(label).to_matrix()
        assert np.allclose(got, dense_from_labels([(label, 1.0)]), atol=1e-15)


def test_map_element_single_qubit():
    out = map_element(0, 1, 1.0, qubits=1)
    assert out[(1, 0)] == pytest.approx(0.5)
    assert out[(1, 1)] == pytest.approx(0.5j)
    out = map_element(0, 0, 2.0, qubits=1)
    assert out[(0, 0)] == pytest.approx(1.0)
    assert out[(0, 1)] == pytest.approx(1.0)


def test_map_element_reconstructs_unit_matrix():
    qubits = 2
    target = np.zeros((4, 4), dtype=complex)
    target[1, 2] = 1.0
    total = np.zeros_like(target)
    for (x, z), coef in map_element(1, 2, 1.0, qubits).items():
        total += coef * PauliString(qubits=qubits, x=x, z=z).to_matrix()
    assert np.allclose(total, target, atol=1e-15)


def test_two_by_two_closed_form():
    op = map_operator(np.array([[1.0, 0.25], [0.25, 3.0]]))
    by_label = {s.label: c for s, c in op}
    assert by_label == {
        "I": pytest.approx(2.0),
        "Z": pytest.approx(-1.0),
        "X": pytest.approx(0.25),
    }


def test_identity_matrix_maps_to_identity_string():
    op = map_operator(np.eye(4))
    assert len(op) == 1
    assert op.strings[0].label == "II"
    assert op.coefficients[0] == pytest.approx(1.0)
    assert op.identity_offset == pytest.approx(1.0)


@pytest.mark.parametrize("kept", [(4, 2), (4, 4), (8, 4)])
def test_round_trip_on_generator_matrices(kept):
    mat, op = standard_operator(kept)
    back = op.to_matrix()
    assert np.max(np.abs(back.imag)) < 1e-12
    assert np.max(np.abs(back.real - mat)) < 1e-12
    for string, coef in op:
        assert isinstance(coef, float)
        # real symmetric input keeps only even-Y strings
        assert (string.x & string.z).bit_count() % 2 == 0


def test_round_trip_on_random_symmetric_matrices():
    rng = np.random.default_rng(2024)
    for dim in (4, 8):
        for _ in range(50):
            raw = rng.normal(size=(dim, dim))
            mat = raw + raw.T
            back = map_operator(mat).to_matrix()
            assert np.max(np.abs(back - mat)) < 1e-12


def test_map_operator_rejects_bad_input():
    with pytest.raises(ValueError):
        map_operator(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        map_operator(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        map_operator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def assert_matches_elementwise_oracle(matrix, tol=PRUNE_TOL):
    try:
        expected = oracles.elementwise_map_operator(matrix, tol)
    except ValueError as error:
        with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
            map_operator(matrix, tol)
        return
    got = map_operator(matrix, tol)
    assert got.qubits == expected.qubits
    assert got.strings == expected.strings
    assert np.array(got.coefficients).tobytes() == np.array(expected.coefficients).tobytes()


def symmetric_from_upper(raw):
    # mirror the upper triangle so signed zeros survive on both sides
    upper = np.triu(raw)
    return np.where(np.tri(len(raw), k=-1, dtype=bool), upper.T, upper)


@settings(max_examples=60, deadline=None)
@given(
    qubits=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    style=st.sampled_from(["range", "special", "prune"]),
    zero_fraction=st.sampled_from([0.0, 0.5, 0.9]),
    # 0.0 keeps every nonzero weight and -1.0 every string of a present shift
    tol=st.sampled_from([PRUNE_TOL, 0.0, -1.0]),
)
def test_map_operator_matches_elementwise_oracle_bit_for_bit(qubits, seed, style, zero_fraction, tol):
    dim = 1 << qubits
    rng = np.random.default_rng(seed)
    if style == "range":
        raw = rng.normal(size=(dim, dim)) * 10.0 ** rng.uniform(-300.0, 3.0, size=(dim, dim))
    elif style == "special":
        raw = rng.choice(SPECIAL, size=(dim, dim)) * rng.choice([1.0, float(dim)], size=(dim, dim))
    else:
        raw = rng.choice([-1.0, 1.0], size=(dim, dim)) * 1e-12 * rng.uniform(0.5, 2.0, size=(dim, dim))
    zeros = rng.random((dim, dim)) < zero_fraction
    raw[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    assert_matches_elementwise_oracle(symmetric_from_upper(raw), tol)


def test_map_operator_matches_elementwise_oracle_at_the_prune_line():
    # the identity weight of diag(1e-12, 1e-12) is 1e-12 exactly, which is pruned
    for matrix in (np.diag([1e-12, 1e-12]), np.diag([1e-12, 1e-12]) * (1.0 + 2.0**-52)):
        assert_matches_elementwise_oracle(matrix)
    assert len(map_operator(np.diag([1e-12, 1e-12]))) == 0


@pytest.mark.parametrize("barrier", [0.5, 3.0])
def test_map_operator_matches_elementwise_oracle_on_every_rung(barrier):
    for i, rung in enumerate(LADDER):
        problem = build_problem(standard_chain(barrier), rung, ladder=LADDER[: i + 1])
        expected = oracles.elementwise_map_operator(problem.matrix)
        assert problem.operator.strings == expected.strings
        assert np.array(problem.operator.coefficients).tobytes() == np.array(expected.coefficients).tobytes()


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[1.0, 2.0, 0.0, 0.0], [2.0 + 1e-9, 1.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4]),
        # in shift x = 2, 1e16 swamps 1.0 and rounding leaves an imaginary weight
        np.array([[0.0, 0.0, 1e16, 0.0], [0.0, 0.0, 0.0, 1.0], [1e16, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]),
        np.zeros((3, 3)),
        np.zeros((2, 4)),
        np.zeros((1, 1)),
    ],
)
def test_map_operator_rejects_what_the_elementwise_oracle_rejects(matrix):
    with pytest.raises(ValueError) as expected:
        oracles.elementwise_map_operator(matrix)
    with pytest.raises(ValueError) as got:
        map_operator(matrix)
    assert str(got.value) == str(expected.value)


def test_grouping_examples():
    diag = operator_from_labels([("II", 1.0), ("ZI", 0.5), ("IZ", 0.25), ("ZZ", 0.1)])
    groups = group_qubitwise_commuting(diag)
    assert len(groups) == 1
    assert set(groups[0].members) == {0, 1, 2, 3}

    clash = operator_from_labels([("XI", 1.0), ("ZI", 0.5)])
    assert len(group_qubitwise_commuting(clash)) == 2

    bell = operator_from_labels([("XX", 1.0), ("YY", 0.8), ("ZZ", 0.6)])
    assert len(group_qubitwise_commuting(bell)) == 3


def test_grouping_partitions_all_terms():
    _, op = standard_operator((4, 4))
    groups = group_qubitwise_commuting(op)
    seen = [i for g in groups for i in g.members]
    assert sorted(seen) == list(range(len(op)))
    for group in groups:
        for idx in group.members:
            s = op.strings[idx]
            common = (s.x | s.z) & (group.x | group.z)
            assert not (((s.x ^ group.x) | (s.z ^ group.z)) & common)
    assert group_qubitwise_commuting(op) == groups


def test_diagonal_operator_needs_one_setting():
    chain = ChainSpec(dihedrals=(DihedralSpec(BISTABLE, 0.0),), diffusion=(1.0, 1.0))
    basis = build_composite_basis(chain, (4,))
    op = map_operator(pad_matrix(build_chain_matrix(basis), basis.qubits))
    assert all(s.x == 0 for s in op.strings)
    groups = group_qubitwise_commuting(op)
    assert len(groups) == 1
    assert groups[0].x == 0


def test_resource_report():
    _, op = standard_operator((4, 2))
    report = resource_report(op)
    assert report.qubits == 2
    assert report.n_terms == len(op)
    assert report.n_groups == len(group_qubitwise_commuting(op))
    assert 0 < report.max_weight <= 2


def test_operator_hashes_nothing_at_construction_and_survives_pickling(monkeypatch):
    # an operator holds its three fields only, and hashes by value when asked
    matrix, op = standard_operator((8, 4))
    copy = pickle.loads(pickle.dumps(op))
    assert vars(copy) == vars(op) == {"qubits": 4, "strings": op.strings, "coefficients": op.coefficients}

    def rehash(string):
        raise AssertionError("a string hashed while its operator was built")

    monkeypatch.setattr(PauliString, "__hash__", rehash)
    twin = map_operator(matrix)
    assert twin is not op and twin == op and copy == op
    monkeypatch.undo()
    assert hash(twin) == hash(op) == hash(copy)


def test_text_export_and_parse():
    op = operator_from_labels([("XX", 0.25), ("ZI", -1.5)])
    text = operator_to_text(op)
    assert text == "XX 0.25\nZI -1.5\n"
    assert operator_from_text(text) == op

    _, big = standard_operator((4, 4))
    again = operator_from_text(operator_to_text(big))
    assert again.strings == big.strings
    assert again.coefficients == big.coefficients

    parsed = operator_from_text("# comment\n\nIZ 0.5\n")
    assert parsed.strings[0].label == "IZ"
    with pytest.raises(ValueError):
        operator_from_text("IZ 0.5\nXYZ 1.0\n")
    with pytest.raises(ValueError):
        operator_from_text("IZ\n")
    with pytest.raises(ValueError):
        operator_from_text("   \n")
