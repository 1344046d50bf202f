import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rotorvqe.potential import (
    BISTABLE,
    MONOSTABLE,
    ChainSpec,
    DihedralSpec,
    cosine_series,
    potential_d1,
    potential_d2,
    potential_value,
)

angles = st.floats(-10.0, 10.0, allow_nan=False)
barriers = st.floats(0.0, 5.0, allow_nan=False)
kinds = st.sampled_from([MONOSTABLE, BISTABLE])


def test_monostable_values():
    spec = DihedralSpec(MONOSTABLE, 1.0)
    assert potential_value(spec, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert potential_value(spec, math.pi) == pytest.approx(1.0)
    assert potential_value(spec, math.pi / 2) == pytest.approx(0.5)


def test_bistable_values():
    spec = DihedralSpec(BISTABLE, 0.5)
    assert potential_value(spec, 0.0) == pytest.approx(0.5)
    assert potential_value(spec, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert potential_value(spec, math.pi) == pytest.approx(0.5)
    assert potential_value(spec, 3 * math.pi / 2) == pytest.approx(0.0, abs=1e-15)


def test_derivative_values():
    mono = DihedralSpec(MONOSTABLE, 2.0)
    assert potential_d1(mono, math.pi / 2) == pytest.approx(1.0)
    assert potential_d2(mono, 0.0) == pytest.approx(1.0)
    bi = DihedralSpec(BISTABLE, 1.0)
    assert potential_d1(bi, math.pi / 4) == pytest.approx(-1.0)
    assert potential_d2(bi, 0.0) == pytest.approx(-2.0)


def test_minima_are_zero():
    assert potential_value(DihedralSpec(MONOSTABLE, 3.0), 0.0) == pytest.approx(0.0, abs=1e-15)
    assert potential_value(DihedralSpec(BISTABLE, 3.0), math.pi / 2) == pytest.approx(0.0, abs=1e-12)


def test_vectorized_evaluation():
    spec = DihedralSpec(BISTABLE, 2.0)
    theta = np.linspace(0.0, 2 * math.pi, 7)
    vals = potential_value(spec, theta)
    assert vals.shape == theta.shape
    assert vals[0] == pytest.approx(potential_value(spec, 0.0))


def test_cosine_series_matches_values():
    for kind, barrier in [(MONOSTABLE, 1.3), (BISTABLE, 0.7)]:
        spec = DihedralSpec(kind, barrier)
        series = cosine_series(spec)
        for theta in np.linspace(-3.0, 3.0, 11):
            direct = sum(c * math.cos(n * theta) for n, c in series.items())
            assert direct == pytest.approx(potential_value(spec, theta), abs=1e-14)


def test_spec_validation():
    with pytest.raises(ValueError):
        DihedralSpec("triple", 1.0)
    with pytest.raises(ValueError):
        DihedralSpec(MONOSTABLE, -0.5)
    with pytest.raises(ValueError):
        DihedralSpec(MONOSTABLE, math.nan)


def test_chain_validation():
    d = DihedralSpec(MONOSTABLE, 1.0)
    with pytest.raises(ValueError):
        ChainSpec(dihedrals=(), diffusion=(1.0,))
    with pytest.raises(ValueError):
        ChainSpec(dihedrals=(d,), diffusion=(1.0,))
    with pytest.raises(ValueError):
        ChainSpec(dihedrals=(d,), diffusion=(1.0, 0.0))
    chain = ChainSpec(dihedrals=(d, d), diffusion=(1.0, 1.0, 1.0))
    assert chain.n_dihedrals == 2
    assert chain.n_rotors == 3


@given(kinds, barriers, angles)
def test_first_derivative_consistent(kind, barrier, theta):
    spec = DihedralSpec(kind, barrier)
    h = 1e-5
    fd = (potential_value(spec, theta + h) - potential_value(spec, theta - h)) / (2 * h)
    assert fd == pytest.approx(potential_d1(spec, theta), abs=1e-6 * (1.0 + barrier))


@given(kinds, barriers, angles)
def test_second_derivative_consistent(kind, barrier, theta):
    spec = DihedralSpec(kind, barrier)
    h = 1e-4
    fd = (potential_d1(spec, theta + h) - potential_d1(spec, theta - h)) / (2 * h)
    assert fd == pytest.approx(potential_d2(spec, theta), abs=1e-5 * (1.0 + barrier))


@given(kinds, barriers, angles)
def test_even_and_periodic(kind, barrier, theta):
    spec = DihedralSpec(kind, barrier)
    tol = 1e-9 * (1.0 + barrier)
    assert potential_value(spec, theta) == pytest.approx(potential_value(spec, -theta), abs=tol)
    assert potential_value(spec, theta) == pytest.approx(
        potential_value(spec, theta + 2 * math.pi), abs=tol
    )
