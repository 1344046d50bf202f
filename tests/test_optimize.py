import math

import numpy as np
import pytest

from rotorvqe.optimize import (
    NelderMeadConfig,
    ObjectiveSpec,
    OptTrace,
    SpsaConfig,
    nelder_mead_minimize,
    spsa_minimize,
    trace_to_csv,
)


def quadratic(target, scale=1.0, noise=0.0):
    center = np.asarray(target, dtype=float)

    def evaluator(params):
        return scale * float(np.sum((np.asarray(params) - center) ** 2)), noise

    return evaluator


def test_objective_validation():
    with pytest.raises(ValueError):
        ObjectiveSpec(evaluator=lambda p: (0.0, 0.0), dimension=0, budget=10)
    with pytest.raises(ValueError):
        ObjectiveSpec(evaluator=lambda p: (0.0, 0.0), dimension=2, budget=0)
    with pytest.raises(ValueError):
        SpsaConfig(a=0.0)


def test_spsa_reaches_quadratic_optimum():
    target = np.linspace(1.0, 4.5, 8)
    obj = ObjectiveSpec(quadratic(target), dimension=8, budget=2 * 600 + 1, seed=3)
    trace = spsa_minimize(obj)
    assert trace.n_evaluations == 1201
    distance = math.sqrt(trace.best_value)
    assert distance < 1e-2
    assert trace.termination == "budget"


def test_spsa_budget_one_returns_start():
    obj = ObjectiveSpec(quadratic([1.0, 1.0]), dimension=2, budget=1, seed=0)
    x0 = np.array([0.25, 0.75])
    trace = spsa_minimize(obj, x0=x0)
    assert trace.n_evaluations == 1
    assert trace.best_params == (0.25, 0.75)
    assert trace.best_value == pytest.approx(quadratic([1.0, 1.0])(x0)[0])


def test_spsa_deterministic():
    obj = ObjectiveSpec(quadratic(np.ones(4)), dimension=4, budget=101, seed=11)
    assert spsa_minimize(obj) == spsa_minimize(obj)


def test_spsa_trace_bookkeeping():
    obj = ObjectiveSpec(quadratic(np.ones(4) * 2), dimension=4, budget=241, seed=5)
    trace = spsa_minimize(obj)
    assert len(trace.eval_values) == trace.n_evaluations == 241
    assert len(trace.records) == 120 + 1
    assert trace.best_value == min(trace.eval_values)
    assert trace.best_value == min(r.value for r in trace.records)
    running = np.minimum.accumulate([r.value for r in trace.records])
    assert all(a >= b for a, b in zip(running, running[1:]))


def test_spsa_iterates_stay_finite():
    def bounded(params):
        return float(np.sum(np.sin(params))), 0.0

    for seed in range(100):
        obj = ObjectiveSpec(bounded, dimension=3, budget=41, seed=seed)
        trace = spsa_minimize(obj)
        assert np.all(np.isfinite(trace.best_params))
        assert np.all(np.isfinite(trace.eval_values))


def test_nelder_mead_two_dim_quadratic():
    obj = ObjectiveSpec(quadratic([0.7, -1.3]), dimension=2, budget=800, seed=1)
    trace = nelder_mead_minimize(obj, x0=np.zeros(2))
    assert trace.termination == "converged"
    assert trace.best_value < 1e-10
    assert np.allclose(trace.best_params, [0.7, -1.3], atol=1e-4)


def test_nelder_mead_one_dim():
    obj = ObjectiveSpec(quadratic([2.0]), dimension=1, budget=300, seed=2)
    trace = nelder_mead_minimize(obj, x0=np.array([0.5]))
    assert trace.best_params[0] == pytest.approx(2.0, abs=1e-3)


def test_nelder_mead_respects_budget():
    obj = ObjectiveSpec(quadratic(np.ones(8)), dimension=8, budget=10, seed=4)
    trace = nelder_mead_minimize(obj)
    assert trace.n_evaluations <= 10
    assert trace.termination == "budget"
    assert trace.best_value == min(trace.eval_values)


def test_nelder_mead_deterministic():
    obj = ObjectiveSpec(quadratic(np.ones(3)), dimension=3, budget=200, seed=9)
    assert nelder_mead_minimize(obj) == nelder_mead_minimize(obj)


def test_trace_csv_round_trip_fields():
    obj = ObjectiveSpec(quadratic([1.0, 2.0]), dimension=2, budget=21, seed=7)
    trace = spsa_minimize(obj)
    text = trace_to_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,value,p0,p1"
    assert len(lines) == len(trace.records) + 1
    first = lines[1].split(",")
    assert int(first[0]) == trace.records[0].iteration
    assert float(first[1]) == trace.records[0].value
    assert tuple(float(v) for v in first[2:]) == trace.records[0].params
