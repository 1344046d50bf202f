import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from rotorvqe.driver import VqeConfig, run_vqe
from rotorvqe.optimize import (
    _DIRECTION_BLOCK,
    OptTrace,
    TraceRecord,
    calibrated_gains,
    drive,
    finish_trace,
    nelder_mead,
    spsa_lockstep,
    trace_to_csv,
)

from conftest import make_chain


def quadratic(target, scale=1.0):
    center = np.asarray(target, dtype=float)

    def evaluator(params):
        return scale * float(np.sum((np.asarray(params) - center) ** 2))

    return evaluator


def run_stepper(stepper, evaluate, runs):
    """A stepper of `runs` runs driven to its end over `evaluate(points) -> values`; its result."""
    (course,) = drive(lambda points, _: np.asarray(evaluate(points), dtype=float), [(stepper, 0, runs)])
    return course.result


def nelder_mead_trace(evaluate, x0, budget):
    """One `nelder_mead` run from x0 over `evaluate(point) -> value`, driven within `budget`; its trace."""
    (course,) = drive(
        lambda points, _: np.array([float(evaluate(point)) for point in points]),
        [(nelder_mead(x0), 0, 1)],
        budget,
        trace=True,
    )
    return course.trace(0)


def lockstep(evaluate, x0, seeds, iterations, a=None):
    """`spsa_lockstep` with its records kept: (values, params, each run's (k, params, value) records)."""
    x0 = np.array(x0, dtype=float, ndmin=2)
    _, values, params, records = run_stepper(
        spsa_lockstep(x0, seeds, iterations, a, keep_records=True), evaluate, len(x0)
    )
    return values, params, [[(r.iteration, r.params, r.value) for r in run] for run in records]


def calibrate(evaluate, x0, seeds):
    return run_stepper(calibrated_gains(x0, seeds), evaluate, len(x0))


def one_run(evaluator, x0, seed, iterations):
    """One SPSA run through `spsa_lockstep`: (best value, best params, evaluations, records)."""
    evaluations = []

    def evaluate(points):
        values = [evaluator(point) for point in points]
        evaluations.extend(values)
        return values

    values, params, (records,) = lockstep(evaluate, x0, (seed,), iterations)
    return float(values[0]), tuple(params[0]), evaluations, records


def run_config(**overrides) -> VqeConfig:
    base = dict(chain=make_chain(), kept_counts=(4, 2), restarts=1, seed=5)
    base.update(overrides)
    return VqeConfig(**base)


def test_objective_validation():
    with pytest.raises(ValueError, match="objective dimension must be at least 1"):
        nelder_mead_trace(lambda p: 0.0, np.zeros(0), 10)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nelder_mead_refuses_an_objective_with_no_comparable_value(bad):
    calls = []

    def evaluate(point):
        calls.append(point)
        return bad

    with pytest.raises(ValueError, match="no evaluation returned a comparable value: all 50 were"):
        nelder_mead_trace(evaluate, np.zeros(2), 50)
    assert len(calls) == 50


def test_spsa_reaches_quadratic_optimum():
    target = np.linspace(1.0, 4.5, 8)
    x0 = np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, 8)
    value, _, evaluations, _ = one_run(quadratic(target), x0, seed=3, iterations=600)
    assert len(evaluations) == 2 * 600 + 1
    assert math.sqrt(value) < 1e-2


def test_spsa_budget_one_returns_start():
    x0 = np.array([0.25, 0.75])
    value, params, evaluations, records = one_run(quadratic([1.0, 1.0]), x0, seed=0, iterations=0)
    assert len(evaluations) == 1
    assert params == (0.25, 0.75)
    assert value == pytest.approx(quadratic([1.0, 1.0])(x0))
    assert records == [(0, (0.25, 0.75), value)]


def test_spsa_deterministic():
    x0 = np.random.default_rng(11).uniform(0.0, 2.0 * math.pi, 4)
    assert one_run(quadratic(np.ones(4)), x0, 11, 50) == one_run(quadratic(np.ones(4)), x0, 11, 50)


def test_spsa_trace_bookkeeping(q2_problem):
    trace = run_vqe(run_config(iterations=120), q2_problem).trace
    assert isinstance(trace, OptTrace)
    assert len(trace.eval_values) == trace.n_evaluations == 241
    assert len(trace.records) == 120 + 1
    assert [r.iteration for r in trace.records] == list(range(121))
    assert trace.termination == "budget"
    assert trace.best_value == min(trace.eval_values)
    assert trace.best_value == min(r.value for r in trace.records)
    running = np.minimum.accumulate([r.value for r in trace.records])
    assert all(a >= b for a, b in zip(running, running[1:]))


def test_spsa_iterates_stay_finite():
    # 100 runs in one lockstep batch, each from its own seed
    seeds = tuple(range(100))
    x0 = np.array([np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, 3) for seed in seeds])
    values, params, records = lockstep(lambda points: np.sum(np.sin(points), axis=1), x0, seeds, 20)
    assert all(len(run) == 21 for run in records)
    assert all(np.all(np.isfinite(p)) and np.isfinite(v) for run in records for _, p, v in run)
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(params))


def wavy(point):
    """A nonconvex objective of one point, summed in scalar float arithmetic."""
    return sum(math.cos((i + 1) * v) + 0.05 * v * v for i, v in enumerate(point))


def record_bits(records):
    return [
        (k, np.array(params).tobytes(), np.float64(value).tobytes())
        for k, params, value in records
    ]


@pytest.mark.parametrize(
    "iterations",
    [0, 1, _DIRECTION_BLOCK - 1, _DIRECTION_BLOCK, _DIRECTION_BLOCK + 1, 2 * _DIRECTION_BLOCK + 3],
)
@pytest.mark.parametrize("runs, dim", [(1, 3), (1, 4), (3, 5), (3, 16)])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_spsa_lockstep_matches_serial_oracle_bit_for_bit(iterations, runs, dim, data):
    # directions are drawn a block of iterations at a time; the counts above
    # put the end of the run on either side of a block boundary
    seeds = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=runs, max_size=runs))
    x0 = data.draw(arrays(np.float64, (runs, dim), elements=st.floats(-10, 10)))
    # per-run gains, or none, so both sides fall back to a = 2pi/10
    gains = data.draw(st.none() | st.lists(st.floats(0.01, 2.0), min_size=runs, max_size=runs))
    values, params, observed = lockstep(
        lambda points: [wavy(point) for point in points], x0, seeds, iterations, a=gains
    )
    for r in range(runs):
        records, best_value, best_params = oracles.serial_spsa(
            wavy, x0[r], seeds[r], iterations, a=None if gains is None else gains[r]
        )
        assert len(observed[r]) == iterations + 1
        assert record_bits(observed[r]) == record_bits(records)
        assert values[r].tobytes() == np.float64(best_value).tobytes()
        assert params[r].tobytes() == np.array(best_params).tobytes()


def tied(point):
    """wavy + 2 to one decimal, floored at zero: plateaus of equal values, and
    zeros of both signs (round gives -0.0 just below zero, and max keeps it)."""
    return max(round(wavy(point) + 2.0, 1), 0.0)


def test_spsa_lockstep_keeps_the_first_lowest_record_on_ties_and_signed_zeros():
    # the best record is chosen a direction block at a time; on an objective
    # of plateaus and signed zeros it must still be the first lowest record,
    # as in the serial loop, with run ends on either side of block edges.
    # tied_zero_bests collects the sign of each zero best that a later zero
    # of the other sign ties; the seeds are picked so both signs occur
    tied_zero_bests = set()
    for iterations in (63, 64, 65, 129, 200):
        for runs in (1, 3):
            seeds = [14 + 1000 * r for r in range(runs)]
            x0 = np.random.default_rng(10 * iterations + runs).uniform(-4.0, 4.0, (runs, 4))
            values, params, observed = lockstep(
                lambda points: [tied(point) for point in points], x0, seeds, iterations
            )
            assert all([k for k, _, _ in run] == list(range(iterations + 1)) for run in observed)
            for r in range(runs):
                records, best_value, best_params = oracles.serial_spsa(
                    tied, x0[r], seeds[r], iterations
                )
                assert record_bits(observed[r]) == record_bits(records)
                assert values[r].tobytes() == np.float64(best_value).tobytes()
                assert params[r].tobytes() == np.array(best_params).tobytes()
                signs = [math.copysign(1.0, v) for _, _, v in records if v == 0.0]
                if best_value == 0.0 and len(set(signs)) == 2:
                    tied_zero_bests.add(signs[0])
    assert tied_zero_bests == {-1.0, 1.0}


def test_spsa_lockstep_best_skips_nan_records():
    # the objective turns NaN below -1, and a NaN gradient makes every later
    # iterate NaN; the best is what a strict < update, record by record, keeps
    def capped(point):
        value = wavy(point)
        return value if value > -1.0 else math.nan

    runs, iterations = 3, 130
    seeds = [11, 12, 13]
    x0 = np.random.default_rng(5).uniform(-4.0, 4.0, (runs, 3))
    values, params, observed = lockstep(
        lambda points: [capped(point) for point in points], x0, seeds, iterations
    )
    best_values, best_params = np.full(runs, math.inf), x0.copy()
    for r in range(runs):
        for _, point, record in observed[r]:
            if record < best_values[r]:
                best_values[r], best_params[r] = record, point
    assert any(math.isnan(record) for run in observed for _, _, record in run)
    assert np.all(np.isfinite(values))
    assert values.tobytes() == best_values.tobytes()
    assert params.tobytes() == best_params.tobytes()


@pytest.mark.parametrize(
    "values, expected",
    [
        # a NaN first record does not win over a later lower one
        ((math.nan, 0.5), 1),
        ((0.5, math.nan, 0.25, math.nan), 2),
        # ties keep the first record, and so do zeros of either sign
        ((1.0, 0.25, 0.25), 1),
        ((0.0, -0.0), 0),
        ((-0.0, 0.0, math.nan), 0),
        ((math.nan, 0.0, -0.0), 1),
        # +inf is comparable, so it beats NaN
        ((math.nan, math.inf), 1),
        # with no comparable record, the first one stands
        ((math.nan, math.nan), 0),
    ],
)
def test_finish_trace_best_is_first_lowest_record_that_is_not_nan(values, expected):
    records = [TraceRecord(k, (float(k),), value) for k, value in enumerate(values)]
    trace = finish_trace(records, list(values), "budget")
    assert trace.best_params == (float(expected),)
    assert np.float64(trace.best_value).tobytes() == np.float64(values[expected]).tobytes()


def test_serial_spsa_oracle_best_skips_a_nan_first_record():
    # the first probe pair is NaN, so the first record is NaN and every later
    # iterate is NaN too; the objective ignores the point and counts calls
    values = iter([math.nan, math.nan, 0.5, 0.75, 0.25])
    records, best_value, best_params = oracles.serial_spsa(
        lambda point: next(values), np.zeros(2), 3, 2
    )
    assert [record[2] for record in records][1:] == [0.5, 0.25]
    assert math.isnan(records[0][2])
    assert best_value == 0.25
    assert best_params is records[-1][1]


def test_spsa_lockstep_refuses_mismatched_runs():
    def evaluate(points):
        return np.zeros(len(points))

    with pytest.raises(ValueError, match="1 seeds for 3 runs"):
        lockstep(evaluate, np.zeros((3, 4)), (7,), 10)
    with pytest.raises(ValueError, match=r"gains of shape \(1,\) for 3 runs"):
        lockstep(evaluate, np.zeros((3, 4)), (7, 8, 9), 10, a=[0.5])
    with pytest.raises(ValueError, match="1 seeds for 3 runs"):
        calibrate(evaluate, np.zeros((3, 4)), (7,))


def flat(point):
    return 1.5


@pytest.mark.parametrize("objective", [wavy, flat])
@pytest.mark.parametrize("runs", [1, 3, 10])
def test_calibrated_gains_match_serial_oracle_bit_for_bit(runs, objective):
    rng = np.random.default_rng(runs)
    seeds = [int(seed) for seed in rng.integers(0, 2**63, size=runs)]
    x0 = rng.uniform(0.0, 2.0 * math.pi, (runs, 5))
    gains = calibrate(lambda points: [objective(point) for point in points], x0, seeds)
    expected = [oracles.serial_calibrated_gain(objective, x0[r], seeds[r]) for r in range(runs)]
    assert gains.tobytes() == np.array(expected).tobytes()
    if objective is flat:
        assert np.all(gains == 2.0 * math.pi / 10.0)


def test_nelder_mead_two_dim_quadratic():
    trace = nelder_mead_trace(quadratic([0.7, -1.3]), np.zeros(2), 800)
    assert trace.termination == "converged"
    assert trace.best_value < 1e-10
    assert np.allclose(trace.best_params, [0.7, -1.3], atol=1e-4)


def test_nelder_mead_one_dim():
    trace = nelder_mead_trace(quadratic([2.0]), np.array([0.5]), 300)
    assert trace.best_params[0] == pytest.approx(2.0, abs=1e-3)


def test_nelder_mead_respects_budget():
    x0 = np.random.default_rng(4).uniform(0.0, 2.0 * math.pi, 8)
    trace = nelder_mead_trace(quadratic(np.ones(8)), x0, 10)
    assert trace.n_evaluations <= 10
    assert trace.termination == "budget"
    assert trace.best_value == min(trace.eval_values)


def test_nelder_mead_deterministic():
    x0 = np.random.default_rng(9).uniform(0.0, 2.0 * math.pi, 3)
    evaluate = quadratic(np.ones(3))
    assert nelder_mead_trace(evaluate, x0, 200) == nelder_mead_trace(evaluate, x0, 200)


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_driven_nelder_mead_matches_the_serial_loop(dim):
    # budgets that end inside the start simplex, right after it, between two
    # evaluations of one shrink, and after the run has converged; the
    # plateaus of `tied` make the simplex shrink often
    objective = tied
    x0 = np.random.default_rng(dim).uniform(-2.0, 2.0, dim)
    moves = oracles.serial_nelder_mead(objective, x0, 5000)[3]
    mid_shrink = next(i for i in range(1, len(moves)) if moves[i - 1] == moves[i] == "shrink")
    for budget in (1, dim + 1, mid_shrink, 5000):
        records, values, termination, _, best = oracles.serial_nelder_mead(objective, x0, budget)
        trace = nelder_mead_trace(objective, x0, budget)
        assert hexes(trace.eval_values) == hexes(values)
        assert [(r.iteration, hexes(r.params), r.value.hex()) for r in trace.records] == [
            (k, hexes(params), value.hex()) for k, params, value in records
        ]
        assert trace.termination == termination == ("converged" if budget == 5000 else "budget")
        assert hexes((trace.best_value,) + trace.best_params) == hexes((best[2],) + best[1])


def test_trace_csv_round_trip_fields(q2_problem):
    trace = run_vqe(run_config(iterations=10, seed=7), q2_problem).trace
    text = trace_to_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,value," + ",".join(f"p{i}" for i in range(8))
    assert len(lines) == len(trace.records) + 1
    first = lines[1].split(",")
    assert int(first[0]) == trace.records[0].iteration
    assert float(first[1]) == trace.records[0].value
    assert tuple(float(v) for v in first[2:]) == trace.records[0].params
