import dataclasses
import math

import numpy as np
import pytest

from rotorvqe.chain import reference_spectrum
from rotorvqe.driver import (
    CALIBRATED,
    FIXED,
    NELDER_MEAD,
    VqeConfig,
    build_problem,
    run_barrier_scan,
    run_distribution_study,
    run_ensemble,
    run_hierarchical,
    run_qubit_scan,
    run_vqe,
    seed_stream,
)
from rotorvqe import driver, qsim
from rotorvqe.qsim import (
    EXACT,
    NOISY,
    SAMPLED,
    NoiseSpec,
    noisy_expectation,
    prepare_state,
    sampled_expectation,
    sampled_expectations,
    symmetric_confusion,
)

from conftest import LADDER, make_chain

from oracles import dense_from_labels


def quick_config(**overrides) -> VqeConfig:
    base = dict(chain=make_chain(), kept_counts=(4, 2), iterations=60, restarts=3, seed=11)
    base.update(overrides)
    return VqeConfig(**base)


def test_seed_stream_is_deterministic_and_distinct():
    seeds = seed_stream(2021, 100)
    assert seeds == seed_stream(2021, 100)
    assert len(set(seeds)) == 100
    assert all(0 <= s < 2**63 for s in seeds)
    assert seed_stream(2021, 100) != seed_stream(2022, 100)
    # prefix property: extending the stream never changes earlier entries
    assert seed_stream(2021, 10) == seed_stream(2021, 100)[:10]


def test_build_problem_is_consistent():
    problem = build_problem(make_chain(), (4, 2))
    assert problem.qubits == 2
    assert problem.matrix.shape == (4, 4)
    assert problem.ansatz.parameter_count == 8
    w, _ = reference_spectrum(problem.matrix)
    assert problem.reference == pytest.approx(w[0])
    dense = dense_from_labels([(s.label, c) for s, c in problem.operator])
    assert np.allclose(dense, problem.matrix, atol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        quick_config(mode="analog")
    with pytest.raises(ValueError):
        quick_config(optimizer="adam")
    with pytest.raises(ValueError):
        quick_config(gain_policy="auto")
    with pytest.raises(ValueError):
        quick_config(restarts=0)
    with pytest.raises(ValueError):
        quick_config(iterations=-1)
    with pytest.raises(ValueError):
        quick_config(workers=0)
    with pytest.raises(ValueError):
        quick_config(shots=0)


def test_noisy_mode_gets_default_noise_model():
    config = quick_config(mode=NOISY)
    assert config.noise is not None


def test_zero_iterations_returns_start_value(q2_problem):
    config = quick_config(iterations=0)
    run = run_vqe(config, q2_problem)
    assert run.trace.n_evaluations == 1
    (run_seed,) = seed_stream(config.seed, 1)
    x0 = np.random.default_rng(run_seed).uniform(0.0, 2.0 * math.pi, 8)
    state = prepare_state(q2_problem.ansatz, x0)
    expected = float(np.real(np.conj(state) @ q2_problem.matrix @ state))
    assert run.value == pytest.approx(expected, abs=1e-12)
    assert run.value >= q2_problem.reference - 1e-9


def test_run_vqe_is_reproducible(q2_problem):
    first = run_vqe(quick_config(), q2_problem)
    second = run_vqe(quick_config(), q2_problem)
    assert first.value == second.value
    assert first.params == second.params


def test_run_vqe_respects_variational_bound(q2_problem):
    run = run_vqe(quick_config(iterations=150), q2_problem)
    assert run.value >= q2_problem.reference - 1e-9
    assert run.rate == pytest.approx(run.value / 2)


def test_run_vqe_statistical_modes(q2_problem):
    sampled = run_vqe(quick_config(mode=SAMPLED, shots=256, iterations=20), q2_problem)
    noisy = run_vqe(quick_config(mode=NOISY, shots=256, iterations=20), q2_problem)
    for run in (sampled, noisy):
        assert math.isfinite(run.value)
        assert run.trace.n_evaluations == 41
    again = run_vqe(quick_config(mode=SAMPLED, shots=256, iterations=20), q2_problem)
    assert sampled.value == again.value


@pytest.mark.parametrize("mode", [EXACT, SAMPLED, NOISY])
@pytest.mark.parametrize("gain_policy", [CALIBRATED, FIXED])
def test_run_vqe_is_the_first_run_of_a_one_restart_ensemble(q2_problem, mode, gain_policy):
    config = quick_config(mode=mode, gain_policy=gain_policy, shots=256, iterations=20)
    run = run_vqe(config, q2_problem)
    stats = run_ensemble(dataclasses.replace(config, restarts=1), q2_problem)
    assert run.value.hex() == stats.values[0].hex()
    assert [p.hex() for p in run.params] == [p.hex() for p in stats.best_params]


def test_nelder_mead_runs_under_same_budget(q2_problem):
    run = run_vqe(quick_config(optimizer=NELDER_MEAD, iterations=200), q2_problem)
    assert run.trace.n_evaluations <= 2 * 200 + 1
    assert run.value >= q2_problem.reference - 1e-9


def test_ensemble_bookkeeping(q2_problem):
    config = quick_config(restarts=4)
    stats = run_ensemble(config, q2_problem)
    assert len(stats.values) == 4
    assert stats.minimum == min(stats.values)
    assert stats.eps_min <= stats.eps_avg
    state = prepare_state(q2_problem.ansatz, np.asarray(stats.best_params))
    value = float(np.real(np.conj(state) @ q2_problem.matrix @ state))
    # bit-identical: the lockstep batch contracts each energy like a single state
    assert value == stats.minimum


def test_ensemble_worker_count_does_not_change_results(q2_problem):
    # workers split the lockstep batch into contiguous chunks, unevenly for 5 runs
    sampled = dict(mode=SAMPLED, shots=256, iterations=20)
    for overrides in (dict(restarts=4), dict(restarts=5), dict(restarts=5, **sampled)):
        serial = run_ensemble(quick_config(workers=1, **overrides), q2_problem)
        parallel = run_ensemble(quick_config(workers=2, **overrides), q2_problem)
        assert serial.values == parallel.values
        assert serial.best_params == parallel.best_params
    # a warm-start rung: every run starts from the shared embedded x0 with fixed gains
    serial = run_hierarchical(LADDER[:2], quick_config(iterations=20, restarts=3, workers=1))
    parallel = run_hierarchical(LADDER[:2], quick_config(iterations=20, restarts=3, workers=2))
    for one, two in zip(serial, parallel):
        assert (one.best_value, one.best_params) == (two.best_value, two.best_params)
    assert serial[1].start_value == parallel[1].start_value


def test_sampled_ladder_never_reuses_an_evaluation_seed(monkeypatch):
    seen = []

    def spy(ansatz, points, operator, shots, seeds, grouping=True):
        seen.extend(tuple(seed) for seed in seeds)
        return sampled_expectations(ansatz, points, operator, shots, seeds, grouping)

    # batches reach the batched estimator through the driver's reference, and
    # one-point estimates through `qsim.sampled_expectation`
    monkeypatch.setattr(driver, "sampled_expectations", spy)
    monkeypatch.setattr(qsim, "sampled_expectations", spy)
    config = quick_config(mode=SAMPLED, shots=200, iterations=5, restarts=2)
    run_hierarchical(LADDER[:2], config)
    # cold rung: 50 calibration probes + 11 SPSA evaluations per run; warm rung:
    # one start probe + 11 evaluations per run
    assert len(seen) == 2 * 61 + 1 + 2 * 11
    assert len(set(seen)) == len(seen)


def test_production_q2_ensemble_band(q2_stats):
    # documented behavior of the default protocol on the 2-qubit problem
    assert q2_stats.eps_min <= 0.5
    assert 0.5 <= q2_stats.eps_avg <= 8.0


def test_production_q3_ensemble_minimum(q3_stats):
    assert q3_stats.eps_min <= 2.0


def test_production_q4_loses_accuracy(q3_stats, q4_stats):
    assert q4_stats.eps_avg > 2.0 * q3_stats.eps_avg


def test_barrier_scan_references_decrease():
    config = quick_config(iterations=10, restarts=1)
    results = run_barrier_scan(config, (0.5, 1.0, 2.0))
    assert [b for b, _ in results] == [0.5, 1.0, 2.0]
    refs = [stats.reference for _, stats in results]
    assert refs[0] > refs[1] > refs[2]
    with pytest.raises(ValueError):
        run_barrier_scan(config, ())


def test_qubit_scan_covers_ladder():
    config = quick_config(iterations=10, restarts=1)
    results = run_qubit_scan(config, LADDER)
    assert [kept for kept, _ in results] == list(LADDER)
    refs = [stats.reference for _, stats in results]
    assert refs[0] == pytest.approx(1.5156183, rel=1e-5)
    assert refs[1] == pytest.approx(1.4753736, rel=1e-5)
    assert refs[2] == pytest.approx(1.4753098, rel=1e-5)


def test_hierarchical_embedding_is_lossless():
    config = quick_config(iterations=40, restarts=2)
    rungs = run_hierarchical(LADDER[:2], config)
    assert math.isnan(rungs[0].start_value)
    # the embedded start of rung 2 reproduces the rung-1 value in the larger space
    assert rungs[1].start_value == pytest.approx(rungs[0].best_value, abs=1e-9)
    assert rungs[1].best_value <= rungs[0].best_value + 1e-12


def test_hierarchical_best_values_never_increase():
    config = quick_config(iterations=40, restarts=2)
    rungs = run_hierarchical(LADDER, config)
    values = [r.best_value for r in rungs]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert [r.qubits for r in rungs] == [2, 3, 4]


def test_hierarchical_rejects_bad_ladders():
    config = quick_config(iterations=5, restarts=1)
    with pytest.raises(ValueError, match="nested"):
        run_hierarchical(((4, 4), (4, 2)), config)
    with pytest.raises(ValueError, match="strictly"):
        run_hierarchical(((4, 2), (4, 2)), config)
    with pytest.raises(ValueError, match="two rungs"):
        run_hierarchical(((4, 2),), config)


def test_distribution_study_statistics(q2_problem):
    config = quick_config(shots=2000)
    params = np.full(8, 0.4)
    sampled, noisy = run_distribution_study(config, params, repetitions=24, problem=q2_problem)
    assert sampled.mode == SAMPLED and noisy.mode == NOISY
    assert len(sampled.values) == len(noisy.values) == 24
    assert sampled.exact_value == noisy.exact_value
    # shot noise scatters estimates around the exact value
    spread = abs(sampled.mean - sampled.exact_value)
    assert spread < 6 * sampled.std / math.sqrt(24)
    again, _ = run_distribution_study(config, params, repetitions=24, problem=q2_problem)
    assert again.values == sampled.values


@pytest.mark.parametrize("mitigate, grouping", [(True, True), (False, False)])
def test_distribution_study_matches_per_repetition_estimates(q2_problem, mitigate, grouping):
    noise = NoiseSpec(p1=0.01, p2=0.05, readout=symmetric_confusion(0.1))
    config = quick_config(shots=700, noise=noise, mitigate=mitigate, grouping=grouping)
    params = np.linspace(-1.0, 2.0, 8)
    sampled, noisy = run_distribution_study(config, params, repetitions=5, problem=q2_problem)
    ansatz, op = q2_problem.ansatz, q2_problem.operator
    want_sampled = [
        sampled_expectation(ansatz, params, op, 700, grouping=grouping, seed=seed).value
        for seed in seed_stream(config.seed + 7919, 5)
    ]
    want_noisy = [
        noisy_expectation(
            ansatz, params, op, 700, noise, mitigate=mitigate, grouping=grouping, seed=seed,
        ).value
        for seed in seed_stream(config.seed + 2 * 7919, 5)
    ]
    assert [v.hex() for v in sampled.values] == [v.hex() for v in want_sampled]
    assert [v.hex() for v in noisy.values] == [v.hex() for v in want_noisy]


def test_distribution_study_validation(q2_problem):
    config = quick_config()
    with pytest.raises(ValueError):
        run_distribution_study(config, np.zeros(3), repetitions=4, problem=q2_problem)
    with pytest.raises(ValueError):
        run_distribution_study(config, np.zeros(8), repetitions=1, problem=q2_problem)
    with pytest.raises(ValueError):
        run_distribution_study(config, np.zeros(8), modes=("exact",), repetitions=4, problem=q2_problem)


def test_gain_policies_differ(q2_problem):
    fixed = run_vqe(quick_config(gain_policy=FIXED, iterations=30), q2_problem)
    calibrated = run_vqe(quick_config(gain_policy=CALIBRATED, iterations=30), q2_problem)
    assert fixed.value != calibrated.value


def test_replace_config_reruns_cleanly(q2_problem):
    # dataclasses.replace round-trips through validation
    config = quick_config()
    faster = dataclasses.replace(config, iterations=10)
    assert faster.budget == 21
    run = run_vqe(faster, q2_problem)
    assert run.trace.n_evaluations == 21
