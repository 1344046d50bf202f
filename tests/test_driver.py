import contextlib
import dataclasses
import io
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from rotorvqe.chain import reference_spectrum
from rotorvqe.config import build_vqe_config, resolve_settings
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
from rotorvqe import cli, driver, optimize, qsim
from rotorvqe.potential import BISTABLE, MONOSTABLE, ChainSpec, DihedralSpec
from rotorvqe.qsim import (
    EXACT,
    NOISY,
    SAMPLED,
    NoiseSpec,
    prepare_state,
    prepare_states,
    symmetric_confusion,
)

from conftest import LADDER, make_chain

from oracles import (
    dense_from_labels,
    numpy_starts,
    per_evaluation_evaluator,
    serial_prepare_state,
    serial_seed_stream,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


@pytest.mark.parametrize("master", [0, -1, 2021, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 100])
def test_seed_stream_matches_serial_splitmix(master, count):
    seeds = seed_stream(master, count)
    assert type(seeds) is tuple and all(type(s) is int for s in seeds)
    assert seeds == serial_seed_stream(master, count)


def test_build_problem_is_consistent():
    problem = build_problem(make_chain(), (4, 2))
    assert problem.qubits == 2
    assert problem.matrix.shape == (4, 4)
    assert problem.ansatz.parameter_count == 8
    w, _ = reference_spectrum(problem.matrix)
    assert problem.reference == pytest.approx(w[0])
    dense = dense_from_labels([(s.label, c) for s, c in problem.operator])
    assert np.allclose(dense, problem.matrix, atol=1e-12)


def test_exact_runs_never_map(monkeypatch):
    # exact runs contract the matrix and never read the Pauli operator
    config = quick_config(iterations=8, restarts=2)
    ladder = LADDER[:2]

    def outputs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["vqe", "--set", "iterations=8"]) == 0
        run = run_vqe(config)
        ensemble = run_ensemble(config)
        scans = run_barrier_scan(config, (0.5, 2.0)) + run_qubit_scan(config, ladder)
        rungs = run_hierarchical(ladder, config)
        return (
            out.getvalue(),
            hexes(run.trace.eval_values + run.params),
            hexes(ensemble.values + ensemble.best_params),
            [hexes(stats.values + stats.best_params) for _, stats in scans],
            [hexes((r.start_value, r.best_value) + r.best_params) for r in rungs],
        )

    mapped = outputs()

    def refuse(matrix):
        raise AssertionError("an exact run mapped its operator")

    monkeypatch.setattr(driver, "map_operator", refuse)
    assert outputs() == mapped


def test_problem_maps_once_and_builds_one_plan_per_grouping(monkeypatch):
    maps, plans = [], []
    real_map, real_plan = driver.map_operator, driver._measurement_plan

    def counted_map(matrix):
        maps.append(matrix)
        return real_map(matrix)

    def counted_plan(operator, grouping):
        plans.append(grouping)
        return real_plan(operator, grouping)

    monkeypatch.setattr(driver, "map_operator", counted_map)
    monkeypatch.setattr(driver, "_measurement_plan", counted_plan)
    problem = build_problem(make_chain(), (4, 2))
    assert maps == []
    sampled = quick_config(mode=SAMPLED, shots=200, iterations=4, restarts=2)
    params = np.linspace(-1.0, 2.0, 8)
    for config in (sampled, dataclasses.replace(sampled, seed=12), dataclasses.replace(sampled, mode=NOISY)):
        run_ensemble(config, problem)
    for seed in (11, 12):
        run_distribution_study(dataclasses.replace(sampled, seed=seed), params, repetitions=3, problem=problem)
    assert len(maps) == 1 and plans == [True]
    ungrouped = dataclasses.replace(sampled, grouping=False)
    run_ensemble(ungrouped, problem)
    run_distribution_study(ungrouped, params, repetitions=3, problem=problem)
    assert len(maps) == 1 and plans == [True, False]
    assert problem._plan(True) is problem._plan(True)


def test_pickled_problem_carries_no_operator_or_plan():
    problem = build_problem(make_chain(), (4, 2))
    plan = problem._plan(True)
    copy = pickle.loads(pickle.dumps(problem))
    assert {"operator", "_plans"} <= set(vars(problem))
    assert not {"operator", "_plans"} & set(vars(copy))
    # the copy maps and plans again, to the same values and read-only arrays
    again = copy._plan(True)
    assert again is not plan and copy.operator == problem.operator
    arrays = (again.outcomes, again.squares, again.pure[1], *again.paulis)
    assert len(arrays) == 6 and not any(array.flags.writeable for array in arrays)
    assert again.bases == plan.bases and np.array_equal(again.outcomes, plan.outcomes)


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


def test_master_seed_must_fit_64_bits():
    # seed_stream itself still masks a library caller's seed to 64 bits
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=re.escape(f"seed must be in [0, 2**64), got {seed}")):
            quick_config(seed=seed)
    for seed in (0, 2**64 - 1):
        assert quick_config(seed=seed).seed == seed


def test_noisy_mode_gets_default_noise_model():
    for mode in (EXACT, SAMPLED, NOISY):
        assert quick_config(mode=mode).noise == NoiseSpec()


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
    # workers split the runs into contiguous chunks, unevenly for 5 runs
    sampled = dict(mode=SAMPLED, shots=256, iterations=20)
    nelder_mead = dict(restarts=5, optimizer=NELDER_MEAD, iterations=40)
    cases = (dict(restarts=4), dict(restarts=5), dict(restarts=5, **sampled), nelder_mead, {**nelder_mead, **sampled})
    for overrides in cases:
        serial = run_ensemble(quick_config(workers=1, **overrides), q2_problem)
        parallel = run_ensemble(quick_config(workers=2, **overrides), q2_problem)
        assert serial.values == parallel.values
        assert serial.best_params == parallel.best_params
    # a warm-start rung: every run starts from the shared embedded x0 with
    # fixed gains.  In the statistical modes its start probe reads the
    # problem's plan before the pool pickles the problem, and each worker
    # plans its own
    statistical = dict(shots=200, iterations=6)
    for overrides in (dict(iterations=20), dict(statistical, mode=SAMPLED), dict(statistical, mode=NOISY)):
        serial = run_hierarchical(LADDER[:2], quick_config(restarts=3, workers=1, **overrides))
        parallel = run_hierarchical(LADDER[:2], quick_config(restarts=3, workers=2, **overrides))
        for one, two in zip(serial, parallel, strict=True):
            assert (one.best_value, one.best_params) == (two.best_value, two.best_params)
        assert serial[1].start_value == parallel[1].start_value


def test_sampled_ladder_never_reuses_an_evaluation_seed(monkeypatch):
    seen = []

    # the driver passes each evaluation seed hashed to its PCG64 start
    def spy(ansatz, points, plan, shots, seeds, *args, **kwargs):
        seen.extend(tuple(seed) for seed in seeds)
        return qsim._estimate(ansatz, points, plan, shots, seeds, *args, **kwargs)

    monkeypatch.setattr(driver, "_estimate", spy)
    config = quick_config(mode=SAMPLED, shots=200, iterations=5, restarts=2)
    run_hierarchical(LADDER[:2], config)
    # cold rung: 50 calibration probes + 11 SPSA evaluations per run; warm rung:
    # one start probe + 11 evaluations per run
    assert len(seen) == 2 * 61 + 1 + 2 * 11
    assert len(set(seen)) == len(seen)


# run seeds below 2^32 make [run seed, k] take SeedSequence's packed word
# layout, not the (low, high) words of a 63-bit seed_stream seed; the last
# puts both layouts in one prefetch pass
SMALL_RUN_SEEDS = (0, 2**32 - 1, 2**40 + 7)


def prefetched_and_per_evaluation(monkeypatch, run, small_seeds, block=7):
    """run() with the driver's prefetched evaluation seeds, then with per_evaluation_evaluator."""
    with monkeypatch.context() as patch:
        patch.setattr(driver, "_SEED_BLOCK", block)
        if small_seeds:
            patch.setattr(driver, "seed_stream", lambda master, count: SMALL_RUN_SEEDS[:count])
        got = run()
        patch.setattr(driver, "_batch_evaluator", per_evaluation_evaluator)
        return got, run()


def hexes(values) -> list:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("small_seeds", [False, True])
@pytest.mark.parametrize("restarts", [1, 2, 3])
@pytest.mark.parametrize("mode", [SAMPLED, NOISY])
def test_prefetched_states_match_per_evaluation_seeding(
    q2_problem, monkeypatch, mode, restarts, small_seeds
):
    # 50 calibration probes per run in one call, then 25 SPSA evaluations in
    # twos, across blocks of 7 that leave one seed over between refills
    config = quick_config(mode=mode, shots=200, iterations=12, restarts=restarts)
    got, want = prefetched_and_per_evaluation(
        monkeypatch, lambda: run_ensemble(config, q2_problem), small_seeds
    )
    assert hexes(got.values) == hexes(want.values)
    assert hexes(got.best_params) == hexes(want.best_params)


def test_prefetched_states_cross_full_blocks(q2_problem, monkeypatch):
    # 50 + 2 * 240 + 1 evaluations per run take three passes of _SEED_BLOCK
    config = quick_config(mode=SAMPLED, shots=200, iterations=240, restarts=2)
    assert 2 * driver._SEED_BLOCK < 50 + config.budget
    got, want = prefetched_and_per_evaluation(
        monkeypatch, lambda: run_ensemble(config, q2_problem), False, driver._SEED_BLOCK
    )
    assert hexes(got.values + got.best_params) == hexes(want.values + want.best_params)


@pytest.mark.parametrize("small_seeds", [False, True])
def test_prefetched_states_match_in_nelder_mead(q2_problem, monkeypatch, small_seeds):
    config = quick_config(mode=SAMPLED, shots=200, iterations=10, optimizer=NELDER_MEAD)
    got, want = prefetched_and_per_evaluation(
        monkeypatch, lambda: run_vqe(config, q2_problem), small_seeds
    )
    # one row per call, 21 evaluations across blocks of 7
    assert len(got.trace.eval_values) > 2 * 7
    assert hexes(got.trace.eval_values) == hexes(want.trace.eval_values)
    assert hexes((got.value,) + got.params) == hexes((want.value,) + want.params)


@pytest.mark.parametrize("small_seeds", [False, True])
def test_prefetched_states_match_in_warm_start_ladder(monkeypatch, small_seeds):
    config = quick_config(mode=SAMPLED, shots=200, iterations=5, restarts=2)
    got, want = prefetched_and_per_evaluation(
        monkeypatch, lambda: run_hierarchical(LADDER[:2], config), small_seeds
    )
    for one, two in zip(got, want, strict=True):
        # the warm rung's start value is the probe's one evaluation
        assert hexes((one.start_value, one.best_value)) == hexes((two.start_value, two.best_value))
        assert hexes(one.best_params) == hexes(two.best_params)


def serial_states(ansatz, points):
    """`prepare_states` as the oracle's one state per row."""
    return np.array([
        serial_prepare_state(ansatz.qubits, ansatz.depth, ansatz.entangler, row) for row in points
    ])


def test_exact_ensemble_matches_serial_state_preparation_bit_for_bit(monkeypatch):
    # every value and the best parameters, hex for hex, against the same
    # ensemble with each state prepared alone by the oracle; no hex is
    # recorded, so the check holds on any platform and numpy
    config = build_vqe_config(resolve_settings(CONFIG_DIR / "q4.cfg"))
    config = dataclasses.replace(config, restarts=3, iterations=30, gain_policy=CALIBRATED)
    batched = run_ensemble(config)
    monkeypatch.setattr(driver, "prepare_states", serial_states)
    alone = run_ensemble(config)
    assert len(batched.best_params) == 16  # four qubits, depth 1
    assert [v.hex() for v in batched.values] == [v.hex() for v in alone.values]
    assert [p.hex() for p in batched.best_params] == [p.hex() for p in alone.best_params]


def test_exact_warm_start_ladder_matches_serial_state_preparation_bit_for_bit(monkeypatch):
    # the warm rung's embedded start leaves its new qubit in |0>, so half its
    # amplitudes are exactly 0, and their sign may differ from the oracle's;
    # no energy may move
    config = quick_config(iterations=20, restarts=2)
    zero_parts = []

    def batched_states(ansatz, points):
        states = prepare_states(ansatz, points)
        zero_parts.append(bool((states.view(float) == 0.0).any()))
        return states

    monkeypatch.setattr(driver, "prepare_states", batched_states)
    batched = run_hierarchical(LADDER[:2], config)
    assert any(zero_parts)
    monkeypatch.setattr(driver, "prepare_states", serial_states)
    alone = run_hierarchical(LADDER[:2], config)
    for one, two in zip(batched, alone, strict=True):
        assert hexes((one.start_value, one.best_value)) == hexes((two.start_value, two.best_value))
        assert hexes(one.best_params) == hexes(two.best_params)


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


def refuse_ensembles(monkeypatch):
    """Make any ensemble batch fail, so a test sees that bad input is refused before one runs."""

    def run_batch(*args, **kwargs):
        raise AssertionError("an ensemble ran before the input was refused")

    monkeypatch.setattr(driver, "_run_batch", run_batch)


def test_barrier_scan_refuses_a_bad_height_before_any_ensemble(monkeypatch):
    refuse_ensembles(monkeypatch)
    with pytest.raises(ValueError, match="barrier must be finite and >= 0, got -1.0"):
        run_barrier_scan(quick_config(iterations=5, restarts=1), (0.5, 1.0, -1.0))


def test_barrier_scan_refuses_a_monostable_first_dihedral_before_any_build(monkeypatch):
    refuse_ensembles(monkeypatch)
    monkeypatch.setattr(driver, "_build", lambda config: pytest.fail("a scan problem was built"))
    chain = ChainSpec(
        dihedrals=(DihedralSpec(MONOSTABLE, 1.0), DihedralSpec(BISTABLE, 0.5)),
        diffusion=(1.0, 1.0, 1.0),
    )
    config = quick_config(chain=chain, iterations=5, restarts=1)
    with pytest.raises(ValueError, match="needs a bistable first dihedral, got monostable"):
        run_barrier_scan(config, (0.5, 3.0))


def test_qubit_scan_refuses_a_bad_rung_before_any_ensemble(monkeypatch):
    refuse_ensembles(monkeypatch)
    with pytest.raises(ValueError, match="got kept=40"):
        run_qubit_scan(quick_config(iterations=5, restarts=1), ((4, 2), (4, 4), (40, 4)))


@pytest.mark.parametrize(
    "ladder, message",
    [
        (((4, 2), (4, 4), (40, 4)), "got kept=40"),
        (((4, 2), (4, 4), (16, 4)), "grow by one qubit at a time"),
    ],
)
def test_hierarchical_refuses_a_bad_rung_before_any_ensemble(monkeypatch, ladder, message):
    refuse_ensembles(monkeypatch)
    with pytest.raises(ValueError, match=message):
        run_hierarchical(ladder, quick_config(iterations=5, restarts=1))


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
    ansatz, plan = q2_problem.ansatz, qsim._measurement_plan(q2_problem.operator, grouping)
    want_sampled = [
        qsim._estimate(ansatz, params[None, :], plan, 700, numpy_starts([seed]))[0][0]
        for seed in seed_stream(config.seed + 7919, 5)
    ]
    want_noisy = [
        qsim._estimate(ansatz, params[None, :], plan, 700, numpy_starts([seed]), noise, mitigate)[0][0]
        for seed in seed_stream(config.seed + 2 * 7919, 5)
    ]
    assert [v.hex() for v in sampled.values] == [v.hex() for v in want_sampled]
    assert [v.hex() for v in noisy.values] == [v.hex() for v in want_noisy]


@pytest.fixture(scope="module")
def rung_problems():
    return {rung: build_problem(make_chain(), rung, ladder=LADDER[: i + 1]) for i, rung in enumerate(LADDER)}


@pytest.mark.parametrize("rung", LADDER)
@pytest.mark.parametrize("grouping", [True, False])
@pytest.mark.parametrize("shots", [1, 20000])
def test_distribution_study_sampled_batch_matches_one_row_loop(rung_problems, rung, grouping, shots):
    problem = rung_problems[rung]
    ladder = LADDER[: LADDER.index(rung) + 1]
    config = quick_config(kept_counts=rung, ladder=ladder, shots=shots, grouping=grouping)
    params = np.random.default_rng(sum(rung)).uniform(-7.0, 7.0, problem.ansatz.parameter_count)
    (study,) = run_distribution_study(config, params, modes=(SAMPLED,), repetitions=20, problem=problem)
    plan = qsim._measurement_plan(problem.operator, grouping)
    want = [
        qsim._estimate(problem.ansatz, params[None, :], plan, shots, numpy_starts([rep_seed]))[0][0]
        for rep_seed in seed_stream(config.seed + 7919, 20)
    ]
    assert [v.hex() for v in study.values] == [v.hex() for v in want]


def test_distribution_study_checks_every_mode_before_estimating(q2_problem, monkeypatch):
    def estimate(*args, **kwargs):
        raise AssertionError("estimated before every mode was checked")

    for name in ("prepare_state", "_estimate"):
        monkeypatch.setattr(driver, name, estimate)
    with pytest.raises(ValueError, match="must be statistical, got 'exact'"):
        run_distribution_study(
            quick_config(), np.zeros(8), modes=(SAMPLED, "exact"), repetitions=4, problem=q2_problem
        )


def test_distribution_study_prepares_one_row_per_call(q2_problem, monkeypatch):
    rows = []

    def prepare(ansatz, params):
        rows.append(len(params))
        return prepare_states(ansatz, params)

    monkeypatch.setattr(qsim, "prepare_states", prepare)
    run_distribution_study(quick_config(shots=200), np.full(8, 0.4), repetitions=50, problem=q2_problem)
    assert rows and set(rows) == {1}


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


def test_calibration_runs_once_per_cold_lockstep_batch(q2_problem, monkeypatch):
    calls = []

    def spy(evaluate, x0, seeds):
        calls.append((x0.shape, tuple(seeds)))
        return optimize.calibrated_gains(evaluate, x0, seeds)

    monkeypatch.setattr(driver, "calibrated_gains", spy)
    # one lockstep batch, calibrated in one call for all its runs
    config = quick_config(iterations=5, restarts=3)
    run_ensemble(config, q2_problem)
    assert calls == [((3, 8), seed_stream(config.seed, 3))]
    calls.clear()
    run_ensemble(dataclasses.replace(config, gain_policy=FIXED), q2_problem)
    run_hierarchical(LADDER[:2], dataclasses.replace(config, gain_policy=FIXED))
    assert calls == []
    # the warm rung (three qubits, 12 angles) starts from the embedded x0
    run_hierarchical(LADDER[:2], config)
    assert calls == [((3, 8), seed_stream(config.seed, 3))]


def test_replace_config_reruns_cleanly(q2_problem):
    # dataclasses.replace round-trips through validation
    config = quick_config()
    faster = dataclasses.replace(config, iterations=10)
    assert faster.budget == 21
    run = run_vqe(faster, q2_problem)
    assert run.trace.n_evaluations == 21
