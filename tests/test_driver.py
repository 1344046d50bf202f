import collections
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
    per_run_evaluator,
    serial_nelder_mead,
    serial_prepare_state,
    serial_seed_stream,
    shot_stream,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def one_stream(count) -> np.ndarray:
    """runs[count], every row drawn from the one stream given."""
    return np.zeros(count, dtype=np.intp)


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


def test_configs_without_noise_share_one_default_spec():
    # a config that gives no noise model holds the one frozen default, not a
    # fresh spec; a replaced or unpickled config still holds an equal one
    one, two = quick_config(), quick_config(seed=3, mode=NOISY)
    assert one.noise is two.noise
    assert one.noise == NoiseSpec() and hash(one.noise) == hash(NoiseSpec())
    replaced = dataclasses.replace(one, shots=500)
    assert replaced.noise is one.noise
    copy = pickle.loads(pickle.dumps(one))
    assert copy == one and copy.noise == NoiseSpec()
    assert quick_config(noise=NoiseSpec(p1=0.01)).noise != one.noise
    with pytest.raises(dataclasses.FrozenInstanceError):
        one.noise.p1 = 0.5


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


def pool_words(seed_seq) -> tuple:
    """The first four words a SeedSequence generates: what its generator is seeded from."""
    return tuple(seed_seq.generate_state(4).tolist())


@pytest.mark.parametrize("mode", [SAMPLED, NOISY])
def test_first_evaluation_does_not_draw_from_the_run_seed_stream(q2_problem, monkeypatch, mode):
    # default_rng(run seed) draws the run's start angles and SPSA directions;
    # the shots must come from another stream, and not from the calibration's
    drawn, counts_of = [], qsim._counts

    def spy(streams, runs, shots, probs):
        counts = counts_of(streams, runs, shots, probs)
        drawn.append((probs, counts))
        return counts

    monkeypatch.setattr(qsim, "_counts", spy)
    config = quick_config(mode=mode, shots=20000, iterations=2, restarts=1)
    (run_seed,) = seed_stream(config.seed, 1)
    run_vqe(config, q2_problem)
    probs, counts = drawn[0]
    assert probs.shape[1] >= 1
    for seed in (run_seed, [run_seed, 0], [run_seed, 0xCA11]):
        assert not np.array_equal(counts[0], np.random.default_rng(seed).multinomial(20000, probs[0])), seed
    assert np.array_equal(counts[0], shot_stream(run_seed).multinomial(20000, probs[0]))


def test_no_two_runs_and_no_probe_share_a_shot_stream(monkeypatch):
    streams, rows = {}, collections.Counter()

    def spying(draw):
        def spy(ansatz, points, plan, shots, given, runs, *args, **kwargs):
            for run in runs.tolist():
                streams[id(given[run])] = given[run]
                rows[id(given[run])] += 1
            return draw(ansatz, points, plan, shots, given, runs, *args, **kwargs)

        return spy

    # runs estimate through _estimate; a study draws its counts through _shot_counts
    for name in ("_estimate", "_shot_counts"):
        monkeypatch.setattr(driver, name, spying(getattr(qsim, name)))
    config = quick_config(mode=SAMPLED, shots=200, iterations=5, restarts=2)
    run_hierarchical(LADDER[:2], config)
    run_distribution_study(config, np.full(8, 0.4), repetitions=4)
    # cold rung: 50 calibration probes + 11 SPSA evaluations per run; warm
    # rung: 11 evaluations per run, and the start probe's one; the study:
    # 4 repetitions per mode
    assert sorted(rows.values()) == [1, 4, 4, 11, 11, 61, 61]
    # every stream is its own, and none is a plain seed's: neither a run's
    # start angles and directions nor its calibration directions
    runs = seed_stream(config.seed, 2) + seed_stream(config.seed + 1, 3)
    plain = [np.random.SeedSequence(seed) for seed in runs]
    plain += [np.random.SeedSequence([seed, 0xCA11]) for seed in runs]
    words = {pool_words(rng.bit_generator.seed_seq) for rng in streams.values()}
    assert len(words) == 7
    assert not words & {pool_words(seq) for seq in plain}


def hexes(values) -> list:
    return [float(v).hex() for v in values]


def driver_and_per_run(monkeypatch, run, **oracle_overrides):
    """run() through the driver, then run(**oracle_overrides) with `per_run_evaluator` in its place."""
    got = run()
    with monkeypatch.context() as patch:
        patch.setattr(driver, "_batch_evaluator", per_run_evaluator)
        return got, run(**oracle_overrides)


@pytest.mark.parametrize("restarts", [1, 2, 3])
@pytest.mark.parametrize("mode", [SAMPLED, NOISY])
def test_spsa_ensemble_matches_the_per_run_oracle(q2_problem, monkeypatch, mode, restarts):
    # 50 calibration probes per run in one call, then 25 SPSA evaluations in twos
    config = quick_config(mode=mode, shots=200, iterations=12, restarts=restarts)
    got, want = driver_and_per_run(monkeypatch, lambda: run_ensemble(config, q2_problem))
    assert hexes(got.values) == hexes(want.values)
    assert hexes(got.best_params) == hexes(want.best_params)


@pytest.mark.parametrize("mode", [SAMPLED, NOISY])
def test_each_lockstep_run_matches_the_run_made_alone(q2_problem, mode):
    config = quick_config(mode=mode, shots=200, iterations=12, gain_policy=CALIBRATED)
    seeds = seed_stream(config.seed, 3)
    batch = driver._run_batch(q2_problem, config, seeds)
    for seed, run in zip(seeds, batch, strict=True):
        ((value, params),) = driver._run_batch(q2_problem, config, (seed,))
        assert hexes((value,) + params) == hexes((run[0],) + run[1])


@pytest.mark.parametrize("mode", [SAMPLED, NOISY])
def test_nelder_mead_matches_the_per_run_oracle(q2_problem, monkeypatch, mode):
    config = quick_config(mode=mode, shots=200, iterations=10, optimizer=NELDER_MEAD)
    got, want = driver_and_per_run(monkeypatch, lambda: run_vqe(config, q2_problem))
    # one row per call, 21 evaluations
    assert len(got.trace.eval_values) == 21
    assert hexes(got.trace.eval_values) == hexes(want.trace.eval_values)
    assert hexes((got.value,) + got.params) == hexes((want.value,) + want.params)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", [SAMPLED, NOISY])
def test_warm_start_ladder_matches_the_per_run_oracle(monkeypatch, mode, workers):
    # the oracle runs in one process; the driver at one worker and at two
    config = quick_config(mode=mode, shots=200, iterations=5, restarts=3)

    def run(workers=workers):
        return run_hierarchical(LADDER[:2], dataclasses.replace(config, workers=workers))

    got, want = driver_and_per_run(monkeypatch, run, workers=1)
    for one, two in zip(got, want, strict=True):
        # the warm rung's start value is the probe's one evaluation
        assert hexes((one.start_value, one.best_value)) == hexes((two.start_value, two.best_value))
        assert hexes(one.best_params) == hexes(two.best_params)


@pytest.mark.parametrize("mode", [SAMPLED, NOISY])
def test_two_worker_ensembles_match_the_per_run_oracle(q2_problem, monkeypatch, mode):
    # three runs split 2 + 1 across the workers; Nelder-Mead runs one at a time in each
    for optimizer in (driver.SPSA, NELDER_MEAD):
        config = quick_config(mode=mode, shots=200, iterations=8, restarts=3, optimizer=optimizer)

        def run(workers=2):
            return run_ensemble(dataclasses.replace(config, workers=workers), q2_problem)

        got, want = driver_and_per_run(monkeypatch, run, workers=1)
        assert hexes(got.values + got.best_params) == hexes(want.values + want.best_params)


@pytest.mark.parametrize("shots", [1, 200])
@pytest.mark.parametrize("mode", [SAMPLED, NOISY])
def test_evaluator_draws_uneven_rows_from_each_run_stream(q2_problem, mode, shots):
    # three runs' rows in uneven counts and mixed order, then a second call
    # that goes on from where the first left each stream: every value must
    # be its row estimated alone, in order, from its own run's stream
    config = quick_config(mode=mode, shots=shots)
    seeds = seed_stream(config.seed, 3)
    points = np.random.default_rng(4).uniform(0.0, 2.0 * math.pi, (9, 8))
    evaluate = driver._batch_evaluator(q2_problem, config, seeds)
    alone = per_run_evaluator(q2_problem, config, seeds)
    for rows, runs in ((slice(0, 6), [2, 0, 2, 1, 0, 2]), (slice(6, 9), [1, 1, 0])):
        runs = np.array(runs)
        assert hexes(evaluate(points[rows], runs)) == hexes(alone(points[rows], runs))


def traced_runs(problem, config, run_seeds, x0=None):
    """Each run's OptTrace, chunk by chunk as `_run_batch` splits the seeds over the workers."""
    return [
        trace
        for chunk in driver._chunks(run_seeds, min(config.workers, len(run_seeds)))
        for trace in driver._run_chunk((problem, config, chunk, x0, True))
    ]


def one_point_objective(problem, config, run_seeds, run):
    """Run `run`'s objective, one point per call: the driver's exact evaluator, or `per_run_evaluator`."""
    make = driver._batch_evaluator if config.mode == EXACT else per_run_evaluator
    evaluate = make(problem, config, run_seeds)
    return lambda point: evaluate(point[None, :], np.array([run]))[0]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("restarts", [1, 2, 3])
@pytest.mark.parametrize("mode", [EXACT, SAMPLED, NOISY])
def test_lockstep_nelder_mead_matches_the_serial_loop(q2_problem, monkeypatch, mode, restarts, workers):
    # every live run's point goes to one evaluate call per round, and each run
    # must still be the one-point-per-call loop, hex for hex.  At a budget of
    # 601 runs end at different evaluations: in exact mode seed 12's second
    # run converges at 573 and the others spend the budget; sampled and
    # noisy runs converge at 260-300.  The short budget, statistical modes
    # only, stops the first run between two evaluations of one shrink
    config = quick_config(
        mode=mode, shots=200, optimizer=NELDER_MEAD, iterations=300, restarts=restarts, seed=12,
        workers=workers,
    )
    seeds = seed_stream(config.seed, restarts)
    starts = driver._start_points(q2_problem, seeds)
    budgets = [config.budget]
    if mode != EXACT:
        moves = serial_nelder_mead(
            one_point_objective(q2_problem, config, seeds, 0), starts[0], config.budget
        )[3]
        budgets.append(next(i for i in range(1, 99, 2) if moves[i - 1] == moves[i] == "shrink"))
    calls = []

    def counted(ansatz, points):
        calls.append(len(points))
        return prepare_states(ansatz, points)

    monkeypatch.setattr(driver, "prepare_states", counted)
    for budget in budgets:
        config = dataclasses.replace(config, iterations=(budget - 1) // 2)
        calls.clear()
        traces = traced_runs(q2_problem, config, seeds)
        rounds = len(calls)
        ends, bests = [], []
        for run, trace in enumerate(traces):
            records, values, termination, _, best = serial_nelder_mead(
                one_point_objective(q2_problem, config, seeds, run), starts[run], budget
            )
            assert hexes(trace.eval_values) == hexes(values)
            assert [(r.iteration, hexes(r.params), r.value.hex()) for r in trace.records] == [
                (k, hexes(params), value.hex()) for k, params, value in records
            ]
            assert trace.termination == termination
            assert hexes((trace.best_value,) + trace.best_params) == hexes((best[2],) + best[1])
            ends.append((len(values), termination))
            bests.append((best[2],) + best[1])
        stats = run_ensemble(config, q2_problem)
        assert hexes(stats.values) == hexes(best[0] for best in bests)
        assert hexes(stats.best_params) == hexes(min(bests, key=lambda best: best[0])[1:])
        if budget != budgets[0]:
            assert ends[0] == (budget, "budget")
        elif restarts == 3:
            # a run converges while another goes on
            assert any(t == "converged" and n < max(m for m, _ in ends) for n, t in ends)
        if mode == EXACT and workers == 1:
            # one state preparation per round: as many as the longest run's evaluations
            assert rounds == max(n for n, _ in ends)


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
        (((4, 2), (2, 4)), "componentwise nested"),
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


@pytest.mark.parametrize("mode", [SAMPLED, NOISY])
def test_statistical_nelder_mead_converges_by_a_collapsed_simplex(q2_problem, mode):
    # "converged" is the simplex's diameter under its tolerance; under shot
    # noise the simplex collapses wherever it stands, so at 200 shots these
    # runs end "converged" within half their budget, far above the reference
    for seed in (11, 12, 13):
        config = quick_config(
            mode=mode, shots=200, optimizer=NELDER_MEAD, iterations=300, restarts=1, seed=seed
        )
        run = run_vqe(config, q2_problem)
        assert run.trace.termination == "converged"
        assert 266 <= run.trace.n_evaluations <= 296 < config.budget // 2
        state = prepare_state(q2_problem.ansatz, np.asarray(run.params))
        exact = float(np.real(np.conj(state) @ q2_problem.matrix @ state))
        assert exact > q2_problem.reference + 3.0


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
    # each mode's repetitions, one estimate at a time from the mode's one stream
    rng = shot_stream(config.seed, 0)
    want_sampled = [qsim._estimate(ansatz, params[None, :], plan, 700, [rng], one_stream(1))[0][0] for _ in range(5)]
    rng = shot_stream(config.seed, 1)
    want_noisy = [
        qsim._estimate(ansatz, params[None, :], plan, 700, [rng], one_stream(1), noise, mitigate)[0][0]
        for _ in range(5)
    ]
    assert [v.hex() for v in sampled.values] == [v.hex() for v in want_sampled]
    assert [v.hex() for v in noisy.values] == [v.hex() for v in want_noisy]
    # a mode's stream does not depend on the other modes studied
    (alone,) = run_distribution_study(config, params, modes=(NOISY,), repetitions=5, problem=q2_problem)
    assert alone.values == noisy.values


@pytest.mark.parametrize("mitigate", [True, False])
def test_distribution_study_repetitions_are_a_prefix_of_longer_studies(q2_problem, mitigate):
    config = quick_config(shots=500, mitigate=mitigate)
    params = np.linspace(-1.0, 2.0, 8)
    longest = run_distribution_study(config, params, repetitions=9, problem=q2_problem)
    for k in (2, 5):
        shorter = run_distribution_study(config, params, repetitions=k, problem=q2_problem)
        for one, two in zip(longest, shorter, strict=True):
            assert one.mode == two.mode
            assert hexes(one.values[:k]) == hexes(two.values)


def test_distribution_study_spread_matches_the_reported_standard_error(q2_problem):
    # over 400 repetitions the sample standard deviation has a relative
    # standard error of about 1/sqrt(2 * 399) = 3.5%; the check allows 15%,
    # over four of those.  The reported variances come from the same draws
    config = quick_config(shots=2000)
    params = np.linspace(0.3, 2.1, 8)
    (study,) = run_distribution_study(config, params, modes=(SAMPLED,), repetitions=400, problem=q2_problem)
    plan = q2_problem._plan(config.grouping)
    values, variances = qsim._estimate(
        q2_problem.ansatz, params[None, :], plan, 2000, [shot_stream(config.seed, 0)], one_stream(400)
    )
    assert hexes(values) == hexes(study.values)
    predicted = math.sqrt(float(np.mean(variances)))
    assert study.std / predicted == pytest.approx(1.0, abs=0.15)


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
    rng = shot_stream(config.seed, 0)
    want = [qsim._estimate(problem.ansatz, params[None, :], plan, shots, [rng], one_stream(1))[0][0] for _ in range(20)]
    assert [v.hex() for v in study.values] == [v.hex() for v in want]


def test_distribution_study_of_no_modes_is_empty(q2_problem):
    assert run_distribution_study(quick_config(), np.zeros(8), modes=(), repetitions=4, problem=q2_problem) == ()
    # its parameters are still checked
    with pytest.raises(ValueError, match="expected 8 parameters"):
        run_distribution_study(quick_config(), np.zeros(7), modes=(), repetitions=4, problem=q2_problem)


def test_distribution_study_checks_every_mode_before_estimating(q2_problem, monkeypatch):
    def estimate(*args, **kwargs):
        raise AssertionError("estimated before every mode was checked")

    for name in ("prepare_state", "_shot_counts", "_tally"):
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


def test_distribution_study_prepares_its_state_once(q2_problem, monkeypatch):
    # the exact value and the sampled table read one prepared row; the noisy
    # table runs on Pauli components and prepares no state
    blocks, evolved = [], qsim._evolved

    def counted(ansatz, values):
        blocks.append(len(values))
        return evolved(ansatz, values)

    monkeypatch.setattr(qsim, "_evolved", counted)
    config = quick_config(shots=300)
    studies = run_distribution_study(config, np.full(8, 0.4), repetitions=6, problem=q2_problem)
    assert blocks == [1]
    monkeypatch.setattr(qsim, "_evolved", evolved)
    again = run_distribution_study(config, np.full(8, 0.4), repetitions=6, problem=q2_problem)
    assert [hexes(study.values) + [study.exact_value.hex()] for study in studies] == [
        hexes(study.values) + [study.exact_value.hex()] for study in again
    ]


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

    def spy(x0, seeds):
        calls.append((x0.shape, tuple(seeds)))
        return optimize.calibrated_gains(x0, seeds)

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


def test_runs_count_calibration_apart_from_their_budget(q2_problem):
    # descent and final evaluations fill the budget, 2 * iterations + 1; a
    # calibrated cold SPSA run spends its 25 probe pairs besides, and no
    # other run spends any calibration
    config = quick_config(iterations=12)

    def counts(trace):
        return len(trace.eval_values), trace.calibration_evaluations

    assert counts(run_vqe(config, q2_problem).trace) == (25, 50)
    assert counts(run_vqe(dataclasses.replace(config, gain_policy=FIXED), q2_problem).trace) == (25, 0)
    assert counts(run_vqe(dataclasses.replace(config, optimizer=NELDER_MEAD), q2_problem).trace) == (25, 0)
    # a warm rung's runs start from the embedded x0 and keep the fixed gain
    seeds = seed_stream(config.seed, 3)
    warm = traced_runs(q2_problem, config, seeds, x0=np.full(8, 0.3))
    assert [counts(trace) for trace in warm] == [(25, 0)] * 3
    cold = traced_runs(q2_problem, config, seeds)
    assert [counts(trace) for trace in cold] == [(25, 50)] * 3


def test_replace_config_reruns_cleanly(q2_problem):
    # dataclasses.replace round-trips through validation
    config = quick_config()
    faster = dataclasses.replace(config, iterations=10)
    assert faster.budget == 21
    run = run_vqe(faster, q2_problem)
    assert run.trace.n_evaluations == 21
