"""Acceptance gate: every release criterion, one test each, pinned tolerances.

Each test prints a single `ACCEPTANCE <nn> PASS|FAIL` line (visible in the
report summary) before asserting, so the full scorecard survives a red run.
The heavy restart ensembles come from session fixtures in conftest.py and run
the production protocol: 600 SPSA iterations, 60 restarts, calibrated gains,
master seed 2021.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.stats

from rotorvqe.chain import (
    build_chain_matrix,
    build_composite_basis,
    pad_matrix,
    reference_spectrum,
)
from rotorvqe.driver import (
    NELDER_MEAD,
    VqeConfig,
    _single_run,
    build_problem,
    run_distribution_study,
    run_hierarchical,
)
from rotorvqe.paulimap import map_operator
from rotorvqe.qsim import SAMPLED, prepare_state

from conftest import LADDER, MASTER_SEED, make_chain, production_config

from oracles import dense_from_labels

REFERENCES = (
    # (barrier, kept counts, ladder, pinned eigenvalue)
    (0.5, (4, 2), None, 1.51562),
    (0.5, (4, 4), LADDER[:2], 1.47537),
    (0.5, (8, 4), LADDER, 1.47531),
    (3.0, (4, 2), None, 0.33310),
)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _exact_value(problem, params) -> float:
    state = prepare_state(problem.ansatz, np.asarray(params, dtype=float))
    return float(np.real(np.conj(state) @ problem.matrix @ state))


def test_criterion_01_reference_eigenvalues():
    """The four pinned eigenvalues reproduce to 5e-4 relative, each in under 1s."""
    worst = 0.0
    slowest = 0.0
    for barrier, kept, ladder, pinned in REFERENCES:
        start = time.perf_counter()
        basis = build_composite_basis(make_chain(barrier), kept, ladder=ladder)
        value = float(reference_spectrum(build_chain_matrix(basis))[0][0])
        elapsed = time.perf_counter() - start
        worst = max(worst, abs(value - pinned) / pinned)
        slowest = max(slowest, elapsed)
    ok = worst <= 5e-4 and slowest < 1.0
    _verdict(1, ok, f"max rel dev {worst:.2e} (tol 5e-4), slowest {slowest:.3f}s (<1s)")


def test_criterion_02_pauli_round_trip():
    """Operator mapping reconstructs matrices to 1e-12, 100 random cases, <1s."""
    start = time.perf_counter()
    basis = build_composite_basis(make_chain(), (8, 4), ladder=LADDER)
    matrix = pad_matrix(build_chain_matrix(basis), basis.qubits)
    worst = _round_trip_error(matrix)
    rng = np.random.default_rng(8)
    for case in range(100):
        dim = 4 if case % 2 else 8
        random_matrix = rng.normal(size=(dim, dim))
        worst = max(worst, _round_trip_error(random_matrix + random_matrix.T))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _verdict(2, ok, f"max reconstruction error {worst:.2e} (tol 1e-12), {elapsed:.3f}s (<1s)")


def _round_trip_error(matrix) -> float:
    operator = map_operator(matrix, tol=0.0)
    dense = dense_from_labels([(s.label, c) for s, c in operator])
    return float(np.max(np.abs(dense - matrix)))


def test_criterion_03_two_qubit_ensembles(q2_stats, q2_high_barrier_stats):
    """Default-protocol ensembles pin the 2-qubit problem at both barrier heights."""
    low_min = 100.0 * abs(q2_stats.minimum - 1.51562) / 1.51562
    high_min = 100.0 * abs(q2_high_barrier_stats.minimum - 0.33310) / 0.33310
    ok = low_min <= 0.5 and q2_stats.eps_avg <= 8.0 and high_min <= 0.5
    _verdict(
        3,
        ok,
        f"barrier 0.5: min dev {low_min:.4f}% (<=0.5), eps_avg {q2_stats.eps_avg:.3f}% (<=8); "
        f"barrier 3.0: min dev {high_min:.4f}% (<=0.5)",
    )


def test_criterion_04_accuracy_degrades_with_register_size(q2_stats, q3_stats, q4_stats):
    """Mean ensemble error grows with qubit count, sharply at four qubits."""
    increasing = q2_stats.eps_avg < q3_stats.eps_avg < q4_stats.eps_avg
    ratio = q4_stats.eps_avg / q3_stats.eps_avg
    ok = increasing and ratio > 2.0
    _verdict(
        4,
        ok,
        f"eps_avg {q2_stats.eps_avg:.3f} < {q3_stats.eps_avg:.3f} < {q4_stats.eps_avg:.3f} %"
        f"{'' if increasing else ' (NOT increasing)'}; Q4/Q3 ratio {ratio:.2f} (>2)",
    )


def test_criterion_05_hierarchical_ladder():
    """Warm-started rung minima never increase and land within 1% of targets."""
    rungs = run_hierarchical(LADDER, production_config())
    values = [r.best_value for r in rungs]
    non_increasing = all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    targets = (1.516, 1.484, 1.475)
    deviations = [100.0 * abs(v - t) / t for v, t in zip(values, targets)]
    ok = non_increasing and all(d <= 1.0 for d in deviations)
    _verdict(
        5,
        ok,
        "best " + " >= ".join(f"{v:.5f}" for v in values)
        + f"; target devs {', '.join(f'{d:.3f}%' for d in deviations)} (<=1%)",
    )


def test_criterion_06_rate_slows_with_barrier_height():
    """The reference eigenvalue decreases strictly with the reactive barrier."""
    barriers = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    values = []
    for barrier in barriers:
        basis = build_composite_basis(make_chain(barrier), (4, 2))
        values.append(float(reference_spectrum(build_chain_matrix(basis))[0][0]))
    ok = all(b < a for a, b in zip(values, values[1:]))
    _verdict(6, ok, "lambda1 " + " > ".join(f"{v:.5f}" for v in values))


def test_criterion_07_shot_noise_statistics(q2_problem, q2_stats):
    """Sampling is unbiased and its spread follows the 1/sqrt(shots) law."""
    params = q2_stats.best_params
    exact = _exact_value(q2_problem, params)
    config = VqeConfig(chain=make_chain(), kept_counts=(4, 2), seed=MASTER_SEED, shots=20000)
    (fine,) = run_distribution_study(config, params, modes=(SAMPLED,), repetitions=200, problem=q2_problem)
    coarse_config = VqeConfig(chain=make_chain(), kept_counts=(4, 2), seed=MASTER_SEED, shots=5000)
    (coarse,) = run_distribution_study(coarse_config, params, modes=(SAMPLED,), repetitions=200, problem=q2_problem)
    se = fine.std / math.sqrt(len(fine.values))
    mean_dev = abs(fine.mean - exact) / se
    ratio = coarse.std / fine.std
    ok = mean_dev <= 3.0 and 1.6 <= ratio <= 2.4
    _verdict(
        7,
        ok,
        f"mean off exact by {mean_dev:.2f} se (<=3); std ratio 5000/20000 = {ratio:.3f} (2 +/- 20%)",
    )


def test_criterion_08_noise_shifts_and_widens(q2_problem, q2_stats):
    """Gate/readout noise biases the estimate upward and inflates its spread."""
    params = q2_stats.best_params
    config = VqeConfig(chain=make_chain(), kept_counts=(4, 2), seed=MASTER_SEED, shots=20000)
    sampled, noisy = run_distribution_study(config, params, repetitions=200, problem=q2_problem)
    ideal = np.asarray(sampled.values)
    disturbed = np.asarray(noisy.values)
    mean_test = scipy.stats.ttest_ind(disturbed, ideal, equal_var=False, alternative="greater")
    f_stat = np.var(disturbed, ddof=1) / np.var(ideal, ddof=1)
    var_p = float(scipy.stats.f.sf(f_stat, len(disturbed) - 1, len(ideal) - 1))
    ok = (
        noisy.mean > sampled.mean
        and noisy.std > sampled.std
        and mean_test.pvalue < 0.01
        and var_p < 0.01
    )
    _verdict(
        8,
        ok,
        f"means {noisy.mean:.5f} > {sampled.mean:.5f} (p={mean_test.pvalue:.1e}); "
        f"stds {noisy.std:.5f} > {sampled.std:.5f} (p={var_p:.1e}); alpha=0.01",
    )


def test_criterion_09_variational_bound_holds_everywhere():
    """1000 random parameter vectors per register size never undercut the reference."""
    rng = np.random.default_rng(20260816)
    worst_margin = math.inf
    for kept, ladder in (((4, 2), None), ((4, 4), LADDER[:2]), ((8, 4), LADDER)):
        problem = build_problem(make_chain(), kept, ladder=ladder)
        for _ in range(1000):
            params = rng.uniform(0.0, 2.0 * math.pi, problem.ansatz.parameter_count)
            worst_margin = min(worst_margin, _exact_value(problem, params) - problem.reference)
    ok = worst_margin >= -1e-9
    _verdict(9, ok, f"min(value - reference) = {worst_margin:.3e} (>= -1e-9)")


def test_criterion_10_spsa_beats_nelder_mead_to_one_percent():
    """SPSA should cross 1% of the reference in fewer evaluations on >=7/10 seeds.

    Matched budgets on the noiseless 3-qubit objective, both arms one
    `_single_run` from the same start; SPSA runs the default calibrated
    protocol and is charged its 50 calibration probes.
    """
    problem = build_problem(make_chain(), (4, 4), ladder=LADDER[:2])
    threshold = 1.01 * problem.reference
    config = production_config(kept=(4, 4), ladder=LADDER[:2])
    nelder_mead = dataclasses.replace(config, optimizer=NELDER_MEAD)

    def crossing(values, offset=0):
        for i, value in enumerate(values):
            if value <= threshold:
                return offset + i + 1
        return None

    wins = 0
    details = []
    for seed in range(10):
        spsa_cross = crossing(_single_run(problem, config, seed).trace.eval_values, offset=50)
        nm_cross = crossing(_single_run(problem, nelder_mead, seed).trace.eval_values)
        if spsa_cross is not None and (nm_cross is None or spsa_cross < nm_cross):
            wins += 1
        details.append(f"seed {seed}: spsa {spsa_cross} vs nm {nm_cross}")
    ok = wins >= 7
    _verdict(10, ok, f"SPSA first to 1% on {wins}/10 seeds (need >=7); " + "; ".join(details))
