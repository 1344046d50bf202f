"""Experiment orchestration: single runs, restart ensembles, scans, warm-start ladders.

Ensembles derive per-run seeds from a master seed with a splitmix64 stream, so
every experiment is a pure function of (config, seed) regardless of worker
count.  Cold-start SPSA runs calibrate the step gain per run by probing the
objective at the initial point; warm-started runs keep the configured gains,
because a gradient probe at an already-converged point is degenerate.

Every SPSA run goes through the optimizer as a lockstep batch: the restarts
of an ensemble or of a warm-start rung together, and a single `vqe` run as a
batch of one.  A batch makes one evaluation for all calibration probes, then
one of every run's probe pair per iteration, `iterations` times, and one of
the terminal points.  Each run keeps its own random streams and evaluation
seeds, so its result is bit-identical to the run made alone.  One batch
evaluator serves every mode and every caller; Nelder-Mead and the warm-start
probe pass it one row at a time.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .chain import (
    CompositeBasis,
    build_chain_matrix,
    build_composite_basis,
    pad_matrix,
    rate_constant,
    reference_spectrum,
)
from .optimize import (
    NelderMeadConfig,
    ObjectiveSpec,
    OptTrace,
    SpsaConfig,
    TraceRecord,
    finish_trace,
    nelder_mead_minimize,
    spsa_lockstep,
)
from .paulimap import PauliOperator, map_operator
from .potential import ChainSpec, DihedralSpec
from .qsim import (
    EXACT,
    LINEAR,
    NOISY,
    SAMPLED,
    AnsatzSpec,
    NoiseSpec,
    _noisy_estimates,
    embed_params,
    prepare_state,
    prepare_states,
    sampled_expectation,
    sampled_expectations,
)

SPSA = "spsa"
NELDER_MEAD = "nelder-mead"
FIXED = "fixed"
CALIBRATED = "calibrated"

_CALIBRATION_TRIALS = 25
_CALIBRATION_STEP = 2.0 * math.pi / 10.0

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def seed_stream(master_seed: int, count: int) -> tuple:
    """Expand a master seed into `count` independent 63-bit seeds (splitmix64)."""
    state = master_seed & _MASK64
    out = []
    for _ in range(count):
        state = (state + _SPLITMIX_GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        out.append(z >> 1)
    return tuple(out)


@dataclass(frozen=True)
class Problem:
    """A chain eigenproblem bound to a register: matrix, operator, ansatz."""

    basis: CompositeBasis
    matrix: np.ndarray = field(repr=False)
    operator: PauliOperator = field(repr=False)
    ansatz: AnsatzSpec
    reference: float

    @property
    def qubits(self) -> int:
        return self.ansatz.qubits


def build_problem(
    chain: ChainSpec,
    kept_counts,
    harmonics: int = 16,
    ladder=None,
    depth: int = 1,
    entangler: str = LINEAR,
) -> Problem:
    """Assemble the padded generator matrix, its Pauli expansion, and the ansatz."""
    basis = build_composite_basis(chain, kept_counts, harmonics=harmonics, ladder=ladder)
    matrix = pad_matrix(build_chain_matrix(basis), basis.qubits)
    operator = map_operator(matrix)
    ansatz = AnsatzSpec(qubits=basis.qubits, depth=depth, entangler=entangler)
    reference = float(reference_spectrum(matrix)[0][0])
    return Problem(basis=basis, matrix=matrix, operator=operator, ansatz=ansatz, reference=reference)


@dataclass(frozen=True)
class VqeConfig:
    """Everything one variational run (or ensemble of runs) depends on."""

    chain: ChainSpec
    kept_counts: tuple
    ladder: tuple = None
    harmonics: int = 16
    depth: int = 1
    entangler: str = LINEAR
    mode: str = EXACT
    shots: int = 20000
    noise: NoiseSpec = None
    mitigate: bool = True
    grouping: bool = True
    optimizer: str = SPSA
    iterations: int = 600
    gain_policy: str = CALIBRATED
    spsa: SpsaConfig = field(default_factory=SpsaConfig)
    nelder_mead: NelderMeadConfig = field(default_factory=NelderMeadConfig)
    restarts: int = 60
    seed: int = 2021
    workers: int = 1

    def __post_init__(self):
        if self.mode not in (EXACT, SAMPLED, NOISY):
            raise ValueError(f"unknown evaluation mode {self.mode!r}")
        if self.optimizer not in (SPSA, NELDER_MEAD):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.gain_policy not in (FIXED, CALIBRATED):
            raise ValueError(f"unknown gain policy {self.gain_policy!r}")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.shots < 1:
            raise ValueError("need at least one shot")
        if self.mode == NOISY and self.noise is None:
            object.__setattr__(self, "noise", NoiseSpec())
        kept = tuple(int(c) for c in self.kept_counts)
        object.__setattr__(self, "kept_counts", kept)
        if self.ladder is not None:
            object.__setattr__(
                self, "ladder", tuple(tuple(int(c) for c in rung) for rung in self.ladder)
            )

    @property
    def budget(self) -> int:
        """Objective evaluations per run: SPSA spends two per iteration plus a final one."""
        return 2 * self.iterations + 1


def _build(config: VqeConfig) -> Problem:
    return build_problem(
        config.chain,
        config.kept_counts,
        harmonics=config.harmonics,
        ladder=config.ladder,
        depth=config.depth,
        entangler=config.entangler,
    )


def _energies(states: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """<psi|H|psi> of every row of states[B, 2^Q].

    Contracted as stacked products, bra times matrix then times ket, so each
    value is bit-identical to `np.conj(psi) @ matrix @ psi` for one state; a
    single (B, d) @ (d, d) product or `einsum` differs in the last bit.
    """
    bra = np.matmul(np.conj(states)[:, None, :], matrix)
    return np.matmul(bra, states[:, :, None])[:, 0, 0].real


def _batch_evaluator(problem: Problem, config: VqeConfig, run_seeds):
    """Objective over stacked points[B, P], row i belonging to run i % len(run_seeds).

    The one way to evaluate an objective: a single point is a batch of one
    row.  Exact and sampled modes evaluate the whole batch in one call; noisy
    mode evolves each row's density matrix in turn.  Statistical modes seed
    every evaluation with [run seed, run's evaluation count], so every run
    sees the evaluation seeds it would see alone.
    """
    if config.mode == EXACT:
        return lambda points: _energies(prepare_states(problem.ansatz, points), problem.matrix)
    counters = [0] * len(run_seeds)

    def evaluate(points):
        seeds = []
        for i in range(len(points)):
            run = i % len(run_seeds)
            seeds.append([run_seeds[run] & _MASK64, counters[run]])
            counters[run] += 1
        if config.mode == SAMPLED:
            estimates = sampled_expectations(
                problem.ansatz, points, problem.operator, config.shots, seeds, grouping=config.grouping
            )
        else:
            estimates = [
                _noisy_estimates(
                    problem.ansatz, point, problem.operator, config.shots, config.noise, [seed],
                    config.mitigate, config.grouping,
                )[0]
                for point, seed in zip(points, seeds)
            ]
        return np.array([est.value for est in estimates])

    return evaluate


def _calibrated_gains(evaluate, x0: np.ndarray, config: VqeConfig, run_seeds) -> np.ndarray:
    """Per-run SPSA step gains `a` so each first update moves ~2pi/10 per angle.

    Mirrors the self-calibration of era-typical SPSA drivers: probe the
    objective along random Rademacher directions at each run's start point
    x0[r] and set `a` from the mean finite-difference magnitude; a run whose
    probes show no slope keeps the configured `a`.  All runs' probes go to
    `evaluate` as one batch, ordered so that row i belongs to run i % R and
    each run's probes come in its own (+, -) trial order.  The probe budget
    is bookkept separately from the optimization budget.
    """
    cfg = config.spsa
    runs, dim = x0.shape
    delta = np.stack(
        [
            np.random.default_rng([seed & _MASK64, 0xCA11]).integers(
                0, 2, size=(_CALIBRATION_TRIALS, dim)
            )
            for seed in run_seeds
        ],
        axis=1,
    ) * 2.0 - 1.0
    probes = np.stack((x0 + cfg.c * delta, x0 - cfg.c * delta), axis=1)
    values = np.asarray(evaluate(probes.reshape(-1, dim)), dtype=float)
    acc = np.zeros(runs)
    for up, down in values.reshape(_CALIBRATION_TRIALS, 2, runs):
        acc += np.abs(up - down) / _CALIBRATION_TRIALS
    gradient_scale = acc / (2.0 * cfg.c)
    step = _CALIBRATION_STEP * (cfg.A + 1.0) ** cfg.alpha
    return np.array([cfg.a if g <= 0.0 else step / float(g) for g in gradient_scale])


@dataclass(frozen=True)
class VqeRun:
    """Outcome of a single variational optimization."""

    value: float
    params: tuple
    reference: float
    trace: OptTrace = field(repr=False)
    seed: int
    mode: str
    optimizer: str

    @property
    def rate(self) -> float:
        return rate_constant(self.value)

    @property
    def error_percent(self) -> float:
        return 100.0 * (self.value - self.reference) / self.reference


def _start_points(problem: Problem, run_seeds, x0=None) -> np.ndarray:
    """One start per run: the shared x0, or uniform angles drawn from each run seed."""
    dim = problem.ansatz.parameter_count
    if x0 is not None:
        return np.tile(np.asarray(x0, dtype=float), (len(run_seeds), 1))
    return np.array(
        [np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, dim) for seed in run_seeds]
    )


def _lockstep_runs(
    problem: Problem, config: VqeConfig, run_seeds, x0=None, calibrate=None, observe=None, spent=None
):
    """SPSA runs for `run_seeds` in lockstep; (value, params) per run, in seed order.

    Each run keeps its own direction stream, calibrated gain, evaluation seeds
    and running best, so its result is bit-identical to the run made alone.
    `observe` goes to `spsa_lockstep`, and `spent(values)` sees every batch
    of values the descent evaluates; calibration probes reach neither.
    """
    evaluate = _batch_evaluator(problem, config, run_seeds)
    starts = _start_points(problem, run_seeds, x0)
    if calibrate is None:
        calibrate = config.gain_policy == CALIBRATED
    gains = _calibrated_gains(evaluate, starts, config, run_seeds) if calibrate else None

    def descend(points):
        values = evaluate(points)
        if spent is not None:
            spent(values)
        return values

    values, params = spsa_lockstep(
        descend, starts, run_seeds, config.iterations, config.spsa, a=gains, observe=observe
    )
    return [(float(value), tuple(point)) for value, point in zip(values, params)]


def _single_run(problem: Problem, config: VqeConfig, run_seed: int, x0=None, calibrate=None) -> VqeRun:
    """One run: an SPSA lockstep batch of one, or Nelder-Mead on a one-row objective."""
    if config.optimizer == NELDER_MEAD:
        evaluate = _batch_evaluator(problem, config, (run_seed,))
        (start,) = _start_points(problem, (run_seed,), x0)
        obj = ObjectiveSpec(
            lambda point: float(evaluate(np.asarray(point, dtype=float)[None, :])[0]),
            problem.ansatz.parameter_count,
            config.budget,
            seed=run_seed,
        )
        trace = nelder_mead_minimize(obj, config.nelder_mead, x0=start)
    else:
        records, eval_values = [], []

        def observe(k, points, values):
            records.append(TraceRecord(k, tuple(points[0]), float(values[0])))

        _lockstep_runs(
            problem, config, (run_seed,), x0, calibrate, observe,
            lambda values: eval_values.extend(values.tolist()),
        )
        trace = finish_trace(records, eval_values, "budget")
    return VqeRun(
        value=trace.best_value,
        params=trace.best_params,
        reference=problem.reference,
        trace=trace,
        seed=run_seed,
        mode=config.mode,
        optimizer=config.optimizer,
    )


def run_vqe(config: VqeConfig, problem: Problem = None) -> VqeRun:
    """One optimization from a random start drawn from the master seed."""
    if problem is None:
        problem = _build(config)
    (run_seed,) = seed_stream(config.seed, 1)
    return _single_run(problem, config, run_seed)


@dataclass(frozen=True)
class EnsembleStats:
    """Restart-ensemble summary against the classical reference."""

    values: tuple
    reference: float
    best_params: tuple = field(repr=False)

    def __post_init__(self):
        if not self.values:
            raise ValueError("ensemble needs at least one run")

    @property
    def minimum(self) -> float:
        return min(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def eps_min(self) -> float:
        return 100.0 * (self.minimum - self.reference) / self.reference

    @property
    def eps_avg(self) -> float:
        return 100.0 * (self.mean - self.reference) / self.reference


def _run_chunk(args):
    problem, config, run_seeds, x0, calibrate = args
    if config.optimizer == NELDER_MEAD:
        runs = (_single_run(problem, config, seed, x0=x0, calibrate=calibrate) for seed in run_seeds)
        return [(run.value, run.params) for run in runs]
    return _lockstep_runs(problem, config, run_seeds, x0=x0, calibrate=calibrate)


def _chunks(items, count: int) -> list:
    """`items` split into `count` contiguous chunks whose lengths differ by at most one."""
    size, extra = divmod(len(items), count)
    bounds = [0]
    for i in range(count):
        bounds.append(bounds[-1] + size + (i < extra))
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _run_batch(problem: Problem, config: VqeConfig, run_seeds, x0=None, calibrate=None):
    """One run per seed; reduction is ordered by run index regardless of workers.

    SPSA runs go through the optimizer in lockstep, as one batch per worker:
    `workers` only splits the seed list into contiguous chunks.  Nelder-Mead
    branches per run, so each of its runs is a chunk of its own.
    """
    if config.optimizer == NELDER_MEAD:
        chunks = [(seed,) for seed in run_seeds]
    else:
        chunks = _chunks(run_seeds, min(config.workers, len(run_seeds)))
    jobs = [(problem, config, chunk, x0, calibrate) for chunk in chunks]
    if config.workers == 1 or len(jobs) == 1:
        results = list(map(_run_chunk, jobs))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_run_chunk, jobs))
    return [pair for chunk in results for pair in chunk]


def run_ensemble(config: VqeConfig, problem: Problem = None) -> EnsembleStats:
    """Independent restarts from random initial angles; aggregate best values."""
    if problem is None:
        problem = _build(config)
    results = _run_batch(problem, config, seed_stream(config.seed, config.restarts))
    values = tuple(value for value, _ in results)
    best_params = min(results, key=lambda pair: pair[0])[1]
    return EnsembleStats(values=values, reference=problem.reference, best_params=best_params)


def run_barrier_scan(config: VqeConfig, barriers) -> tuple:
    """One ensemble per bistable barrier height; returns (barrier, stats) pairs."""
    barriers = tuple(float(b) for b in barriers)
    if not barriers:
        raise ValueError("need at least one barrier height")
    out = []
    for barrier in barriers:
        first = dataclasses.replace(config.chain.dihedrals[0], barrier=barrier)
        chain = dataclasses.replace(
            config.chain, dihedrals=(first,) + config.chain.dihedrals[1:]
        )
        scan_config = dataclasses.replace(config, chain=chain)
        out.append((barrier, run_ensemble(scan_config)))
    return tuple(out)


def run_qubit_scan(config: VqeConfig, ladder) -> tuple:
    """Ensembles along a nested basis ladder; returns (kept_counts, stats) pairs."""
    ladder = tuple(tuple(int(c) for c in rung) for rung in ladder)
    out = []
    for i, rung in enumerate(ladder):
        rung_config = dataclasses.replace(config, kept_counts=rung, ladder=ladder[: i + 1])
        out.append((rung, run_ensemble(rung_config)))
    return tuple(out)


@dataclass(frozen=True)
class RungResult:
    kept_counts: tuple
    qubits: int
    start_value: float
    best_value: float
    best_params: tuple = field(repr=False)
    reference: float


def run_hierarchical(ladder, config: VqeConfig) -> tuple:
    """Warm-start ladder: optimize the smallest register, embed, re-optimize.

    The first rung is a cold restart ensemble.  Each later rung embeds the
    previous best parameters (new most-significant qubit at zero rotation, so
    the previous state is reproduced exactly) and runs a restart ensemble from
    that point with the configured fixed gains; the embedded value itself
    participates in the minimum, which makes rung minima non-increasing by
    construction.
    """
    ladder = tuple(tuple(int(c) for c in rung) for rung in ladder)
    if len(ladder) < 2:
        raise ValueError("a warm-start ladder needs at least two rungs")
    for small, large in zip(ladder, ladder[1:]):
        if len(small) != len(large) or any(a > b for a, b in zip(small, large)):
            raise ValueError(f"ladder rungs must be nested: {small} then {large}")
        if small == large:
            raise ValueError("consecutive ladder rungs must strictly grow")

    rungs = []
    params = None
    best = math.inf
    for i, rung in enumerate(ladder):
        rung_config = dataclasses.replace(config, kept_counts=rung, ladder=ladder[: i + 1])
        problem = _build(rung_config)
        seeds = seed_stream(config.seed + i, config.restarts)
        if i == 0:
            results = _run_batch(problem, rung_config, seeds)
            start_value = math.nan
        else:
            if problem.ansatz.parameter_count != len(params) + 2 * config.depth + 2:
                raise ValueError("ladder rungs must grow by one qubit at a time")
            smaller = AnsatzSpec(
                qubits=problem.qubits - 1, depth=config.depth, entangler=config.entangler
            )
            x0 = embed_params(smaller, np.asarray(params, dtype=float))
            # the probe takes the seed after the runs' seeds, so its evaluation
            # seeds are not those of run 0's first probe
            probe_seed = seed_stream(config.seed + i, config.restarts + 1)[-1]
            start_value = float(_batch_evaluator(problem, rung_config, (probe_seed,))(x0[None, :])[0])
            results = _run_batch(problem, rung_config, seeds, x0=x0, calibrate=False)
            results.append((start_value, tuple(float(v) for v in x0)))
        value, best_params = min(results, key=lambda pair: pair[0])
        best = min(best, value)
        params = best_params
        rungs.append(
            RungResult(
                kept_counts=rung,
                qubits=problem.qubits,
                start_value=start_value,
                best_value=value,
                best_params=best_params,
                reference=problem.reference,
            )
        )
    return tuple(rungs)


@dataclass(frozen=True)
class DistributionStudy:
    """Repeated re-estimation of one converged state under statistical modes."""

    mode: str
    values: tuple
    exact_value: float

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values, ddof=1))

    @property
    def minimum(self) -> float:
        return min(self.values)


def run_distribution_study(
    config: VqeConfig,
    params,
    modes=(SAMPLED, NOISY),
    repetitions: int = 200,
    problem: Problem = None,
) -> tuple:
    """Re-measure a fixed parameter set many times per mode (histogram data)."""
    if repetitions < 2:
        raise ValueError("need at least two repetitions for spread statistics")
    if problem is None:
        problem = _build(config)
    params = np.asarray(params, dtype=float)
    if len(params) != problem.ansatz.parameter_count:
        raise ValueError(
            f"expected {problem.ansatz.parameter_count} parameters, got {len(params)}"
        )
    if not np.isfinite(params).all():
        raise ValueError("every parameter must be a finite angle")
    state = prepare_state(problem.ansatz, params)
    exact_value = float(_energies(state[None, :], problem.matrix)[0])
    noise = config.noise if config.noise is not None else NoiseSpec()
    studies = []
    for m, mode in enumerate(modes):
        if mode not in (SAMPLED, NOISY):
            raise ValueError(f"distribution study mode must be statistical, got {mode!r}")
        seeds = seed_stream(config.seed + 7919 * (m + 1), repetitions)
        if mode == SAMPLED:
            estimates = [
                sampled_expectation(
                    problem.ansatz, params, problem.operator, config.shots,
                    grouping=config.grouping, seed=rep_seed,
                )
                for rep_seed in seeds
            ]
        else:
            estimates = _noisy_estimates(
                problem.ansatz, params, problem.operator, config.shots, noise, seeds,
                config.mitigate, config.grouping,
            )
        values = tuple(est.value for est in estimates)
        studies.append(DistributionStudy(mode=mode, values=values, exact_value=exact_value))
    return tuple(studies)
