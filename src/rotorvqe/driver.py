"""Experiment orchestration: single runs, restart ensembles, scans, warm-start ladders.

Ensembles derive per-run seeds from a master seed with a splitmix64 stream, so
every experiment is a pure function of (config, seed) regardless of worker
count.  Under the calibrated gain policy, cold-start SPSA runs calibrate the
step gain per run by probing the objective at the initial point;
warm-started runs always keep SPSA's fixed gain, because a gradient probe at
an already-converged point is degenerate.

Every run is an ask/tell stepper (`optimize`) over one batch evaluator, run
by one loop, `optimize.drive`.  SPSA runs one lockstep stepper per batch
(the restarts of an ensemble or of a warm-start rung, a `vqe` run as a batch
of one) and Nelder-Mead one stepper per run; either way each round is one
evaluate call.  Each run keeps its own random streams, its start angles and
SPSA directions from its run seed and its shots from a tagged stream of
that seed, so its result is bit-identical to the run made alone.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chain import (
    CompositeBasis,
    build_chain_matrix,
    build_composite_basis,
    pad_matrix,
    rate_constant,
    reference_spectrum,
)
from .optimize import OptTrace, calibrated_gains, drive, nelder_mead, spsa_lockstep
from .paulimap import PauliOperator, map_operator
from .potential import BISTABLE, ChainSpec
from .qsim import (
    EXACT,
    LINEAR,
    NOISY,
    SAMPLED,
    AnsatzSpec,
    NoiseSpec,
    _estimate,
    _measurement_plan,
    embed_params,
    prepare_state,
    prepare_states,
)

SPSA = "spsa"
NELDER_MEAD = "nelder-mead"
FIXED = "fixed"
CALIBRATED = "calibrated"

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def seed_stream(master_seed: int, count: int) -> tuple:
    """Expand a master seed into `count` independent 63-bit seeds (splitmix64, in uint64 arrays)."""
    z = np.arange(1, count + 1, dtype=np.uint64) * _SPLITMIX_GAMMA + np.uint64(master_seed & _MASK64)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z ^= z >> 31
    return tuple((z >> 1).tolist())


@dataclass(frozen=True)
class Problem:
    """A chain eigenproblem bound to a register: matrix, ansatz and Pauli operator.

    The operator and each grouping's measurement plan are built on first
    read and kept, so exact runs, which read neither, never map.  A pickled
    problem, as `workers > 1` sends it, carries its fields only: each
    process builds its own operator and plans.
    """

    basis: CompositeBasis
    matrix: np.ndarray = field(repr=False)
    ansatz: AnsatzSpec
    reference: float

    def __getstate__(self) -> dict:
        # the fields only: the cached operator and plans stay behind
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @property
    def qubits(self) -> int:
        return self.ansatz.qubits

    @cached_property
    def operator(self) -> PauliOperator:
        return map_operator(self.matrix)

    @cached_property
    def _plans(self) -> dict:
        return {}

    def _plan(self, grouping: bool):
        """The operator's `qsim._measurement_plan` under `grouping`, compiled once."""
        if grouping not in self._plans:
            self._plans[grouping] = _measurement_plan(self.operator, grouping)
        return self._plans[grouping]


def build_problem(
    chain: ChainSpec,
    kept_counts,
    harmonics: int = 16,
    ladder=None,
    depth: int = 1,
    entangler: str = LINEAR,
) -> Problem:
    """Assemble the padded generator matrix, the chain's lowest eigenvalue and the ansatz.

    The eigenvalue is the unpadded chain matrix's, as `rotorvqe reference` prints it.
    """
    basis = build_composite_basis(chain, kept_counts, harmonics=harmonics, ladder=ladder)
    ansatz = AnsatzSpec(qubits=basis.qubits, depth=depth, entangler=entangler)
    matrix = build_chain_matrix(basis)
    reference = float(reference_spectrum(matrix)[0][0])
    return Problem(basis=basis, matrix=pad_matrix(matrix, basis.qubits), ansatz=ansatz, reference=reference)


# the noise model of every config that gives none: one frozen spec, shared
_DEFAULT_NOISE = NoiseSpec()


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
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.noise is None:
            object.__setattr__(self, "noise", _DEFAULT_NOISE)
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


# the spawn key that tags every shot stream: SeedSequence appends a spawn key
# after its entropy padded to four words, so no plain seed, neither a run
# seed (`default_rng(run seed)`, the start angles and SPSA directions) nor a
# [seed, 0xCA11] calibration seed, makes the same stream
_SHOTS = 0x5407


def _shot_stream(seed: int, *key) -> np.random.Generator:
    """The generator that draws a run's (or a study mode's) shots, tagged by `_SHOTS` and `key`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_SHOTS,) + key))


def _batch_evaluator(problem: Problem, config: VqeConfig, run_seeds):
    """Objective over stacked points[B, P], row i belonging to run runs[i] of `run_seeds`.

    The one way to evaluate an objective, `evaluate(points, runs)`: every
    batch is one call.  Exact mode contracts the prepared states against
    the matrix and needs no runs; the statistical modes call the shot
    estimator, `qsim._estimate`, on the problem's measurement plan, with
    the configured noise model in noisy mode.  Each run owns one shot
    stream, `_shot_stream(run seed)`, which draws its rows' counts in
    evaluation order, so every run sees the draws it would see alone; the
    streams and each call's runs go to the estimator, and its values come
    back, as they are.
    """
    if config.mode == EXACT:
        return lambda points, runs: _energies(prepare_states(problem.ansatz, points), problem.matrix)
    noise = config.noise if config.mode == NOISY else None
    plan = problem._plan(config.grouping)
    streams = [_shot_stream(run_seed) for run_seed in run_seeds]

    def evaluate(points, runs):
        return _estimate(problem.ansatz, points, plan, config.shots, streams, runs, noise, config.mitigate)

    return evaluate


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
    def rate(self) -> float | None:
        """`rate_constant` of the best value, or None where it refuses one.

        A sampled or noisy estimate can fall below zero, where no rate is defined.
        """
        try:
            return rate_constant(self.value)
        except ValueError:
            return None

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


def _spsa(starts, run_seeds, iterations: int, calibrate: bool, keep_records: bool):
    """A lockstep SPSA stepper, whose gains are calibrated at the starts first when `calibrate`."""
    gains = (yield from calibrated_gains(starts, run_seeds)) if calibrate else None
    return (yield from spsa_lockstep(starts, run_seeds, iterations, gains, keep_records))


def _single_run(problem: Problem, config: VqeConfig, run_seed: int) -> VqeRun:
    """One run: a chunk of one whose trace is kept."""
    (trace,) = _run_chunk((problem, config, (run_seed,), None, True))
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


def _run_chunk(args) -> list:
    """One chunk's runs in seed order, an OptTrace each when traced, else (value, params).

    Cold SPSA starts calibrate under the calibrated policy; a warm start (a
    given x0) keeps the fixed gain.
    """
    problem, config, run_seeds, x0, trace = args
    starts = _start_points(problem, run_seeds, x0)
    if config.optimizer == NELDER_MEAD:
        steppers = [(nelder_mead(start), run, 1) for run, start in enumerate(starts)]
    else:
        calibrate = config.gain_policy == CALIBRATED and x0 is None
        stepper = _spsa(starts, run_seeds, config.iterations, calibrate, trace)
        steppers = [(stepper, 0, len(run_seeds))]
    evaluate = _batch_evaluator(problem, config, run_seeds)
    courses = drive(evaluate, steppers, config.budget, trace)
    if trace:
        return [course.trace(run) for course in courses for run in range(course.count)]
    return [
        (float(value), tuple(params))
        for course in courses
        for value, params in zip(course.result[1], course.result[2])
    ]


def _chunks(items, count: int) -> list:
    """`items` split into `count` contiguous chunks whose lengths differ by at most one."""
    size, extra = divmod(len(items), count)
    bounds = [0]
    for i in range(count):
        bounds.append(bounds[-1] + size + (i < extra))
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _run_batch(problem: Problem, config: VqeConfig, run_seeds, x0=None):
    """One run per seed (`_run_chunk`); reduction is ordered by run index regardless of workers.

    `workers` only splits the seed list into contiguous chunks, one per
    worker.
    """
    chunks = _chunks(run_seeds, min(config.workers, len(run_seeds)))
    jobs = [(problem, config, chunk, x0, False) for chunk in chunks]
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
    """One ensemble per height of the first dihedral's barrier, all built first; (barrier, stats) pairs.

    The scanned dihedral must be bistable: its barrier is the reactive one.
    """
    barriers = tuple(float(b) for b in barriers)
    if not barriers:
        raise ValueError("need at least one barrier height")
    scanned = config.chain.dihedrals[0]
    if scanned.kind != BISTABLE:
        raise ValueError(f"barrier scan needs a bistable first dihedral, got {scanned.kind}")
    scans = []
    for barrier in barriers:
        first = dataclasses.replace(scanned, barrier=barrier)
        chain = dataclasses.replace(
            config.chain, dihedrals=(first,) + config.chain.dihedrals[1:]
        )
        scan_config = dataclasses.replace(config, chain=chain)
        scans.append((barrier, scan_config, _build(scan_config)))
    return tuple((barrier, run_ensemble(c, problem)) for barrier, c, problem in scans)


def _rung_problems(config: VqeConfig, ladder):
    """Each rung's config and problem along a nested ladder, in rung order."""
    for i, rung in enumerate(ladder):
        rung_config = dataclasses.replace(config, kept_counts=rung, ladder=ladder[: i + 1])
        yield rung_config, _build(rung_config)


def run_qubit_scan(config: VqeConfig, ladder) -> tuple:
    """Ensembles along a nested basis ladder, all built first; (kept_counts, stats) pairs."""
    ladder = tuple(tuple(int(c) for c in rung) for rung in ladder)
    rungs = list(_rung_problems(config, ladder))
    return tuple((c.kept_counts, run_ensemble(c, problem)) for c, problem in rungs)


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
    that point with SPSA's fixed gain under either gain policy; the embedded
    value itself participates in the minimum, which makes rung minima
    non-increasing by construction.  Every rung's problem is built, its
    build checking that the ladder is nested, and checked to add one qubit,
    before the first ensemble runs.
    """
    ladder = tuple(tuple(int(c) for c in rung) for rung in ladder)
    if len(ladder) < 2:
        raise ValueError("a warm-start ladder needs at least two rungs")
    if any(small == large for small, large in zip(ladder, ladder[1:])):
        raise ValueError("consecutive ladder rungs must strictly grow")
    rungs = []
    for rung_config, problem in _rung_problems(config, ladder):
        if rungs and problem.qubits != rungs[-1][1].qubits + 1:
            raise ValueError("ladder rungs must grow by one qubit at a time")
        rungs.append((rung_config, problem))

    out = []
    for i, (rung_config, problem) in enumerate(rungs):
        seeds = seed_stream(config.seed + i, config.restarts)
        if i == 0:
            results = _run_batch(problem, rung_config, seeds)
            start_value = math.nan
        else:
            # the previous rung's ansatz is this one's less its new qubit
            x0 = embed_params(rungs[i - 1][1].ansatz, np.asarray(params, dtype=float))
            # the probe takes the seed after the runs' seeds, so its shot
            # stream is no run's
            probe_seed = seed_stream(config.seed + i, config.restarts + 1)[-1]
            evaluate = _batch_evaluator(problem, rung_config, (probe_seed,))
            start_value = float(evaluate(x0[None, :], np.zeros(1, dtype=np.intp))[0])
            results = _run_batch(problem, rung_config, seeds, x0=x0)
            results.append((start_value, tuple(float(v) for v in x0)))
        value, params = min(results, key=lambda pair: pair[0])
        out.append(
            RungResult(
                kept_counts=rung_config.kept_counts,
                qubits=problem.qubits,
                start_value=start_value,
                best_value=value,
                best_params=params,
                reference=problem.reference,
            )
        )
    return tuple(out)


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


_STUDY_MODES = (SAMPLED, NOISY)


def _check_study(repetitions: int, modes=_STUDY_MODES) -> None:
    """Reject a distribution study's repetitions or modes before anything runs."""
    if repetitions < 2:
        raise ValueError("need at least two repetitions for spread statistics")
    for mode in modes:
        if mode not in _STUDY_MODES:
            raise ValueError(f"distribution study mode must be statistical, got {mode!r}")


def run_distribution_study(
    config: VqeConfig,
    params,
    modes=_STUDY_MODES,
    repetitions: int = 200,
    problem: Problem = None,
) -> tuple:
    """Re-measure a fixed parameter set many times per mode (histogram data).

    Each mode estimates all its repetitions in one call of
    `qsim._estimate`: the mode's outcome distributions are made once, from
    the one parameter row, and the mode's one shot stream (`_shot_stream`
    of the master seed, keyed by the mode) draws the repetitions in order,
    so the first k repetitions of a study are a k-repetition study, each
    the value a one-row `qsim._estimate` from that stream gives it.  The
    row's state is prepared once, for the exact value and the sampled
    table alike.
    """
    _check_study(repetitions, modes)
    if problem is None:
        problem = _build(config)
    params = np.asarray(params, dtype=float)
    if len(params) != problem.ansatz.parameter_count:
        raise ValueError(
            f"expected {problem.ansatz.parameter_count} parameters, got {len(params)}"
        )
    if not np.isfinite(params).all():
        raise ValueError("every parameter must be a finite angle")
    if not modes:
        return ()
    states = prepare_state(problem.ansatz, params)[None, :]
    exact_value = float(_energies(states, problem.matrix)[0])
    plan = problem._plan(config.grouping)
    runs = np.zeros(repetitions, dtype=np.intp)
    out = []
    for mode in modes:
        streams = [_shot_stream(config.seed, _STUDY_MODES.index(mode))]
        noise = config.noise if mode == NOISY else None
        values = _estimate(problem.ansatz, params[None, :], plan, config.shots, streams, runs, noise, config.mitigate, states)
        out.append(DistributionStudy(mode, tuple(values.tolist()), exact_value))
    return tuple(out)
