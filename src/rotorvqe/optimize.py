"""Derivative-free minimizers for the variational loop, as ask/tell steppers.

A stepper is a generator that yields asks, (purpose, points[B, P], runs[B]),
and is sent back each ask's values[B], row i a point of its run runs[i].
`drive` runs steppers over one `evaluate(points, runs)`, the asks of every
live stepper in one call per round.  An optimizer's stepper returns
(termination, best values[R], best params[R, P], records), records each
run's TraceRecords when kept, else None.  `spsa_lockstep` steps every run
of a batch together, one run being a batch of one: each iteration asks for
every run's +/- probe pair, and one more ask for the terminal points
follows, so `iterations` buys 2*iterations + 1 evaluations per run.
`calibrated_gains` asks for probes at the start points and returns each
run's gain a.  `nelder_mead` asks for one point at a time and ends
converged or stopped, so the driver gives it the same budget and runs with
either algorithm are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
# iterations of SPSA directions drawn per generator call; one (block, dim)
# draw yields the same bits as block successive (dim,) draws
_DIRECTION_BLOCK = 64
# Nelder-Mead: the start simplex's edge along each axis, the reflect, expand,
# contract and shrink coefficients, and the simplex diameter that ends a run
_NM_STEP = 0.1
_NM_REFLECTION = 1.0
_NM_EXPANSION = 2.0
_NM_CONTRACTION = 0.5
_NM_SHRINK = 0.5
_NM_DIAMETER_TOL = 1e-6
# SPSA's gain schedule a_k = a/(A+k+1)^alpha, c_k = c/(k+1)^gamma: the gain a,
# the probe half-width c, the stability constant A and Spall's exponents
# (IEEE TAES 34(3), 1998)
_SPSA_GAIN = TWO_PI / 10.0
_SPSA_PERTURBATION = 0.1
_SPSA_STABILITY = 0.0
_SPSA_ALPHA = 0.602
_SPSA_GAMMA = 0.101
# calibration: Rademacher probe pairs per run, and the first step per angle
_CALIBRATION_TRIALS = 25
_CALIBRATION_STEP = TWO_PI / 10.0
_MASK64 = (1 << 64) - 1
# what an ask's rows are for: gain calibration probes, outside the budget,
# or the search's own points, inside it
CALIBRATION, DESCENT = "calibration", "descent"
_ONE_RUN = np.zeros(1, dtype=np.intp)


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    params: tuple
    value: float


@dataclass(frozen=True)
class OptTrace:
    records: tuple
    eval_values: tuple
    best_params: tuple
    best_value: float
    termination: str
    calibration_evaluations: int = 0

    @property
    def n_evaluations(self) -> int:
        return len(self.eval_values)


def trace_to_csv(trace: OptTrace) -> str:
    dim = len(trace.best_params)
    header = "iteration,value," + ",".join(f"p{i}" for i in range(dim))
    lines = [header]
    for rec in trace.records:
        fields = [str(rec.iteration), f"{rec.value:.17g}"]
        fields.extend(f"{p:.17g}" for p in rec.params)
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def finish_trace(records, eval_values, termination, calibration_evaluations=0) -> OptTrace:
    """The trace of a finished run, its best the first lowest record that is not NaN.

    That is the record a strict `<` update, record by record, keeps, as in
    `spsa_lockstep`: ties and signed zeros keep the earlier record.  When
    every record is NaN, the best is the first record.
    """
    comparable = [r for r in records if not math.isnan(r.value)]
    best = min(comparable or records[:1], key=lambda r: r.value)
    return OptTrace(
        records=tuple(records),
        eval_values=tuple(eval_values),
        best_params=best.params,
        best_value=best.value,
        termination=termination,
        calibration_evaluations=calibration_evaluations,
    )


class Course:
    """A stepper's course through `drive`, serving runs first .. first + count - 1.

    A lockstep stepper asks each of its runs the same rows, so they share
    its calibration rows and its budget, `budget` rows per run outside
    calibration.
    """

    def __init__(self, stepper, first: int, count: int, budget, trace: bool):
        self.stepper, self.first, self.count = stepper, first, count
        self.allowance, self.spent, self.calibration = budget * count, 0, 0
        self.eval_values = [[] for _ in range(count)] if trace else None
        self.ask = self.result = None

    def tell(self, values) -> bool:
        """Send the stepper values (None to start it) and tally its next ask; False once it ends.

        An ask that would overspend the budget stops the stepper there, and
        it returns its result, as Python 3.13's `close` would have it.
        """
        if self.eval_values is not None and values is not None and self.ask[0] != CALIBRATION:
            for run, value in zip(self.ask[2].tolist(), values.tolist()):
                self.eval_values[run].append(value)
        try:
            purpose, points, runs = self.ask = self.stepper.send(values)
            if purpose == CALIBRATION:
                self.calibration += len(points)
            else:
                self.spent += len(points)
                if self.spent > self.allowance:
                    self.stepper.throw(GeneratorExit())
        except StopIteration as end:
            self.result = end.value
            return False
        self.points, self.runs = points, runs + self.first if self.first else runs
        return True

    def trace(self, run: int) -> OptTrace:
        """Run `run`'s trace from a traced optimizer stepper's result."""
        termination, _, _, records = self.result
        return finish_trace(
            records[run], self.eval_values[run], termination, self.calibration // self.count
        )


def drive(evaluate, steppers, budget=math.inf, trace: bool = False) -> list:
    """Run (stepper, first run, run count) triples to their ends; a `Course` each, in order.

    Each round sends every live stepper's ask to one `evaluate(points, runs)`
    call, a lone stepper's as it is.  Rows are independent, so a run's values
    do not depend on the runs that share its calls.  With `trace`, each run's
    values outside calibration are kept in evaluation order.
    """
    courses = [Course(stepper, first, count, budget, trace) for stepper, first, count in steppers]
    live = [course for course in courses if course.tell(None)]
    while len(live) > 1:
        values = evaluate(
            np.concatenate([course.points for course in live]),
            np.concatenate([course.runs for course in live]),
        )
        parts = np.split(values, np.cumsum([len(course.points) for course in live])[:-1])
        live = [course for course, part in zip(live, parts) if course.tell(part)]
    # a lone stepper's asks go to evaluate as they are: the loop above costs
    # 6-22 us more per call on one stepper, for its concatenate and split
    for course in live:
        while course.tell(evaluate(course.points, course.runs)):
            pass
    return courses


def calibrated_gains(x0: np.ndarray, seeds):
    """Per-run SPSA step gains `a` so each first update moves ~2pi/10 per angle; a stepper.

    Mirrors the self-calibration of era-typical SPSA drivers: probe the
    objective along `_CALIBRATION_TRIALS` Rademacher directions, drawn from
    `default_rng([seeds[r], 0xCA11])`, at each run's start point x0[r] and
    set `a` from the mean finite-difference magnitude; a run whose probes
    show no slope keeps `_SPSA_GAIN`.  All runs' probes are one CALIBRATION
    ask, trial by trial, the + probes of every run and then the - probes.
    There must be one seed per row of x0.  Returns the gains[R].
    """
    runs, dim = x0.shape
    if len(seeds) != runs:
        raise ValueError(f"{len(seeds)} seeds for {runs} runs: give one seed per row of x0")
    delta = np.stack(
        [
            np.random.default_rng([seed & _MASK64, 0xCA11]).integers(
                0, 2, size=(_CALIBRATION_TRIALS, dim)
            )
            for seed in seeds
        ],
        axis=1,
    ) * 2.0 - 1.0
    probes = np.stack(
        (x0 + _SPSA_PERTURBATION * delta, x0 - _SPSA_PERTURBATION * delta), axis=1
    )
    values = yield CALIBRATION, probes.reshape(-1, dim), np.tile(np.arange(runs), 2 * _CALIBRATION_TRIALS)
    pairs = np.asarray(values, dtype=float).reshape(_CALIBRATION_TRIALS, 2, runs)
    # the mean |f+ - f-|, summed term by term in trial order
    terms = np.abs(pairs[:, 0] - pairs[:, 1]) / _CALIBRATION_TRIALS
    mean_difference = np.cumsum(terms, axis=0)[-1]
    gradient_scale = mean_difference / (2.0 * _SPSA_PERTURBATION)
    step = _CALIBRATION_STEP * (_SPSA_STABILITY + 1.0) ** _SPSA_ALPHA
    return np.array([_SPSA_GAIN if g <= 0.0 else step / float(g) for g in gradient_scale])


def spsa_lockstep(x0, seeds, iterations: int, a=None, keep_records: bool = False):
    """One SPSA descent per row of x0[R, P], all R in step; a stepper.

    Run r draws its Rademacher directions from `default_rng(seeds[r])`,
    one `_DIRECTION_BLOCK` of iterations per call, and steps with gain a[r]
    (default `_SPSA_GAIN`); the rest of the schedule is shared.  There must
    be one seed, and one gain when `a` is given, per row of x0.  Each
    iteration is one DESCENT ask, the + probes of all runs and then the -
    probes, and records the better probe; after the last, a DESCENT ask for
    the terminal iterates, which the end records.  Returns ("budget",
    values[R], params[R, P], records): each run's best record, the first
    one on ties, and, when `keep_records`, each run's records in order.
    """
    x = np.array(x0, dtype=float, ndmin=2)
    runs, dim = x.shape
    if len(seeds) != runs:
        raise ValueError(f"{len(seeds)} seeds for {runs} runs: give one seed per row of x0")
    gains = np.full(runs, _SPSA_GAIN) if a is None else np.asarray(a, dtype=float)
    if gains.shape != (runs,):
        raise ValueError(f"gains of shape {gains.shape} for {runs} runs: give one gain per row of x0")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    best_values = np.full(runs, math.inf)
    best_params = x.copy()
    every_run = np.arange(runs)
    pair_runs = np.tile(every_run, 2)
    blocks = []

    for start in range(0, iterations, _DIRECTION_BLOCK):
        block = min(_DIRECTION_BLOCK, iterations - start)
        ks = range(start, start + block)
        # directions[i, r] is run r's draw at iteration start + i; shifts[i]
        # stacks its + and - probes' offsets, c_k delta and c_k (-delta), and
        # x + c_k (-delta) is x - c_k delta bit for bit
        directions = np.stack([rng.integers(0, 2, size=(block, dim)) for rng in rngs], axis=1)
        directions = directions * 2.0 - 1.0
        # the schedule's powers are Python's float **, one k at a time: numpy's
        # vector power rounds about one in twenty of them differently
        c = _SPSA_PERTURBATION / np.array([(k + 1) ** _SPSA_GAMMA for k in ks])
        shifts = c[:, None, None, None] * np.stack((directions, -directions), axis=1)
        two_c = 2.0 * c
        steps = gains / np.array([(_SPSA_STABILITY + k + 1) ** _SPSA_ALPHA for k in ks])[:, None]
        probes = np.empty((block, 2 * runs, dim))
        pairs = probes.reshape(block, 2, runs, dim)
        values = np.empty((block, 2 * runs))
        f_up, f_down = values[:, :runs], values[:, runs:]
        for i in range(block):
            np.add(x, shifts[i], out=pairs[i])
            values[i] = yield DESCENT, probes[i], pair_runs
            gradient = (f_up[i] - f_down[i]) / two_c[i]
            # (a_k g) delta is a_k (g delta) bit for bit, delta being +-1
            x -= (steps[i] * gradient)[:, None] * directions[i]

        up_wins = f_up <= f_down
        points = np.where(up_wins[..., None], pairs[:, 0], pairs[:, 1])
        won = np.where(up_wins, f_up, f_down)
        # a strict < update iteration by iteration keeps the first lowest win
        # that is not NaN, and only if it undercuts the run's best so far
        first = np.argmin(np.where(np.isnan(won), math.inf, won), axis=0)
        low = won[first, every_run]
        better = low < best_values
        best_values[better] = low[better]
        best_params[better] = points[first[better], every_run[better]]
        if keep_records:
            blocks.append((points, won))

    final = np.asarray((yield DESCENT, x, every_run), dtype=float)
    better = final < best_values
    best_values[better] = final[better]
    best_params[better] = x[better]
    if not keep_records:
        return "budget", best_values, best_params, None
    points, won = (np.concatenate(part) for part in zip(*blocks, (x[None], final[None])))
    records = [
        list(map(TraceRecord, range(iterations + 1), map(tuple, points[:, r]), won[:, r].tolist()))
        for r in range(runs)
    ]
    return "budget", best_values, best_params, records


def nelder_mead(x0):
    """Downhill simplex from x0 with standard reflect/expand/contract/shrink moves; a one-run stepper.

    It asks for one DESCENT point at a time.  Each iteration records the
    simplex's best vertex, and the end records the lowest value evaluated.
    It ends "converged" once the simplex's diameter falls below
    `_NM_DIAMETER_TOL`, or "budget" when stopped at an ask.  On a sampled
    or noisy objective "converged" means only that the simplex collapsed:
    shot noise makes it shrink again and again wherever it stands, so at 200
    shots on the 4,2 register runs end "converged" after under half a
    budget of 601, far above the reference.  Returns
    (termination, value[1], params[1, P], [records]), its best the
    `finish_trace` one.
    """
    start = np.asarray(x0, dtype=float).ravel()
    dim = start.size
    if dim < 1:
        raise ValueError("objective dimension must be at least 1")
    records = []
    evaluations, best_point, best_value = 0, None, math.inf

    def call(point):
        nonlocal evaluations, best_point, best_value
        (value,) = yield DESCENT, point[None, :], _ONE_RUN
        value = float(value)
        evaluations += 1
        if value < best_value:
            best_point, best_value = tuple(point), value
        return value

    simplex = [start.copy()]
    for i in range(dim):
        vertex = start.copy()
        vertex[i] += _NM_STEP
        simplex.append(vertex)
    termination = "budget"
    try:
        values = []
        for vertex in simplex:
            values.append((yield from call(vertex)))
        while True:
            order = np.argsort(values, kind="stable")
            simplex = [simplex[i] for i in order]
            values = [values[i] for i in order]
            records.append(TraceRecord(len(records), tuple(simplex[0]), values[0]))
            diameter = max(
                float(np.linalg.norm(v - simplex[0])) for v in simplex[1:]
            )
            if diameter < _NM_DIAMETER_TOL:
                termination = "converged"
                break

            centroid = np.mean(simplex[:-1], axis=0)
            worst = simplex[-1]
            reflected = centroid + _NM_REFLECTION * (centroid - worst)
            f_reflected = yield from call(reflected)
            if f_reflected < values[0]:
                expanded = centroid + _NM_EXPANSION * (centroid - worst)
                f_expanded = yield from call(expanded)
                if f_expanded < f_reflected:
                    simplex[-1], values[-1] = expanded, f_expanded
                else:
                    simplex[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                simplex[-1], values[-1] = reflected, f_reflected
            else:
                if f_reflected < values[-1]:
                    contracted = centroid + _NM_CONTRACTION * (centroid - worst)
                else:
                    contracted = centroid - _NM_CONTRACTION * (centroid - worst)
                f_contracted = yield from call(contracted)
                if f_contracted < min(f_reflected, values[-1]):
                    simplex[-1], values[-1] = contracted, f_contracted
                else:
                    for i in range(1, dim + 1):
                        simplex[i] = simplex[0] + _NM_SHRINK * (simplex[i] - simplex[0])
                        values[i] = yield from call(simplex[i])
    except GeneratorExit:
        pass

    if best_point is None:
        raise ValueError(
            f"no evaluation returned a comparable value: all {evaluations} were NaN or +inf"
        )
    records.append(TraceRecord(len(records), best_point, best_value))
    best = finish_trace(records, (), termination)
    return termination, np.array([best.best_value]), np.array([best.best_params]), [records]

