"""Derivative-free minimizers for the variational loop.

SPSA runs in lockstep batches: `spsa_lockstep` steps every run of a batch
together, one run being a batch of one, for a budget of `iterations`.  Each
iteration costs two evaluations (the +/- probe pair), and one final
evaluation at the terminal point follows, so `iterations` buys
2*iterations + 1 evaluations; `calibrated_gains` sets each run's gain a
from probes at its start point.  The loop works one `_DIRECTION_BLOCK` of
iterations at a time: it draws the block's directions and builds its gain
tables once, steps through the block, then picks the block's records,
updates each run's best once and hands the records to `observe` in
iteration order, so an exception inside a block leaves that block
unobserved.  Nelder-Mead pays per simplex move and stops after the `budget`
evaluations it is given, so the driver gives it the same 2*iterations + 1
and runs with either algorithm are directly comparable.
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


def finish_trace(records, eval_values, termination) -> OptTrace:
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
    )


def calibrated_gains(evaluate, x0: np.ndarray, seeds) -> np.ndarray:
    """Per-run SPSA step gains `a` so each first update moves ~2pi/10 per angle.

    Mirrors the self-calibration of era-typical SPSA drivers: probe the
    objective along `_CALIBRATION_TRIALS` Rademacher directions, drawn from
    `default_rng([seeds[r], 0xCA11])`, at each run's start point x0[r] and
    set `a` from the mean finite-difference magnitude; a run whose probes
    show no slope keeps `_SPSA_GAIN`.  All runs' probes go to `evaluate` as one
    batch, ordered so that row i belongs to run i % R and each run's probes
    come in its own (+, -) trial order.  The probe budget is bookkept
    separately from the optimization budget.  There must be one seed per
    row of x0.
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
    values = np.asarray(evaluate(probes.reshape(-1, dim)), dtype=float)
    pairs = values.reshape(_CALIBRATION_TRIALS, 2, runs)
    # the mean |f+ - f-|, summed term by term in trial order
    terms = np.abs(pairs[:, 0] - pairs[:, 1]) / _CALIBRATION_TRIALS
    mean_difference = np.cumsum(terms, axis=0)[-1]
    gradient_scale = mean_difference / (2.0 * _SPSA_PERTURBATION)
    step = _CALIBRATION_STEP * (_SPSA_STABILITY + 1.0) ** _SPSA_ALPHA
    return np.array([_SPSA_GAIN if g <= 0.0 else step / float(g) for g in gradient_scale])


def spsa_lockstep(evaluate, x0, seeds, iterations: int, a=None, observe=None):
    """Run one SPSA descent per row of x0[R, P], all R in step.

    Run r draws its Rademacher directions from `default_rng(seeds[r])`,
    one `_DIRECTION_BLOCK` of iterations per call, and steps with gain a[r]
    (default `_SPSA_GAIN`); the rest of the schedule is shared.  There must
    be one seed, and one gain when `a` is given, per row of x0.
    `evaluate(points[B, P]) -> values[B]` gets every run's probes at once,
    row i belonging to run i % R: the + probes of all runs, then
    the - probes, then, after the last iteration, the terminal iterates.
    Each iteration records the better probe, the end records the terminal
    iterate, and `observe(k, points, values)` sees every record, in
    iteration order: a block's records at the end of its block, so an
    exception inside a block leaves that block unobserved.  Returns each
    run's best record as (values[R], params[R, P]), the first one on ties.
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
            values[i] = evaluate(probes[i])
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
        if observe is not None:
            for i, k in enumerate(ks):
                observe(k, points[i], won[i])

    final = np.asarray(evaluate(x), dtype=float)
    better = final < best_values
    best_values[better] = final[better]
    best_params[better] = x[better]
    if observe is not None:
        observe(iterations, x, final)
    return best_values, best_params


class _BudgetExhausted(Exception):
    pass


def nelder_mead_minimize(evaluate, x0, budget: int) -> OptTrace:
    """Downhill simplex from x0 with standard reflect/expand/contract/shrink moves.

    `evaluate(point) -> value` is called at most `budget` times.
    """
    start = np.asarray(x0, dtype=float).ravel()
    dim = start.size
    if dim < 1:
        raise ValueError("objective dimension must be at least 1")
    if budget < 1:
        raise ValueError("evaluation budget must be at least 1")
    eval_values = []
    records = []
    best_seen = [None, math.inf]

    def call(point):
        if len(eval_values) >= budget:
            raise _BudgetExhausted
        value = float(evaluate(point))
        eval_values.append(value)
        if value < best_seen[1]:
            best_seen[0], best_seen[1] = tuple(point), value
        return value

    simplex = [start.copy()]
    for i in range(dim):
        vertex = start.copy()
        vertex[i] += _NM_STEP
        simplex.append(vertex)
    termination = "budget"
    try:
        values = [call(vertex) for vertex in simplex]
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
            f_reflected = call(reflected)
            if f_reflected < values[0]:
                expanded = centroid + _NM_EXPANSION * (centroid - worst)
                f_expanded = call(expanded)
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
                f_contracted = call(contracted)
                if f_contracted < min(f_reflected, values[-1]):
                    simplex[-1], values[-1] = contracted, f_contracted
                else:
                    for i in range(1, dim + 1):
                        simplex[i] = simplex[0] + _NM_SHRINK * (simplex[i] - simplex[0])
                        values[i] = call(simplex[i])
    except _BudgetExhausted:
        pass

    if best_seen[0] is None:
        raise ValueError(
            f"no evaluation returned a comparable value: all {len(eval_values)} were NaN or +inf"
        )
    records.append(TraceRecord(len(records), best_seen[0], best_seen[1]))
    return finish_trace(records, eval_values, termination)
