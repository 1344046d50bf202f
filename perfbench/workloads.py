"""The benchmark's workloads: seeded inputs, timed units and output checks.

A run of a workload is a sequence of units of equal size.  Each unit is one
call into a public entry point of the package (``run_ensemble``,
``run_distribution_study`` or ``build_problem``) with inputs drawn from the
run's seed.  An untraced run does the workload's minimum number of units
(its protocol) and then keeps going until ``seconds`` have passed; its
throughput is the median over units, each timed at the reference host speed
(see ``speed.py``).  A traced run does a fixed number of
units and traces every other one, so its counts repeat exactly for a seed
and the untraced units in between give the tracing overhead.

Every unit's output is checked; a failed check or an exception counts one
failed operation and the run goes on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import bootstrap

rotorvqe = bootstrap.import_package()

from rotorvqe import paulimap, qsim  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402

LADDER = ((4, 2), (4, 4), (8, 4))
FLAT_BARRIER = 1.0
# Objective calls per restart of the production protocol as this benchmark
# defines it: 2*iterations + 1 optimizer evaluations plus 25 calibration
# probe pairs.  Fixed here, so a change that drops probes shows as a gain.
CALIBRATION_EVALS = 50
PINNED_LAMBDA1 = {0.5: 1.51562, 3.0: 0.33310}  # kept (4, 2)
Q4_LAMBDA1 = 1.47531
PINNED_RTOL = 5e-4
ROUND_TRIP_TOL = 1e-12
VARIATIONAL_TOL = 1e-9
MEAN_Z = 5.0
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
SETUP_PROBE_CHUNKS = 40
FINGERPRINTS = bootstrap.ROOT / "perfbench" / "fingerprints.json"

_prepare_state = qsim.prepare_state  # unwrapped, for checks made outside the traced region


def standard_chain(barrier: float):
    """Three rotors: a bistable reactive dihedral and a monostable one."""
    return rotorvqe.ChainSpec(
        dihedrals=(
            rotorvqe.DihedralSpec(rotorvqe.BISTABLE, barrier),
            rotorvqe.DihedralSpec(rotorvqe.MONOSTABLE, FLAT_BARRIER),
        ),
        diffusion=(1.0, 1.0, 1.0),
    )


def exact_energy(problem, params) -> float:
    """<psi|H|psi> of the problem's padded matrix at `params`, as the driver computes it."""
    state = _prepare_state(problem.ansatz, np.asarray(params, dtype=float))
    return float(np.real(np.conj(state) @ problem.matrix @ state))


def platform_key() -> str:
    """numpy version and the CPU features its kernels dispatch on."""
    try:
        from numpy._core import _multiarray_umath as umath

        features = ",".join(sorted(k for k, on in umath.__cpu_features__.items() if on))
    except (ImportError, AttributeError):
        return "unknown"
    digest = hashlib.sha256(features.encode()).hexdigest()[:12]
    return f"numpy-{np.__version__}-{os.uname().machine}-{digest}"


def fingerprint(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


class Ledger:
    """Operations attempted and the failed checks or exceptions among them."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, label, action):
        """Attempt one operation; `action()` returns (result, failed-check messages)."""
        self.attempted += 1
        try:
            result, messages = action()
        except Exception as exc:  # a failing operation is counted and the run goes on
            result, messages = None, [f"{type(exc).__name__}: {exc}"]
        if messages:
            self.failures.append(f"{label}: {'; '.join(messages)}")
        return result


def _expect(messages, ok, text):
    if not ok:
        messages.append(text)


class Workload:
    """Defaults shared by the workloads: a fresh seed per unit, no per-run inputs."""

    def begin(self, problem, rng):
        pass

    def next_item(self, rng, index):
        return int(rng.integers(0, 2**62))

    def summarize(self, output):
        return output


class _Ensemble(Workload):
    """Restart ensembles of the production protocol, issued in blocks of restarts."""

    mode = None
    kept = None
    ladder = None
    barrier = 0.5

    def __init__(self, iterations, restarts, shots, min_units, trace_units):
        self.iterations = iterations
        self.restarts = restarts
        self.shots = shots
        self.min_units = min_units
        self.trace_units = trace_units

    def config(self, seed, restarts=None):
        return rotorvqe.VqeConfig(
            chain=standard_chain(self.barrier),
            kept_counts=self.kept,
            ladder=self.ladder,
            mode=self.mode,
            shots=self.shots,
            iterations=self.iterations,
            restarts=restarts or self.restarts,
            seed=seed,
            workers=1,
        )

    def run_unit(self, problem, seed):
        return rotorvqe.run_ensemble(self.config(seed), problem)

    def ops(self, stats):
        return len(stats.values) * (2 * self.iterations + 1 + CALIBRATION_EVALS)

    def check_unit(self, problem, seed, stats):
        messages = []
        values = np.asarray(stats.values, dtype=float)
        _expect(messages, values.size == self.restarts, f"{values.size} values for {self.restarts} restarts")
        _expect(messages, bool(np.all(np.isfinite(values))), "non-finite ensemble value")
        return messages

    def _repeat_first_restart(self, problem, units):
        first_seed, stats = units[0]
        repeat = rotorvqe.run_ensemble(self.config(first_seed, restarts=1), problem)
        same = repeat.values[0] == stats.values[0]
        return None, [] if same else [f"repeat gave {repeat.values[0]!r}, first run {stats.values[0]!r}"]

    def quality(self, problem, units):
        """Rate error and selection bias of the protocol ensemble's reported best."""
        ensemble = [stats for _, stats in units[: self.min_units]]
        best = min(ensemble, key=lambda stats: stats.minimum)
        energy = exact_energy(problem, best.best_params)
        return {
            "driver.rate_err_pct": 100.0 * (energy - problem.reference) / problem.reference,
            "driver.selection_bias": best.minimum - energy,
        }


class ExactEnsemble(_Ensemble):
    """60 restarts x 600 SPSA iterations at Q=4, exact mode, as six blocks of ten."""

    name = "exact-ensemble-q4"
    mode = rotorvqe.EXACT
    kept = (8, 4)
    ladder = LADDER

    def __init__(self, tiny=False):
        if tiny:
            super().__init__(iterations=10, restarts=2, shots=20000, min_units=2, trace_units=2)
        else:
            super().__init__(iterations=600, restarts=10, shots=20000, min_units=6, trace_units=8)
        self.tiny = tiny

    def perturb(self, stats):
        return dataclasses.replace(stats, values=(stats.reference - 1e-3,) + stats.values[1:])

    def check_unit(self, problem, seed, stats):
        messages = super().check_unit(problem, seed, stats)
        low = min(stats.values)
        _expect(messages, low >= problem.reference - VARIATIONAL_TOL, f"value {low!r} below reference")
        gap = abs(exact_energy(problem, stats.best_params) - low)
        _expect(messages, gap <= 1e-12, f"reported minimum is {gap:.3e} off its exact energy")
        return messages

    def finish(self, problem, units, ledger, seed):
        def reference():
            error = abs(problem.reference - Q4_LAMBDA1) / Q4_LAMBDA1
            return None, [] if error < PINNED_RTOL else [f"reference {problem.reference!r}"]

        ledger.op("q4 reference", reference)
        ledger.op("repeat first restart", lambda: self._repeat_first_restart(problem, units))
        values = [v for _, stats in units[: self.min_units] for v in stats.values]
        digest = fingerprint(values)

        def recorded():
            table = json.loads(FINGERPRINTS.read_text(encoding="utf-8"))
            expected = table["seeds"].get(str(seed))
            if self.tiny or expected is None or table["platform"] != platform_key():
                return "not recorded for this seed and platform", []
            return "matches record", [] if expected == digest else [f"sha256 {digest} != {expected}"]

        status = ledger.op("fingerprint", recorded)
        return {"fingerprint": digest, "fingerprint_status": status, **self.quality(problem, units)}


class SampledEnsemble(_Ensemble):
    """The production protocol at Q=3 in sampled mode, 20,000 shots, blocks of two restarts."""

    name = "sampled-ensemble-q3"
    mode = rotorvqe.SAMPLED
    kept = (4, 4)
    ladder = LADDER[:2]

    def __init__(self, tiny=False):
        if tiny:
            super().__init__(iterations=10, restarts=1, shots=1000, min_units=2, trace_units=2)
        else:
            super().__init__(iterations=600, restarts=2, shots=20000, min_units=5, trace_units=6)

    def perturb(self, stats):
        return dataclasses.replace(stats, values=(stats.values[0] + 0.5,) + stats.values[1:])

    def check_unit(self, problem, seed, stats):
        messages = super().check_unit(problem, seed, stats)
        energy = exact_energy(problem, stats.best_params)
        _expect(
            messages,
            energy >= problem.reference - VARIATIONAL_TOL,
            f"exact energy {energy!r} at the best parameters is below the reference",
        )
        return messages

    def finish(self, problem, units, ledger, seed):
        ledger.op("repeat first restart", lambda: self._repeat_first_restart(problem, units))
        return self.quality(problem, units)


class NoisyStudy(Workload):
    """Re-measure one seeded Q=2 state: sampled and noisy estimates at 20,000 shots."""

    name = "noisy-study-q2"
    barrier = 0.5
    kept = (4, 2)
    ladder = None

    def __init__(self, tiny=False):
        self.shots = 2000 if tiny else 20000
        self.repetitions = 10 if tiny else 50
        self.min_units = 1 if tiny else 4
        self.trace_units = 2 if tiny else 8
        self.params = None
        self.exact = None

    def config(self, seed):
        return rotorvqe.VqeConfig(
            chain=standard_chain(self.barrier),
            kept_counts=self.kept,
            shots=self.shots,
            seed=seed,
            workers=1,
        )

    def begin(self, problem, rng):
        self.params = rng.uniform(0.0, 2.0 * math.pi, problem.ansatz.parameter_count)
        self.exact = exact_energy(problem, self.params)

    def run_unit(self, problem, seed):
        return rotorvqe.run_distribution_study(
            self.config(seed), self.params, repetitions=self.repetitions, problem=problem
        )

    def ops(self, studies):
        return sum(len(study.values) for study in studies)

    def perturb(self, studies):
        sampled, noisy = studies
        shifted = tuple(v + 1.0 for v in sampled.values)
        return dataclasses.replace(sampled, values=shifted), noisy

    def check_unit(self, problem, seed, studies):
        messages = []
        modes = tuple(study.mode for study in studies)
        _expect(messages, modes == (rotorvqe.SAMPLED, rotorvqe.NOISY), f"modes {modes}")
        for study in studies:
            values = np.asarray(study.values, dtype=float)
            _expect(messages, values.size == self.repetitions, f"{study.mode}: {values.size} values")
            _expect(messages, bool(np.all(np.isfinite(values))), f"{study.mode}: non-finite value")
            _expect(messages, study.std > 0.0, f"{study.mode}: zero spread")
            _expect(
                messages,
                abs(study.exact_value - self.exact) <= 1e-12,
                f"{study.mode}: exact value {study.exact_value!r} != {self.exact!r}",
            )
        return messages

    def finish(self, problem, units, ledger, seed):
        def sampled_mean():
            values = np.concatenate([studies[0].values for _, studies in units])
            error = abs(values.mean() - self.exact)
            limit = MEAN_Z * values.std(ddof=1) / math.sqrt(values.size)
            return None, [] if error <= limit else [f"sampled mean off by {error:.3e} > {limit:.3e}"]

        def repeat():
            first_seed, studies = units[0]
            again = rotorvqe.run_distribution_study(
                self.config(first_seed), self.params, repetitions=2, problem=problem
            )
            messages = []
            for first, second in zip(studies, again):
                _expect(messages, first.values[:2] == second.values, f"{first.mode} not repeatable")
            return None, messages

        ledger.op("sampled mean near exact", sampled_mean)
        ledger.op("repeat first estimates", repeat)
        return {}


class ReferenceScan(Workload):
    """Cold classical path: build and group every ladder rung at seeded barrier heights.

    A unit is a batch of barriers; the first batch holds the two pinned
    heights, every other height is a fresh draw, so the bistable dihedral's
    solve misses the cache as in a real scan.
    """

    name = "reference-scan"
    barrier = 0.5
    kept = (8, 4)
    ladder = LADDER

    def __init__(self, tiny=False):
        self.barriers_per_unit = 3 if tiny else 8
        self.min_units = 1
        self.trace_units = 2 if tiny else 6

    def next_item(self, rng, index):
        pinned = tuple(PINNED_LAMBDA1) if index == 0 else ()
        drawn = rng.uniform(0.5, 3.0, self.barriers_per_unit - len(pinned))
        return pinned + tuple(float(b) for b in drawn)

    def run_unit(self, problem, barriers):
        built = []
        for barrier in barriers:
            for i, rung in enumerate(LADDER):
                rung_problem = rotorvqe.build_problem(
                    standard_chain(barrier), rung, ladder=LADDER[: i + 1]
                )
                groups = paulimap.group_qubitwise_commuting(rung_problem.operator)
                built.append((barrier, rung, rung_problem, groups))
        return built

    def ops(self, built):
        return len(built)

    def summarize(self, built):
        return [(barrier, rung, rung_problem.reference) for barrier, rung, rung_problem, _ in built]

    def perturb(self, built):
        barrier, rung, rung_problem, groups = built[0]
        shifted = dataclasses.replace(rung_problem, reference=rung_problem.reference * 1.01)
        return [(barrier, rung, shifted, groups)] + built[1:]

    def check_unit(self, problem, barriers, built):
        messages = []
        for barrier, rung, rung_problem, groups in built:
            operator = rung_problem.operator
            drift = float(np.max(np.abs(operator.to_matrix() - rung_problem.matrix)))
            _expect(messages, drift <= ROUND_TRIP_TOL, f"{barrier} {rung}: Pauli round trip off by {drift:.3e}")
            members = sorted(i for group in groups for i in group.members)
            _expect(messages, members == list(range(len(operator))), f"{barrier} {rung}: groups do not partition terms")
            pinned = PINNED_LAMBDA1.get(barrier)
            if pinned is not None and rung == LADDER[0]:
                error = abs(rung_problem.reference - pinned) / pinned
                _expect(messages, error < PINNED_RTOL, f"lambda1 {rung_problem.reference!r} at {barrier}")
        return messages

    def finish(self, problem, units, ledger, seed):
        def decreasing():
            rows = sorted(row for _, summary in units for row in summary)
            messages = []
            for rung in LADDER:
                lambdas = [reference for _, r, reference in rows if r == rung]
                _expect(
                    messages,
                    all(b < a for a, b in zip(lambdas, lambdas[1:])),
                    f"{rung}: lambda1 not strictly decreasing with barrier",
                )
            return None, messages

        ledger.op("lambda1 decreasing with barrier", decreasing)
        return {}


WORKLOADS = {cls.name: cls for cls in (ExactEnsemble, SampledEnsemble, NoisyStudy, ReferenceScan)}


def _probe_setup(workload, problem, ledger, count):
    """Median of `count` cold set-ups, each in a fresh interpreter, at the reference speed.

    A child process cannot be sampled from inside, so each set-up is scaled
    by probes run just before and after it.
    """
    spec = json.dumps({"barrier": workload.barrier, "kept": workload.kept, "ladder": workload.ladder})
    script = bootstrap.ROOT / "perfbench" / "setup_probe.py"
    times = []
    before = [speed.probe(SETUP_PROBE_CHUNKS)]

    def one():
        proc = subprocess.run(
            [sys.executable, str(script), spec],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            cwd=bootstrap.ROOT,
            check=False,
        )
        after = speed.probe(SETUP_PROBE_CHUNKS)
        chunk_s = 0.5 * (before[0] + after)
        before[0] = after
        if proc.returncode != 0:
            return None, [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        data = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(speed.scale(data["seconds"], chunk_s))
        same = data["reference"] == problem.reference
        return None, [] if same else [f"cold build gave {data['reference']!r}"]

    for _ in range(count):
        ledger.op("set-up probe", one)
    return statistics.median(times) if times else 0.0


def _seconds_per_op(units, column):
    return [unit[column] / unit[3] for unit in units]


def _median_rate(seconds_per_op):
    """Median operations per second; 0 when no unit passed, which also fails the run."""
    return statistics.median(1.0 / t for t in seconds_per_op) if seconds_per_op else 0.0


def execute(name, seed, seconds, traced, tiny=False, perturb=False):
    """Run one workload; returns (ledger, metrics, details)."""
    workload = WORKLOADS[name](tiny=tiny)
    rng = np.random.default_rng(seed)
    ledger = Ledger()
    tracer = Tracer() if traced else None

    def build():
        return rotorvqe.build_problem(
            standard_chain(workload.barrier), workload.kept, ladder=workload.ladder
        )

    if tracer is not None:
        with tracer.active(-1):
            problem = build()
    else:
        problem = build()
    setup_s = _probe_setup(workload, problem, ledger, 1 if tiny else SETUP_PROBES)
    workload.begin(problem, rng)

    # (item, summary, seconds, ops, traced, seconds at reference speed) per passed unit;
    # a traced unit cannot be sampled, so traced runs compare raw seconds
    units = []
    sampler = speed.Sampler()
    start = time.perf_counter()
    index = 0
    while True:
        if traced:
            if index >= workload.trace_units:
                break
        elif index >= workload.min_units:
            typical = statistics.median(u[2] for u in units) if units else 0.0
            if time.perf_counter() - start + typical >= seconds:
                break
        item = workload.next_item(rng, index)
        trace_this = traced and index % 2 == 0

        def action(item=item, index=index, trace_this=trace_this):
            begin = time.perf_counter()
            if traced:
                with tracer.active(index) if trace_this else contextlib.nullcontext():
                    output = workload.run_unit(problem, item)
                took = scaled = time.perf_counter() - begin
            else:
                with sampler:
                    output = workload.run_unit(problem, item)
                    took = time.perf_counter() - begin
                scaled = sampler.scaled(took)
            if perturb and index == 0:
                output = workload.perturb(output)
            row = (item, workload.summarize(output), took, workload.ops(output), trace_this, scaled)
            return row, workload.check_unit(problem, item, output)

        row = ledger.op(f"unit {index}", action)
        if row is not None:
            units.append(row)
        index += 1

    details = {"units": index}
    if len(units) == index:
        details.update(workload.finish(problem, [u[:2] for u in units], ledger, seed))
    else:
        ledger.op("run-level checks", lambda: (None, ["skipped: a unit failed"]))

    if traced:
        metrics = tracer.layer_metrics(problem.reference)
        metrics["driver.rate_err_pct"] = details.get("driver.rate_err_pct", 0.0)
        metrics["driver.selection_bias"] = details.get("driver.selection_bias", 0.0)
        on = _median_rate(_seconds_per_op([u for u in units if u[4]], 2))
        off = _median_rate(_seconds_per_op([u for u in units if not u[4]], 2))
        metrics["trace.overhead_pct"] = 100.0 * (off / on - 1.0) if on and off else 0.0
        details["tracer"] = tracer
    else:
        details["raw_ops_per_s"] = _median_rate(_seconds_per_op(units, 2))
        details["unit_s"] = [u[2] for u in units]
        details["scaled_unit_s"] = [u[5] for u in units]
        metrics = {
            "ops_per_s": _median_rate(_seconds_per_op(units, 5)),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return ledger, metrics, details
