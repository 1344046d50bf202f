"""Span recording around the package's layer entry points, from outside.

While a traced unit runs, each reference in ``WRAPPED`` is replaced by a
wrapper that records one span (name, unit, start, end, parent) around the
original call; the originals are put back when the unit ends.  The wrappers
sit at the references the callers use: the driver's exact evaluator calls
``rotorvqe.driver.prepare_state`` while ``sampled_expectation`` calls
``rotorvqe.qsim.prepare_state``, so both are wrapped.  Nothing in ``src/``
is edited.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import csv
import importlib
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name); one span name may cover several references
WRAPPED = (
    ("rotorvqe.chain", "solve_dihedral", "dihedral.solve"),
    ("rotorvqe.dihedral", "jacobi_eigh", "linalg.jacobi"),
    ("rotorvqe.chain", "jacobi_eigh", "linalg.jacobi"),
    ("rotorvqe.driver", "build_composite_basis", "chain.basis"),
    ("rotorvqe.driver", "build_chain_matrix", "chain.matrix"),
    ("rotorvqe.driver", "reference_spectrum", "chain.spectrum"),
    ("rotorvqe.driver", "map_operator", "paulimap.map"),
    ("rotorvqe.qsim", "group_qubitwise_commuting", "paulimap.group"),
    ("rotorvqe.paulimap", "group_qubitwise_commuting", "paulimap.group"),
    ("rotorvqe.driver", "prepare_state", "qsim.prepare"),
    ("rotorvqe.qsim", "prepare_state", "qsim.prepare"),
    ("rotorvqe.driver", "sampled_expectation", "qsim.sampled"),
    ("rotorvqe.driver", "noisy_expectation", "qsim.noisy"),
    ("rotorvqe.driver", "spsa_minimize", "optimize.spsa"),
    ("rotorvqe", "build_problem", "driver.build_problem"),
    ("rotorvqe", "run_ensemble", "driver.run_ensemble"),
    ("rotorvqe", "run_distribution_study", "driver.run_distribution_study"),
)

# work counted from a span's return value
AMOUNTS = {
    "paulimap.map": len,
    "paulimap.group": len,
    "qsim.sampled": lambda estimate: estimate.shots_used,
    "qsim.noisy": lambda estimate: estimate.shots_used,
    "optimize.spsa": lambda trace: trace.n_evaluations,
}

OBJECTIVE_SPANS = ("qsim.prepare", "qsim.sampled", "qsim.noisy")
OBJECTIVE_PARENTS = ("optimize.spsa", "driver.run_ensemble")

# name -> unit; every traced run reports all of them, 0 for an idle layer
LAYER_METRICS = {
    "dihedral.solve_calls": "count",
    "dihedral.solve_s": "s",
    "dihedral.cache_hits": "count",
    "dihedral.cache_misses": "count",
    "linalg.jacobi_calls": "count",
    "linalg.jacobi_s": "s",
    "chain.basis_self_s": "s",
    "chain.matrix_s": "s",
    "chain.spectrum_s": "s",
    "paulimap.map_s": "s",
    "paulimap.terms": "count",
    "paulimap.group_calls": "count",
    "paulimap.group_s": "s",
    "paulimap.groups": "count",
    "qsim.prepare_calls": "count",
    "qsim.prepare_s": "s",
    "qsim.prepare_us_p50": "us",
    "qsim.prepare_us_p99": "us",
    "qsim.sampled_calls": "count",
    "qsim.sampled_self_s": "s",
    "qsim.sampled_shots": "count",
    "qsim.noisy_calls": "count",
    "qsim.noisy_s": "s",
    "qsim.noisy_ms_p50": "ms",
    "qsim.noisy_ms_p95": "ms",
    "qsim.noisy_shots": "count",
    "optimize.spsa_runs": "count",
    "optimize.evals": "count",
    "optimize.spsa_self_s": "s",
    "optimize.evals_to_1pct_p50": "count",
    "optimize.reach_1pct_frac": "frac",
    "driver.objective_calls": "count",
    "driver.calibration_probes": "count",
    "driver.useful_eval_frac": "frac",
    "driver.selection_bias": "lambda",
    "driver.rate_err_pct": "%",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Columnar in-memory span store; one row per wrapped call."""

    def __init__(self):
        self.names = []
        self.units = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.amounts = []
        self.eval_traces = []
        self.absent = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.unit = -1
        self._stack = []

    def _wrap(self, name, original):
        amount_of = AMOUNTS.get(name)

        def wrapper(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.units.append(self.unit)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.amounts.append(0)
            self.ends.append(0.0)
            self.starts.append(time.perf_counter())
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                self.ends[index] = time.perf_counter()
                self._stack.pop()
            if amount_of is not None:
                self.amounts[index] = amount_of(result)
            if name == "optimize.spsa":
                self.eval_traces.append(np.asarray(result.eval_values, dtype=float))
            return result

        return wrapper

    @contextmanager
    def active(self, unit: int):
        """Install the wrappers for the duration of one unit of work."""
        self.unit = unit
        cache_info = getattr(_lookup("rotorvqe.dihedral", "solve_dihedral"), "cache_info", None)
        if cache_info is None and "solve_dihedral.cache_info" not in self.absent:
            self.absent.append("solve_dihedral.cache_info")
        before = cache_info() if cache_info else None
        saved = []
        for module_name, attr, name in WRAPPED:
            original = _lookup(module_name, attr)
            if original is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            module = importlib.import_module(module_name)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            if before is not None:
                after = cache_info()
                self.cache_hits += after.hits - before.hits
                self.cache_misses += after.misses - before.misses

    def write_csv(self, path) -> None:
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("span", "name", "unit", "start_us", "end_us", "parent"))
            for i, name in enumerate(self.names):
                writer.writerow(
                    (
                        i,
                        name,
                        self.units[i],
                        f"{1e6 * (self.starts[i] - origin):.3f}",
                        f"{1e6 * (self.ends[i] - origin):.3f}",
                        self.parents[i],
                    )
                )

    def layer_metrics(self, reference: float) -> dict:
        """Per-layer totals over every traced span.

        The driver's quality fields and the tracing overhead need the
        workload's results and untraced units, so the caller adds them.
        """
        names = np.array(self.names, dtype=object)
        duration = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=int)
        amounts = np.array(self.amounts, dtype=float)
        children = np.zeros(len(duration))
        has_parent = parents >= 0
        np.add.at(children, parents[has_parent], duration[has_parent])
        own = duration - children
        parent_names = np.where(has_parent, names[np.maximum(parents, 0)], "")

        def mask(name):
            return names == name

        def total(name):
            return float(duration[mask(name)].sum())

        def self_time(name):
            return float(own[mask(name)].sum())

        def count(name):
            return int(mask(name).sum())

        def amount(name):
            return int(amounts[mask(name)].sum())

        def percentile(name, q, scale):
            values = duration[mask(name)]
            return float(np.percentile(values, q) * scale) if values.size else 0.0

        objective = np.isin(names, OBJECTIVE_SPANS) & np.isin(parent_names, OBJECTIVE_PARENTS)
        objective_calls = int(objective.sum())
        evals = amount("optimize.spsa")
        reach = [first_within(trace, reference, 0.01) for trace in self.eval_traces]
        reached = [n for n in reach if n is not None]
        return {
            "dihedral.solve_calls": count("dihedral.solve"),
            "dihedral.solve_s": total("dihedral.solve"),
            "dihedral.cache_hits": self.cache_hits,
            "dihedral.cache_misses": self.cache_misses,
            "linalg.jacobi_calls": count("linalg.jacobi"),
            "linalg.jacobi_s": total("linalg.jacobi"),
            "chain.basis_self_s": self_time("chain.basis"),
            "chain.matrix_s": total("chain.matrix"),
            "chain.spectrum_s": total("chain.spectrum"),
            "paulimap.map_s": total("paulimap.map"),
            "paulimap.terms": amount("paulimap.map"),
            "paulimap.group_calls": count("paulimap.group"),
            "paulimap.group_s": total("paulimap.group"),
            "paulimap.groups": amount("paulimap.group"),
            "qsim.prepare_calls": count("qsim.prepare"),
            "qsim.prepare_s": total("qsim.prepare"),
            "qsim.prepare_us_p50": percentile("qsim.prepare", 50, 1e6),
            "qsim.prepare_us_p99": percentile("qsim.prepare", 99, 1e6),
            "qsim.sampled_calls": count("qsim.sampled"),
            "qsim.sampled_self_s": self_time("qsim.sampled"),
            "qsim.sampled_shots": amount("qsim.sampled"),
            "qsim.noisy_calls": count("qsim.noisy"),
            "qsim.noisy_s": total("qsim.noisy"),
            "qsim.noisy_ms_p50": percentile("qsim.noisy", 50, 1e3),
            "qsim.noisy_ms_p95": percentile("qsim.noisy", 95, 1e3),
            "qsim.noisy_shots": amount("qsim.noisy"),
            "optimize.spsa_runs": count("optimize.spsa"),
            "optimize.evals": evals,
            "optimize.spsa_self_s": self_time("optimize.spsa"),
            "optimize.evals_to_1pct_p50": float(np.median(reached)) if reached else 0.0,
            "optimize.reach_1pct_frac": len(reached) / len(reach) if reach else 0.0,
            "driver.objective_calls": objective_calls,
            "driver.calibration_probes": objective_calls - evals,
            "driver.useful_eval_frac": evals / objective_calls if objective_calls else 0.0,
        }


def _lookup(module_name, attr):
    """The module attribute, or None when a later layout no longer has it."""
    try:
        return getattr(importlib.import_module(module_name), attr, None)
    except ImportError:
        return None


def first_within(values: np.ndarray, reference: float, tolerance: float):
    """1-based index of the first evaluation within `tolerance` (relative) of the reference."""
    hits = np.flatnonzero(values - reference <= tolerance * abs(reference))
    return int(hits[0]) + 1 if hits.size else None
