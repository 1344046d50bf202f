"""Command-line front end.

Every subcommand reads the same key=value settings (defaults, then an
optional ``--config`` file, then repeatable ``--set key=value`` overrides)
and writes results to stdout, plus optionally to ``--out``, where a
``.json`` suffix selects JSON and anything else gets CSV.  Exit codes:
0 success, 2 unusable configuration, 3 invalid values, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .chain import rate_constant
from .config import ConfigError, build_vqe_config, resolve_settings
from .driver import (
    _STUDY_MODES,
    _build,
    _check_study,
    _shot_stream,
    run_barrier_scan,
    run_distribution_study,
    run_ensemble,
    run_hierarchical,
    run_qubit_scan,
    run_vqe,
)
from .optimize import trace_to_csv
from .paulimap import group_qubitwise_commuting, operator_to_text, resource_report
from .qsim import format_bitstrings, prepare_state, sample_bitstrings

DEFAULT_LADDER = ((4, 2), (4, 4), (8, 4))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _emit(path, rows, header) -> None:
    """Write rows of (name, value) dicts as JSON or CSV depending on suffix."""
    if path is None:
        return
    if str(path).endswith(".json"):
        # JSON has no NaN: a missing value, such as a cold rung's start, is null
        rows = [
            {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in row.items()}
            for row in rows
        ]
        _write(path, json.dumps(rows, indent=2) + "\n")
        return
    lines = [",".join(header)]
    for row in rows:
        fields = []
        for key in header:
            value = row[key]
            fields.append(f"{value:.17g}" if isinstance(value, float) else str(value))
        lines.append(",".join(fields))
    _write(path, "\n".join(lines) + "\n")


def _fmt_kept(kept) -> str:
    return "/".join(str(c) for c in kept)


# an ensemble's summary columns, in output order
_SUMMARY = ("reference", "minimum", "mean", "eps_min", "eps_avg")


def _summary(stats) -> dict:
    """An `EnsembleStats`'s `_SUMMARY` figures, by name."""
    return {name: getattr(stats, name) for name in _SUMMARY}


def _problem(settings):
    config = build_vqe_config(settings)
    return config, _build(config)


def _cmd_reference(args, settings) -> int:
    config, problem = _problem(settings)
    rate = rate_constant(problem.reference)
    print(f"kept counts : {_fmt_kept(config.kept_counts)}")
    print(f"basis size  : {len(problem.basis.states)}")
    print(f"qubits      : {problem.qubits}")
    print(f"lambda1     : {problem.reference:.6f}")
    print(f"rate        : {rate:.6f}")
    _emit(
        args.out,
        [
            {
                "kept": _fmt_kept(config.kept_counts),
                "basis_size": len(problem.basis.states),
                "qubits": problem.qubits,
                "lambda1": problem.reference,
                "rate": rate,
            }
        ],
        ("kept", "basis_size", "qubits", "lambda1", "rate"),
    )
    return 0


def _cmd_map(args, settings) -> int:
    _, problem = _problem(settings)
    groups = group_qubitwise_commuting(problem.operator)
    report = resource_report(problem.operator, groups)
    print(f"qubits     : {report.qubits}")
    print(f"terms      : {report.n_terms}")
    print(f"groups     : {report.n_groups}")
    print(f"max weight : {report.max_weight}")
    if args.out:
        _write(args.out, operator_to_text(problem.operator))
    else:
        print(operator_to_text(problem.operator), end="")
    return 0


def _cmd_vqe(args, settings) -> int:
    config, problem = _problem(settings)
    run = run_vqe(config, problem)
    print(f"mode        : {run.mode}")
    print(f"optimizer   : {run.optimizer}")
    print(f"evaluations : {run.trace.n_evaluations}")
    print(f"calibration : {run.trace.calibration_evaluations}")
    print(f"best value  : {run.value:.6f}")
    print(f"reference   : {run.reference:.6f}")
    print(f"error       : {run.error_percent:.4f} %")
    print(f"rate        : {'-' if run.rate is None else f'{run.rate:.6f}'}")
    if args.out:
        if str(args.out).endswith(".json"):
            payload = {
                "value": run.value,
                "reference": run.reference,
                "error_percent": run.error_percent,
                "rate": run.rate,
                "evaluations": run.trace.n_evaluations,
                "calibration_evaluations": run.trace.calibration_evaluations,
                "seed": run.seed,
                "params": list(run.params),
            }
            _write(args.out, json.dumps(payload, indent=2) + "\n")
        else:
            _write(args.out, trace_to_csv(run.trace))
    if args.bitstrings:
        state = prepare_state(problem.ansatz, np.asarray(run.params))
        # the shot tag keyed past the study modes' keys 0 and 1: neither the
        # run's start-angle stream, nor its shot stream, nor a study mode's
        samples = sample_bitstrings(state, config.shots, seed=_shot_stream(run.seed, len(_STUDY_MODES)))
        _write(args.bitstrings, format_bitstrings(samples, problem.qubits))
    return 0


def _cmd_ensemble(args, settings) -> int:
    config, problem = _problem(settings)
    stats = run_ensemble(config, problem)
    print(f"restarts  : {len(stats.values)}")
    print(f"reference : {stats.reference:.6f}")
    print(f"minimum   : {stats.minimum:.6f}  (eps_min {stats.eps_min:.4f} %)")
    print(f"mean      : {stats.mean:.6f}  (eps_avg {stats.eps_avg:.4f} %)")
    if args.out and str(args.out).endswith(".json"):
        payload = {**_summary(stats), "values": list(stats.values), "best_params": list(stats.best_params)}
        _write(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(
            args.out,
            [{"run": i, "value": v} for i, v in enumerate(stats.values)],
            ("run", "value"),
        )
    return 0


def _cmd_barrier_scan(args, settings) -> int:
    config = build_vqe_config(settings)
    results = run_barrier_scan(config, settings["barriers"])
    rows = []
    for barrier, stats in results:
        rows.append({"barrier": float(barrier), **_summary(stats)})
        print(
            f"barrier {barrier:5.2f}  ref {stats.reference:.6f}  "
            f"min {stats.minimum:.6f}  eps_min {stats.eps_min:.4f} %"
        )
    _emit(args.out, rows, ("barrier",) + _SUMMARY)
    return 0


def _cmd_qubit_scan(args, settings) -> int:
    config = build_vqe_config(settings)
    ladder = settings["ladder"] or DEFAULT_LADDER
    results = run_qubit_scan(config, ladder)
    rows = []
    for kept, stats in results:
        qubits = max(1, (len(stats.best_params) // (2 * (config.depth + 1))))
        rows.append({"kept": _fmt_kept(kept), "qubits": qubits, **_summary(stats)})
        print(
            f"kept {_fmt_kept(kept):>6}  ref {stats.reference:.6f}  "
            f"min {stats.minimum:.6f}  eps_min {stats.eps_min:.4f} %  "
            f"eps_avg {stats.eps_avg:.4f} %"
        )
    _emit(args.out, rows, ("kept", "qubits") + _SUMMARY)
    return 0


def _cmd_hierarchical(args, settings) -> int:
    config = build_vqe_config(settings)
    ladder = settings["ladder"] or DEFAULT_LADDER
    rungs = run_hierarchical(ladder, config)
    rows = []
    for rung in rungs:
        start = "" if rung.start_value != rung.start_value else f"{rung.start_value:.6f}"
        print(
            f"kept {_fmt_kept(rung.kept_counts):>6}  qubits {rung.qubits}  "
            f"start {start or '-':>9}  best {rung.best_value:.6f}  "
            f"ref {rung.reference:.6f}"
        )
        rows.append(
            {
                "kept": _fmt_kept(rung.kept_counts),
                "qubits": rung.qubits,
                "start_value": rung.start_value,
                "best_value": rung.best_value,
                "reference": rung.reference,
            }
        )
    _emit(args.out, rows, ("kept", "qubits", "start_value", "best_value", "reference"))
    return 0


def _cmd_dist_study(args, settings) -> int:
    config, problem = _problem(settings)
    if args.params:
        try:
            with open(args.params, encoding="utf-8") as handle:
                params = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read params {args.params}: {exc}") from None
        if not isinstance(params, list):
            raise ValueError(f"params file {args.params} must hold a JSON list of angles")
    else:
        _check_study(settings["repetitions"])
        params = run_ensemble(config, problem).best_params
    studies = run_distribution_study(
        config, params, repetitions=settings["repetitions"], problem=problem
    )
    rows = []
    for study in studies:
        print(
            f"{study.mode:8}  mean {study.mean:.6f}  std {study.std:.6f}  "
            f"min {study.minimum:.6f}  exact {study.exact_value:.6f}"
        )
        for i, value in enumerate(study.values):
            rows.append({"mode": study.mode, "repetition": i, "value": value})
    _emit(args.out, rows, ("mode", "repetition", "value"))
    return 0


_COMMANDS = {
    "reference": _cmd_reference,
    "map": _cmd_map,
    "vqe": _cmd_vqe,
    "ensemble": _cmd_ensemble,
    "barrier-scan": _cmd_barrier_scan,
    "qubit-scan": _cmd_qubit_scan,
    "hierarchical": _cmd_hierarchical,
    "dist-study": _cmd_dist_study,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotorvqe",
        description="Conformational-rate eigensolvers for dihedral chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "reference": "classical reference eigenvalue and rate",
        "map": "qubit operator expansion and measurement groups",
        "vqe": "single variational run",
        "ensemble": "restart ensemble statistics",
        "barrier-scan": "ensembles across barrier heights",
        "qubit-scan": "ensembles along a basis ladder",
        "hierarchical": "warm-started ladder optimization",
        "dist-study": "shot-sampled and noisy estimator distributions",
    }
    for name, text in helps.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", help="key=value settings file")
        cmd.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override one setting (repeatable)",
        )
        cmd.add_argument("--out", help="write results here (.json for JSON, else CSV)")
        if name == "vqe":
            cmd.add_argument("--bitstrings", help="dump measurement samples of the best state")
        if name == "dist-study":
            cmd.add_argument("--params", help="JSON file with ansatz angles to re-measure")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        settings = resolve_settings(args.config, args.set)
        return _COMMANDS[args.command](args, settings)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid value: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
