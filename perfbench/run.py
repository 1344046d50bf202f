#!/usr/bin/env python3
"""Benchmark entry point: runs one workload in this process.

    python3 perfbench/run.py --workload exact-ensemble-q4 --seed 2021 --seconds 15 --trace 0

Prints a readable report, then, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
measures the end-to-end metrics with nothing wrapped; ``--trace 1`` makes
the separate traced run that reports the per-layer metrics.  The result,
the environment and, when traced, the spans are also written under
``.perfbench/`` in the checkout.  Exits 2 without a result when the
package cannot be imported from this checkout's ``src``.
"""

import argparse
import json
import os
import platform
import sys

import bootstrap

END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _environment(rotorvqe, numpy) -> dict:
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(bootstrap.SRC.rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {name: os.environ.get(name) for name in bootstrap.THREAD_VARS},
        "src_lines": src_lines,
        "api_size": len(rotorvqe.__all__),
    }


def main(argv=None, tiny=False, perturb=False) -> int:
    """Command-line entry; `tiny` and `perturb` exist for the self-test only."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import rotorvqe from {bootstrap.SRC}: {exc}", file=sys.stderr)
        return 2
    import numpy
    import tracing

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    traced = bool(args.trace)
    ledger, values, details = workloads.execute(
        args.workload, args.seed, args.seconds, traced, tiny=tiny, perturb=perturb
    )
    units = tracing.LAYER_METRICS if traced else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    environment = _environment(workloads.rotorvqe, numpy)

    print(f"workload   {args.workload}  seed {args.seed}  trace {args.trace}  units {details['units']}")
    print("environment " + json.dumps(environment))
    for key in ("fingerprint", "fingerprint_status"):
        if key in details:
            print(f"{key:<26} {details[key]}")
    if not traced:
        for key in ("driver.rate_err_pct", "driver.selection_bias"):
            if key in details:
                print(f"{key:<26} {details[key]!r}  (reported, no bound)")
    for name, metric in metrics.items():
        print(f"{name:<26} {metric['value']!r} {metric['unit']}")
    frac = len(ledger.failures) / ledger.attempted
    print(f"{'failed_ops_frac':<26} {frac!r} ({len(ledger.failures)}/{ledger.attempted})")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    tracer = details.pop("tracer", None)
    if tracer is not None and tracer.absent:
        print("not traced (reference missing): " + ", ".join(tracer.absent))

    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }
    bootstrap.OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if tiny else "")
    record = {"result": result, "environment": environment, "details": details, "failures": ledger.failures}
    (bootstrap.OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write_csv(bootstrap.OUT / f"{stem}-spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
