"""Self-test of the benchmark harness; run from the checkout root:

    python3 perfbench/selftest.py

1. A tiny-size run of every workload, untraced and traced, prints every
   metric named in BENCHMARK.json with its unit and passes its checks.
2. The same run with one output perturbed inside the harness reports a
   failed operation and ``correct: false``.
3. A directory holding only BENCHMARK.json and the benchmark's files makes
   the benchmark exit non-zero without printing a result.

Exits 0 when every check holds, 1 otherwise.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import bootstrap
import run

SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace, perturb=False):
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, tiny=True, perturb=perturb)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def _check_metrics(result, lines, expected, problems, label):
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if got != expected:
        problems.append(f"{label}: metrics {sorted(got.items())} != {sorted(expected.items())}")
    for name, unit in expected.items():
        if not any(line.startswith(name + " ") and line.endswith(" " + unit) for line in lines):
            problems.append(f"{label}: {name} [{unit}] not printed")
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: checks failed: {[l for l in lines if l.startswith('FAILED')]}")


def _bare_directory(problems):
    bare = bootstrap.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(bootstrap.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(bootstrap.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        command = SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(command, cwd=bare, capture_output=True, text=True, timeout=180, check=False)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            code, lines, result = _run(workload, trace)
            _check_metrics(result, lines, expected, problems, f"{workload} trace {trace}")
            if code != 0:
                problems.append(f"{workload} trace {trace}: exit {code}")
        code, lines, result = _run(workload, 0, perturb=True)
        if result["correct"] or result["failed"] < 1:
            problems.append(f"{workload}: perturbed output not reported as a failed op")
        print(f"{workload}: perturbed run reported {result['failed']} failed op(s)", file=sys.stderr)
    _bare_directory(problems)
    for problem in problems:
        print("SELFTEST FAIL " + problem, file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
