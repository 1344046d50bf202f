"""Record the exact-mode ensemble fingerprint for some seeds; run from the checkout root:

    python3 perfbench/record_fingerprints.py 2021 0 1 2 3

Runs the protocol part of ``exact-ensemble-q4`` (60 restarts x 600 SPSA
iterations) for each seed and writes the SHA-256 of its float64 values to
``perfbench/fingerprints.json``, keyed by seed, together with the platform
they were computed on.  The benchmark then fails a run whose values differ
on that platform.  Re-record only for a change that is meant to alter
exact-mode outputs, and say so where the change is described.
"""

import json
import sys

import workloads


def main(argv) -> int:
    seeds = [int(arg) for arg in argv] or [2021]
    table = json.loads(workloads.FINGERPRINTS.read_text(encoding="utf-8"))
    if table["platform"] != workloads.platform_key():
        table = {"platform": workloads.platform_key(), "seeds": {}}
    for seed in seeds:
        table["seeds"].pop(str(seed), None)
    workloads.FINGERPRINTS.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    for seed in seeds:
        ledger, _, details = workloads.execute(workloads.ExactEnsemble.name, seed, 0.0, False)
        if ledger.failures:
            print(f"seed {seed}: not recorded, {ledger.failures}", file=sys.stderr)
            return 1
        table["seeds"][str(seed)] = details["fingerprint"]
        print(f"seed {seed}: {details['fingerprint']}")
    table["seeds"] = dict(sorted(table["seeds"].items(), key=lambda item: int(item[0])))
    workloads.FINGERPRINTS.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
