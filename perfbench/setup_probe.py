"""Time one cold set-up in a fresh interpreter: import rotorvqe, build a problem.

Usage: python3 perfbench/setup_probe.py '{"barrier": 0.5, "kept": [8, 4], "ladder": [[4, 2], [4, 4], [8, 4]]}'

Prints one JSON line with the elapsed seconds and the problem's reference
eigenvalue, which the caller compares with its own build.
"""

import json
import sys
import time

import bootstrap


def main() -> int:
    spec = json.loads(sys.argv[1])
    bootstrap.prepare()
    start = time.perf_counter()
    rotorvqe = bootstrap.import_package()
    chain = rotorvqe.ChainSpec(
        dihedrals=(
            rotorvqe.DihedralSpec(rotorvqe.BISTABLE, spec["barrier"]),
            rotorvqe.DihedralSpec(rotorvqe.MONOSTABLE, 1.0),
        ),
        diffusion=(1.0, 1.0, 1.0),
    )
    problem = rotorvqe.build_problem(chain, spec["kept"], ladder=spec["ladder"])
    elapsed = time.perf_counter() - start
    print(json.dumps({"seconds": elapsed, "reference": problem.reference}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
