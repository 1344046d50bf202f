"""Process set-up shared by every benchmark entry point.

Pins the BLAS/OpenMP thread pools to one thread before numpy is imported and
puts the checkout's ``src`` directory first on the import path, so the
benchmark always measures the source tree it sits in.  Imports only the
standard library: the set-up probe times the first numpy import itself.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def prepare() -> None:
    for name in THREAD_VARS:
        os.environ[name] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_package():
    """Import rotorvqe from this checkout's ``src``; refuse any other copy."""
    prepare()
    import rotorvqe

    origin = Path(rotorvqe.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"rotorvqe imported from {origin}, not from {SRC}")
    return rotorvqe
