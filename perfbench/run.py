"""iprox benchmark: one workload, one seed, one measuring period.

    python3 perfbench/run.py --workload oscar --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
The workload's input is generated from --seed and written to a file before
timing starts. With --trace 0 the run measures the end-to-end metrics
untraced; with --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics. Solver outputs are checked in both modes.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exit status is 0 only when every
check passed.
"""
import os

# BLAS and OpenMP are pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program():
    """Put the checkout's src/ first on the path and import iprox from it, never from elsewhere."""
    if not (SRC / "iprox" / "__init__.py").is_file():
        raise SystemExit(f"error: no iprox package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import iprox

    if not Path(iprox.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: iprox was imported from {iprox.__file__}, not from {SRC}")


if __name__ == "__main__":
    import_program()
    from harness import main

    sys.exit(main())
