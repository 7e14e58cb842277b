#!/usr/bin/env python3
"""affsim benchmark entry point.

    python3 perfbench/run.py --workload office_sweep --seed 0 --seconds 10 --trace 0

Runs one workload's ``affsim`` commands in-process through
``affsim.cli.main`` for ``--seconds`` seconds, checks their outputs and
prints one JSON result as the last line of standard output. The program is
imported from ``src/`` of the same checkout; without it the benchmark exits
with code 2 and prints no result. See README.md next to this file.
"""
import os
import sys
from pathlib import Path

# One BLAS thread. The load is one caller, and a second thread made the
# small matrix-vector products of the adaptive baselines slower, not faster.
BLAS_THREADS = 1

SRC = Path(__file__).resolve().parent.parent / "src"


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "affsim" / "cli.py").is_file():
        print(f"perfbench: no affsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench  # imports numpy and affsim, so only after the lines above

    return bench.run(sys.argv[1:], BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
