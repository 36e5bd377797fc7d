"""Entry point of the saddlekit benchmark.

    python3 perfbench/run.py --workload krylov-l16 --seed 1 --seconds 25 \
        --trace 0

BLAS is pinned to one thread for this process only, before numpy is first
imported, and saddlekit is imported from the ``src`` directory next to
this one, never from an installed copy.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "saddlekit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no saddlekit sources under {src}")
    sys.path.insert(0, str(src))

    import harness

    sys.exit(harness.main())
