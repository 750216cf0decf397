import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent

# the benchmark pins BLAS threads before numpy is imported; do the same here
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
