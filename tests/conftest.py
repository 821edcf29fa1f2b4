"""Test-suite set-up: BLAS runs one thread, as under the CLI.

The pin only works before numpy first loads, and pytest imports this file
before any test module. An explicit setting in the environment wins.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
