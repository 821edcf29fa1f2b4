"""Environment set-up shared by the benchmark's entry points.

BLAS thread pinning only takes effect before numpy first loads, so the
entry points call ``pin_blas_threads`` ahead of every other import. BLAS
runs one thread: on the shapes these workloads use, two threads on two
cores gave the same wall time at twice the CPU time, and a second thread
makes every BLAS call wait on the slower of two cores a shared machine
lends out. The package under test is always imported from the checkout's ``src``
directory, never from an installed copy.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (package sources missing)."""


def core_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_blas_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_package():
    """Import bmace from ``src`` in this checkout; raise SetupError if absent."""
    if not (SRC / "bmace" / "__init__.py").is_file():
        raise SetupError(f"package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import bmace

    if Path(bmace.__file__).resolve().parent != SRC / "bmace":
        raise SetupError(f"bmace imported from {bmace.__file__}, not from {SRC}")
    return bmace


def _blas_threads_in_use():
    """Thread count OpenBLAS reports, or None where it cannot be queried."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment():
    """Core count, interpreter, numpy and BLAS versions, BLAS threads."""
    import numpy as np

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    threads = _blas_threads_in_use()
    return {
        "cores": core_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads if threads is not None else int(os.environ[THREAD_VARS[0]]),
        "machine": platform.machine(),
    }
