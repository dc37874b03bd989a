"""Pins BLAS to one thread on import and describes the machine a result came from.

Import this module before anything imports numpy: BLAS libraries read their
thread count from the environment when they load.  One thread is the plain
single-threaded baseline, and the steadiest setting on a small shared machine.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

if "numpy" in sys.modules:
    raise RuntimeError("machine must be imported before numpy")
for _var in THREAD_VARIABLES:
    os.environ[_var] = str(BLAS_THREADS)

_SYMBOL_SUFFIXES = ("64_", "_64", "")
_SYMBOL_PREFIXES = ("scipy_openblas", "openblas")


def _lookup(lib, name: str):
    for prefix in _SYMBOL_PREFIXES:
        for suffix in _SYMBOL_SUFFIXES:
            fn = getattr(lib, f"{prefix}_{name}{suffix}", None)
            if fn is not None:
                return fn
    return None


def blas_libraries() -> list[dict]:
    """Every OpenBLAS loaded into this process, with its runtime thread count."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        threads = _lookup(lib, "get_num_threads")
        if threads is not None:
            threads.restype = ctypes.c_int
            entry["threads"] = threads()
        config = _lookup(lib, "get_config")
        if config is not None:
            config.restype = ctypes.c_char_p
            entry["config"] = config().decode(errors="replace").strip()
        libs.append(entry)
    return libs


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "blas_threads_requested": BLAS_THREADS,
        "blas": blas_libraries(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu_model(),
        "seed": seed,
    }
