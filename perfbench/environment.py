"""BLAS thread pinning and the environment record kept with every result.

``pin_blas_threads`` must run before numpy is first imported: OpenBLAS
reads its thread count from the environment when the library loads.
``blas_record`` then asks the loaded library for the count it actually
uses, so a result is never reported from an unpinned process.
"""

import ctypes
import os
import platform
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Thread-count getters exported by the OpenBLAS builds numpy ships with
# (scipy-openblas, 64-bit and 32-bit interfaces) and by a system OpenBLAS.
_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")
_CONFIGS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
            "openblas_get_config64_", "openblas_get_config")


class PinError(RuntimeError):
    """The BLAS thread count could not be read back as one."""


def pin_blas_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _loaded_blas_paths():
    """Shared libraries mapped into this process whose name says BLAS."""
    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            name = Path(path).name.lower()
            if path.startswith("/") and "blas" in name and path not in paths:
                paths.append(path)
    return paths


def blas_record():
    """numpy/BLAS/CPU description; raises PinError unless BLAS runs one thread."""
    import numpy as np

    threads, config = None, None
    for path in _loaded_blas_paths():
        lib = ctypes.CDLL(path)
        for name in _GETTERS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        for name in _CONFIGS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                config = fn().decode(errors="replace").strip()
                break
        if threads is not None:
            break
    if threads is None:
        raise PinError("no OpenBLAS thread-count query found in the loaded libraries")
    if threads != 1:
        raise PinError(f"BLAS reports {threads} threads after pinning to 1")
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": config,
        "blas_threads": threads,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"
