"""Process hygiene for the benchmark; import this before numpy or ncjulia.

Pins BLAS to one thread (at n <= 64 the threaded BLAS is no faster and adds
outliers), drops NCJULIA_SEED (it would silently override every CLI op's
seed) and puts the checkout's ``src`` first on the path, refusing any other
copy of the package.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"
NCJULIA_SEED_DROPPED = os.environ.pop("NCJULIA_SEED", None) is not None


class MissingPackage(RuntimeError):
    """The checkout holds no ncjulia source tree to benchmark."""


def import_ncjulia():
    """Import ncjulia from ``<checkout>/src``, never from anywhere else."""
    if not (SRC / "ncjulia" / "__init__.py").is_file():
        raise MissingPackage(f"no ncjulia sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ncjulia

    if Path(ncjulia.__file__).resolve().parent != SRC / "ncjulia":
        raise MissingPackage(f"ncjulia was imported from {ncjulia.__file__}, not {SRC}")
    return ncjulia


def describe() -> dict:
    """Machine and library facts recorded with every run."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "ncjulia_seed_dropped": NCJULIA_SEED_DROPPED,
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, else the env setting."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ["OPENBLAS_NUM_THREADS"]
