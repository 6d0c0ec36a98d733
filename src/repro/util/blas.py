"""The BLAS thread budget of this process, set through the loaded library.

NumPy's BLAS sizes its thread pool to the machine when it loads, and the
``OPENBLAS_NUM_THREADS``-style variables are read only then.  A forked
rank inherits that size, so ranks sharing a host oversubscribe its cores.
This module resizes the pool of the BLAS already mapped into the process
through the setter the library exports: OpenBLAS (NumPy's bundled
``scipy_openblas`` build or a plain one) or MKL.  A BLAS it does not know
is left alone — :func:`blas_threads` and :func:`set_blas_threads` then
return ``None`` — and neither function raises.
"""

from __future__ import annotations

import ctypes
from functools import lru_cache
import os
from typing import Any, Optional, Tuple

import numpy  # noqa: F401  - maps the BLAS this module looks for

__all__ = ["blas_threads", "set_blas_threads"]

#: (setter, getter) symbol pairs, tried in order on every mapped BLAS.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads"),
)


@lru_cache(maxsize=1)
def _blas() -> Optional[Tuple[Any, Any]]:
    """The loaded BLAS's (setter, getter), or None if none is known."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        name = os.path.basename(path).lower()
        if "blas" not in name and "mkl" not in name:
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def blas_threads() -> Optional[int]:
    """The BLAS's current thread count, or None for an unknown BLAS."""
    blas = _blas()
    return None if blas is None else int(blas[1]())


def set_blas_threads(n: int) -> Optional[int]:
    """Set the BLAS's thread count to ``n`` (at least 1); returns the
    count now in force, or None — having done nothing — for an unknown
    BLAS."""
    blas = _blas()
    if blas is None:
        return None
    blas[0](max(1, int(n)))
    return int(blas[1]())
