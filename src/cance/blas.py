"""The one BLAS thread policy: `import cance` pins every OpenBLAS that numpy
and scipy bundle to one thread, once, so a fit's bits depend neither on the
CPU count nor on the fits beside it. No other module sets a thread count."""

import ctypes
from contextlib import suppress
from pathlib import Path

import numpy as np
import scipy


def _pin():
    """(package, get threads, config) of the OpenBLAS numpy ships (symbols
    suffixed 64_) and of scipy's, which `solve_triangular` uses, each pinned
    to one thread."""
    found = []
    for package, suffix in ((np, "64_"), (scipy, "")):
        root = Path(package.__file__).resolve().parent.parent
        for lib in sorted(root.glob(f"{package.__name__}.libs/*openblas*")):
            with suppress(OSError, AttributeError):  # not loadable, or another BLAS
                handle = ctypes.CDLL(str(lib))
                get, set_, config = (getattr(handle, f"scipy_openblas_{name}{suffix}")
                                     for name in ("get_num_threads", "set_num_threads",
                                                  "get_config"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                config.argtypes, config.restype = [], ctypes.c_char_p
                set_(1)
                found.append((package.__name__, get, config))
                break
    return found


OPENBLAS = _pin()  # empty without a bundled OpenBLAS
