"""The one BLAS thread policy and the one LAPACK call: `import cance` pins the
OpenBLAS that numpy bundles to one thread, once, so a fit's bits depend
neither on the CPU count nor on the fits beside it. No other module sets a
thread count. `solve_lower` runs the triangular solve of
`GaussianModel.logpdf` on that same library, so every BLAS and LAPACK call
in cance runs on one library."""

import ctypes
from contextlib import suppress
from pathlib import Path

import numpy as np

from cance.errors import DegenerateFeatureError, NonFiniteError, ShapeError


def _numpy_openblas():
    """numpy's bundled OpenBLAS (ILP64, symbols suffixed 64_), or None."""
    root = Path(np.__file__).resolve().parent.parent
    for lib in sorted(root.glob("numpy.libs/*openblas*")):
        with suppress(OSError):  # not loadable
            return ctypes.CDLL(str(lib))
    return None


def _symbol(lib, name, restype, *argtypes):
    """`name` from `lib`, declared; None when either is missing."""
    function = getattr(lib, name, None) if lib is not None else None
    if function is not None:
        function.argtypes, function.restype = list(argtypes), restype
    return function


_LIB = _numpy_openblas()
_get, _set, _config = (
    _symbol(_LIB, f"scipy_openblas_{name}64_", restype, *argtypes)
    for name, restype, argtypes in (("get_num_threads", ctypes.c_int, ()),
                                    ("set_num_threads", None, (ctypes.c_int,)),
                                    ("get_config", ctypes.c_char_p, ())))
# (package, get threads, config) of the pinned library; empty without one
OPENBLAS = []
if _get and _set and _config:
    _set(1)
    OPENBLAS.append(("numpy", _get, _config))

# LAPACK dtrtrs(uplo, trans, diag, n, nrhs, a, lda, b, ldb, info), with
# 64-bit integers and the three hidden Fortran string lengths
_INT = ctypes.POINTER(ctypes.c_int64)
DTRTRS = _symbol(_LIB, "scipy_dtrtrs_64_", None,
                 *[ctypes.c_char_p] * 3, _INT, _INT, ctypes.c_void_p, _INT,
                 ctypes.c_void_p, _INT, _INT, *[ctypes.c_size_t] * 3)


def solve_lower(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x (dim x rows) with `factor @ x = rhs.T`, for a lower-triangular
    `factor` from `np.linalg.cholesky` and rows `rhs`, overwriting `rhs`
    when it is C-contiguous float64.

    This is the call scipy's `solve_triangular(factor, rhs.T, lower=True)`
    makes for a C-ordered factor, so it gives the same bits: read column-major,
    `factor` is its upper-triangular transpose, solved transposed, and `rhs`
    is the dim x rows right-hand side. Without numpy's bundled OpenBLAS it
    is scipy's call itself.
    """
    if not (np.isfinite(factor).all() and np.isfinite(rhs).all()):
        raise NonFiniteError("non-finite values in a Gaussian log-density's input")
    if DTRTRS is None:
        from scipy.linalg import solve_triangular
        return solve_triangular(factor, rhs.T, lower=True)
    factor = np.ascontiguousarray(factor, dtype=np.float64)
    rhs = np.ascontiguousarray(rhs, dtype=np.float64)
    if factor.ndim != 2 or rhs.ndim != 2 or factor.shape != (rhs.shape[1],) * 2:
        raise ShapeError(f"factor {factor.shape} does not match rows {rhs.shape}")
    n, nrhs, info = (ctypes.c_int64(v) for v in (factor.shape[0], rhs.shape[0], 0))
    DTRTRS(b"U", b"T", b"N", n, nrhs, factor.ctypes.data, n,
           rhs.ctypes.data, n, info, 1, 1, 1)
    if info.value:
        raise DegenerateFeatureError(f"triangular solve failed: dtrtrs info {info.value}")
    return rhs.T
