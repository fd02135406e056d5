"""The machine: the one BLAS library and thread policy, the malloc arenas,
the CPU budget and a fit's helper thread, the one thread cance starts outside
`run_jobs`'s pool. `import cance` pins the OpenBLAS that numpy bundles to one
thread, once, so a fit's bits depend neither on the CPU count nor on the fits
beside it; no other module sets a thread count. `solve_lower` runs the
triangular solve of `GaussianModel.logpdf` on that same library, so every
BLAS and LAPACK call in cance runs on one library. The same import caps
glibc's malloc at one arena, process-wide."""

import ctypes
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import AbstractContextManager, suppress
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
_CONFIG = None  # the pinned library's config string
if _get and _set and _config:
    _set(1)
    _CONFIG = " ".join(_config().decode().split())

# glibc's M_ARENA_MAX (-8) at 1: every thread allocates from the main arena,
# so a fit on another thread costs its buffers, not a heap of its own
_mallopt = _symbol(ctypes.CDLL(None), "mallopt", ctypes.c_int, ctypes.c_int, ctypes.c_int)
if _mallopt:
    _mallopt(-8, 1)


def openblas_config() -> str | None:
    """numpy's OpenBLAS config string (version, build, core) once pinned, or None."""
    return _CONFIG


def blas_summary() -> str:
    """The BLAS that cance computes on, with its thread count."""
    config = openblas_config()
    return f"numpy's {config} on {_get()} thread(s)" if config else "unknown BLAS"


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


def usable_cpus() -> int:
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


_CPU_LOCK, _cpus_taken = threading.Lock(), 0  # held by `spare_cpus` blocks


class spare_cpus:
    """A block holding up to `wanted` usable CPUs that neither the calling
    thread nor another block holds: `run_jobs` workers past the first (its
    pool's one thread beyond them holds none), fit helper threads and
    formatter children. Entering takes the CPUs free and gives the
    count held, `take()` takes more once they are free, up to `wanted`,
    `release()` gives one back early, and leaving gives back all."""

    def __init__(self, wanted: int):
        self.wanted, self.held = wanted, 0

    def take(self) -> int:
        global _cpus_taken
        with _CPU_LOCK:
            more = max(0, min(self.wanted - self.held, usable_cpus() - 1 - _cpus_taken))
            self.held, _cpus_taken = self.held + more, _cpus_taken + more
        return self.held

    def release(self, count: int = 1) -> None:
        global _cpus_taken
        with _CPU_LOCK:
            count = min(count, self.held)
            self.held, _cpus_taken = self.held - count, _cpus_taken - count

    __enter__ = take

    def __exit__(self, *exc):
        self.release(self.wanted)


def blas_cpus(wanted: int) -> spare_cpus:
    """`spare_cpus` for threads that run BLAS work, none unless OpenBLAS is
    pinned: an unpinned BLAS already runs on every CPU, and the row split's
    bit rule (`nn.layers.split_row`) was checked on OpenBLAS kernels only."""
    return spare_cpus(wanted if openblas_config() else 0)


class Helper(AbstractContextManager):
    """A fit's second thread: `both` runs a task there beside one here. A
    side that waits for the other polls for up to SPIN_S seconds before it
    blocks, as a blocked thread takes tens of microseconds to wake and a
    fit hands off every few hundred. A task's exception ends the thread
    and is raised in the caller."""

    SPIN_S = 2e-4

    def __init__(self):
        self._task, self._ok = None, True
        self._ready, self._finished = threading.Event(), threading.Event()
        self._pool = ThreadPoolExecutor(1, "cance-fit-helper")
        self._serving = self._pool.submit(self._serve)  # holds the exception

    def _await(self, event: threading.Event) -> None:
        deadline = time.perf_counter() + self.SPIN_S
        while not event.is_set() and time.perf_counter() < deadline:
            time.sleep(0)  # lets the other thread have the interpreter
        event.wait()

    def _serve(self) -> None:
        while True:
            self._await(self._ready)
            self._ready.clear()
            task, self._task = self._task, None
            if task is None:
                return
            self._ok = False
            try:
                task()
                self._ok = True
            finally:
                del task  # so its arrays can go while the thread waits
                self._finished.set()

    def both(self, mine, theirs):
        """Run `theirs` on the helper while `mine` runs here, and return what
        `mine` returns; an exception of `mine`, or else of `theirs`,
        propagates once both are done."""
        if self._serving.done():
            raise RuntimeError("the fit's helper thread has stopped")
        self._task = theirs
        self._finished.clear()
        self._ready.set()
        try:
            result = mine()
        finally:
            self._await(self._finished)
        if not self._ok:
            self._serving.result()
        return result

    def __exit__(self, *exc):
        self._task = None
        self._ready.set()
        self._pool.shutdown()
