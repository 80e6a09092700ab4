"""Run a stretch of BLAS and LAPACK calls on the calling thread.

numpy and scipy each load an OpenBLAS with a thread pool of its own.  Split
over threads, a long reduction (the dot products inside xGEQRT, say) sums in
an order that depends on the thread count, so its result would change with
OPENBLAS_NUM_THREADS; and on a small machine the workers of one pool spin
between calls on the core that the interpreter needs.  `calling_thread()`
sets every loaded OpenBLAS pool to 1 thread for the body of a `with` and
gives each pool its count back when the outermost body exits, raising or not.
Without OpenBLAS (Accelerate, MKL) or without /proc/self/maps to find it,
it does nothing.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager

# the names an OpenBLAS build exports them under: plain, scipy's renamed
# copies, and the suffixed ones of the 64-bit-integer builds
_NAMES = tuple((f"{prefix}openblas_set_num_threads{suffix}",
                f"{prefix}openblas_get_num_threads{suffix}")
               for prefix in ("", "scipy_") for suffix in ("", "64_"))


@functools.cache
def _pools() -> tuple:
    """(set, get) of each OpenBLAS pool mapped into this process, found once per process."""
    # scipy.linalg brings its own OpenBLAS: load it before the one scan
    import scipy.linalg  # noqa: F401

    try:
        # every OpenBLAS build carries the name in its file or directory name
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    except OSError:
        return ()
    pools = {}
    for path in paths:
        try:  # RTLD_NOLOAD: a handle to the mapped copy, never a fresh load
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for set_name, get_name in _NAMES:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                pools.setdefault(ctypes.cast(setter, ctypes.c_void_p).value, (setter, getter))
    return tuple(pools.values())


# the thread counts are process-wide, so is the record of who holds them at 1
_lock = threading.Lock()
_depth = 0
_saved: tuple[int, ...] = ()


@contextmanager
def calling_thread():
    """Run the body's BLAS and LAPACK calls on the calling thread, in every OpenBLAS pool."""
    global _depth, _saved
    pools = _pools()
    with _lock:
        if _depth == 0:
            _saved = tuple(get() for _, get in pools)
            for set_, _ in pools:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (set_, _), count in zip(pools, _saved):
                    set_(count)
