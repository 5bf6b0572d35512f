"""Native C layer-sweep kernel behind :func:`repro.bfs.msbfs.sweep_band_layers`.

The paper's premise is that the chunked Sell-C-σ/SlimSell layout lets the
BFS-SpMV column layers run as tight, vectorizable loops.  The numpy sweep
interprets every column layer through fancy indexing; this module compiles
the same sweep as one C loop per semiring ``(⊕, ⊗)`` ufunc pair and calls
it through :mod:`ctypes` (which releases the GIL, so the executed
backend's thread shards sweep in parallel):

=========================  ==========================================
``(maximum, multiply)``    sel-max
``(minimum, add)``         tropical, weighted min-plus SSSP
``(add, multiply)``        real
``(maximum, minimum)``     boolean
=========================  ==========================================

**Bit-identity contract.**  Each loop reproduces the numpy sweep bit for
bit: it walks chunk-major, each row accumulating its layers in ascending
``j`` (the per-row order of the layer-major numpy loop), computes
``x = add(x, mul(v, f[c]))`` with numpy's argument order, propagates NaN
and breaks ties exactly as ``np.maximum``/``np.minimum`` do (``a`` when
``a`` is NaN or strictly wins, else ``b``), and reads ``f[N-1]`` for a
SlimSell ``-1`` marker, as numpy's negative index does.  The build uses
``-O3 -ffp-contract=off`` (no fused multiply-add) and never
``-ffast-math`` or ``-march=native``: the former reorders and drops IEEE
semantics, the latter would let a cached library trap on another CPU.

**Build and cache.**  The source below is compiled on first use with the
system C compiler (``$CC``, default ``cc``).  The shared library is cached
on disk under ``$XDG_CACHE_HOME/repro`` (``~/.cache/repro``), falling back
to a per-user directory under the system temp dir, keyed by a hash of the
source, the flags and ``platform.machine()``; it is written to a temporary
name and ``os.replace``\\ d into place, so concurrent builds cannot race.

**Selection** is one process-wide setting: ``REPRO_KERNEL=auto|native|numpy``
(read once, at import) or :func:`set_kernel`.  Under ``auto`` a failed build
or load warns once and the numpy loop runs; ``native`` raises instead;
``numpy`` never touches a compiler.  :func:`kernel_impl` reports which
kernel sweeps, and :func:`register_metrics` publishes it as ``kernel.native``.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shlex
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

__all__ = ["CFLAGS", "KERNELS", "SOURCE", "NativeKernelError", "build",
           "kernel_impl", "register_metrics", "set_kernel", "sweep",
           "use_kernel"]

#: Selectable kernels: ``auto`` = native when it builds, else numpy.
KERNELS = ("auto", "native", "numpy")

#: Compiler flags.  ``-ffp-contract=off`` keeps ``mul`` and ``add`` two
#: IEEE operations, exactly like numpy's two ufunc calls.
CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")

SOURCE = r"""
#include <stdint.h>

/* numpy's maximum/minimum: a NaN in `a` wins, then a NaN in `b`, and a
   tie returns `b` (so -0.0/+0.0 resolve exactly as numpy does). */
static inline double op_max(double a, double b) { return (a > b || a != a) ? a : b; }
static inline double op_min(double a, double b) { return (a < b || a != a) ? a : b; }
static inline double op_add(double a, double b) { return a + b; }
static inline double op_mul(double a, double b) { return a * b; }

/* One shrinking-prefix layer sweep over the chunks act[0..nact), chunk by
   chunk: row r of chunk c accumulates layers j = 0..cl[c)-1 in order,
   x[out][r][w] = ADD(x[out][r][w], MUL(val[s], f[col[s]][w])) with
   s = cs[c] + j*C + r.  f is a C-contiguous (N, W) block; x holds the
   accumulator rows of chunk act[a] at position out[a], C*W values each. */
#define SWEEP(NAME, ADD, MUL)                                                \
void NAME(int64_t C, int64_t W, int64_t N,                                   \
          const int64_t *restrict col, const double *restrict val,           \
          const int64_t *restrict cs, const int64_t *restrict cl,            \
          const double *restrict f, double *restrict x,                      \
          const int64_t *restrict act, const int64_t *restrict out,          \
          int64_t nact)                                                      \
{                                                                            \
    for (int64_t a = 0; a < nact; ++a) {                                     \
        const int64_t c = act[a], len = cl[c];                               \
        double *restrict xc = x + out[a] * C * W;                            \
        for (int64_t j = 0; j < len; ++j) {                                  \
            const int64_t s0 = cs[c] + j * C;                                \
            for (int64_t r = 0; r < C; ++r) {                                \
                int64_t k = col[s0 + r];                                     \
                if (k < 0) k += N;                                           \
                const double v = val[s0 + r];                                \
                const double *restrict fk = f + k * W;                       \
                double *restrict xr = xc + r * W;                            \
                if (W == 1) {                                                \
                    xr[0] = ADD(xr[0], MUL(v, fk[0]));                       \
                } else {                                                     \
                    for (int64_t w = 0; w < W; ++w)                          \
                        xr[w] = ADD(xr[w], MUL(v, fk[w]));                   \
                }                                                            \
            }                                                                \
        }                                                                    \
    }                                                                        \
}

SWEEP(sweep_max_mul, op_max, op_mul)
SWEEP(sweep_min_add, op_min, op_add)
SWEEP(sweep_add_mul, op_add, op_mul)
SWEEP(sweep_max_min, op_max, op_min)
"""

#: ``(sr.add, sr.mul)`` → exported C symbol.
_SYMBOLS = {
    (np.maximum, np.multiply): "sweep_max_mul",
    (np.minimum, np.add): "sweep_min_add",
    (np.add, np.multiply): "sweep_add_mul",
    (np.maximum, np.minimum): "sweep_max_min",
}

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_ARGTYPES = [_I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,
             _PTR, _I64]


class NativeKernelError(RuntimeError):
    """The native kernel was required but could not be built or loaded."""


def _initial_kernel() -> str:
    name = os.environ.get("REPRO_KERNEL", "auto") or "auto"
    if name not in KERNELS:
        warnings.warn(f"REPRO_KERNEL={name!r} is not one of {KERNELS}; "
                      "using 'auto'", RuntimeWarning, stacklevel=2)
        name = "auto"
    return name


_lock = threading.Lock()
_kernel = _initial_kernel()
#: Loaded state: None = not tried yet, else (symbol -> function | None,
#: error message | None).
_loaded: tuple[dict, str | None] | None = None


# ----------------------------------------------------------------------
# Build and load
# ----------------------------------------------------------------------
def _digest() -> str:
    h = hashlib.sha256()
    for part in (SOURCE, " ".join(CFLAGS), platform.machine()):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _cache_dirs() -> list[Path]:
    """Cache locations in preference order: the user cache, then temp."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    uid = os.getuid() if hasattr(os, "getuid") else "user"
    return [Path(base) / "repro",
            Path(tempfile.gettempdir()) / f"repro-{uid}"]


def _usable(d: Path) -> bool:
    """Create ``d`` if needed; refuse a shared-temp directory we don't own."""
    try:
        d.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = d.stat()
    except OSError:
        return False
    return not hasattr(os, "getuid") or st.st_uid == os.getuid()


def build() -> Path:
    """Return the path of the compiled kernel, compiling it if not cached.

    A cached library is reused without running the compiler.  Raises
    :class:`NativeKernelError` when the compiler fails or no cache
    directory is writable.
    """
    name = f"repro_sweep_{_digest()}.so"
    for d in _cache_dirs():
        if not _usable(d):
            continue
        path = d / name
        if path.exists():
            return path
        try:
            fd, tmp = tempfile.mkstemp(dir=d, prefix=name + ".",
                                       suffix=".tmp")
        except OSError:
            continue  # unwritable: try the next location
        os.close(fd)
        try:
            _compile(tmp)
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        return path
    raise NativeKernelError("no writable cache directory for the native "
                            f"kernel (tried {[str(d) for d in _cache_dirs()]})")


def _compile(dest: str) -> None:
    cc = shlex.split(os.environ.get("CC") or "cc")
    cmd = [*cc, *CFLAGS, "-x", "c", "-", "-o", dest]
    try:
        proc = subprocess.run(cmd, input=SOURCE, capture_output=True,
                              text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise NativeKernelError(f"{' '.join(cmd)}: {exc}") from exc
    if proc.returncode != 0:
        raise NativeKernelError(
            f"{' '.join(cmd)} exited {proc.returncode}: "
            f"{proc.stderr.strip()[:500]}")


def _load() -> tuple[dict, str | None]:
    try:
        lib = ctypes.CDLL(str(build()))
    except (NativeKernelError, OSError) as exc:
        return {}, str(exc)
    funcs = {}
    for pair, sym in _SYMBOLS.items():
        fn = getattr(lib, sym)
        fn.argtypes = _ARGTYPES
        fn.restype = None
        funcs[pair] = fn
    return funcs, None


def _functions() -> dict | None:
    """The loaded C loops, or None on the numpy path (warns/raises once)."""
    global _loaded
    if _kernel == "numpy":
        return None
    if _loaded is None:
        with _lock:
            if _loaded is None:
                _loaded = _load()
                if _loaded[1] is not None and _kernel == "auto":
                    warnings.warn(
                        f"native layer-sweep kernel unavailable "
                        f"({_loaded[1]}); using the numpy kernel",
                        RuntimeWarning, stacklevel=3)
    funcs, err = _loaded
    if err is not None:
        if _kernel == "native":
            raise NativeKernelError(f"REPRO_KERNEL=native: {err}")
        return None
    return funcs


def _reset() -> None:
    """Forget the loaded library (the next sweep rebuilds or reloads)."""
    global _loaded
    with _lock:
        _loaded = None


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def set_kernel(name: str) -> str:
    """Select the process-wide kernel; returns the previous selection.

    ``"native"`` loads (building if needed) right away and raises
    :class:`NativeKernelError` if that fails, leaving the selection as it
    was.
    """
    global _kernel
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; choose from {KERNELS}")
    prev = _kernel
    _kernel = name
    if name == "native":
        try:
            _functions()
        except NativeKernelError:
            _kernel = prev
            raise
    return prev


@contextlib.contextmanager
def use_kernel(name: str):
    """Run a block under kernel ``name``, restoring the selection after."""
    prev = set_kernel(name)
    try:
        yield
    finally:
        set_kernel(prev)


def kernel_impl() -> str:
    """``"native"`` when sweeps run the C loops, else ``"numpy"``."""
    return "numpy" if _functions() is None else "native"


def register_metrics(registry) -> None:
    """Publish ``kernel.native`` (1 = C loops, 0 = numpy) as a lazy view."""
    registry.register_view("kernel.native",
                           lambda: int(kernel_impl() == "native"))


# ----------------------------------------------------------------------
# The sweep entry point
# ----------------------------------------------------------------------
def _is(a: np.ndarray, dtype) -> bool:
    return a.dtype == dtype and a.flags.c_contiguous


def sweep(sr, C: int, col: np.ndarray, val: np.ndarray, cs: np.ndarray,
          cl: np.ndarray, f_prev: np.ndarray, x_nd: np.ndarray,
          act: np.ndarray, act_out: np.ndarray) -> bool:
    """Run one layer sweep in C if it can; return whether it did.

    Same arguments as :func:`repro.bfs.msbfs.sweep_band_layers` (with
    ``act_out`` resolved).  Returns False, touching nothing, when the
    numpy kernel is selected or unavailable, the semiring's ufunc pair has
    no C loop, ``x_nd`` is not a C-contiguous float64 block, an operand has
    another dtype or shape, ``x_nd`` overlaps ``f_prev`` (the numpy loop
    reads a whole layer before writing it), or a chunk id is out of range
    (the numpy loop then raises its usual IndexError).  A non-contiguous
    ``f_prev`` is copied once.  The layout operands ``col``/``val``/
    ``cs``/``cl`` are trusted to describe a valid chunked layout over
    ``f_prev``'s rows, as a built representation's do; checking every
    ``col`` entry per sweep would cost as much as the sweep.
    """
    funcs = _functions()
    if funcs is None:
        return False
    fn = funcs.get((sr.add, sr.mul))
    if fn is None:
        return False
    W = x_nd.shape[2] if x_nd.ndim == 3 else 1
    if not (_is(x_nd, np.float64) and f_prev.dtype == np.float64
            and x_nd.ndim - 1 == f_prev.ndim and x_nd.shape[1] == C
            and (f_prev.ndim == 1 or f_prev.shape[1] == W)
            and _is(col, np.int64) and _is(val, np.float64)
            and _is(cs, np.int64) and _is(cl, np.int64)
            and col.shape == val.shape and cs.shape == cl.shape
            and not np.may_share_memory(x_nd, f_prev)):
        return False
    act = np.ascontiguousarray(act, dtype=np.int64)
    act_out = np.ascontiguousarray(act_out, dtype=np.int64)
    if (act.shape != act_out.shape or act.min() < 0 or act.max() >= cl.size
            or act_out.min() < 0 or act_out.max() >= x_nd.shape[0]):
        return False
    f = np.ascontiguousarray(f_prev)
    fn(C, W, f.shape[0], col.ctypes.data, val.ctypes.data, cs.ctypes.data,
       cl.ctypes.data, f.ctypes.data, x_nd.ctypes.data, act.ctypes.data,
       act_out.ctypes.data, act.size)
    return True
