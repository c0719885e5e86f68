"""Compiled step loops of the mu recurrences, built on first use.

The dual and primal mu recurrences in certificates run one chunk of rows
at a time: numpy forms the chunk's powers, then a step loop walks the
rows, each step needing the one before it through a `pow`.  This module
holds that step loop for each recurrence as C source, compiled with the
system `cc` the first time a process asks for it and loaded with ctypes.
loops() returns the two step functions, with the contract of
certificates._dual_steps and _primal_steps, or None where no compiler is
present or the build fails; the recurrences then run those Python loops,
which are also the reference the C loops must match bit for bit.

Why the bits match: CPython's float `**` is libm `pow` for finite
positive operands not equal to 1, every other step is one IEEE
operation, and the C code is built with -ffp-contract=off (no fused
multiply-adds) and without -ffast-math.  py_pow below copies CPython's
special cases (float_pow in Objects/floatobject.c) before it calls
`pow`, and reports where CPython raises OverflowError (a finite power
that rounds to inf) or ZeroDivisionError (0.0 to a negative power).
No base the loops raise is negative, so CPython's complex results never
arise.

The library is cached as $XDG_CACHE_HOME/lpcert/steps-<key>.so (by
default under ~/.cache), the key a CRC-32 of the build material: the
source, the compiler command and the platform.  The library carries
that material and is used only if it matches byte for byte, so a key
collision or a stale file is rebuilt, not trusted.  It is written to a
temporary file and moved into place with os.replace, so a concurrent
process sees the old file or the new one, never a part.  The cache
directory is created 0700; one that belongs to another user or that
others can write is not used, and the library is then built in a
private temporary directory, loaded, and deleted.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
import zlib

import numpy as np

_COMMAND = ("cc", "-O2", "-ffp-contract=off", "-fPIC", "-shared")

_SOURCE = r"""
#include <errno.h>
#include <math.h>
#include <stddef.h>
#include <string.h>

/* CPython's float ** for the operands the loops meet (none negative):
   0 on success, 1 where CPython raises (OverflowError, or
   ZeroDivisionError for 0.0 to a negative power).  As CPython does, a
   result is an error where pow sets errno, except ERANGE on a result
   of 0, and where it is inf with errno unset. */
static int py_pow(double v, double w, double *out)
{
    if (w == 0.0) { *out = 1.0; return 0; }
    if (isnan(v)) { *out = v; return 0; }
    if (isnan(w)) { *out = v == 1.0 ? 1.0 : w; return 0; }
    if (isinf(w)) {
        double a = fabs(v);
        *out = a == 1.0 ? 1.0 : ((w > 0.0) == (a > 1.0) ? fabs(w) : 0.0);
        return 0;
    }
    if (isinf(v)) { *out = w > 0.0 ? v : 0.0; return 0; }
    if (v == 0.0) {
        if (w < 0.0) return 1;
        *out = 0.0;
        return 0;
    }
    if (v == 1.0) { *out = 1.0; return 0; }
    errno = 0;
    *out = pow(v, w);
    if (errno == 0) return isinf(*out);
    return !(errno == ERANGE && *out == 0.0);
}

/* certificates._dual_steps: returns the steps written to out; *stop is
   1 where the Python loop raises OverflowError or ZeroDivisionError. */
ptrdiff_t lpcert_dual_steps(const double *rp, const double *cq, ptrdiff_t n,
                            double prev, double mu_1, double ne1, double qm1,
                            double *out, int *stop)
{
    ptrdiff_t i;
    *stop = 0;
    for (i = 0; i < n; i++) {
        double x, inner, d;
        if (py_pow(prev, ne1, &x)) break;
        inner = rp[i] * x - 1.0;
        if (!(inner > 0.0)) return i;
        if (inner == INFINITY) break;
        if (py_pow(inner, qm1, &d) || d == 0.0) break;
        prev = mu_1 + cq[i] / d;
        out[i] = prev;
    }
    if (i < n) *stop = 1;
    return i;
}

/* certificates._primal_steps: returns the steps written to out; *stop
   is 1 on a violation (its value written when the floor test failed)
   and 2 where the Python loop raises OverflowError. */
ptrdiff_t lpcert_primal_steps(const double *rp, const double *cross,
                              ptrdiff_t n, double prev, double e1, double pm1,
                              double lam_p, double rtol, double *out,
                              int *stop)
{
    ptrdiff_t i;
    *stop = 0;
    for (i = 0; i < n; i++) {
        double base = 0.0, denom, t, nxt, scale;
        if (prev > 0.0 && py_pow(prev, e1, &base)) { *stop = 2; return i; }
        if (py_pow(base + cross[i], pm1, &denom)) { *stop = 2; return i; }
        if (denom <= 0.0 || !isfinite(denom)) {
            *stop = prev != INFINITY;
            return i;
        }
        t = rp[i] * prev / denom;
        nxt = t - lam_p;
        if (nxt < 0.0) {
            scale = t < lam_p ? lam_p : t;
            if (scale < 1.0) scale = 1.0;
            if (nxt >= -rtol * scale) {
                nxt = 0.0;
            } else {
                out[i] = nxt;
                *stop = 1;
                return i + 1;
            }
        }
        out[i] = nxt;
        prev = nxt;
    }
    return n;
}
"""

_C_DOUBLES = ctypes.POINTER(ctypes.c_double)


def _material() -> bytes:
    """What the library is built from: source, command and platform."""
    return "\0".join((_SOURCE, *_COMMAND, sys.platform,
                      os.uname().machine)).encode()


def _with_key(material: bytes) -> str:
    """The source with the build material appended, and the function by
    which a loaded library proves it was built from that material."""
    body = ",".join(map(str, material))
    return (f"{_SOURCE}\nstatic const unsigned char key[] = {{{body}}};\n"
            "int lpcert_built_from(const unsigned char *m, size_t n)\n"
            "{ return n == sizeof key && memcmp(m, key, n) == 0; }\n")


def _cache_dir() -> str | None:
    """The private cache directory, made 0700 if absent; None when it
    cannot be made, belongs to another user or others can write it."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "lpcert")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except OSError:
        return None
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        return None
    return path


def _build(path: str, material: bytes) -> bool:
    """Compile the library to path through a temporary file beside it;
    False when no compiler runs or the build fails."""
    import subprocess
    import tempfile

    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=".steps-", suffix=".so",
                                   dir=os.path.dirname(path))
        os.close(fd)
        subprocess.run([*_COMMAND, "-o", tmp, "-x", "c", "-", "-lm"],
                       input=_with_key(material).encode(),
                       capture_output=True, check=True, timeout=120)
        os.replace(tmp, path)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.remove(tmp)


def _open(path: str, material: bytes):
    """The library at path if it loads and was built from material."""
    try:
        lib = ctypes.CDLL(path)
        check = lib.lpcert_built_from
    except (OSError, AttributeError):
        return None
    check.argtypes = (ctypes.c_char_p, ctypes.c_size_t)
    check.restype = ctypes.c_int
    return lib if check(material, len(material)) else None


def _library():
    """The loaded library: from the cache, else built (into the cache,
    or a private temporary directory); None where that fails."""
    material = _material()
    name = f"steps-{zlib.crc32(material):08x}.so"
    directory = _cache_dir()
    if directory is not None:
        path = os.path.join(directory, name)
        # a library that is absent or not built from this material is
        # rebuilt; where the one that failed was loaded, the process
        # keeps it (dlopen reuses a loaded path), fails the check again
        # and runs the Python loops
        lib = _open(path, material)
        if lib is None and _build(path, material):
            lib = _open(path, material)
        return lib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        return _open(path, material) if _build(path, material) else None


def _pointer(arr: np.ndarray):
    return arr.ctypes.data_as(_C_DOUBLES)


def _doubles(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64)


@functools.cache
def loops():
    """(dual_steps, primal_steps) running the compiled loops, or None
    where no compiler is present or the build fails.  Built or loaded
    once per process."""
    if os.name != "posix":
        return None
    lib = _library()
    if lib is None:
        return None
    size, real = ctypes.c_ssize_t, ctypes.c_double
    stop_ptr = ctypes.POINTER(ctypes.c_int)
    dual, primal = lib.lpcert_dual_steps, lib.lpcert_primal_steps
    dual.argtypes = (_C_DOUBLES, _C_DOUBLES, size, real, real, real, real,
                     _C_DOUBLES, stop_ptr)
    primal.argtypes = (_C_DOUBLES, _C_DOUBLES, size, real, real, real, real,
                       real, _C_DOUBLES, stop_ptr)
    dual.restype = primal.restype = size

    def steps(loop, trace, rp, cross, *scalars):
        """Append the steps of the C loop over the rows rp, cross to
        trace; return the loop's stop code."""
        rp, cross = _doubles(rp), _doubles(cross)
        out = np.empty(min(rp.shape[0], cross.shape[0]))
        stop = ctypes.c_int()
        k = loop(_pointer(rp), _pointer(cross), out.shape[0], trace[-1],
                 *scalars, _pointer(out), ctypes.byref(stop))
        trace.frombytes(memoryview(out[:k]).cast("B"))
        return stop.value

    return functools.partial(steps, dual), functools.partial(steps, primal)
