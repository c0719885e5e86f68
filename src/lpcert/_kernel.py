"""The compiled loops: the two mu drivers with their step loops, and the
block passes of _num (scaled running sums, weighted sums and the trial
draw), in C (built on first use), beside the Python and numpy code they
must match.

_mu_dual_ratios runs the dual recurrence (certificates.mu_dual,
copson.mu_dual_copson, the dual route of copson.mu_bge, hlp.mu_direct),
_mu_primal_ratios the primal one (certificates.mu_primal, the primal
route of mu_bge, hlp.mu_dual).  Each reads its rows from ratios(lo, hi) one
_ROW_CHUNK at a time, forms the chunk's powers with numpy, checks its
bounds and keeps the trace, the running minimum of the margins and
every error message; a step loop walks the rows, each step needing the
one before it through a `pow`.  That loop runs in C where it can: the
source below is compiled with the system `cc` the first time a process
asks for it and loaded with ctypes.  loops() returns the two compiled
step functions, or None where no compiler is present or the build
fails; the drivers then run _dual_steps and _primal_steps, the
reference the C loops match bit for bit, so every trace, report and
domain error is the same either way.

Three more functions run the block passes, each bound through the one
table _SIGNATURES, and return False or None, with nothing written,
where the library lacks their loop or the arrays do not suit it; _num
then runs the numpy code each one replaces: scaled_sums, the running
sums of each row of a block, forward or backward, of the row times a
weight row (or divided by it), each then divided by another (or times
it), in one pass a row (numpy's product, np.cumsum and quotient:
sequences.averaged, check_bge's tail sums and, with no weight rows,
the plain sums of prefix_sums and suffix_sums); weighted_sums, the sums
of a_n u_n along each row (np.sum(a * u, axis=-1)); and draw, the
uniforms of a trial block (Generator.random from an advanced PCG64,
then numpy's affine step).  _num sends a call of fewer than
_num._COMPILED_MIN values to numpy (the one size rule), and imports
this module past that test only, inside the functions that run a
trace or a pass, so a command that runs neither does not load it.

Why the bits match: CPython's float `**` is libm `pow` for finite
positive operands not equal to 1, every other step is one IEEE
operation, and the C code is built with -ffp-contract=off (no fused
multiply-adds) and without -ffast-math.  py_pow below copies CPython's
special cases (float_pow in Objects/floatobject.c) before it calls
`pow`, and reports where CPython raises OverflowError (a finite power
that rounds to inf) or ZeroDivisionError (0.0 to a negative power).
No base the loops raise is negative, so CPython's complex results never
arise.  np.cumsum along a row is numpy's add.accumulate: the first sum
is the first value itself (so a leading -0.0 stays -0.0), and each
later one the sum before it plus the next value; the scaled sums round
each product or quotient once, as numpy's elementwise ufuncs do.
np.sum along a contiguous row is numpy's pairwise summation
(DOUBLE_pairwise_sum) added to the identity 0.0: below 8 terms one by
one, up to 128 in 8 accumulators combined pairwise, above that the two
halves, the first rounded down to a multiple of 8; the C sum makes the
same additions.  numpy's PCG64 steps the 128-bit LCG s -> s M + inc and
outputs the XSL-RR of the new state, its advance is the LCG jump ahead
(Brown, "Random number generation with arbitrary strides", 1994), and
Generator.random is (x >> 11) 2^-53 of an output x; an LCG split into
interleaved lanes (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", 2014) gives the same outputs in the same places.

The library is cached as $XDG_CACHE_HOME/lpcert/steps-<key>.so (by
default under ~/.cache), the key a CRC-32 of the build material: the
source, the compiler command and the platform.  The library carries
that material and is used only if it matches byte for byte, so a key
collision or a stale file is rebuilt, not trusted.  It is written to a
temporary file and moved into place with os.replace, so a concurrent
process sees the old file or the new one, never a part; within a
process, a lock makes the threads that first ask for it (trial workers)
build or load it once.  A build removes the cached libraries of other
material, so the cache keeps one library, not one for every version of
the source.  The cache directory is created 0700; one that
belongs to another user or that others can write is not used, and the
library is then built in a private temporary directory, loaded, and
deleted.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import sys
import threading
import zlib
from array import array

import numpy as np

from ._num import _ROW_CHUNK, PASS_RTOL, MuTrace, _binary64_pow


def _mu_dual_ratios(ratios, N: int, p: float, mu_1: float) -> MuTrace:
    """The dual recurrence on N rows, driven by the ratios alone:
    ratios(lo, hi) returns r_n = a_n/b_n for the 0-based rows
    lo <= i < hi and cross_n = a_n/b_{n+1} for lo <= i < min(hi, N - 1),
    as contiguous arrays, and mu_1 = U_p^(-q/p).  With q = p/(p-1),

        mu_{n+1} = mu_1 + cross_n^q / (r_n^p mu_n^(1-p) - 1)^(q-1).

    Its domain, r_n^p mu_n^(1-p) > 1, is mu_n on the right side of the
    strict bound r_n^q: a ceiling for p > 1 (q > 1), margins r_n^q - mu_n;
    a floor for p < 0 (0 < q < 1, hlp.mu_direct), margins mu_n - r_n^q
    (formed as such, so an exact zero is +0.0, not a negated -0.0).  A
    family whose a_n, b_n overflow
    while these ratios stay moderate passes them in closed form.

    The step loop runs the recurrence and its domain test alone; the
    bound is checked with numpy over each chunk, and the first index
    failing either test is the violation.  Each chunk's margins, up to
    and including a failing row, are folded into a running minimum, the
    worst margin.  When the loop leaves the binary64 range, the chunk's
    bounds are checked first, so a bound the trace crossed earlier is
    still the verdict.
    """
    q = p / (p - 1.0)
    eq = q / (q - 1.0)           # equals p
    e1 = 1.0 / (q - 1.0)         # equals p - 1
    floor = q < 1.0
    if not floor:
        # mu_1^(-e1) recovers U_p; as every mu_n >= mu_1 and -e1 < 0, it
        # is the largest power the loop forms (with a floor, -e1 > 0 and
        # the loop reports the power that overflows)
        _binary64_pow(mu_1, -e1, "U_p")
    dual_steps = _step_loops()[0]
    trace = array("d", [mu_1])
    worst = math.inf
    violation = None
    for lo in range(0, N, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, N)
        r, cross = ratios(lo, hi)
        steps = cross.shape[0]
        with np.errstate(over="ignore"):
            bounds = r ** q
            rp, cq = r[:steps] ** eq, cross ** q
        overflow = dual_steps(trace, rp, cq, mu_1, -e1, q - 1.0)
        k = len(trace)           # mu_1..mu_k are known
        top = min(k, hi)
        m, bound = np.frombuffer(trace)[lo:top], bounds[:top - lo]
        m = m - bound if floor else bound - m
        bad = np.flatnonzero(~(m > 0.0))
        worst = np.min(m[:bad[0] + 1] if bad.size else m, initial=worst)
        if bad.size:
            violation = lo + int(bad[0]) + 1
            break
        if overflow:
            raise ValueError("((a_n/b_n)^p mu_n^(1-p) - 1)^(q-1) leaves the "
                             f"binary64 range at n = {k}")
        if k < lo + steps + 1:   # the domain test failed on the step at k
            violation = k
            break
    if violation is not None:
        del trace[violation:]
    return MuTrace(mu=np.frombuffer(trace),
                   constraint="mu < (a_n/b_n)^q", worst_margin=float(worst),
                   first_violation=violation)


def _mu_primal_ratios(ratios, N: int, p: float, lam_p: float) -> MuTrace:
    """certificates.mu_primal's recurrence on N rows, driven by the
    ratios alone (ratios(lo, hi) as for _mu_dual_ratios); a_0/b_1 = 0 on
    row 1.  p < 0 is hlp.mu_dual at the HLP dual exponent, where
    lam_p >= 1 from HLP p = 1/2 up; the steps are the same."""
    if not (p > 1.0 or p < 0.0):
        raise ValueError("need p > 1 or p < 0")
    if not (lam_p > 0.0):
        raise ValueError("need lam_p > 0")
    primal_steps = _step_loops()[1]
    e1, ep = 1.0 / (p - 1.0), p / (p - 1.0)
    trace = array("d", [1.0])
    violation = None
    carry = np.zeros(1)          # a_0/b_1
    for lo in range(0, N, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, N)
        r, cross = ratios(lo, hi)
        cross, carry = np.concatenate((carry, cross)), cross[hi - lo - 1:]
        with np.errstate(over="ignore"):
            rp = r ** p
            cross = cross[:hi - lo] ** ep
        bad = np.flatnonzero(np.isinf(rp) | np.isinf(cross))
        stop = int(bad[0]) if bad.size else hi - lo
        status = primal_steps(trace, rp[:stop], cross[:stop], e1, p - 1.0,
                              lam_p, PASS_RTOL)
        if status == _OVERFLOW:
            raise ValueError(
                "(mu_n^(1/(p-1)) + (a_(n-1)/b_n)^(p/(p-1)))^(p-1) leaves the "
                f"binary64 range at n = {len(trace)}")
        if status == _VIOLATION:
            violation = len(trace)
            break
        if trace[-1] == math.inf:
            # tested once a chunk, off the per-step path
            raise ValueError(
                "(a_n/b_n)^p mu_n / (mu_n^(1/(p-1)) + (a_(n-1)/b_n)^(p/(p-1)))"
                f"^(p-1) leaves the binary64 range at n = {len(trace) - 1}")
        if bad.size:
            raise ValueError("(a_n/b_n)^p or (a_(n-1)/b_n)^(p/(p-1)) leaves "
                             f"the binary64 range at n = {lo + stop + 1}")
    worst = float(np.min(np.frombuffer(trace)))
    if violation is None:
        trace.pop()           # mu_(N+1) closes the certificate
    return MuTrace(mu=np.frombuffer(trace), constraint="mu >= 0",
                   worst_margin=worst, first_violation=violation)


def _dual_steps(trace, rp, cq, mu_1, ne1, qm1):
    """Append to trace the dual steps from its last value over rows with
    (a_n/b_n)^p in rp and (a_n/b_{n+1})^q in cq, and return whether the
    loop stopped on an OverflowError or ZeroDivisionError.  It also
    stops, with no value, where the domain test (a_n/b_n)^p mu_n^(1-p)
    > 1 fails."""
    prev = trace[-1]
    step = trace.append
    inf = math.inf
    try:
        for r, c in zip(rp.tolist(), cq.tolist()):
            inner = r * prev ** ne1 - 1.0
            if not inner > 0.0:
                break
            if inner == inf:
                raise OverflowError
            prev = mu_1 + c / inner ** qm1
            step(prev)
    except (OverflowError, ZeroDivisionError):
        # a power or the product overflowed, or a power underflowed
        # to 0; either way the next mu is not known in binary64, so
        # no verdict is given (an inner above the binary64 range puts
        # mu_n far inside its bound, not across it)
        return True
    return False


# why a primal step loop stopped, where it did not run out of rows or
# stop after a step that overflowed to inf (status 0 for those; the
# caller tests the last value for the second)
_VIOLATION, _OVERFLOW = 1, 2


def _primal_steps(trace, rp, cross, e1, pm1, lam_p, rtol):
    """Append to trace the primal steps from its last value over rows
    with (a_n/b_n)^p in rp and (a_(n-1)/b_n)^(p/(p-1)) in cross, and
    return why the loop stopped: _VIOLATION at a step below its floor
    (appended) or a denominator that is not positive and finite (unless
    the step before overflowed to inf), _OVERFLOW where a power
    overflows, else 0.  A step below zero by no more than
    rtol times max(t, lam_p, 1) is clamped to zero."""
    prev = trace[-1]
    step = trace.append
    try:
        for r, c in zip(rp.tolist(), cross.tolist()):
            base = prev ** e1 if prev > 0.0 else 0.0
            denom = (base + c) ** pm1
            if denom <= 0.0 or not math.isfinite(denom):
                return _VIOLATION if prev != math.inf else 0
            t = r * prev / denom
            nxt = t - lam_p
            if nxt < 0.0:
                if nxt >= -rtol * max(t, lam_p, 1.0):
                    nxt = 0.0
                else:
                    step(nxt)
                    return _VIOLATION
            step(nxt)
            prev = nxt
    except OverflowError:
        return _OVERFLOW
    return 0


def _step_loops():
    """(dual steps, primal steps): the compiled loops, loaded (or built)
    on the first trace of a process, else the Python ones."""
    return loops() or (_dual_steps, _primal_steps)


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

/* _dual_steps: returns the steps written to out; *stop is
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

/* _primal_steps: returns the steps written to out; *stop
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

/* _num.scaled_sums: for each of rows rows of n values at x, v_i = x_i
   times pre_i (divided by pre_i if dual), the running sums of v
   forward or (reverse) backward, each divided by post_i (times post_i
   if dual) unless post is NULL, into out, which may be x.  pre NULL
   (post NULL too) gives the plain running sums of x, _num.prefix_sums
   and suffix_sums.  As numpy's add.accumulate, the first sum is the
   first value and each later one the sum before it plus the next
   value.  Each value is read before its sum is written, so in place is
   one pass. */
#define SCALED_ROW(FIRST, LAST, STEP, PRE, POST)                         \
    for (i = FIRST; i != LAST; i += STEP) {                              \
        double v = PRE;                                                  \
        s = i == FIRST ? v : s + v;                                      \
        out[i] = POST;                                                   \
    }
#define SCALED_ROWS(PRE, POST)                                           \
    for (r = 0; r < rows; r++, x += n, out += n) {                       \
        double s = 0.0;                                                  \
        if (reverse) { SCALED_ROW(n - 1, -1, -1, PRE, POST) }            \
        else { SCALED_ROW(0, n, 1, PRE, POST) }                          \
    }

void lpcert_scaled_sums(const double *x, const double *pre,
                        const double *post, double *out, ptrdiff_t rows,
                        ptrdiff_t n, int reverse, int dual)
{
    ptrdiff_t r, i;
    if (n == 0) return;
    if (pre == NULL) SCALED_ROWS(x[i], s)
    else if (post == NULL && dual) SCALED_ROWS(x[i] / pre[i], s)
    else if (post == NULL) SCALED_ROWS(x[i] * pre[i], s)
    else if (dual) SCALED_ROWS(x[i] / pre[i], s * post[i])
    else SCALED_ROWS(x[i] * pre[i], s / post[i])
}

/* numpy's pairwise sum (DOUBLE_pairwise_sum) of a_i u_i: below 8
   terms one by one from 0.0; up to 128 in 8 accumulators, combined
   pairwise, then the rest one by one; above, the two halves, the first
   rounded down to a multiple of 8. */
static double pairwise(const double *a, const double *u, ptrdiff_t n)
{
    ptrdiff_t i;
    double res;
    if (n < 8) {
        res = 0.0;
        for (i = 0; i < n; i++) res += a[i] * u[i];
        return res;
    }
    if (n <= 128) {
        double r0 = a[0] * u[0], r1 = a[1] * u[1], r2 = a[2] * u[2],
               r3 = a[3] * u[3], r4 = a[4] * u[4], r5 = a[5] * u[5],
               r6 = a[6] * u[6], r7 = a[7] * u[7];
        for (i = 8; i < n - n % 8; i += 8) {
            r0 += a[i] * u[i]; r1 += a[i + 1] * u[i + 1];
            r2 += a[i + 2] * u[i + 2]; r3 += a[i + 3] * u[i + 3];
            r4 += a[i + 4] * u[i + 4]; r5 += a[i + 5] * u[i + 5];
            r6 += a[i + 6] * u[i + 6]; r7 += a[i + 7] * u[i + 7];
        }
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++) res += a[i] * u[i];
        return res;
    }
    i = n / 2;
    i -= i % 8;
    return pairwise(a, u, i) + pairwise(a + i, u + i, n - i);
}

/* _num.weighted_sums: np.sum(a * u, axis=-1) for rows rows of n values
   at a, u one row (u_stride 0) or one per row (u_stride n).  numpy's
   add.reduce starts from its identity 0.0, so an all -0.0 row sums to
   +0.0. */
void lpcert_weighted_sums(const double *a, const double *u, ptrdiff_t rows,
                          ptrdiff_t n, ptrdiff_t u_stride, double *out)
{
    ptrdiff_t r;
    for (r = 0; r < rows; r++, a += n, u += u_stride)
        out[r] = 0.0 + pairwise(a, u, n);
}

/* The uniform draw of _num.trial_rows: n values low + span * d, d =
   (x >> 11) 2^-53 for the outputs x of numpy's PCG64 from the state
   (state, inc) advanced by skip steps, as Generator.random and then
   numpy's multiply and add give them.  A PCG64 step is the 128-bit LCG
   s -> s M + inc and its output the XSL-RR of the new state; the jump
   ahead is Brown's, as pcg_advance_lcg_128.  Four interleaved lanes
   step by four at once: s -> s M^4 + inc (M^3 + M^2 + M + 1).  A
   compiler without 128-bit integers builds the library without it. */
#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;
#define PCG_MULT ((((u128)2549297995355413924ULL) << 64) \
                  + 4865540595714422341ULL)

static u128 lcg_advance(u128 s, u128 delta, u128 mult, u128 inc)
{
    u128 acc_mult = 1, acc_plus = 0;
    while (delta > 0) {
        if (delta & 1) {
            acc_mult *= mult;
            acc_plus = acc_plus * mult + inc;
        }
        inc = (mult + 1) * inc;
        mult *= mult;
        delta >>= 1;
    }
    return acc_mult * s + acc_plus;
}

static double uniform(u128 s, double low, double span)
{
    unsigned long long x = (unsigned long long)(s >> 64)
                           ^ (unsigned long long)s;
    unsigned rot = (unsigned)(s >> 122);
    x = (x >> rot) | (x << ((-rot) & 63));
    return (double)(x >> 11) * (1.0 / 9007199254740992.0) * span + low;
}

void lpcert_draw(unsigned long long state_hi, unsigned long long state_lo,
                 unsigned long long inc_hi, unsigned long long inc_lo,
                 unsigned long long skip, ptrdiff_t n, double low,
                 double span, double *out)
{
    u128 inc = ((u128)inc_hi << 64) | inc_lo;
    u128 s = lcg_advance(((u128)state_hi << 64) | state_lo, skip, PCG_MULT,
                         inc);
    u128 m4 = PCG_MULT * PCG_MULT * PCG_MULT * PCG_MULT;
    u128 inc4 = inc * (1 + PCG_MULT + PCG_MULT * PCG_MULT
                       + PCG_MULT * PCG_MULT * PCG_MULT);
    u128 s0 = s * PCG_MULT + inc, s1 = s0 * PCG_MULT + inc,
         s2 = s1 * PCG_MULT + inc, s3 = s2 * PCG_MULT + inc;
    ptrdiff_t i;
    for (i = 0; i + 4 <= n; i += 4) {
        out[i] = uniform(s0, low, span);
        out[i + 1] = uniform(s1, low, span);
        out[i + 2] = uniform(s2, low, span);
        out[i + 3] = uniform(s3, low, span);
        s0 = s0 * m4 + inc4;
        s1 = s1 * m4 + inc4;
        s2 = s2 * m4 + inc4;
        s3 = s3 * m4 + inc4;
    }
    if (i < n) out[i++] = uniform(s0, low, span);
    if (i < n) out[i++] = uniform(s1, low, span);
    if (i < n) out[i] = uniform(s2, low, span);
}
#endif
"""

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
            _remove_other_libraries(directory, name)
        return lib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        return _open(path, material) if _build(path, material) else None


def _remove_other_libraries(directory: str, name: str) -> None:
    """Unlink every cached library but `name`, so that the cache holds
    the library of one version of the source; a process that has one of
    them loaded keeps its mapping."""
    with os.scandir(directory) as entries:
        stale = [e.path for e in entries if e.name != name
                 and e.name.startswith("steps-") and e.name.endswith(".so")]
    for path in stale:
        try:
            os.remove(path)
        except OSError:
            pass


# sizes, and addresses as plain integers (data_as costs about 3 us an
# array)
_SIZE, _ADDRESS = ctypes.c_ssize_t, ctypes.c_void_p
_REAL, _WORD, _FLAG = ctypes.c_double, ctypes.c_uint64, ctypes.c_int

# the ctypes signature, (return type, argument types), of every function
# the library exports but lpcert_built_from
_STEP_ROWS = (_ADDRESS, _ADDRESS, _SIZE, _REAL, _REAL, _REAL, _REAL)
_SIGNATURES = {
    "lpcert_dual_steps": (_SIZE, (*_STEP_ROWS, _ADDRESS, _ADDRESS)),
    "lpcert_primal_steps": (_SIZE, (*_STEP_ROWS, _REAL, _ADDRESS, _ADDRESS)),
    "lpcert_scaled_sums": (None, (_ADDRESS, _ADDRESS, _ADDRESS, _ADDRESS,
                                  _SIZE, _SIZE, _FLAG, _FLAG)),
    "lpcert_weighted_sums": (None, (_ADDRESS, _ADDRESS, _SIZE, _SIZE, _SIZE,
                                    _ADDRESS)),
    "lpcert_draw": (None, (_WORD, _WORD, _WORD, _WORD, _WORD, _SIZE, _REAL,
                           _REAL, _ADDRESS)),
}


_LOADING = threading.Lock()


def _functions() -> dict:
    """The functions of _SIGNATURES that the library exports, by name,
    each with its signature set: none where no compiler is present or
    the build fails, and no lpcert_draw from a compiler without 128-bit
    integers.  Bound once per process, by the first thread that asks
    while the others wait."""
    with _LOADING:
        return _bind()


@functools.cache
def _bind() -> dict:
    lib = _library() if os.name == "posix" else None
    bound = {}
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, argtypes
            bound[name] = fn
    return bound


def loops():
    """(dual_steps, primal_steps) running the compiled loops, or None
    where no compiler is present or the build fails."""
    functions = _functions()
    if "lpcert_dual_steps" not in functions:
        return None
    return (functools.partial(_steps, functions["lpcert_dual_steps"]),
            functools.partial(_steps, functions["lpcert_primal_steps"]))


def _steps(loop, trace, rp, cross, *scalars):
    """Append the steps of the C loop over the rows rp, cross to trace;
    return the loop's stop code."""
    rp = np.ascontiguousarray(rp, dtype=np.float64)
    cross = np.ascontiguousarray(cross, dtype=np.float64)
    out = np.empty(min(rp.shape[0], cross.shape[0]))
    stop = ctypes.c_int()
    k = loop(rp.ctypes.data, cross.ctypes.data, out.shape[0], trace[-1],
             *scalars, out.ctypes.data, ctypes.addressof(stop))
    trace.frombytes(memoryview(out[:k]).cast("B"))
    return stop.value


def _suits(out, shape) -> bool:
    """Whether out is a writeable C-contiguous float64 array of shape."""
    return (out.shape == shape and out.dtype == np.float64
            and out.flags.c_contiguous and out.flags.writeable)


def _row(v, n: int) -> bool:
    """Whether v is a C-contiguous float64 row of n values."""
    return (v.shape == (n,) and v.dtype == np.float64
            and v.flags.c_contiguous)


def _c_order(values, out):
    """values, copied where it is not C-contiguous or shares memory
    with out without being out."""
    if not values.flags.c_contiguous or (
            values is not out and np.may_share_memory(values, out)):
        return np.array(values, order="C")
    return values


def scaled_sums(values, pre, post, dual: bool, reverse: bool, out) -> bool:
    """Write into out, along the last axis of values (a float64 array),
    the running sums of values times pre (divided by it if dual), each
    divided by post (times it if dual) unless post is None; backward if
    reverse.  pre None, with post None, gives the plain running sums of
    values.  False, with nothing written, where the library has no such
    loop, out is not a writeable C-contiguous float64 array of values'
    shape or pre and post are not C-contiguous float64 rows of the last
    axis' length.  values is copied first where it is not C-contiguous
    or shares memory with out without being out."""
    loop = _functions().get("lpcert_scaled_sums")
    if loop is None or values.ndim == 0 or not _suits(out, values.shape):
        return False
    n = values.shape[-1]
    if pre is None:
        if post is not None:    # the plain running sums take no post row
            return False
    elif not _row(pre, n) or not (post is None or _row(post, n)):
        return False
    values = _c_order(values, out)
    loop(values.ctypes.data, None if pre is None else pre.ctypes.data,
         None if post is None else post.ctypes.data, out.ctypes.data,
         values.size // n if n else 0, n, reverse, dual)
    return True


def weighted_sums(a, u):
    """np.sum(a * u, axis=-1) for a C-contiguous float64 array a of at
    least one dimension and u a C-contiguous float64 row of its last
    axis' length or an array of a's shape; None where they are not or
    the library has no such loop."""
    loop = _functions().get("lpcert_weighted_sums")
    if (loop is None or a.ndim == 0 or a.dtype != np.float64
            or not a.flags.c_contiguous):
        return None
    n = a.shape[-1]
    if _row(u, n):
        stride = 0
    elif (u.shape == a.shape and u.dtype == np.float64
          and u.flags.c_contiguous):
        stride = n
    else:
        return None
    out = np.empty(a.shape[:-1])
    loop(a.ctypes.data, u.ctypes.data, out.size, n, stride, out.ctypes.data)
    return out


def draw(out, state: dict, skip: int, low: float, span: float) -> bool:
    """Write into out, in C order, low + span * u for the next out.size
    uniforms u of Generator.random from PCG64 state (a
    bit_generator.state dict) advanced by skip draws; False, with
    nothing written, where the library has no such loop, out is not a
    writeable C-contiguous float64 array, the state is not PCG64's or
    skip is not below 2^64."""
    loop = _functions().get("lpcert_draw")
    mask = (1 << 64) - 1
    if (loop is None or state.get("bit_generator") != "PCG64"
            or not _suits(out, out.shape) or not 0 <= skip <= mask):
        return False
    s, inc = state["state"]["state"], state["state"]["inc"]
    loop(s >> 64, s & mask, inc >> 64, inc & mask, skip, out.size, low,
         span, out.ctypes.data)
    return True
