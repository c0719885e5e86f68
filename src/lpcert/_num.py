"""Shared numeric helpers.

Everything here is binary64 only.  Partial sums of weights use Neumaier
compensation so that ratios like Lam_n/lam_n keep close to full precision
even for slowly growing weights at large truncations.  The compensated
sum is vectorized without changing a bit of the sequential Neumaier loop
(Ogita, Rump and Oishi, "Accurate sum and dot product", SIAM J. Sci.
Comput. 2005): the loop's running totals are an in-order sum, which
`np.cumsum` reproduces; each step's rounding error is an elementwise
Fast2Sum of a total and its predecessor, with the loop's own branch on
the larger magnitude; and the loop's compensation is the in-order sum of
those errors, a second `np.cumsum`.  (Only a leading -0.0 total differs,
as the loop starts from +0.0; adding the +0.0 compensation erases it.)
Fractional powers of positive scalars go through exp(e*log(b)) with an
explicit domain check rather than relying on libm pow edge cases.
"""

from __future__ import annotations

import math
import os

import numpy as np

# Relative slack used when a certificate condition is tested for pass/fail.
# Margins themselves are always reported raw.
PASS_RTOL = 1e-12


def comp_cumsum(values) -> np.ndarray:
    """Running sums of a 1-d array with Neumaier compensation.

    Bitwise equal to the sequential loop that keeps a running total t and
    compensation c, adding ``(t - t') + v`` or ``(v - t') + t`` to c by
    whichever of |t|, |v| is larger, and emitting ``t' + c`` at each step.
    """
    arr = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.cumsum(arr)
        prev = np.empty_like(total)
        prev[:1] = 0.0
        prev[1:] = total[:-1]
        err = np.where(np.abs(prev) >= np.abs(arr),
                       (prev - total) + arr, (arr - total) + prev)
        return total + np.cumsum(err)


def suffix_sums(values) -> np.ndarray:
    """Plain vectorized suffix sums along the last axis.

    Used for bulk trial evaluation, whose reports were fixed on plain
    sums; weight partials always go through comp_cumsum instead.
    """
    arr = np.asarray(values, dtype=np.float64)
    return np.cumsum(arr[..., ::-1], axis=-1)[..., ::-1]


def fpow(base: float, expo: float) -> float:
    """base**expo for base > 0 via exp/log; raises on a nonpositive base."""
    if base <= 0.0:
        if base == 0.0 and expo > 0.0:
            return 0.0
        raise ValueError(f"fractional power needs a positive base, got {base!r}")
    return math.exp(expo * math.log(base))


def margin_ok(margin: float, scale: float, rtol: float = PASS_RTOL) -> bool:
    """Pass test for `margin >= 0` with relative slack against `scale`."""
    if not math.isfinite(margin):
        return False
    return margin >= -rtol * max(abs(scale), 1.0)


def first_bad(margins: np.ndarray, scales: np.ndarray, rtol: float = PASS_RTOL):
    """Index (0-based) of the first margin failing `margin_ok`, or None."""
    scales = np.maximum(np.abs(scales), 1.0)
    bad = ~(margins >= -rtol * scales)
    bad |= ~np.isfinite(margins)
    idx = np.flatnonzero(bad)
    return int(idx[0]) if idx.size else None


def thread_count() -> int:
    """Worker cap taken from the THREADS environment variable."""
    raw = os.environ.get("THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
            if n >= 1:
                return n
        except ValueError:
            pass
    return os.cpu_count() or 1
