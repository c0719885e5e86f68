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
those errors, a second `np.cumsum`.  Both sums run one block of
_ROW_CHUNK values at a time: each block's `np.cumsum` starts from the
previous block's last total (or compensation), prepended to the block,
so every total is still the previous total plus one value, in the same
order as one whole-array sum, and the results are the same bit for bit
while every temporary is one block long.  (The first block starts from
+0.0, as the loop does; a leading -0.0 total becomes +0.0 there, and
adding the +0.0 compensation gives +0.0 from either.)

Random trials all go through trial_rows: seeded rows drawn a block of
about 2^17 entries at a time and evaluated on a thread pool.  Their
suffix sums come from suffix_sums in a C-contiguous array, not as a
reversed view, so that the powers taken of them run numpy's SIMD `pow`.
"""

from __future__ import annotations

import contextvars
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Relative slack used when a certificate condition is tested for pass/fail.
# Margins themselves are always reported raw.
PASS_RTOL = 1e-12

# Rows a blocked loop takes at a time: the values comp_cumsum sums per
# block, and the rows of ratios and powers a mu trace forms at once
# (also the steps a scalar mu loop hands to its array("d") trace with
# fromlist).  No np.frombuffer view of a trace may outlive its statement
# before the next fromlist, which would raise BufferError.
_ROW_CHUNK = 1 << 14


def comp_cumsum(values) -> np.ndarray:
    """Running sums of a 1-d array with Neumaier compensation.

    Bitwise equal to the sequential loop that keeps a running total t and
    compensation c, adding ``(t - t') + v`` or ``(v - t') + t`` to c by
    whichever of |t|, |v| is larger, and emitting ``t' + c`` at each step.
    The array is summed one _ROW_CHUNK block at a time, t and c carried
    from block to block as the first entry of each block's cumsum; the
    additions, and so the sums, are those of the whole-array cumsums.
    """
    arr = np.asarray(values, dtype=np.float64)
    out = np.empty(arr.shape)
    t = c = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, arr.shape[0], _ROW_CHUNK):
            v = arr[lo:lo + _ROW_CHUNK]
            run = np.cumsum(np.concatenate(([t], v)))
            prev, total = run[:-1], run[1:]
            err = np.where(np.abs(prev) >= np.abs(v),
                           (prev - total) + v, (v - total) + prev)
            comp = np.cumsum(np.concatenate(([c], err)))
            np.add(total, comp[1:], out=out[lo:lo + _ROW_CHUNK])
            t, c = run[-1], comp[-1]
    return out


def suffix_sums(values) -> np.ndarray:
    """Plain vectorized suffix sums along the last axis, in a fresh
    C-contiguous array.

    Used for bulk trial evaluation, whose reports were fixed on plain
    sums; weight partials always go through comp_cumsum instead.  The
    sums are those of `np.cumsum(a[..., ::-1], axis=-1)[..., ::-1]` bit
    for bit, but written through a reversed view of the result, so the
    result itself has positive strides: numpy runs its SIMD `pow` only
    on positive strides, and on the negative-stride view falls back to
    libm `pow`, about 5x slower and up to one ulp apart.
    """
    arr = np.asarray(values, dtype=np.float64)
    out = np.empty(arr.shape)
    np.cumsum(arr[..., ::-1], axis=-1, out=out[..., ::-1])
    return out


def margin_ok(margin: float, scale: float) -> bool:
    """Pass test for `margin >= 0` with relative slack PASS_RTOL against
    `scale`."""
    if not math.isfinite(margin):
        return False
    return margin >= -PASS_RTOL * max(abs(scale), 1.0)


def first_bad(margins: np.ndarray, scales: np.ndarray):
    """Index (0-based) of the first margin failing `margin_ok`, or None."""
    scales = np.maximum(np.abs(scales), 1.0)
    bad = ~(margins >= -PASS_RTOL * scales)
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


# Entries per trial block: 2^17 float64, so each temporary is 1 MiB.
_BLOCK_ELEMS = 2 ** 17

# A trial draw (low, high, transform): the rows are transform(u) for u
# drawn from rng.uniform(low, high); transform may overwrite u.  This
# one gives log-uniform entries 10**u in [1e-3, 1e3].
POW10_UNIFORM = (-3.0, 3.0, lambda u: np.power(10.0, u, out=u))


def trial_rows(N: int, trials: int, seed: int, evaluate,
               draw=POW10_UNIFORM) -> np.ndarray:
    """evaluate over `trials` seeded random rows of length N, in row order.

    The rows are one default_rng(seed) stream, drawn on the calling
    thread max(1, 2^17 // N) rows at a time: m rows of N drawn at once
    are the same numbers as m draws of one row.  The blocks are
    transformed and evaluated on a pool of thread_count() workers, with
    at most two blocks per worker in flight, so memory stays near a few
    MiB per worker whatever `trials` is.  evaluate must treat each row on
    its own (cumsum along the last axis, sums along the last axis,
    elementwise powers); its per-row results are then the same for any
    block size or thread count.  The workers run under the caller's
    np.errstate.  The results of the blocks are concatenated along their
    first axis; no trials give an empty array.
    """
    low, high, transform = draw
    rng = np.random.default_rng(seed)
    rows = max(1, _BLOCK_ELEMS // max(N, 1))
    workers = thread_count()
    done: list[np.ndarray] = []
    pending: deque = deque()

    def block(U):
        return evaluate(transform(U))

    with ThreadPoolExecutor(workers) as pool:
        for start in range(0, trials, rows):
            U = rng.uniform(low, high, size=(min(rows, trials - start), N))
            # a copy of the caller's context carries its np.errstate
            pending.append(pool.submit(contextvars.copy_context().run,
                                       block, U))
            if len(pending) == 2 * workers:
                done.append(pending.popleft().result())
        done.extend(f.result() for f in pending)
    return np.concatenate(done) if done else np.empty(0)
