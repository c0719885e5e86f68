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

Random trials all go through trial_rows: rows exp(u), u uniform on
[log 1e-3, log 1e3], of one seeded default_rng(seed) stream, a block of
about 2^16 entries at a time, after any fixed rows the caller leads
with (the strengthened profiles, which the workers make).  The blocks are dealt out in a fixed
stride to thread_count() workers (threads started for the batch, or
the calling thread alone when there is one), and each worker draws and
evaluates its blocks in three buffers of its own (the rows and two
scratch arrays), so a batch holds three block buffers per worker and
hands no block from thread to thread.  A PCG64 stream can jump ahead
(O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation", 2014), so every block
draws its own rows from the seed's state advanced past the rows before
it.  The memory-bound passes over a block run in _kernel's compiled
loops where they build, each the numpy code it replaces bit for bit:
the draw (_draw), the weighted running sums of the averaged transforms
(scaled_sums), which with no weight rows are the plain running sums
along a row (prefix_sums, suffix_sums), and the weighted power sums
(weighted_sums).  Suffix sums come in a C-contiguous array, not as a
reversed view, so that the powers taken of them run numpy's SIMD
`pow`; `exp`, the powers and the row maxima stay in numpy, whose SIMD
loops beat libm.  A call of fewer than _COMPILED_MIN values runs
numpy's code, where the ctypes call would cost more than the loop
saves.

MuTrace, the result of every mu recurrence, and _binary64_pow, the range
check of their constants, are defined here rather than in certificates,
so that the hlp recurrences load none of the weighted-mean modules
(certificates, factorable, sequences).
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass, fields

import numpy as np

# Every pass/fail slack; margins themselves are always reported raw.
# A certificate margin passes down to -PASS_RTOL times its scale,
PASS_RTOL = 1e-12
# and a trial's LHS/RHS ratio up to 1 + RATIO_TOL.
RATIO_TOL = 1e-10

# Rows a blocked loop takes at a time: the values comp_cumsum sums per
# block and the rows a mu driver (_kernel) forms powers of at once.  No
# np.frombuffer view of a trace may outlive its statement before the
# trace grows, which would raise BufferError.
_ROW_CHUNK = 1 << 14


@dataclass
class MuTrace:
    """A mu recurrence trace and its verdict, as every mu recurrence
    (certificates, copson, hlp) returns it.

    The trace stops at the first violation of its hard constraint.
    worst_margin is its smallest margin (NaN if any is NaN), reduced a
    chunk at a time as the margins are formed; no margin array is kept.
    Traces with an analytic target fold in its smallest margin and record
    its first violation, which also gates the pass verdict.
    """

    mu: np.ndarray
    constraint: str
    worst_margin: float
    first_violation: int | None
    target_violation: int | None = None

    @property
    def passed(self) -> bool:
        return self.first_violation is None and self.target_violation is None

    @property
    def first_fail(self) -> int | None:
        """The first violation of the constraint, else of the target."""
        if self.first_violation is not None:
            return self.first_violation
        return self.target_violation

    @property
    def n_evaluated(self) -> int:
        return int(self.mu.shape[0])


def _binary64_pow(base: float, expo: float, name: str) -> float:
    """base**expo for base > 0, raising a domain error (not OverflowError
    or a later division by zero) when it leaves the binary64 range."""
    try:
        val = base ** expo
    except OverflowError:
        raise ValueError(f"{name} leaves the binary64 range") from None
    if val == 0.0:
        raise ValueError(f"{name} underflows to 0")
    return val


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


# Values below which a call runs numpy's path: a compiled pass pays
# about 5 us a call in ctypes, more than it saves on fewer values.
_COMPILED_MIN = 1500


def _compiled(name: str, values: int):
    """_kernel's compiled pass `name` (scaled_sums, weighted_sums or
    draw) for a call on `values` values, or None where the call is short
    (the one size rule of every pass).  The pass itself declines, with
    False or None, where no library builds.  _kernel is imported past
    the size test only, so a command whose calls are all short never
    loads it."""
    if values < _COMPILED_MIN:
        return None
    from . import _kernel

    return getattr(_kernel, name)


def prefix_sums(values, out=None) -> np.ndarray:
    """Plain running sums along the last axis, `np.cumsum(a, axis=-1)`
    bit for bit, in `out` (which may be `values` itself) or a fresh
    array: scaled_sums with no weight rows.  Bulk trial evaluation and
    the factorable products use them, their reports fixed on plain sums;
    weight partials always go through comp_cumsum instead."""
    return scaled_sums(values, None, None, False, False, out)


def suffix_sums(values, out=None) -> np.ndarray:
    """Plain suffix sums along the last axis, in a C-contiguous array:
    `out` (which may be `values` itself) or a fresh one.

    The sums are those of `np.cumsum(a[..., ::-1], axis=-1)[..., ::-1]`
    bit for bit (see prefix_sums), but the result itself has positive
    strides: numpy runs its SIMD `pow` only on positive strides, and on
    the negative-stride view falls back to libm `pow`, about 5x slower
    and up to one ulp apart.
    """
    return scaled_sums(values, None, None, False, True, out)


def scaled_sums(values, pre, post, dual: bool, reverse: bool,
                out=None) -> np.ndarray:
    """Running sums along the last axis of values times pre (divided by
    pre if dual; values itself if pre is None), backward if reverse,
    each then divided by post (times post if dual) unless post is None;
    in `out` (which may be `values` itself) or a fresh array.  pre and
    post are rows of the last axis' length.

    sequences.averaged is the mean form (pre lam, post B) and the dual
    form (pre B, post lam); check_bge's tail sums of x_k Lam_k^alpha are
    pre Lam^alpha with no post; prefix_sums and suffix_sums have neither.
    The compiled loop of _kernel.scaled_sums makes numpy's operations in
    numpy's order in one pass a row, without holding the GIL (the plain
    sums at about a quarter of np.cumsum's time a value); where it did
    not build, the call is short (_compiled) or `out` does not suit it,
    numpy runs the product or quotient, np.cumsum (through reversed views
    backward) and the quotient or product, each rounded once as there.
    """
    arr = np.asarray(values, dtype=np.float64)
    if out is None:
        out = np.empty(arr.shape)
    sums = _compiled("scaled_sums", arr.size)
    if sums is not None and sums(arr, pre, post, dual, reverse, out):
        return out
    if pre is not None:
        (np.divide if dual else np.multiply)(arr, pre, out=out)
        arr = out
    if reverse:
        np.cumsum(arr[..., ::-1], axis=-1, out=out[..., ::-1])
    else:
        np.cumsum(arr, axis=-1, out=out)
    if post is not None:
        (np.multiply if dual else np.divide)(out, post, out=out)
    return out


def weighted_sums(a: np.ndarray, u: np.ndarray, work: np.ndarray):
    """`np.sum(a * u, axis=-1)` bit for bit, for u one row shared by
    every row of a or an array of a's shape.  The compiled pairwise sums
    of _kernel.weighted_sums add in numpy's order (DOUBLE_pairwise_sum)
    and form no product array; where they did not build, the call is
    short or the arrays do not suit them, numpy writes the products
    into work (which may be a) and sums them."""
    sums = _compiled("weighted_sums", a.size)
    got = None if sums is None else sums(a, u)
    if got is None:
        got = np.sum(np.multiply(a, u, out=work), axis=-1)
    return got


def record_dict(record) -> dict:
    """The to_dict of every report record: its fields by name, with
    `passed` written as `pass`, the key of every report (no field can
    take that name, a Python keyword)."""
    out = {f.name: getattr(record, f.name) for f in fields(record)}
    if "passed" in out:
        out["pass"] = out.pop("passed")
    return out


def margin_ok(margin: float, scale: float) -> bool:
    """Pass test for `margin >= 0` with relative slack PASS_RTOL against
    `scale`."""
    if not math.isfinite(margin):
        return False
    return margin >= -PASS_RTOL * max(abs(scale), 1.0)


def margins_ok(margins: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """`margin_ok` elementwise: True where the margin passes."""
    scales = np.maximum(np.abs(scales), 1.0)
    return (margins >= -PASS_RTOL * scales) & np.isfinite(margins)


def first_bad(margins: np.ndarray, scales: np.ndarray):
    """Index (0-based) of the first margin failing `margin_ok`, or None."""
    idx = np.flatnonzero(~margins_ok(margins, scales))
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


# Entries per trial block: 2^16 float64, so each buffer is 512 KiB (at
# 2^15, N = 2e4 would give one row per block).
_BLOCK_ELEMS = 2 ** 16

# The one trial law: entries exp(u), u uniform on [log 1e-3, log 1e3],
# so log-uniform in [1e-3, 1e3].  numpy's `exp` takes less than half the
# time of the `pow` that 10**u would need.
_LOG_LOW, _LOG_HIGH = np.log(1e-3), np.log(1e3)


def workspace(shape) -> tuple[np.ndarray, np.ndarray]:
    """Two scratch arrays of `shape`, the second argument of a trial
    evaluator."""
    return np.empty(shape), np.empty(shape)


def _draw(U: np.ndarray, state: dict, skip: int, pcg64) -> None:
    """Fill U with the uniforms on [log 1e-3, log 1e3] of the PCG64
    stream of `state` (a bit_generator.state dict) past its first skip
    draws: the compiled draw of _kernel.draw where it runs and the call
    is not short, else numpy's: the PCG64 that pcg64() returns (its
    caller's own, made on first use) set to the state and advanced, its
    Generator.random and the affine step."""
    span = _LOG_HIGH - _LOG_LOW
    fill = _compiled("draw", U.size)
    if fill is None or not fill(U, state, skip, _LOG_LOW, span):
        bits = pcg64()
        bits.state = state
        bits.advance(skip)
        # uniform(low, high) is low + (high - low) * random(), rounded
        # after each operation
        np.random.Generator(bits).random(out=U)
        U *= span
        U += _LOG_LOW


def trial_rows(N: int, trials: int, seed: int, evaluate,
               lead=None) -> np.ndarray:
    """evaluate over the count leading rows of lead = (count, fill), if
    given, then over `trials` seeded random rows of length N, in row
    order.

    The random rows are exp(u) for u = rng.uniform(log 1e-3, log 1e3) of
    one default_rng(seed) stream; the leading ones, which fill(lo, out)
    writes from row lo on into the rows of out, neither draw from it nor
    shift it.  Both are cut into blocks of max(1, 2^16 // N) rows (fewer
    where there are fewer rows), made in the worker's own buffer.  The blocks are shared among
    k = min(thread_count(), blocks) workers, worker j walking blocks
    j, j + k, j + 2k, ...: k threads started for this batch while the
    caller waits, or the calling thread itself when k is 1.  For each
    random block a worker draws the uniforms of the seed's state
    advanced by start * N draws (one draw per entry of the random rows
    before the block; _draw), so its rows are those of the one stream
    bit for bit, drawn into a buffer the worker reuses for every block.
    evaluate(X, work) gets the block's rows X, which it may overwrite,
    and work, two scratch arrays shaped like X that the worker also
    reuses; so memory stays at three block buffers per worker whatever
    `trials` is.  evaluate must treat each row on its own (cumsum along
    the last axis, sums along the last axis, elementwise powers); its
    per-row results are then the same for any block size or thread
    count.  The workers run under the caller's np.errstate.  An error of
    evaluate stops every worker before its next block past the failed
    one, and the caller gets the error of the earliest failing block in
    row order, as one thread walking the blocks in order would.  The
    results of the blocks are concatenated along their first axis; no
    trials give an empty array.
    """
    state = np.random.default_rng(seed).bit_generator.state
    leading, fill = lead or (0, None)
    rows = max(1, min(_BLOCK_ELEMS // max(N, 1), max(trials, leading)))
    # (first row, drawn or leading) of each block, in row order
    blocks = [*((lo, False) for lo in range(0, leading, rows)),
              *((lo, True) for lo in range(0, trials, rows))]
    if not blocks:
        return np.empty(0)
    workers = min(thread_count(), len(blocks))
    results: list = [None] * len(blocks)
    errors: dict[int, Exception] = {}
    # the earliest failed block: a worker starts no block at or past it
    stop = len(blocks)
    lock = threading.Lock()

    def walk(first):
        nonlocal stop
        i = first
        try:
            X, work = np.empty((rows, N)), workspace((rows, N))
            # seeding a PCG64 from the OS costs about 25 us: one a worker
            pcg64 = functools.cache(np.random.PCG64)
            for i in range(first, len(blocks), workers):
                if i >= stop:
                    return
                lo, drawn = blocks[i]
                if drawn:
                    U = X[:min(rows, trials - lo)]
                    _draw(U, state, lo * N, pcg64)
                    np.exp(U, out=U)
                else:
                    U = X[:min(rows, leading - lo)]
                    fill(lo, U)
                results[i] = evaluate(U, tuple(a[:U.shape[0]]
                                               for a in work))
        except Exception as exc:
            with lock:
                errors[i] = exc
                stop = min(stop, i)

    threads = []
    try:
        if workers == 1:
            walk(0)
        else:
            for k in range(workers):
                # a copy of the caller's context carries its np.errstate
                thread = threading.Thread(
                    target=contextvars.copy_context().run, args=(walk, k))
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join()
    except BaseException:
        # an interrupted caller stops the workers before their next block
        stop = 0
        for thread in threads:
            thread.join()
        raise
    if errors:
        raise errors[min(errors)]
    return np.concatenate(results)
