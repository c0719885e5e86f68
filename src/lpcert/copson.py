"""Weighted prefix/tail averaging inequalities and their certificates.

Four numeric branches share one report shape.  With weights lam_n,
prefix partials Lam_n, truncated tail partials Lam*_n, and positive x:

  copson_prefix    sum lam_n Lam_n^(p-c)  ((1/Lam_n)  sum_{k<=n} lam_k x_k)^p
                     <= (p/(c-1))^p sum lam_n Lam_n^(p-c)  x_n^p,   c > 1
  copson_tail      sum lam_n Lam_n^(p-c)  ((1/Lam_n)  sum_{k>=n} lam_k x_k)^p
                     <= (p/(1-c))^p sum lam_n Lam_n^(p-c)  x_n^p,   0 <= c < 1
  leindler_prefix  sum lam_n Lam*_n^(p-c) ((1/Lam*_n) sum_{k<=n} lam_k x_k)^p
                     <= (p/(1-c))^p sum lam_n Lam*_n^(p-c) x_n^p,   0 <= c < 1
  leindler_tail    sum lam_n Lam*_n^(p-c) ((1/Lam*_n) sum_{k>=n} lam_k x_k)^p
                     <= (p/(c-1))^p sum lam_n Lam*_n^(p-c) x_n^p,   c > 1

Every finite-N evaluation with positive x is an exact instance of the
corresponding inequality (extend x by zeros), so a ratio above 1 + 1e-10
is a genuine counterexample, not truncation noise.

The admissible-c threshold for the prefix branch beyond c = p is
p - (p-1) c_q, where c_q is the unique negative root of

    (1 + (1 - c)/q')^(1 - q') = (1 - c)/q'     evaluated at q' = p/(p-1);

copson_root computes that root, and check_kernel_inequality verifies the
pointwise kernel bound on [0, 1] that drives the threshold proof.

The blocked tail inequality checked by check_bge is, for p >= 1, alpha > 0,

    sum lam_n (sum_{k>=n} Lam_k^alpha x_k)^p
      <= (alpha p + 1)^p sum lam_n Lam_n^(alpha p) (sum_{k>=n} x_k)^p,

with admissible_alpha giving the proven range alpha >= 1 - 1/(2p).

mu_dual_copson and mu_bge add no recurrence of their own: they run the
drivers of mu_dual (or mu_primal), _kernel's _mu_dual_ratios (or
_mu_primal_ratios), on the row ratios of
copson_matrix/bge_matrix, formed a chunk at a time without either
matrix, and check the trace against the analytic envelope that the
admissibility proofs provide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._num import (_ROW_CHUNK, RATIO_TOL, MuTrace, _binary64_pow, first_bad,
                   margin_ok, record_dict, scaled_sums, suffix_sums,
                   trial_rows, weighted_sums)
from ._options import BRANCHES
from .certificates import _dual_mu_1
from .factorable import bge_steps
from .sequences import WeightSequence, averaged, build_weights

# (sum direction, partials) of each branch's inner average: copson
# branches average against the prefix partials (so copson_tail divides a
# tail sum by Lam_n), leindler branches against the tail partials (so
# leindler_prefix divides a prefix sum by Lam*_n).
_BRANCH_SUMS = {"copson_prefix": ("prefix", "partials"),
                "copson_tail": ("suffix", "partials"),
                "leindler_prefix": ("prefix", "tails"),
                "leindler_tail": ("suffix", "tails")}
_NEEDS_C_ABOVE_1 = {"copson_prefix": True, "copson_tail": False,
                    "leindler_prefix": False, "leindler_tail": True}

# A term u_n y_n^p of a trial's power sum loses at most DBL_MIN (u_n + 1)
# to underflow (in y_n^p, then in the product), so a sum of at least
# 2^52 DBL_MIN (sum u_n + N) has lost less than 2^-52 of itself; a
# smaller sum, or one that overflows, has left the binary64 range.
_RANGE_FLOOR = 2.0 ** 52 * float(np.finfo(np.float64).tiny)

# points of the uniform grid on [0, 1] behind check_kernel_inequality
_KERNEL_GRID = 4096
# x_n = n^(-1/p - _OFFSET) in near_extremal_schedule
_OFFSET = 0.01


# ----------------------------------------------------------------------
# Negative root, admissible exponents, kernel inequality


@dataclass(frozen=True)
class RootResult:
    """Unique negative root of the threshold equation for one exponent."""

    root: float
    residual: float
    iterations: int


def _threshold_gap(c: float, p: float) -> float:
    """(1 + (1-c)/p)^(1-p) - (1-c)/p; increasing in c, one root in c < 0."""
    t = (1.0 - c) / p
    return (1.0 + t) ** (1.0 - p) - t


def _brentq(f, xa: float, xb: float, xtol: float,
            rtol: float) -> tuple[float, int]:
    """(root, iterations) of f on [xa, xb], where f(xa) and f(xb) are
    nonzero and of opposite signs (copson_root checks both).

    Brent's method (Brent, "Algorithms for Minimization without
    Derivatives", 1973, ch. 4) as scipy.optimize.brentq runs it, step
    for step, so it returns the same binary64 root after the same
    number of iterations: inverse quadratic interpolation or a secant
    step when it shrinks the bracket fast enough, bisection otherwise,
    stopping once half the bracket is below (xtol + rtol |x|) / 2, within
    scipy's default of 100 iterations.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    for i in range(1, 101):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, i
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry      # good short step
            else:
                spre = scur = sbis           # bisect
        else:
            spre = scur = sbis               # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
    raise ValueError("Brent's method did not converge in 100 iterations")


def copson_root(p: float) -> RootResult:
    """Solve (1 + (1-c)/p)^(1-p) = (1-c)/p for the unique c < 0.

    Brackets on (-50, 0), widening the left end up to -1e6 if the sign
    change is not yet inside, then runs Brent's method (_brentq).
    """
    if not (p > 1.0):
        raise ValueError("need p > 1")
    lo, hi = -50.0, 0.0
    while _threshold_gap(lo, p) >= 0.0:
        lo *= 10.0
        if lo < -1e6:
            raise ValueError("no sign change down to c = -1e6")
    if _threshold_gap(hi, p) <= 0.0:
        raise ValueError("threshold function not positive at c = 0")
    root, iterations = _brentq(lambda c: _threshold_gap(c, p), lo, hi,
                               xtol=1e-15, rtol=8.9e-16)
    return RootResult(root=root, residual=_threshold_gap(root, p),
                      iterations=iterations)


def copson_threshold(p: float) -> float:
    """Largest admissible c for the prefix branch: p - (p-1) c_q, q dual."""
    if not (p > 1.0):
        raise ValueError("need p > 1")
    q = p / (p - 1.0)
    return p - (p - 1.0) * copson_root(q).root


def admissible_c(p: float, c: float) -> bool:
    """True iff 1 < c <= p - (p-1) c_q (the proven prefix-branch range)."""
    if not (p > 1.0):
        raise ValueError("need p > 1")
    if not (c > 1.0):
        return False
    return c <= copson_threshold(p)


@dataclass(frozen=True)
class KernelReport:
    """Minimum margin of the [0, 1] kernel inequality for one (p, c)."""

    p: float
    c: float
    grid: int
    passed: bool
    min_margin: float
    argmin: float

    to_dict = record_dict


def _kernel_margin(y: np.ndarray | float, p: float, c: float):
    """RHS - LHS of  1 + ((c-1)/p) y <= (((c-1)/p) y + (1-y)^((c-1)/(p-1)))^(1-p)."""
    t = (c - 1.0) / p
    lhs = 1.0 + t * y
    inner = t * y + (1.0 - y) ** ((c - 1.0) / (p - 1.0))
    return inner ** (1.0 - p) - lhs


def check_kernel_inequality(p: float, c: float) -> KernelReport:
    """Scan the kernel inequality on [0, 1]; equality holds at y = 0.

    A uniform grid of _KERNEL_GRID steps locates the minimum margin, then
    a golden-section refinement narrows around it; pass means min margin
    >= -1e-12.
    """
    if not (p > 1.0 and c > 1.0):
        raise ValueError("need p > 1 and c > 1")
    grid = _KERNEL_GRID
    y = np.linspace(0.0, 1.0, grid + 1)
    m = _kernel_margin(y, p, c)
    i = int(np.argmin(m))
    lo = y[max(i - 1, 0)]
    hi = y[min(i + 1, grid)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1 = float(_kernel_margin(x1, p, c))
    f2 = float(_kernel_margin(x2, p, c))
    while b - a > 1e-13:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = float(_kernel_margin(x1, p, c))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = float(_kernel_margin(x2, p, c))
    refined_y = x1 if f1 <= f2 else x2
    refined_m = min(f1, f2)
    min_margin = min(float(m[i]), refined_m)
    argmin = float(y[i]) if float(m[i]) <= refined_m else float(refined_y)
    return KernelReport(p=p, c=c, grid=grid,
                        passed=margin_ok(min_margin, 1.0),
                        min_margin=min_margin, argmin=argmin)


# ----------------------------------------------------------------------
# Branch evaluation


@dataclass(frozen=True)
class BranchReport:
    """Max observed LHS/RHS ratio over a batch of positive trial vectors.

    argmin is the 1-based trial index attaining the smallest margin
    (equivalently the largest ratio).
    """

    branch: str
    p: float
    c_or_alpha: float
    N: int
    trials: int
    max_ratio: float
    min_margin: float
    argmin: int
    passed: bool
    note: str = ""

    to_dict = record_dict


def branch_constant(branch: str, p: float, c: float) -> float:
    """First-power constant of the branch: p/(c-1) or p/(1-c)."""
    if branch not in BRANCHES:
        raise ValueError(f"unknown branch {branch!r}")
    if _NEEDS_C_ABOVE_1[branch]:
        if not (1.0 < c <= p):
            raise ValueError(f"branch {branch} needs 1 < c <= p")
        return p / (c - 1.0)
    if not (0.0 <= c < 1.0):
        raise ValueError(f"branch {branch} needs 0 <= c < 1")
    return p / (1.0 - c)


def branch_parts(w: WeightSequence, X: np.ndarray, branch: str, p: float,
                 c: float) -> tuple[np.ndarray, np.ndarray]:
    """(inner averages, summation weights u) for trial rows X.

    inner[j, n] is the branch's averaged quantity for trial row j, and
    u_n = lam_n Lam_n^(p-c) or lam_n Lam*_n^(p-c) as the branch demands.
    """
    direction, base = _BRANCH_SUMS[branch]
    return averaged(w, X, direction, base), _branch_weights(w, branch, p, c)


def _branch_weights(w: WeightSequence, branch: str, p: float,
                    c: float) -> np.ndarray:
    """u_n = lam_n B_n^(p-c), B the partials the branch averages against."""
    return w.values * getattr(w, _BRANCH_SUMS[branch][1]) ** (p - c)


def _branch_ratios(w: WeightSequence, branch: str, p: float, c: float):
    """(sums, ratios) of the p-th power branch inequality: sums(X, work)
    gives, per trial row of X (which it overwrites), its two power sums
    as an (m, 2) array, work being a trial_rows workspace whose first
    array holds the averages; ratios(S) gives the LHS/RHS ratios of a
    batch of such sums by the range rule (_range_ratios).  K^p and u
    are formed once.  A power sum out of the binary64 range
    (_RANGE_FLOOR), or a right side K^p times one that overflows, is a
    domain error: its ratio would not be evidence."""
    # branch_constant validates branch and c
    Kp = _binary64_pow(branch_constant(branch, p, c), p, "K^p")
    direction, base = _BRANCH_SUMS[branch]
    # out of range, u and the sums overflow or turn NaN (inf times an
    # underflowed 0); the range check reports that instead of numpy
    with np.errstate(over="ignore"):
        u = _branch_weights(w, branch, p, c)
    floor = _range_floor(u)

    def sums(X, work):
        with np.errstate(over="ignore", invalid="ignore"):
            X /= np.max(X, axis=-1, keepdims=True)
            inner = averaged(w, X, direction, base, out=work[0])
            inner **= p
            lhs = weighted_sums(inner, u, inner)
            X **= p
            rhs = weighted_sums(X, u, X)
        return np.stack([lhs, rhs], axis=-1)

    def ratios(S):
        return _range_ratios(branch, p, S[:, 0], Kp, S[:, 1], (floor, floor))

    return sums, ratios


def _range_floor(u: np.ndarray) -> float:
    """_RANGE_FLOOR (sum u_n + N): the least power sum with the N
    summation weights u that is still in the binary64 range; inf where
    u overflows."""
    return float(np.sum(u * _RANGE_FLOOR)) + u.shape[0] * _RANGE_FLOOR


def _range_ratios(what: str, p: float, lhs, K: float, rhs, floors):
    """lhs / (K rhs) for the power sums of a whole trial batch, by the
    range rule of every batch: a domain error unless lhs and rhs reach
    their floors (_range_floor) and lhs and K rhs are below inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        den = K * rhs
        if not ((lhs >= floors[0]) & (rhs >= floors[1]) & (lhs < math.inf)
                & (den < math.inf)).all():
            raise ValueError(f"{what} power sums leave the binary64 range "
                             f"at p = {p:g}; lower p")
        return lhs / den


def _trial_report(w: WeightSequence, branch: str, p: float,
                  c_or_alpha: float, trials: int, seed: int,
                  sums_of, ratios_of) -> BranchReport:
    """Max of ratios_of over the sums_of of seeded trial rows with
    log-uniform entries in [1e-3, 1e3], drawn and evaluated a block at
    a time by trial_rows; ratios_of takes the whole batch's sums at
    once.  argmin is the first row attaining the max."""
    ratios = ratios_of(trial_rows(w.N, trials, seed, sums_of))
    j = int(np.argmax(ratios))
    best = float(ratios[j])
    return BranchReport(branch=branch, p=p, c_or_alpha=c_or_alpha, N=w.N,
                        trials=trials, max_ratio=best,
                        min_margin=1.0 - best, argmin=j + 1,
                        passed=best <= 1.0 + RATIO_TOL)


def check_copson_branch(w: WeightSequence, p: float, c: float, branch: str,
                        trials: int = 1000, seed: int = 0) -> BranchReport:
    """Random positive trials (log-uniform entries in [1e-3, 1e3]) of one
    branch; every trial is an exact finite instance, so the max ratio must
    stay <= 1 + 1e-10."""
    if not (p > 1.0):
        raise ValueError("need p > 1")
    if trials < 1:
        raise ValueError("need trials >= 1")
    return _trial_report(w, branch, p, c, trials, seed,
                         *_branch_ratios(w, branch, p, c))


def near_extremal_schedule(p: float, c: float, n_start: int = 64,
                           n_stop: int = 100_000) -> list[tuple[int, float]]:
    """(N, ratio) along a doubling schedule n_start, 2 n_start, ..., n_stop.

    All truncations reuse one prefix-sum pass at n_stop, since the inner
    averages of the prefix branch do not depend on the truncation point.
    """
    if not (1 <= n_start <= n_stop):
        raise ValueError("need 1 <= n_start <= n_stop")
    Kp = _binary64_pow(branch_constant("copson_prefix", p, c), p, "K^p")
    w = build_weights("constant", n_stop)
    n = np.arange(1, n_stop + 1, dtype=np.float64)
    x = n ** (-1.0 / p - _OFFSET)
    inner, u = branch_parts(w, x[None, :], "copson_prefix", p, c)
    num = np.cumsum(u * inner[0] ** p)
    den = Kp * np.cumsum(u * x ** p)
    schedule = []
    N = n_start
    while N < n_stop:
        schedule.append(N)
        N *= 2
    schedule.append(n_stop)
    return [(N, float(num[N - 1] / den[N - 1])) for N in schedule]


# ----------------------------------------------------------------------
# Blocked tail inequality


def admissible_alpha(p: float, alpha: float) -> bool:
    """True iff alpha >= 1 - 1/(2p), the proven range for the blocked
    tail inequality.  The boundary itself is admissible, so the
    comparison carries a 1e-12 slack for cases like p = 1.5 where
    1 - 1/(2p) is not exactly representable."""
    if not (p > 1.0):
        raise ValueError("need p > 1")
    return alpha >= 1.0 - 1.0 / (2.0 * p) - 1e-12


def check_bge(w: WeightSequence, p: float, alpha: float, trials: int = 1000,
              seed: int = 0) -> BranchReport:
    """Random trials of the blocked tail inequality with truncated tail
    sums; max LHS/RHS ratio must stay <= 1 + 1e-10.  Power sums out of
    the binary64 range are a domain error (_range_ratios)."""
    if not (p >= 1.0):
        raise ValueError("need p >= 1")
    if not (alpha > 0.0):
        raise ValueError("need alpha > 0")
    if trials < 1:
        raise ValueError("need trials >= 1")
    lam = w.values
    K = _binary64_pow(alpha * p + 1.0, p, "K^p = (alpha p + 1)^p")
    with np.errstate(over="ignore"):
        wa = w.partials ** alpha
        lwa = lam * wa ** p
    floors = _range_floor(lam), _range_floor(lwa)

    def sums(X, work):
        with np.errstate(over="ignore", invalid="ignore"):
            X /= np.max(X, axis=-1, keepdims=True)
            S = scaled_sums(X, wa, None, False, True, out=work[0])
            S **= p
            lhs = weighted_sums(S, lam, S)
            suffix_sums(X, out=X)
            X **= p
            rhs = weighted_sums(X, lwa, X)
        return np.stack([lhs, rhs], axis=-1)

    def ratios(S):
        return _range_ratios("bge", p, S[:, 0], K, S[:, 1], floors)

    return _trial_report(w, "bge", p, alpha, trials, seed, sums, ratios)


# ----------------------------------------------------------------------
# Mu recurrences of the two families: mu_dual plus an analytic envelope


def _with_envelope(trace: MuTrace, constraint: str, targets,
                   floor: bool = False) -> MuTrace:
    """trace relabelled and checked against an analytic envelope: an upper
    one, mu_n <= target_n, or with floor a lower one, mu_n >= target_n
    for n >= 2.

    targets(lo, hi) returns the envelope at the 0-based rows
    lo <= i < hi.  The envelope margins are formed one _ROW_CHUNK at a
    time; their running minimum lowers the trace's worst margin, and
    their first failing row is the target violation.
    """
    k = trace.n_evaluated
    worst, t_bad = math.inf, None
    for lo in range(int(floor), k, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, k)
        t, mu = targets(lo, hi), trace.mu[lo:hi]
        m = mu - t if floor else t - mu
        worst = np.min(m, initial=worst)
        if t_bad is None:
            bad = first_bad(m, np.maximum(np.abs(t), np.abs(mu)))
            t_bad = None if bad is None else lo + bad + 1
    return replace(trace, constraint=constraint,
                   worst_margin=min(trace.worst_margin, float(worst)),
                   target_violation=t_bad)


def mu_dual_copson(w: WeightSequence, p: float, c: float) -> MuTrace:
    """Dual recurrence for the prefix branch with constant (p/(c-1))^p.

    This is mu_dual on copson_matrix(w, p, c) with U_p = (p/(c-1))^p, fed
    the matrix's ratios in closed form, since its a_n and b_n overflow on
    fast-growing weights: R_n = a_n/b_n = Lam_n/lam_n and
    a_n/b_{n+1} = R_n (lam_n/lam_{n+1})^(1-1/p) (Lam_{n+1}/Lam_n)^(1-c/p).
    With q = p/(p-1) it reads

        mu_1 = ((c-1)/p)^q,
        mu_{n+1} = mu_1 + (lam_n/Lam_n) (Lam_n/Lam_{n+1})^((c-1)/(p-1))
                          (Lam_{n+1}/lam_{n+1})
                   / (mu_n^(-1/(q-1)) - (lam_n/Lam_n)^(q/(q-1)))^(q-1).

    Hard ceiling (also the recurrence domain): mu_n < R_n^q, strict.
    Analytic envelope: mu_n <= R_n (1/R_n + a)^(1-q) with a = p/(c-1);
    staying under it for admissible c is what the threshold proof shows.
    """
    from ._kernel import _mu_dual_ratios

    if not (p > 1.0):
        raise ValueError("need p > 1")
    if not (c > 1.0):
        raise ValueError("need c > 1")
    lam, Lam = w.values, w.partials
    q = p / (p - 1.0)

    def ratios(lo, hi):
        R = Lam[lo:hi] / lam[lo:hi]
        lam_n, Lam_n = lam[lo + 1:hi + 1], Lam[lo + 1:hi + 1]
        m = lam_n.shape[0]
        return R, (R[:m] * (lam[lo:lo + m] / lam_n) ** (1.0 - 1.0 / p)
                   * (Lam_n / Lam[lo:lo + m]) ** (1.0 - c / p))

    def targets(lo, hi):
        R = Lam[lo:hi] / lam[lo:hi]
        return R * (1.0 / R + p / (c - 1.0)) ** (1.0 - q)

    trace = _mu_dual_ratios(ratios, w.N, p,
                            _binary64_pow((c - 1.0) / p, q, "mu_1 = ((c-1)/p)^q"))
    return _with_envelope(trace, "mu < (Lam_n/lam_n)^q", targets)


def mu_bge(w: WeightSequence, p: float, alpha: float,
           route: str = "dual") -> MuTrace:
    """Mu recurrences for the blocked tail inequality, either route.

    dual route: mu_dual on the rows of bge_matrix(w, p, alpha), whose
    diagonal ratios are 1/s_n with s_n = 1 - (Lam_{n-1}/Lam_n)^alpha
    (bge_steps), and U_p = (alpha p/(p-1))^p.  The matrix's ratios
    a_n/b_n and a_n/b_{n+1}, which both routes read from one row source,
    the steps s_n and the envelope are formed a chunk at a time, so none
    of a, b and s is held whole; the spec's checks on every row run
    first, a chunk at a time.
    With q = p/(p-1) it reads

        mu_1 = ((p-1)/(alpha p))^q,
        mu_{n+1} = mu_1 + (lam_n/lam_{n+1})
                   / (mu_n^(-1/(q-1)) - s_n^(q/(q-1)))^(q-1),

    hard ceiling mu_n < s_n^(-q), envelope
    mu_n <= (s_n^(q/(q-1)) + (A lam_n/Lam_n)^(1/(q-1)))^(1-q) with
    A = alpha^q q^(q-1).

    primal route (needs alpha > 1 - 1/p, tested before lam_p is formed):
    mu_primal on the same rows with lam_p = ((p-1)/(alpha p))^p, plus
    the analytic floor for n >= 2

        mu_n >= (lam_{n-1}/Lam_{n-1})^(p-1) / ((p/(p-1))^(p-1) s_{n-1}^p).
    """
    from ._kernel import _mu_dual_ratios, _mu_primal_ratios

    if not (p > 1.0):
        raise ValueError("need p > 1")
    if not (alpha > 0.0):
        raise ValueError("need alpha > 0")
    if route not in ("dual", "primal"):
        raise ValueError("route must be 'dual' or 'primal'")
    lam = w.values
    Lam = w.partials
    q = p / (p - 1.0)
    e = 1.0 - 1.0 / p
    _check_bge_rows(w, alpha, e)

    def ratios(lo, hi):
        # a_n/b_n and a_n/b_{n+1} of bge_matrix, b_n = lam_n^e
        b = lam[lo:hi + 1] ** e
        a = b[:hi - lo] / bge_steps(w, alpha, lo, hi)
        return a / b[:hi - lo], a[:b.shape[0] - 1] / b[1:]

    if route == "dual":
        trace = _mu_dual_ratios(ratios, w.N, p, _dual_mu_1(
            p, _binary64_pow(alpha * p / (p - 1.0), p, "U_p")))
        A = alpha ** q * q ** (q - 1.0)

        def targets(lo, hi):
            return (bge_steps(w, alpha, lo, hi) ** (q / (q - 1.0))
                    + (A * lam[lo:hi] / Lam[lo:hi]) ** (1.0 / (q - 1.0))
                    ) ** (1.0 - q)

        return _with_envelope(trace, "mu < s_n^(-q)", targets)

    base = (p - 1.0) / (alpha * p)
    if not (base < 1.0):
        raise ValueError("primal route needs alpha > 1 - 1/p")
    trace = _mu_primal_ratios(ratios, w.N, p, _binary64_pow(
        base, p, "lam_p = ((p-1)/(alpha p))^p"))

    def floors(lo, hi):
        s = bge_steps(w, alpha, lo - 1, hi - 1)
        return (lam[lo - 1:hi - 1] / Lam[lo - 1:hi - 1]) ** (p - 1.0) / (
            (p / (p - 1.0)) ** (p - 1.0) * s ** p)

    return _with_envelope(trace, trace.constraint, floors, floor=True)


def _check_bge_rows(w: WeightSequence, alpha: float, e: float) -> None:
    """The checks bge_matrix(w, p, alpha) makes on every row, in its
    order, one _ROW_CHUNK at a time: no stalled partial sum (bge_steps
    raises), then a finite a_n = lam_n^e / s_n.  With s_n >= 2^-53, a_n
    can overflow only where lam_n > 1e290."""
    lam, finite = w.values, True
    for lo in range(0, w.N, _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, w.N)
        s = bge_steps(w, alpha, lo, hi)
        big = lam[lo:hi] > 1e290
        if finite and big.any():
            with np.errstate(over="ignore"):
                finite = bool(np.all(np.isfinite(lam[lo:hi][big] ** e
                                                  / s[big])))
    if not finite:
        raise ValueError("a and b must be finite")


__all__ = [
    "BRANCHES", "RootResult", "copson_root", "copson_threshold",
    "admissible_c", "KernelReport", "check_kernel_inequality",
    "BranchReport", "branch_constant", "branch_parts", "check_copson_branch",
    "near_extremal_schedule", "admissible_alpha",
    "check_bge", "mu_dual_copson", "mu_bge",
]
