"""Sufficient conditions certifying l^p bounds p/(p-L) for factorable matrices.

All checks target the same conclusion for a lower triangular factorable
matrix M (entries b_k/a_n, k <= n) on l^p, p > 1:

    sum_n ( (1/a_n) sum_{k<=n} b_k x_k )^p  <=  (p/(p-L))^p  sum_n x_n^p.

Checkers, from weakest hypothesis to most specialized:

  check_product_condition    weighted mean matrices; for every n,
      sum_{k<=n} (lam_k/Lam_n) prod_{i=k..n} ((R_{i+1} - L/p)/R_i)^(1/(p-1))
      <= p/(p-L),  where R_n = Lam_n/lam_n: check_factorable_product on
      weighted_mean(w), the one evaluator of every product condition.
  check_ratio_condition      weighted mean matrices; per-index test
      R_{n+1} <= R_n (1 - L lam_n/(p Lam_n))^(1-p) + L/p.
  cartlidge_constant         L = sup_n (R_{n+1} - R_n); the classical
      Cartlidge condition certifies p/(p-L) when L < p.
  check_factorable_product   the product condition for general normalized
      factorable matrices (a_1 = b_1), factors
      ((a_i/b_{i+1} + 1 - L/p)/(a_i/b_i))^(1/(p-1)).
  check_factorable_stepwise  consecutive-pair condition equivalent to one
      step of the primal mu recurrence staying above a linear floor.
  check_stepwise_p2          weighted mean, p = 2 specialization of the
      stepwise condition in terms of the ratio differences; the accurate
      p = 2 verdict: its margins, in units of R_{n+1} - R_n, are within
      about 4e-14 of exact, while the general form's slack scales with
      its product (about R_n^3), so it passes L up to 2e-9 too small.

mu_primal and mu_dual run the recurrences behind these certificates
directly; a completed trace is itself a certificate at truncation N.
Both read a spec's rows a _ROW_CHUNK at a time from one row source
(_spec_ratios: a_n/b_n and a_n/b_(n+1), the primal a_(n-1)/b_n being
the row before's a_n/b_(n+1)), form their powers with numpy over the
chunk, and run the recurrence over it in a step loop that appends to a
growing array("d") trace (8 bytes a value, viewed by numpy without a
copy), never holding the trace as a list of floats or reserving N
values for it; of the margins, each keeps only their running minimum
(MuTrace).  The step loop is the only part of a trace that cannot be
vectorized (each step needs the one before it through a pow), so it
runs in C where it can: _kernel builds it with the system cc on the
first trace of a process and caches the library.  Where no compiler is
present or the build fails, the Python step loops here (_dual_steps,
_primal_steps) run instead; they are also the reference the C loops
match bit for bit, so every trace, report and domain error is the same
either way.  Chunking, the powers, the ceiling checks, the running
minimum, the trace and every error message stay in the one function of
each recurrence (_mu_dual_ratios, _mu_primal_ratios).
Products are accumulated in log space; sums of positive terms inside the
product conditions use a running log-sum-exp.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from ._num import _ROW_CHUNK, PASS_RTOL, MuTrace, first_bad
from .factorable import FactorableSpec, _require_normalized, weighted_mean
from .sequences import WeightSequence


@dataclass(frozen=True)
class BoundParams:
    """Derived constants for a target bound p/(p-L)."""

    p: float
    L: float

    def __post_init__(self):
        if not (self.p > 1.0):
            raise ValueError("need p > 1")
        if not (0.0 < self.L < self.p):
            raise ValueError("need 0 < L < p")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def bound(self) -> float:
        return self.p / (self.p - self.L)

    @property
    def lam_p(self) -> float:
        """(1 - L/p)^p, the reciprocal of the p-th power of the bound; a
        domain error where it underflows to 0 (L near p at large p)."""
        return _binary64_pow(1.0 - self.L / self.p, self.p,
                             "lam_p = (1 - L/p)^p")

    @property
    def U_p(self) -> float:
        """(p/(p-L))^p = 1/lam_p, a domain error where lam_p is."""
        return 1.0 / self.lam_p


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate check, JSON/CSV friendly."""

    method: str
    p: float
    N: int
    passed: bool
    first_fail: int | None
    worst_margin: float
    bound: float | None
    L: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "method": self.method, "p": self.p, "L": self.L, "c": None,
            "alpha": None, "N": self.N, "pass": self.passed,
            "first_fail": self.first_fail, "worst_margin": self.worst_margin,
            "bound": self.bound, "note": self.note,
        }


def _report(method: str, params: BoundParams, N: int, margins: np.ndarray,
            scales: np.ndarray, note: str = "") -> CertificateReport:
    """Assemble a report from margin/scale arrays indexed from n = 1."""
    bad = first_bad(margins, scales)
    worst = float(np.min(margins)) if margins.size else math.inf
    return CertificateReport(
        method=method, p=params.p, L=params.L, N=N, passed=bad is None,
        first_fail=None if bad is None else bad + 1,
        worst_margin=worst, bound=params.bound, note=note)


def _nonpositive_report(values: np.ndarray, method: str, params: BoundParams,
                        N: int, what: str) -> CertificateReport | None:
    """The failing report at the first n with values[n-1] <= 0 (its worst
    margin NaN), or None when every value is positive."""
    bad = np.flatnonzero(values <= 0.0)
    if not bad.size:
        return None
    n = int(bad[0]) + 1
    return CertificateReport(
        method=method, p=params.p, L=params.L, N=N, passed=False,
        first_fail=n, worst_margin=math.nan, bound=params.bound,
        note=f"{what} at n={n}")


# ----------------------------------------------------------------------
# Cartlidge constant


def cartlidge_constant(w: WeightSequence) -> float:
    """sup over the truncation of Lam_{n+1}/lam_{n+1} - Lam_n/lam_n."""
    if w.N < 2:
        raise ValueError("need at least two weights")
    r = w.ratios
    return float(np.max(np.diff(r)))


def check_cartlidge(w: WeightSequence, p: float, L: float) -> CertificateReport:
    """Pass iff the Cartlidge constant of w is <= L (and L < p)."""
    params = BoundParams(p, L)
    diffs = np.diff(w.ratios)
    margins = L - diffs
    scales = np.maximum(np.abs(diffs), L)
    return _report("cartlidge", params, w.N, margins, scales)


# ----------------------------------------------------------------------
# Ratio and product conditions


def check_ratio_condition(w: WeightSequence, p: float, L: float) -> CertificateReport:
    """Per-index growth test on R_n = Lam_n/lam_n, checked for n <= N-1:

        R_{n+1} <= R_n (1 - L lam_n / (p Lam_n))^(1-p) + L/p.
    """
    params = BoundParams(p, L)
    r = w.ratios
    inner = 1.0 - (L / p) / r[:-1]  # positive since R_n >= 1 > L/p
    rhs = r[:-1] * inner ** (1.0 - p) + L / p
    lhs = r[1:]
    margins = rhs - lhs
    scales = np.maximum(np.abs(lhs), np.abs(rhs))
    return _report("ratio", params, w.N, margins, scales)


def check_factorable_product(spec: FactorableSpec, p: float, L: float) -> CertificateReport:
    """Product condition for a normalized factorable matrix, checked in
    log space for 1 <= n <= N-1:

        (1/a_n) sum_{k<=n} b_k prod_{i=k..n} f_i^(1/(p-1)) <= p/(p-L),
        f_i = (a_i/b_{i+1} + 1 - L/p) / (a_i/b_i).
    """
    params = BoundParams(p, L)
    _require_normalized(spec, "product certificate")
    a, b = spec.a, spec.b
    nums = a[:-1] / b[1:] + 1.0 - L / p
    failed = _nonpositive_report(nums, "factorable-product", params, spec.N,
                                 "nonpositive product factor")
    if failed is not None:
        return failed
    lnf = (np.log(nums) - np.log((a / b)[:-1])) / (p - 1.0)
    C = np.cumsum(lnf)                      # C[i] = sum_{j<=i+1} ln f_j^(1/(p-1))
    Cprev = np.concatenate(([0.0], C[:-1]))
    terms = np.log(b[:-1]) - Cprev          # ln b_k - C_{k-1}, k = 1..N-1
    S = np.logaddexp.accumulate(terms)
    lhs = np.exp(C + S - np.log(a[:-1]))
    margins = params.bound - lhs
    scales = np.maximum(lhs, params.bound)
    return _report("factorable-product", params, spec.N, margins, scales)


def check_product_condition(w: WeightSequence, p: float, L: float) -> CertificateReport:
    """Weighted mean product condition, n <= N-1: the factorable one on
    weighted_mean(w), whose factor numerator is R_{n+1} - L/p."""
    return replace(check_factorable_product(weighted_mean(w), p, L),
                   method="product")


# ----------------------------------------------------------------------
# Stepwise (consecutive-pair) conditions


def check_factorable_stepwise(spec: FactorableSpec, p: float, L: float) -> CertificateReport:
    """Consecutive-pair condition on a normalized factorable matrix.

    With A = lam_p^(1-1/p), B = 1 - lam_p - A, r_n = a_n/b_n, the test at
    each n <= N-1 is

        (A r_{n+1} + 1 - A)^(1/(p-1)) *
            ((A r_n + B)^(1/(p-1)) + (a_n/b_{n+1})^(p/(p-1)))
        <=  r_{n+1}^(p/(p-1)) (A r_n + B)^(1/(p-1)),

    which propagates the linear floor mu_n >= A r_{n-1} + B through the
    primal recurrence.  The floor values A r_n + B must stay positive for
    the condition to make sense; a nonpositive value is reported as a
    failure at that index.
    """
    params = BoundParams(p, L)
    _require_normalized(spec, "stepwise certificate")
    # not params.lam_p: a lam_p that underflows to 0 is still a floor
    # (A = 0, B = 1), as its exact value would round
    lam_p = (1.0 - L / p) ** p
    A = lam_p ** (1.0 - 1.0 / p)
    B = 1.0 - lam_p - A
    r, cross = _spec_ratios(spec)(0, spec.N)
    x, y = r[:-1], r[1:]
    g = A * x + B
    failed = _nonpositive_report(g, "stepwise", params, spec.N,
                                 "floor constant A*r_n+B nonpositive")
    if failed is not None:
        return failed
    e1 = 1.0 / (p - 1.0)
    ep = p / (p - 1.0)
    lhs = (A * y + 1.0 - A) ** e1 * (g ** e1 + cross ** ep)
    rhs = y ** ep * g ** e1
    margins = rhs - lhs
    scales = np.maximum(np.abs(lhs), np.abs(rhs))
    return _report("stepwise", params, spec.N, margins, scales)


def check_stepwise_p2(w: WeightSequence, L: float) -> CertificateReport:
    """p = 2 weighted mean form of the stepwise condition, n <= N-1:

        R_{n+1} - R_n <= L + (L^2/4) ((1 + L/2)/(1 - L/2)) / (R_{n+1} + L/2).

    Not comparable in general with the p = 2 ratio condition
        R_{n+1} - R_n <= L + (L^2/4) / (R_n - L/2);
    each can pass where the other fails.
    """
    params = BoundParams(2.0, L)
    r = w.ratios
    d = np.diff(r)
    rhs = L + (L * L / 4.0) * ((1.0 + L / 2.0) / (1.0 - L / 2.0)) / (r[1:] + L / 2.0)
    margins = rhs - d
    scales = np.maximum(np.abs(d), np.abs(rhs))
    return _report("stepwise-p2", params, w.N, margins, scales)


# ----------------------------------------------------------------------
# Mu recurrences


def mu_primal(spec: FactorableSpec, p: float, lam_p: float) -> MuTrace:
    """Primal recurrence; a nonnegative trace mu_1..mu_(N+1) certifies
    the bound lam_p^(-1/p) at truncation N.

        mu_1 = 1,
        mu_{n+1} = (a_n/b_n)^p mu_n
                   / (mu_n^(1/(p-1)) + (a_{n-1}/b_n)^(p/(p-1)))^(p-1)
                   - lam_p,           with a_0 = 0.

    Why N + 1: for x >= 0 put A_n = sum_{k<=n} b_k x_k, so that
    x_n = (A_n - A_(n-1))/b_n.  For mu_n >= 0, the least value of
    mu_n (A_(n-1)/a_(n-1))^p + x_n^p over 0 <= A_(n-1) <= A_n is
    (mu_(n+1) + lam_p) (A_n/a_n)^p, so by induction on m

        sum_{n<=m} x_n^p - lam_p sum_{n<=m} (A_n/a_n)^p
            >= mu_(m+1) (A_m/a_m)^p.

    At m = N the left side is the gap of the N-section claim, so the
    certificate needs mu_(N+1) >= 0, the step of row n = N (a_N, b_N and
    a_(N-1)).  A passing trace keeps mu_1..mu_N (n_evaluated = N); its
    closing value mu_(N+1) still lowers the worst margin, and a failing
    one is the violation at n = N + 1 and stays in the trace, as every
    failing value does.

    Constraint: mu_n >= 0.  Values within -1e-12 (relative) of zero are
    clamped to zero and the run continues; anything lower stops the trace.
    The rows n = 1..N come from the spec's row source one _ROW_CHUNK at a
    time (a_(n-1)/b_n is the cross ratio of row n - 1): their powers
    (a_n/b_n)^p and (a_(n-1)/b_n)^(p/(p-1)) are formed with numpy over the
    chunk, so a trace that dies early forms few of them, and only scalar
    float steps run in the loop.  A power that leaves the binary64 range
    is a domain error once the trace reaches its row, and so is a step
    whose value does (mu_(n+1) = inf would read as a violation at the
    next row, though every margin before it is positive).
    """
    _require_normalized(spec, "primal recurrence")
    return _mu_primal_ratios(_spec_ratios(spec), spec.N, p, lam_p)


def _spec_ratios(spec: FactorableSpec):
    """The row source of a spec: ratios(lo, hi) as _mu_dual_ratios and
    _mu_primal_ratios take it, each value one division of a by b."""
    a, b = spec.a, spec.b

    def ratios(lo, hi):
        nxt = b[lo + 1:hi + 1]
        return a[lo:hi] / b[lo:hi], a[lo:lo + nxt.shape[0]] / nxt

    return ratios


def _mu_primal_ratios(ratios, N: int, p: float, lam_p: float) -> MuTrace:
    """mu_primal's recurrence on N rows, driven by the ratios alone
    (ratios(lo, hi) as for _mu_dual_ratios); a_0/b_1 = 0 on row 1.
    The step loop is the compiled one where it built, else
    _primal_steps."""
    if not (p > 1.0):
        raise ValueError("need p > 1")
    if not (0.0 < lam_p < 1.0):
        raise ValueError("need lam_p in (0, 1)")
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
    rtol times max(t, lam_p, 1) is clamped to zero.  The reference the
    compiled loop matches bit for bit."""
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


def mu_dual(spec: FactorableSpec, p: float, U_p: float) -> MuTrace:
    """Dual recurrence; staying strictly below the ceiling (a_n/b_n)^q for
    all n <= N certifies sum (Mx)_n^p <= U_p sum x_n^p at truncation N.

        mu_1 = U_p^(-q/p),
        mu_{n+1} = U_p^(-q/p)
                   + (a_n/b_{n+1})^q
                     / ((a_n/b_n)^(q/(q-1)) mu_n^(-1/(q-1)) - 1)^(q-1).

    The ceiling is strict: a zero margin is a violation (e.g. U_p = 1 on a
    normalized spec dies immediately at n = 1).  The spec's row source
    gives the ratios one _ROW_CHUNK at a time, so a trace that dies early
    forms few of them; only scalar float steps run in the loop.
    """
    return _mu_dual_ratios(_spec_ratios(spec), spec.N, p, _dual_mu_1(p, U_p))


def _dual_mu_1(p: float, U_p: float) -> float:
    """mu_1 = U_p^(-q/p) of the dual recurrence, with its domain checks."""
    if not (p > 1.0):
        raise ValueError("need p > 1")
    if not (U_p > 0.0):
        raise ValueError("need U_p > 0")
    q = p / (p - 1.0)
    return _binary64_pow(U_p, -q / p, "mu_1 = U_p^(-q/p)")


def _mu_dual_ratios(ratios, N: int, p: float, mu_1: float) -> MuTrace:
    """mu_dual's recurrence on N rows, driven by the ratios alone:
    ratios(lo, hi) returns r_n = a_n/b_n for the 0-based rows
    lo <= i < hi and cross_n = a_n/b_{n+1} for lo <= i < min(hi, N - 1),
    as contiguous arrays, and mu_1 = U_p^(-q/p).

    A family whose a_n, b_n overflow while these ratios stay moderate
    (large partial sums) passes them in closed form instead of a spec.
    The ratios and their powers are formed one _ROW_CHUNK at a time.
    The step loop (the compiled one where it built, else _dual_steps)
    runs the recurrence and its domain test alone; the
    strict ceiling mu_n < r_n^q is checked with numpy over each chunk,
    and the first index failing either test is the violation.  Each
    chunk's ceiling margins, up to and including a failing row, are
    folded into a running minimum, the worst margin.  When
    the loop leaves the binary64 range, the chunk's ceilings are checked
    first, so a ceiling the trace crossed earlier is still the verdict.
    """
    q = p / (p - 1.0)
    eq = q / (q - 1.0)           # equals p
    e1 = 1.0 / (q - 1.0)         # equals p - 1
    # mu_1^(-e1) recovers U_p; since every mu_n >= mu_1 it is also the
    # largest power the loop forms, so one check covers every step.
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
            ceilings = r ** q
            rp, cq = r[:steps] ** eq, cross ** q
        overflow = dual_steps(trace, rp, cq, mu_1, -e1, q - 1.0)
        k = len(trace)           # mu_1..mu_k are known
        top = min(k, hi)
        m = ceilings[:top - lo] - np.frombuffer(trace)[lo:top]
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


def _dual_steps(trace, rp, cq, mu_1, ne1, qm1):
    """Append to trace the dual steps from its last value over rows with
    (a_n/b_n)^p in rp and (a_n/b_{n+1})^q in cq, and return whether the
    loop stopped on an OverflowError or ZeroDivisionError.  It also
    stops, with no value, where the domain test (a_n/b_n)^p mu_n^(1-p)
    > 1 fails.  The reference the compiled loop matches bit for bit."""
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
        # mu_n far below its ceiling, not across it)
        return True
    return False


def _step_loops():
    """(dual steps, primal steps): the compiled loops, loaded (or built)
    on the first trace of a process, else the Python ones."""
    from . import _kernel

    return _kernel.loops() or (_dual_steps, _primal_steps)


def trace_report(trace: MuTrace, method: str, params: BoundParams,
                 N: int) -> CertificateReport:
    """Wrap a mu trace as a CertificateReport."""
    return CertificateReport(
        method=method, p=params.p, L=params.L, N=N, passed=trace.passed,
        first_fail=trace.first_fail, worst_margin=trace.worst_margin,
        bound=params.bound)


__all__ = [
    "BoundParams", "MuTrace", "CertificateReport",
    "cartlidge_constant", "check_cartlidge",
    "check_ratio_condition", "check_product_condition",
    "check_factorable_product", "check_factorable_stepwise",
    "check_stepwise_p2", "mu_primal", "mu_dual", "trace_report",
]
