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
Both feed a spec's rows from one row source (_spec_ratios: a_n/b_n and
a_n/b_(n+1), the primal a_(n-1)/b_n being the row before's
a_n/b_(n+1)) to the shared drivers of _kernel, which they import when
they run, so the vectorized checkers never load it.
Products are accumulated in log space; sums of positive terms inside the
product conditions use a running log-sum-exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._num import MuTrace, _binary64_pow, first_bad, record_dict
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
        # c and alpha: the CSV columns that a certificate leaves empty
        return {**record_dict(self), "c": None, "alpha": None}


def _report(method: str, params: BoundParams, N: int, big, small,
            note: str = "") -> CertificateReport:
    """Assemble the report of the per-index test big >= small, indexed
    from n = 1: margins big - small, each passing against the scale
    max(|big|, |small|) of its two sides."""
    margins = big - small
    bad = first_bad(margins, np.maximum(np.abs(big), np.abs(small)))
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
    return _report("cartlidge", params, w.N, L, np.diff(w.ratios))


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
    return _report("ratio", params, w.N, rhs, r[1:])


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
    return _report("factorable-product", params, spec.N, params.bound, lhs)


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
    return _report("stepwise", params, spec.N, rhs, lhs)


def check_stepwise_p2(w: WeightSequence, L: float) -> CertificateReport:
    """p = 2 weighted mean form of the stepwise condition, n <= N-1:

        R_{n+1} - R_n <= L + (L^2/4) ((1 + L/2)/(1 - L/2)) / (R_{n+1} + L/2).

    Not comparable in general with the p = 2 ratio condition
        R_{n+1} - R_n <= L + (L^2/4) / (R_n - L/2);
    each can pass where the other fails.
    """
    params = BoundParams(2.0, L)
    r = w.ratios
    rhs = L + (L * L / 4.0) * ((1.0 + L / 2.0) / (1.0 - L / 2.0)) / (r[1:] + L / 2.0)
    return _report("stepwise-p2", params, w.N, rhs, np.diff(r))


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
    A power that leaves the binary64 range is a domain error once the
    trace reaches its row, and so is a step whose value does
    (mu_(n+1) = inf would read as a violation at the next row, though
    every margin before it is positive).
    """
    from ._kernel import _mu_primal_ratios

    _require_normalized(spec, "primal recurrence")
    return _mu_primal_ratios(_spec_ratios(spec), spec.N, p, lam_p)


def _spec_ratios(spec: FactorableSpec):
    """The row source of a spec: ratios(lo, hi) as the drivers
    _kernel._mu_dual_ratios and _mu_primal_ratios take it, each value one
    division of a by b."""
    a, b = spec.a, spec.b

    def ratios(lo, hi):
        nxt = b[lo + 1:hi + 1]
        return a[lo:hi] / b[lo:hi], a[lo:lo + nxt.shape[0]] / nxt

    return ratios


def mu_dual(spec: FactorableSpec, p: float, U_p: float) -> MuTrace:
    """Dual recurrence; staying strictly below the ceiling (a_n/b_n)^q for
    all n <= N certifies sum (Mx)_n^p <= U_p sum x_n^p at truncation N.

        mu_1 = U_p^(-q/p),
        mu_{n+1} = U_p^(-q/p)
                   + (a_n/b_{n+1})^q
                     / ((a_n/b_n)^(q/(q-1)) mu_n^(-1/(q-1)) - 1)^(q-1).

    The ceiling is strict: a zero margin is a violation (e.g. U_p = 1 on a
    normalized spec dies immediately at n = 1).
    """
    from ._kernel import _mu_dual_ratios

    return _mu_dual_ratios(_spec_ratios(spec), spec.N, p, _dual_mu_1(p, U_p))


def _dual_mu_1(p: float, U_p: float) -> float:
    """mu_1 = U_p^(-q/p) of the dual recurrence, with its domain checks."""
    if not (p > 1.0):
        raise ValueError("need p > 1")
    if not (U_p > 0.0):
        raise ValueError("need U_p > 0")
    q = p / (p - 1.0)
    return _binary64_pow(U_p, -q / p, "mu_1 = U_p^(-q/p)")


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
