"""Reversed averaging inequality for 0 < p < 1 and its certificates.

The target inequality, for positive x and C_p = (p/(1-p))^p, is

    sum_n ( (1/n) sum_{k>=n} x_k )^p  >=  C_p  sum_n x_n^p,

together with its dual form (q = p/(p-1) < 0)

    sum_n ( sum_{k<=n} x_k/k )^q  <=  (p/(1-p))^q  sum_n x_n^q.

Two recurrence certificates are implemented.

mu_direct drives the primal route:

    mu_1 = ((1-p)/p)^p,
    mu_{n+1} = (n+1)^p (n^(p/(p-1)) mu_n^(1/(1-p)) - 1)^(1-p) + mu_1,

which is the factorable-matrix method itself: the dual recurrence of
certificates.mu_dual on the matrix b_k/a_n = 1/k of the dual form, at
exponent p/(p-1) < 0.  It runs on the shared dual driver
(_kernel._mu_dual_ratios, the compiled step loop where it builds), fed
the rows a_n/b_n = n and a_n/b_(n+1) = n + 1 in closed form.  Its domain
condition at step n is exactly mu_n > n^p; a trace that keeps mu_{n0}
above the linear floor a n0 + b with

    a = (p/(1-p))^(1-p),   b = (1/p - 1)^p / 2

stays above it forever, certifying the inequality (certify_direct finds
the smallest such n0).  Forcing n0 = 2 reproduces the closed-form
threshold test threshold_margin, whose positive range ends just above
p = 0.346.

mu_dual drives the dual route:

    mu_1 = 0,
    mu_{n+1} = (n^(-p) + mu_n^(1-p))^(1/(1-p)) - (1/p - 1)^(p/(p-1)),

and positivity of mu_n for n >= 2 certifies the dual inequality.  It
runs on _kernel._mu_primal_ratios, the primal recurrence, fed mu_direct's
rows at exponent P = p/(p-1) < 0 with lam = (1/p - 1)^P: its step
n^P mu / (mu^(1/(P-1)) + n^p)^(P-1) is the one above regrouped.  Around
the call mu_dual keeps its mu_1 = 0 (the driver starts at 1, which gives
the same mu_2 but not search_c's c_max at n0 = 1), drops the closing
step mu_(N+1), and fails at the first mu_n <= 0, n >= 2, as the
certificate needs mu_n > 0 where the driver clamps a step just below 0.

dual_feasible checks the three-part sufficient condition that a shift
constant c makes the trace provably positive from n0 on:

    mu_{n0} >= (1/p-1)^(1/(p-1)) (n0 + c),      c > -1/(2p),
    f(1/n0) >= 0  with  f(y) = (1/p-1) y + (1+cy)^(1-p)
                               - (1+(c+1/p)y)^(1-p),

and search_c automates the hunt for a feasible (n0, c) pair; f is
increasing in c, so the largest c allowed by the first condition is the
best candidate and ties resolve toward it.

A certificate found at n0 holds for every larger n, so both searches
stop there: they scan a short prefix of the trace first and trace all
the way to n0_max only when that prefix neither certifies nor dies.
Each step of a trace depends only on the step before and its own row
(whatever chunk the row falls in), so a prefix is bitwise the start of
the longer trace and the result is that of a full scan;
DirectCertificate.trace is the evaluated prefix, not the full trace.

The probes evaluate both inequalities directly on finite data.  Tail
truncation only shrinks the primal LHS, so probe_primal is a
conservative lower-ratio probe; any value below C_p would disprove the
inequality outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._num import (MuTrace, margin_ok, margins_ok, record_dict, scaled_sums,
                   suffix_sums, trial_rows)
from ._options import N_MAX_DEFAULT

# Trace length the n0 searches try before the full n0_max.  Certifying n0
# are small (4 at p = 0.35 on the direct route, 5 on the dual one), and
# the extra prefix costs an uncertified full search about 0.1% at 1e6.
_PREFIX = 1024

# probe_primal's ratio passes down to C_p - PROBE_SLACK (absolute)
PROBE_SLACK = 1e-9


def hlp_constant(p: float) -> float:
    """C_p = (p/(1-p))^p, the certified constant of the primal form."""
    if not (0.0 < p < 1.0):
        raise ValueError("need 0 < p < 1")
    return (p / (1.0 - p)) ** p


def direct_floor(p: float) -> tuple[float, float]:
    """(a, b) of the linear floor a n + b used by the direct certificate."""
    a = (p / (1.0 - p)) ** (1.0 - p)
    b = (1.0 / p - 1.0) ** p / 2.0
    return a, b


def _rows(N: int):
    """The rows of both routes, ratios(lo, hi) of the HLP dual form
    b_k/a_n = 1/k in closed form: a_n/b_n = n, a_n/b_(n+1) = n + 1."""
    return lambda lo, hi: (np.arange(lo + 1.0, hi + 1.0),
                           np.arange(lo + 2.0, min(hi, N - 1) + 2.0))


def mu_direct(p: float, N: int) -> MuTrace:
    """Direct-route trace on the shared dual driver, whose q is p and
    whose bound n^p is a floor; the margins are mu_n - n^p (strictly
    positive keeps the recurrence inside its domain), and the worst of
    them is a running minimum.  Every margin before a failing one is
    positive, so a failing margin (NaN included) is the worst margin."""
    from ._kernel import _mu_dual_ratios

    if not (1.0 / 3.0 <= p < 1.0):
        raise ValueError("need 1/3 <= p < 1")
    if N < 1:
        raise ValueError("need N >= 1")
    trace = _mu_dual_ratios(_rows(N), N, p / (p - 1.0), ((1.0 - p) / p) ** p)
    return replace(trace, constraint="mu > n^p")


@dataclass(frozen=True)
class DirectCertificate:
    """Outcome of the direct-route floor search.

    trace is the evaluated prefix of the direct trace: it ends at the
    short prefix when that settles the search, and otherwise at n0_max
    or at the index where the trace dies.
    """

    p: float
    n0: int | None
    margin: float
    n0_max: int
    trace: MuTrace

    @property
    def certified(self) -> bool:
        return self.n0 is not None


def certify_direct(p: float, n0_max: int = N_MAX_DEFAULT) -> DirectCertificate:
    """Smallest n0 <= n0_max with mu_{n0} >= a n0 + b (tolerant of exact
    equality); margin is the raw slack at that n0, or the largest slack
    over the evaluated trace when no n0 qualifies.  The trace stops early
    as the module docstring describes; the result is a full scan's.
    """
    head = min(n0_max, _PREFIX)
    cert = _floor_scan(p, mu_direct(p, head), n0_max)
    if head < n0_max and not cert.certified and cert.trace.first_violation is None:
        cert = _floor_scan(p, mu_direct(p, n0_max), n0_max)
    return cert


def _floor_scan(p: float, trace: MuTrace, n0_max: int) -> DirectCertificate:
    """The first index of the trace clearing the floor a n + b."""
    a, b = direct_floor(p)
    k = trace.mu.shape[0]
    n = np.arange(1, k + 1, dtype=np.float64)
    floors = a * n + b
    slack = trace.mu - floors
    scales = np.maximum(np.abs(trace.mu), np.abs(floors))
    idx = np.flatnonzero(margins_ok(slack, scales))
    if idx.size == 0:
        return DirectCertificate(p=p, n0=None, margin=float(np.max(slack)),
                                 n0_max=n0_max, trace=trace)
    i = int(idx[0])
    return DirectCertificate(p=p, n0=i + 1, margin=float(slack[i]),
                             n0_max=n0_max, trace=trace)


def direct_floor_margin(p: float, n0: int) -> float:
    """Raw slack mu_{n0} - (a n0 + b), or -inf if the trace dies first."""
    if n0 < 1:
        raise ValueError("need n0 >= 1")
    trace = mu_direct(p, n0)
    if trace.mu.shape[0] < n0 or (trace.first_violation is not None
                                  and trace.first_violation <= n0):
        return -math.inf
    a, b = direct_floor(p)
    return float(trace.mu[n0 - 1]) - (a * n0 + b)


def threshold_margin(p: float) -> float:
    """Closed-form margin whose nonnegativity is the n0 = 2 floor test:

        2^(p/(1-p)) (((1-p)/p)^(1/(1-p)) - (1-p)/p)
            - (1 + (3 - 1/p)/2)^(1/(1-p)).

    Positive up to a threshold just above p = 0.346.
    """
    if not (1.0 / 3.0 < p < 0.5):
        raise ValueError("need 1/3 < p < 1/2")
    t = (1.0 - p) / p
    e = 1.0 / (1.0 - p)
    return 2.0 ** (p / (1.0 - p)) * (t ** e - t) - (1.0 + (3.0 - 1.0 / p) / 2.0) ** e


def bracket_threshold(lo: float = 0.346, hi: float = 0.35,
                      width: float = 1e-4) -> tuple[float, float]:
    """Bisect the sign change of threshold_margin inside [lo, hi]."""
    if not (threshold_margin(lo) >= 0.0 > threshold_margin(hi)):
        raise ValueError("threshold_margin does not change sign on [lo, hi]")
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if threshold_margin(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


# ----------------------------------------------------------------------
# Dual route


def mu_dual(p: float, N: int) -> MuTrace:
    """Dual-route trace; the certificate needs mu_n > 0 for n >= 2, and
    the margins are mu_n itself (n = 1, mu_1 = 0, is unconstrained).
    It runs on the primal driver, as the module docstring describes."""
    from ._kernel import _mu_primal_ratios

    if not (1.0 / 3.0 <= p < 1.0):
        raise ValueError("need 1/3 <= p < 1")
    if N < 1:
        raise ValueError("need N >= 1")
    q = p / (p - 1.0)
    trace = _mu_primal_ratios(_rows(N), N, q, (1.0 / p - 1.0) ** q)
    mu = trace.mu[:N]
    mu[0] = 0.0
    # a step the driver cannot take, with no value, ends the trace early
    violation = mu.shape[0] if mu.shape[0] < N else None
    worst = float(np.min(mu[1:], initial=math.inf))
    if not worst > 0.0:
        violation = int(np.flatnonzero(~(mu[1:] > 0.0))[0]) + 2
        mu = mu[:violation]
        worst = float(np.min(mu[1:]))
    return MuTrace(mu=mu, constraint="mu > 0 (n >= 2)", worst_margin=worst,
                   first_violation=violation)


def shift_gap(y: float, p: float, c: float) -> float:
    """f(y) = (1/p-1) y + (1+cy)^(1-p) - (1+(c+1/p)y)^(1-p).

    f(0) = f'(0) = 0; nonnegativity on (0, 1/n0] propagates the linear
    lower bound on the dual trace.  Needs 1 + c y > 0.
    """
    if not (1.0 + c * y > 0.0):
        raise ValueError("shift gap needs 1 + c*y > 0")
    e = 1.0 - p
    return (1.0 / p - 1.0) * y + (1.0 + c * y) ** e - (1.0 + (c + 1.0 / p) * y) ** e


@dataclass(frozen=True)
class DualFeasibility:
    """Margins of the three-part shift condition at one (p, n0, c)."""

    p: float
    n0: int
    c: float
    mu_n0: float
    margins: tuple[float, float, float]
    passed: bool
    note: str = ""

    to_dict = record_dict


def dual_feasible(p: float, n0: int, c: float) -> DualFeasibility:
    """Margins: mu_{n0} - (1/p-1)^(1/(p-1))(n0+c); c + 1/(2p) (strict);
    f(1/n0)."""
    if n0 < 1:
        raise ValueError("need n0 >= 1")
    trace = mu_dual(p, n0)
    if trace.mu.shape[0] < n0:
        return DualFeasibility(p=p, n0=n0, c=c, mu_n0=math.nan,
                               margins=(-math.inf,) * 3, passed=False,
                               note=f"trace dies at n={trace.first_violation}")
    return _feasibility(p, n0, c, float(trace.mu[n0 - 1]))


def _feasibility(p: float, n0: int, c: float, mu_n0: float) -> DualFeasibility:
    """dual_feasible's verdict from mu_{n0} in hand: every trace of at
    least n0 values holds the same mu_{n0}, a prefix of the longer ones."""
    slope = (1.0 / p - 1.0) ** (1.0 / (p - 1.0))
    m1 = mu_n0 - slope * (n0 + c)
    m2 = c + 1.0 / (2.0 * p)
    if not (1.0 + c / n0 > 0.0):
        return DualFeasibility(p=p, n0=n0, c=c, mu_n0=mu_n0,
                               margins=(m1, m2, -math.inf), passed=False,
                               note="1 + c/n0 <= 0: shift gap undefined")
    m3 = shift_gap(1.0 / n0, p, c)
    ok = (margin_ok(m1, max(abs(mu_n0), 1.0)) and m2 > 0.0
          and margin_ok(m3, 1.0))
    return DualFeasibility(p=p, n0=n0, c=c, mu_n0=mu_n0,
                           margins=(m1, m2, m3), passed=ok)


@dataclass(frozen=True)
class ShiftSearch:
    """First feasible (n0, c) for the dual shift condition, if any."""

    p: float
    feasible: bool
    n0: int | None
    c: float | None
    c_min: float | None
    c_max: float | None
    margins: tuple[float, float, float] | None
    n0_max: int

    @property
    def pair(self) -> tuple[int, float] | None:
        return (self.n0, self.c) if self.feasible else None


def search_c(p: float, n0_max: int = 10_000) -> ShiftSearch:
    """Scan n0 upward; at each n0 the first condition caps c at

        c_max = mu_{n0} (1/p-1)^(-1/(p-1)) - n0,

    and since f is increasing in c, (n0, c_max) is feasible iff any c is.
    Ties resolve toward larger c, so the returned c is c_max; c_min is
    the bisected lower end of the feasible interval (bounded below by
    the strict -1/(2p) and the domain bound -n0).

    The trace stops early as the module docstring describes; the result
    is a full scan's.
    """
    head = min(n0_max, _PREFIX)
    trace = mu_dual(p, head)
    found = _shift_scan(p, trace, n0_max)
    if head < n0_max and not found.feasible and trace.first_violation is None:
        found = _shift_scan(p, mu_dual(p, n0_max), n0_max)
    return found


def _shift_scan(p: float, trace: MuTrace, n0_max: int) -> ShiftSearch:
    """The first n0 of the dual trace at which (n0, c_max) is feasible."""
    mu = trace.mu
    # the scan ends before a violation, which mu_dual's trace ends on
    k = mu.shape[0] - (trace.first_violation is not None)
    slope = (1.0 / p - 1.0) ** (1.0 / (p - 1.0))
    n = np.arange(1, k + 1, dtype=np.float64)
    c_maxes = mu[:k] / slope - n
    lowers = np.maximum(-1.0 / (2.0 * p), -n)
    # only n0 with c_max > lower go on to the scalar shift-gap checks
    for i in np.flatnonzero(c_maxes > lowers):
        n0, c_max, lower = int(i) + 1, float(c_maxes[i]), float(lowers[i])
        if shift_gap(1.0 / n0, p, c_max) < 0.0:
            continue
        lo, hi = lower, c_max
        # f(., lo+) may already be feasible; bisect only across a sign
        # change, stepping just inside the open lower end.
        eps = 1e-12 * max(1.0, abs(lower))
        if shift_gap(1.0 / n0, p, lower + eps) >= 0.0:
            c_min = lower
        else:
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if shift_gap(1.0 / n0, p, mid) >= 0.0:
                    hi = mid
                else:
                    lo = mid
            c_min = hi
        margins = _feasibility(p, n0, c_max, float(mu[i])).margins
        return ShiftSearch(p=p, feasible=True, n0=n0, c=c_max, c_min=c_min,
                           c_max=c_max, margins=margins, n0_max=n0_max)
    return ShiftSearch(p=p, feasible=False, n0=None, c=None, c_min=None,
                       c_max=None, margins=None, n0_max=n0_max)


# ----------------------------------------------------------------------
# Direct numeric probes


def probe_primal(p: float, s: float, N: int) -> float:
    """Ratio of the primal inequality on x_k = k^(-s) truncated at N.

    Tail truncation only lowers the LHS, so any return below C_p would
    contradict the inequality; values approach C_p from above as
    s -> (1/p)+ and N grows.  The probe passes when the ratio is at
    least C_p - PROBE_SLACK (absolute, 1e-9), which absorbs the rounding
    of the two sums.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("need 0 < p < 1")
    if not (s > 1.0 / p):
        raise ValueError("need s > 1/p")
    if N < 1:
        raise ValueError("need N >= 1")
    n = np.arange(1, N + 1, dtype=np.float64)
    x = n ** (-s)
    inner = suffix_sums(x) / n
    return float(np.sum(inner ** p) / np.sum(x ** p))


def _dual_ratios(p: float, X: np.ndarray, work=None) -> np.ndarray:
    """probe_dual's ratio for each row of X (positive and finite), which
    it overwrites; the partial sums go in the first array of work, a
    trial_rows workspace, or a fresh one."""
    if not (0.0 < p < 1.0):
        raise ValueError("need 0 < p < 1")
    if X.shape[-1] == 0:
        raise ValueError("x must be a nonempty positive finite vector")
    X /= np.max(X, axis=-1, keepdims=True)
    q = p / (p - 1.0)
    n = np.arange(1, X.shape[-1] + 1, dtype=np.float64)
    y = scaled_sums(X, n, None, True, False, out=work[0] if work else None)
    y **= q
    X **= q
    return np.sum(y, axis=-1) / ((p / (1.0 - p)) ** q * np.sum(X, axis=-1))


def probe_dual(p: float, x) -> float:
    """LHS/RHS ratio of the dual inequality on one positive vector.

    Must stay <= 1 + 1e-10 whenever the inequality holds; entries are
    rescaled by their maximum first (the ratio is scale invariant) to
    keep negative powers of partial sums in range.
    """
    X = np.array(x, dtype=np.float64).reshape(1, -1)
    # a bad p, or an empty x, is _dual_ratios' error
    if 0.0 < p < 1.0 and not (np.all(X > 0.0) and np.all(np.isfinite(X))):
        raise ValueError("x must be a nonempty positive finite vector")
    return float(_dual_ratios(p, X)[0])


def probe_dual_trials(p: float, N: int, trials: int, seed: int = 0) -> float:
    """Largest probe_dual ratio over `trials` >= 1 seeded positive
    vectors of length N >= 1 with log-uniform entries in [1e-3, 1e3].

    The vectors are one default_rng(seed) stream, evaluated a block at a
    time by trial_rows.  A NaN ratio (inf/inf, when both sides leave the
    binary64 range) makes the maximum NaN, which fails the probe.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("need 0 < p < 1")
    if trials < 1:
        raise ValueError("need trials >= 1")
    if N < 1:
        raise ValueError("need N >= 1")
    ratios = trial_rows(N, trials, seed,
                        lambda X, work: _dual_ratios(p, X, work))
    return float(np.max(ratios))


def certify_report(p: float, method: str = "direct",
                   n0_max: int = N_MAX_DEFAULT) -> dict:
    """CLI-facing summary: {p, certified, n0, c, method, margins, N_max}."""
    if method == "direct":
        cert = certify_direct(p, n0_max)
        return {"p": p, "certified": cert.certified, "n0": cert.n0,
                "c": None, "method": "direct",
                "margins": [cert.margin], "N_max": n0_max}
    if method == "dual-shift":
        found = search_c(p, n0_max)
        return {"p": p, "certified": found.feasible, "n0": found.n0,
                "c": found.c, "method": "dual-shift",
                "margins": list(found.margins) if found.margins else [],
                "N_max": n0_max}
    raise ValueError("method must be 'direct' or 'dual-shift'")


__all__ = [
    "N_MAX_DEFAULT", "hlp_constant", "direct_floor", "mu_direct",
    "DirectCertificate", "certify_direct", "direct_floor_margin",
    "threshold_margin", "bracket_threshold", "mu_dual", "shift_gap",
    "DualFeasibility", "dual_feasible", "ShiftSearch", "search_c",
    "probe_primal", "probe_dual", "probe_dual_trials", "certify_report",
]
