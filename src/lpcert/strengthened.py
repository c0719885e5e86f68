"""First-power strengthenings of the averaging-operator bounds.

Each case bounds a p-th power sum by a *first power* of the certified
constant times a mixed sum, which is strictly stronger than the usual
p-th power bound (the latter follows by one application of Holder's
inequality on the same data).  With A, A*, T, S the four averaged
transforms (prefix mean, tail mean, dual prefix, dual tail written as
lam_n sum_{k<=n} x_k/Lam*_k), the eight cases are:

  cartlidge        sum A_n^p        <= p/(p-L)          sum x_n A_n^(p-1)
  cartlidge_tail   sum (A*_n)^p     <= p/(p-L')         sum x_n (A*_n)^(p-1)
  dual             sum (T_n)^p      <= p/(p-(p-1)L)     sum x_n (T_n)^(p-1)
  dual_tail        sum (S_n)^p      <= p/(p-(p-1)L')    sum x_n (S_n)^(p-1)
  copson_prefix    weighted prefix mean, constant p/(c-1),   1 < c <= p
  copson_tail      tail sum over prefix partials, p/(1-c),   0 <= c < 1
  leindler_prefix  prefix sum over tail partials, p/(1-c),   0 <= c < 1
  leindler_tail    weighted tail mean, constant p/(c-1),     1 < c <= p

L is the Cartlidge constant sup(Lam_{n+1}/lam_{n+1} - Lam_n/lam_n) and L'
its tail analogue computed by tail_cartlidge_constant; the dual cases
need L (resp. L') < p/(p-1) for a positive constant.  All checks run on
finite truncations with truncated tail partials; index reversal turns a
finite prefix instance into the matching tail instance, so every finite
evaluation is exact (verdict: _num.range_ratios, then trial_verdict).

verify_mu_choice evaluates, for the named closed-form mu sequence, the
per-index inequality that the inductive proof of the corresponding case
needs, reporting the minimum slack and the algebraic identity each choice
is built around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._num import (_RANGE_FLOOR, _binary64_pow, fold, range_floor,
                   range_ratios, record_dict, trial_rows, trial_verdict,
                   weighted_sums, workspace)
from ._options import BRANCHES, KINDS, MU_CHOICES
from .certificates import cartlidge_constant
from .copson import _BRANCH_SUMS, _branch_weights, branch_constant
from .sequences import WeightSequence, averaged

_COPSON_KINDS = BRANCHES

# (sum direction, partials, dual form) of each kind's inner transform
_CASE_SUMS = {"cartlidge": ("prefix", "partials", False),
              "cartlidge_tail": ("suffix", "tails", False),
              "dual": ("suffix", "partials", True),
              "dual_tail": ("prefix", "tails", True),
              **{k: (*v, False) for k, v in _BRANCH_SUMS.items()}}


def tail_cartlidge_constant(w: WeightSequence) -> float:
    """L' = max over n <= N-1 of Lam*_n/lam_n - Lam*_{n+1}/lam_{n+1}.

    The tail analogue of the Cartlidge constant, on truncated tails.
    Unlike the prefix constant this can be large for rapidly growing
    weights (geometric ratio 2 gives about 2^(N-1)); slowly growing or
    decaying weights keep it near the prefix constant.
    """
    if w.N < 2:
        raise ValueError("need at least two weights")
    t = w.tail_ratios
    return float(np.max(t[:-1] - t[1:]))


@dataclass(frozen=True)
class StrengthenedCase:
    """One case of the first-power family.

    c is required for the copson/leindler kinds (1 < c <= p for the
    prefix-mean and tail-mean cases, 0 <= c < 1 for the crossed ones).
    L may be pinned for the cartlidge/dual kinds; left as None it is
    computed from the weights at check time (prefix or tail constant as
    the kind demands).  A kind rejects the one it does not take.
    """

    kind: str
    p: float
    c: float | None = None
    L: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not (self.p > 1.0):
            raise ValueError("need p > 1")
        if self.kind in _COPSON_KINDS:
            if self.c is None:
                raise ValueError(f"kind {self.kind} needs c")
            if self.L is not None:
                raise ValueError(f"kind {self.kind} takes no L")
            branch_constant(self.kind, self.p, self.c)   # checks c
        elif self.c is not None:
            raise ValueError(f"kind {self.kind} takes no c")

    def effective_L(self, w: WeightSequence) -> float | None:
        if self.kind in _COPSON_KINDS:
            return None
        if self.L is not None:
            return self.L
        if self.kind in ("cartlidge", "dual"):
            return cartlidge_constant(w)
        return tail_cartlidge_constant(w)

    def constant(self, L: float | None) -> float:
        p = self.p
        if self.kind in ("cartlidge", "cartlidge_tail"):
            if not (0.0 < L < p):
                raise ValueError(f"kind {self.kind} needs 0 < L < p, got L={L}")
            return p / (p - L)
        if self.kind in ("dual", "dual_tail"):
            if not (0.0 < L < p / (p - 1.0)):
                raise ValueError(
                    f"kind {self.kind} needs 0 < L < p/(p-1), got L={L}")
            return p / (p - (p - 1.0) * L)
        return branch_constant(self.kind, p, self.c)


@dataclass(frozen=True)
class StrengthenedReport:
    """Max first-power LHS/RHS ratio and its Holder p-th power corollary."""

    which: str
    p: float
    c: float | None
    L: float | None
    N: int
    trials: int
    max_ratio: float
    min_margin: float
    corollary_max_ratio: float
    argmax: int
    passed: bool
    note: str = ""

    to_dict = record_dict


def _case_ratios(case: StrengthenedCase, w: WeightSequence):
    """(L, sums, bounds): sums(X, work=None) gives, per trial row of X
    (of length N, positive and finite), the power sums of the
    first-power inequality and of its Holder corollary's right side as
    an (m, 3) array; bounds = (K, floors), K and K^p of the two right
    sides and the floors of the three sums, feed _num's range rule.

    L, K, K^p and the summation weights u are formed once; each row is
    rescaled (in place) by its maximum.  X is overwritten, and work, a
    trial_rows workspace (or two fresh arrays), holds the averages and
    their (p-1)-th powers.  The non-Copson kinds sum with u = 1, so they
    skip it, and their range floor range_floor(u) is 2 N _RANGE_FLOOR
    (exact: every term is a power of two times an integer below 2^53).
    """
    p = case.p
    L = case.effective_L(w)
    K = case.constant(L)
    Kp = _binary64_pow(K, p, "K^p")
    direction, base, dual = _CASE_SUMS[case.kind]
    # weigh(a, out) is u * a, written into out (a itself where u = 1),
    # and power_sums(a) the sums of u * a, a overwritten
    if case.kind in _COPSON_KINDS:
        with np.errstate(over="ignore"):
            u = _branch_weights(w, case.kind, p, case.c)
        weigh = (lambda a, out: np.multiply(a, u, out=out))
        power_sums = (lambda a: weighted_sums(a, u, a))
        floor = range_floor(u)
    else:
        weigh = (lambda a, out: a)
        power_sums = (lambda a: np.sum(a, axis=-1))
        floor = 2.0 * w.N * _RANGE_FLOOR

    def sums(X, work=None):
        S, ip = work or workspace(X.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            X /= np.max(X, axis=-1, keepdims=True)
            inner = averaged(w, X, direction, base, dual, out=S)
            np.power(inner, p - 1.0, out=ip)
            lhs = weighted_sums(weigh(inner, inner), ip, inner)
            rhs = weighted_sums(weigh(X, S), ip, S)
            X **= p
            rhs_p = power_sums(X)
        return np.stack([lhs, rhs, rhs_p], axis=-1)

    return L, sums, ((K, Kp), (floor,) * 3)


def _report(case: StrengthenedCase, w: WeightSequence, L: float | None,
            S: np.ndarray, bounds, note: str) -> StrengthenedReport:
    """_num's one trial verdict, with bounds, on per-row power sums S;
    argmax is the first row of largest first-power ratio."""
    R = range_ratios(case.kind, case.p, S, *bounds)
    j, (max_ratio, cor_max), passed = trial_verdict(R)
    return StrengthenedReport(
        which=case.kind, p=case.p, c=case.c, L=L, N=w.N, trials=R.shape[0],
        max_ratio=max_ratio, min_margin=1.0 - max_ratio,
        corollary_max_ratio=cor_max, argmax=j + 1, passed=passed, note=note)


def check_strengthened(case: StrengthenedCase, w: WeightSequence,
                       x) -> StrengthenedReport:
    """Evaluate one positive vector against the case's first-power
    inequality and its p-th power corollary."""
    X = np.array(x, dtype=np.float64).reshape(1, -1)
    L, sums, bounds = _case_ratios(case, w)
    if X.shape[-1] != w.N:
        raise ValueError(f"x has length {X.shape[-1]}, weights have {w.N}")
    if not np.all(X > 0.0) or not np.all(np.isfinite(X)):
        raise ValueError("trial vectors must be positive and finite")
    return _report(case, w, L, sums(X), bounds, note="single vector")


def _profile_rows(N: int):
    """(count, fill) of the deterministic profiles: spikes, flats and
    n^(-s) power profiles, always positive, the distinct ones in
    np.unique(axis=0)'s lexicographic order.  fill(lo, out) writes
    profiles lo, lo + 1, ... into the rows of out, so each trial worker
    makes its profiles in its own block buffer.

    The first two entries of each row fix that order.  A spike past
    n = 1 starts with 1e-6 and every other profile with 1, so those
    spikes come first, the later one first (it has 1e-6 where the other
    has its 1).  The rest follow by their second entries: 1e-6 (the
    spike at n = 1), 2^-2, 2^-1.1, 2^-0.6, 1 (flat) and 2^0.5.  At N = 2
    one spike lies past n = 1; at N = 1 every profile is the row 1.
    """
    n = np.arange(1, N + 1, dtype=np.float64)

    def spike(pos):
        def make(row):
            row.fill(1e-6)
            row[pos] = 1.0
        return make

    def power(s):
        def make(row):
            row[...] = n ** s
        return make

    later = (N - 1, N // 2) if N > 2 else (N - 1,)
    makers = [*map(spike, (*later, 0)), *map(power, (-2.0, -1.1, -0.6)),
              lambda row: row.fill(1.0), power(0.5)]
    if N == 1:
        del makers[1:]

    def fill(lo, out):
        for make, row in zip(makers[lo:], out):
            make(row)

    return len(makers), fill


def strengthened_trials(case: StrengthenedCase, w: WeightSequence,
                        trials: int = 200, seed: int = 0) -> StrengthenedReport:
    """Deterministic profiles plus seeded log-uniform trials; reports the
    worst (largest) ratios over the whole batch.  The first `trials`
    profiles lead the batch's rows, made and evaluated by the trial
    workers as blocks of their own (trial_rows' lead)."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    L, sums, bounds = _case_ratios(case, w)
    n_det, fill = _profile_rows(w.N)
    S = trial_rows(w.N, max(0, trials - n_det), seed, sums,
                   lead=(min(trials, n_det), fill))
    return _report(case, w, L, S, bounds,
                   note=f"{n_det} deterministic profiles")


# ----------------------------------------------------------------------
# Closed-form mu choices behind the inductive proofs


@dataclass(frozen=True)
class MuChoiceReport:
    """Per-index slack of the sufficient inequality for one mu choice."""

    choice: str
    p: float
    c: float | None
    L: float | None
    N: int
    target: float
    min_value: float
    min_margin: float
    argmin: int
    feasible: bool
    infeasible_at: int | None
    identity_residual: float | None
    passed: bool
    note: str = ""

    to_dict = record_dict


def _finish_choice(choice: str, p: float, c: float | None, L: float | None,
                   N: int, values: np.ndarray, target: float, mu, shift: int,
                   identity_residual: float | None) -> MuChoiceReport:
    """The report of values >= target at n = 1..N-1, run by _num.fold,
    infeasible at the first mu (if given) outside (0, 1), whose index
    plus shift is its n."""
    out = np.flatnonzero(~((mu > 0.0) & (mu < 1.0))) if mu is not None else ()
    infeasible_at = int(out[0]) + shift if len(out) else None
    bad, worst = fold(lambda lo, hi: (values[lo:hi], target), N - 1)
    return MuChoiceReport(
        choice=choice, p=p, c=c, L=L, N=N, target=target,
        min_value=float(np.min(values)), min_margin=worst,
        argmin=int(np.argmin(values - target)) + 1,
        feasible=infeasible_at is None, infeasible_at=infeasible_at,
        identity_residual=identity_residual,
        passed=bad is None and infeasible_at is None)


def verify_mu_choice(choice: str, w: WeightSequence, p: float,
                     c: float | None = None,
                     L: float | None = None) -> MuChoiceReport:
    """Check the per-index sufficient inequality for a closed-form mu.

    choice "cartlidge":  mu_n = 1/p + (1-1/p) lam_n/Lam_n; for n <= N-1
        p Lam_n mu_n / lam_n
          - (1-mu_{n+1})^(1-p) (1-1/p)^(p-1) (Lam_n/Lam_{n+1})^p
            (Lam_{n+1}/lam_{n+1})  >=  p - L.
    choice "copson" (1 < c <= p):
        mu_n = 1 - (1-1/p)(1 - lam_n/Lam_n)^((c-1)/(p-1)); the middle term
        with exponent c on Lam_n/Lam_{n+1} and trailing Lam_{n+1}/lam_n
        collapses to Lam_n/lam_n (identity reported), and the slack
        against target c - 1 stays nonnegative.
    choice "leindler" (0 <= c < 1):  mu_n = 1/p on the tail partials;
        value is Lam*_n/lam_n - (Lam*_n/Lam*_{n+1})^c Lam*_{n+1}/lam_n,
        target 1 - c (exactly zero slack at c = 0).
    choice "dual":  mu_n = 1 - (1-1/p) lam_n/lam_{n+1}, target
        p - (p-1) L with the boundary index n = 1 checked separately
        (its middle term is empty).

    Feasibility demands mu_n < 1 wherever (1-mu_n)^(1-p) is consumed
    (mu_1 = 1 exactly is fine for the prefix choices since only
    mu_{n+1}, n >= 1 enters there) and additionally mu_n > 0 for the
    dual choice.  c is for the copson and leindler choices only, L for
    the cartlidge and dual ones.
    """
    if choice not in MU_CHOICES:
        raise ValueError(f"unknown mu choice {choice!r}")
    if choice in ("copson", "leindler") and L is not None:
        raise ValueError(f"{choice} choice takes no L")
    if choice in ("cartlidge", "dual") and c is not None:
        raise ValueError(f"{choice} choice takes no c")
    if not (p > 1.0):
        raise ValueError("need p > 1")
    if w.N < 2:
        raise ValueError("need at least two weights")
    lam, Lam, Lt = w.values, w.partials, w.tails
    N = w.N
    op = (1.0 - 1.0 / p)

    if choice in ("cartlidge", "copson"):
        if choice == "copson":
            if c is None or not (1.0 < c <= p):
                raise ValueError("copson choice needs 1 < c <= p")
            mu = 1.0 - op * (1.0 - lam / Lam) ** ((c - 1.0) / (p - 1.0))
            expo, last, target = c, lam[:-1], c - 1.0
        else:
            L = cartlidge_constant(w) if L is None else L
            if not (L < p):
                raise ValueError("cartlidge choice needs L < p")
            mu = 1.0 / p + op * lam / Lam
            expo, last, target = p, lam[1:], p - L
        # mu_{n+1}, n = 1..N-1, are all < 1 (and > 0) when feasible
        middle = ((1.0 - mu[1:]) ** (1.0 - p) * op ** (p - 1.0)
                  * (Lam[:-1] / Lam[1:]) ** expo * (Lam[1:] / last))
        ref = Lam[:-1] / lam[:-1]
        residual = (float(np.max(np.abs(middle - ref) / ref))
                    if choice == "copson" else None)
        values = p * Lam[:-1] * mu[:-1] / lam[:-1] - middle
        return _finish_choice(choice, p, c, L, N, values, target, mu[1:], 2,
                              residual)

    if choice == "leindler":
        if c is None or not (0.0 <= c < 1.0):
            raise ValueError("leindler choice needs 0 <= c < 1")
        mu = 1.0 / p
        unit = (1.0 - mu) ** (1.0 - p) * op ** (p - 1.0)
        residual = abs(unit - 1.0)
        # value = (Lt_n/lam_n)(1 - (Lt_{n+1}/Lt_n)^(1-c)) with
        # Lt_{n+1}/Lt_n = 1 - lam_n/Lt_n.  The naive difference of the
        # two tail terms cancels catastrophically once lam_n drops below
        # the ulp of the tail partial (fast-growing weights), so the
        # inner factor is evaluated through expm1/log1p instead.
        frac = lam[:-1] / Lt[:-1]
        values = -(Lt[:-1] / lam[:-1]) * np.expm1(
            (1.0 - c) * np.log1p(-frac))
        return _finish_choice("leindler", p, c, None, N, values, 1.0 - c,
                              None, 0, residual)

    # dual choice
    if L is None:
        L = cartlidge_constant(w)
    if not (L < p / (p - 1.0)):
        raise ValueError("dual choice needs L < p/(p-1)")
    mu = 1.0 - op * lam[:-1] / lam[1:]      # mu_n, n = 1..N-1
    target = p - (p - 1.0) * L
    values = np.empty(N - 1)
    values[0] = p * mu[0]                   # Lam_1 = lam_1
    residual = None
    if N >= 3:
        prev = mu[:-1]                      # mu_{n-1}, n = 2..N-1
        middle = ((1.0 - prev) ** (1.0 - p) * op ** (p - 1.0)
                  * (lam[:-2] / lam[1:-1]) ** p * (Lam[:-2] / lam[:-2]))
        ref = Lam[:-2] / lam[1:-1]
        residual = float(np.max(np.abs(middle - ref) / ref))
        values[1:] = p * Lam[1:-1] * mu[1:] / lam[1:-1] - middle
    return _finish_choice("dual", p, None, L, N, values, target, mu, 1,
                          residual)


__all__ = [
    "KINDS", "MU_CHOICES", "StrengthenedCase", "StrengthenedReport",
    "tail_cartlidge_constant", "check_strengthened", "strengthened_trials",
    "MuChoiceReport", "verify_mu_choice",
]
