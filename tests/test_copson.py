"""Prefix/tail mean inequalities: root, kernel, branches, mu recurrences."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcert import (BRANCHES, PASS_RTOL, admissible_alpha, admissible_c,
                    branch_constant, build_weights, check_bge,
                    check_copson_branch,
                    check_kernel_inequality, copson_root, copson_threshold,
                    mu_bge, mu_dual_copson, near_extremal_schedule)
from lpcert.copson import branch_parts
from lpcert.factorable import bge_steps

# roots of (1 + (1-c)/p)^(1-p) = (1-c)/p pinned by an independent
# high-precision solver (mpmath at 50 digits), frozen here
PINNED_ROOTS = {
    1.5: -0.13231649937003914,
    2.0: -0.23606797749978970,
    3.0: -0.39671369563030408,
    4.0: -0.52111027639045646,
}


@pytest.mark.parametrize("p,root", sorted(PINNED_ROOTS.items()))
def test_copson_root_matches_pinned_values(p, root):
    res = copson_root(p)
    assert res.root == pytest.approx(root, abs=2e-14)
    assert abs(res.residual) <= 1e-13


def test_copson_root_matches_scipy_brentq():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    from lpcert.copson import _threshold_gap
    ps = np.concatenate([1.0 + np.geomspace(1e-6, 1e3, 400),
                         np.linspace(1.01, 20.0, 200)])
    for p in ps.tolist():
        lo = -50.0
        while _threshold_gap(lo, p) >= 0.0:
            lo *= 10.0
        root, info = scipy_optimize.brentq(
            _threshold_gap, lo, 0.0, args=(p,), xtol=1e-15, rtol=8.9e-16,
            full_output=True)
        res = copson_root(p)
        assert (res.root, res.iterations) == (root, info.iterations), p


def test_copson_root_p2_closed_form():
    # at p = 2 the defining equation reduces to a quadratic with root
    # 2 - sqrt(5)
    res = copson_root(2.0)
    assert res.root == pytest.approx(2.0 - math.sqrt(5.0), abs=1e-10)
    assert copson_threshold(2.0) == pytest.approx(math.sqrt(5.0), abs=1e-10)


def test_admissible_c_flips_at_threshold():
    assert admissible_c(2.0, 2.236)
    assert not admissible_c(2.0, 2.237)
    assert admissible_c(2.0, 2.0)


def test_kernel_inequality_pass_and_fail():
    ok = check_kernel_inequality(2.0, 2.23)
    assert ok.passed
    assert ok.min_margin == pytest.approx(0.0, abs=1e-12)
    assert ok.argmin == pytest.approx(0.0, abs=1e-6)
    bad = check_kernel_inequality(2.0, 2.30)
    assert not bad.passed
    assert bad.argmin == pytest.approx(1.0, abs=1e-6)
    # by hand at y = 1: LHS = 1 + 1.3/2 = 1.65, RHS = (0.65)^-1
    assert bad.min_margin == pytest.approx(1.0 / 0.65 - 1.65, rel=1e-10)


def test_branch_constants():
    assert branch_constant("copson_prefix", 2.0, 2.0) == pytest.approx(2.0)
    assert branch_constant("copson_tail", 2.0, 0.5) == pytest.approx(4.0)
    assert branch_constant("leindler_prefix", 3.0, 0.0) == pytest.approx(3.0)
    assert branch_constant("leindler_tail", 3.0, 2.5) == pytest.approx(2.0)


def fraction_branch_ratio(lam, x, branch, p_int, c_int):
    """Exact rational evaluation of one branch at integer p, c."""
    lam = [Fraction(v) for v in lam]
    x = [Fraction(v) for v in x]
    n = len(lam)
    partials = []
    total = Fraction(0)
    for v in lam:
        total += v
        partials.append(total)
    tails = []
    total = Fraction(0)
    for v in reversed(lam):
        total += v
        tails.append(total)
    tails.reverse()
    base = partials if branch.startswith("copson") else tails
    inner_prefix = branch in ("copson_prefix", "leindler_prefix")
    sums = []
    if inner_prefix:
        run = Fraction(0)
        for k in range(n):
            run += lam[k] * x[k]
            sums.append(run)
    else:
        run = Fraction(0)
        rsums = []
        for k in reversed(range(n)):
            run += lam[k] * x[k]
            rsums.append(run)
        sums = list(reversed(rsums))
    inner = [s / b for s, b in zip(sums, base)]
    u = [lam[k] * base[k] ** (p_int - c_int) for k in range(n)]
    if branch in ("copson_prefix", "leindler_tail"):
        konst = Fraction(p_int, c_int - 1) ** p_int
    else:
        konst = Fraction(p_int, 1 - c_int) ** p_int
    lhs = sum(uk * av ** p_int for uk, av in zip(u, inner))
    rhs = konst * sum(uk * xv ** p_int for uk, xv in zip(u, x))
    return lhs / rhs


@pytest.mark.parametrize("branch,c", [
    ("copson_prefix", 2), ("copson_tail", 0),
    ("leindler_prefix", 0), ("leindler_tail", 2),
])
def test_branch_ratio_matches_exact_fraction_oracle(branch, c):
    lam = [1, 2, 3, 2, 1]
    x = [5, 1, 4, 2, 3]
    exact = fraction_branch_ratio(lam, x, branch, 2, c)
    assert exact <= 1
    w = build_weights("explicit", 5, values=np.array(lam, dtype=float))
    X = np.array([x], dtype=float)
    inner, u = branch_parts(w, X, branch, 2.0, float(c))
    lhs = float(np.sum(u * inner ** 2, axis=-1)[0])
    rhs = float(branch_constant(branch, 2.0, float(c)) ** 2
                * np.sum(u * X ** 2, axis=-1)[0])
    assert lhs / rhs == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("branch", BRANCHES)
def test_branch_trials_never_violate(branch):
    w = build_weights("power", 100, exponent=1.0)
    c = 1.8 if branch in ("copson_prefix", "leindler_tail") else 0.3
    rep = check_copson_branch(w, 2.0, c, branch, trials=200, seed=1)
    assert rep.passed
    assert rep.max_ratio <= 1.0 + 1e-10


def test_branch_rejects_out_of_range_c():
    w = build_weights("constant", 10)
    with pytest.raises(ValueError):
        check_copson_branch(w, 2.0, 2.5, "copson_prefix")
    with pytest.raises(ValueError):
        check_copson_branch(w, 2.0, 1.5, "copson_tail")
    with pytest.raises(ValueError):
        check_copson_branch(w, 2.0, -0.1, "leindler_prefix")


def _log_copson_prefix_ratio(w, p, c, x):
    """log of one copson_prefix trial's LHS/RHS ratio, every power sum
    summed in log space (a logsumexp), where no term can underflow."""
    Lam = w.partials
    log_u = np.log(w.values) + (p - c) * np.log(Lam)
    x = x / np.max(x)
    inner = np.cumsum(w.values * x) / Lam
    lhs = np.logaddexp.reduce(p * np.log(inner) + log_u)
    rhs = np.logaddexp.reduce(p * np.log(x) + log_u)
    return lhs - rhs - p * math.log(branch_constant("copson_prefix", p, c))


def test_branch_ratio_at_large_p_is_evidence_not_underflow():
    # copson_prefix at p = 40: the worst of 50 trials has LHS/RHS about
    # 4.6e-105, since random vectors are far from extremal there, but no
    # power sum left the binary64 range: in log space it is the same
    w = build_weights("constant", 2000)
    rep = check_copson_branch(w, 40.0, 2.0, "copson_prefix", trials=50)
    assert rep.passed and 1e-106 < rep.max_ratio < 1e-104
    U = np.random.default_rng(0).uniform(-3.0, 3.0, (50, 2000))
    x = 10.0 ** U[rep.argmin - 1]
    assert math.log(rep.max_ratio) == pytest.approx(
        _log_copson_prefix_ratio(w, 40.0, 2.0, x), rel=1e-12)


@pytest.mark.parametrize("branch, p, c", [
    # every LHS sum underflows to 0 (a ratio of 0.0 that passed), its
    # true ratio being about 2e-184
    ("leindler_prefix", 60.0, 0.5),
    # the RHS weights u_n = Lam_n^98 overflow (a NaN ratio that failed)
    ("copson_prefix", 100.0, 2.0),
])
def test_branch_power_sums_out_of_range_are_domain_errors(branch, p, c):
    w = build_weights("constant", 2000)
    with pytest.raises(ValueError, match=f"{branch} power sums leave the "
                       f"binary64 range at p = {p:g}"):
        check_copson_branch(w, p, c, branch, trials=50)


def test_near_extremal_schedule_monotone_toward_one():
    sched = near_extremal_schedule(2.0, 2.0, n_start=64, n_stop=4096)
    ratios = [r for _, r in sched]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1.0


def test_near_extremal_schedule_names_an_out_of_range_K_p():
    # K = p/(c-1) = 1e6, so K^p = 1e600; the branch trials give the same
    # domain error for this K^p
    with pytest.raises(ValueError, match=r"^K\^p leaves the binary64 range$"):
        near_extremal_schedule(100.0, 1.0001, n_stop=1000)
    w = build_weights("constant", 1000)
    with pytest.raises(ValueError, match=r"^K\^p leaves the binary64 range$"):
        check_copson_branch(w, 100.0, 1.0001, "copson_prefix", trials=1)


def test_bge_spike_hand_value():
    # constant weights, alpha = 1, p = 2, N = 2, x = (0, 1):
    # LHS = (Lam_2)^2 + (Lam_2)^2 = 8, RHS = 9 (1 + 4) = 45
    w = build_weights("constant", 2)
    lam, Lam = w.values, w.partials
    x = np.array([0.0, 1.0])
    from lpcert import suffix_sums
    lhs = float(np.sum(lam * suffix_sums(Lam * x) ** 2))
    rhs = float((1 * 2 + 1) ** 2 * np.sum(lam * Lam ** 2 * suffix_sums(x) ** 2))
    assert lhs == pytest.approx(8.0, abs=0.0)
    assert rhs == pytest.approx(45.0, abs=0.0)
    assert lhs / rhs <= 1.0


@pytest.mark.parametrize("p,alpha", [(2.0, 0.75), (2.0, 1.0), (1.5, 2.0 / 3.0)])
def test_bge_trials_pass_on_proven_range(p, alpha):
    w = build_weights("constant", 200)
    rep = check_bge(w, p, alpha, trials=200, seed=0)
    assert rep.passed


def test_admissible_alpha_boundary():
    assert admissible_alpha(2.0, 0.75)
    assert not admissible_alpha(2.0, 0.74)
    assert admissible_alpha(1.5, 2.0 / 3.0)


def test_mu_dual_copson_hand_values():
    w = build_weights("constant", 3)
    trace = mu_dual_copson(w, 2.0, 2.0)
    assert trace.mu[0] == pytest.approx(0.25, abs=0.0)
    assert trace.mu[1] == pytest.approx(7.0 / 12.0, rel=1e-14)
    assert trace.mu[2] == pytest.approx(153.0 / 164.0, rel=1e-13)
    assert trace.passed


def test_mu_dual_copson_threshold_flip():
    w = build_weights("constant", 2000)
    assert mu_dual_copson(w, 2.0, 2.236).passed
    assert not mu_dual_copson(w, 2.0, 2.237).passed


def test_mu_bge_routes_agree_with_hand_values():
    w = build_weights("constant", 100)
    dual = mu_bge(w, 2.0, 1.0, route="dual")
    assert dual.mu[0] == pytest.approx(0.25, abs=0.0)
    assert dual.mu[1] == pytest.approx(7.0 / 12.0, rel=1e-14)
    assert dual.passed
    primal = mu_bge(w, 2.0, 1.0, route="primal")
    assert primal.mu[1] == pytest.approx(0.75, rel=1e-14)
    assert primal.passed
    # the analytic floor at n = 2 is 1/2 for these parameters, a margin
    # of 1/4 under mu_2, and the worst margin is no larger
    floor_2 = (w.values[0] / w.partials[0]) / (2.0 * bge_steps(w, 1.0)[0] ** 2)
    assert primal.mu[1] - floor_2 == pytest.approx(0.25, rel=1e-12)
    assert primal.worst_margin <= primal.mu[1] - floor_2


def test_mu_bge_rejects_bad_routes_and_domains():
    w = build_weights("constant", 10)
    with pytest.raises(ValueError):
        mu_bge(w, 2.0, 1.0, route="sideways")
    with pytest.raises(ValueError):
        mu_bge(w, 2.0, 0.4, route="primal")
    assert not mu_bge(w, 2.0, 0.3, route="dual").passed
    # stalled partial sums are reported before a too small alpha
    stalled = build_weights("geometric", 5000, ratio=0.99)
    with pytest.raises(ValueError, match="power differences"):
        mu_bge(stalled, 2.0, 0.4, route="primal")
    # alpha is tested before lam_p = ((p-1)/(alpha p))^p is formed, so a
    # power above the binary64 range is no OverflowError, and a lam_p
    # that underflows is named
    with pytest.raises(ValueError, match="primal route needs alpha > 1 - 1/p"):
        mu_bge(w, 2000.0, 0.1, route="primal")
    with pytest.raises(ValueError,
                       match=r"lam_p = \(\(p-1\)/\(alpha p\)\)\^p underflows"):
        mu_bge(build_weights("constant", 50), 5000.0, 1.2, route="primal")


@pytest.mark.parametrize("route", ["dual", "primal"])
def test_mu_bge_rejects_an_overflowing_a_n_before_its_first_step(route):
    # a_2 = lam_2^(1-1/p)/s_2 of bge_matrix is about 1.35 Lam_2 here,
    # past the binary64 range, while U_p = (alpha p/(p-1))^p still fits
    w = build_weights("explicit", 3, values=np.array([1.5e308, 2e295, 2e295]))
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="a and b must be finite"):
            mu_bge(w, 100.0, 8.4e-4, route=route)


# Reference loops: the Copson and blocked-tail dual recurrences exactly
# as the mu_dual_copson / mu_bge docstrings state them, independent of
# the factorable matrices the library runs them through.

def _first_above(mu, envelope):
    """1-based first index where mu exceeds the envelope beyond the
    verdict slack, or None."""
    margins = envelope - mu
    scales = np.maximum(np.maximum(np.abs(envelope), np.abs(mu)), 1.0)
    bad = np.flatnonzero(~(margins >= -PASS_RTOL * scales))
    return int(bad[0]) + 1 if bad.size else None


def _copson_dual_reference(w, p, c):
    lam, Lam = w.values.tolist(), w.partials.tolist()
    q = p / (p - 1.0)
    mu, first = [((c - 1.0) / p) ** q], None
    for n in range(1, w.N + 1):
        if not (mu[-1] < (Lam[n - 1] / lam[n - 1]) ** q):
            first = n
            break
        if n == w.N:
            break
        t = lam[n - 1] / Lam[n - 1]
        D = mu[-1] ** (-1.0 / (q - 1.0)) - t ** (q / (q - 1.0))
        if not (D > 0.0):
            first = n
            break
        mu.append(mu[0] + t * (Lam[n - 1] / Lam[n]) ** ((c - 1.0) / (p - 1.0))
                  * (Lam[n] / lam[n]) / D ** (q - 1.0))
    mu = np.array(mu)
    R = (w.partials / w.values)[:mu.shape[0]]
    envelope = R * (1.0 / R + p / (c - 1.0)) ** (1.0 - q)
    return first, _first_above(mu, envelope), mu


def _bge_dual_reference(w, p, alpha):
    lam, Lam = w.values.tolist(), w.partials.tolist()
    q = p / (p - 1.0)
    s = [1.0] + [1.0 - (Lam[n - 2] / Lam[n - 1]) ** alpha
                 for n in range(2, w.N + 1)]
    mu, first = [((p - 1.0) / (alpha * p)) ** q], None
    for n in range(1, w.N + 1):
        if not (mu[-1] < s[n - 1] ** (-q)):
            first = n
            break
        if n == w.N:
            break
        D = mu[-1] ** (-1.0 / (q - 1.0)) - s[n - 1] ** (q / (q - 1.0))
        if not (D > 0.0):
            first = n
            break
        mu.append(mu[0] + (lam[n - 1] / lam[n]) / D ** (q - 1.0))
    mu = np.array(mu)
    k = mu.shape[0]
    A = alpha ** q * q ** (q - 1.0)
    sk = np.array(s[:k])
    envelope = (sk ** (q / (q - 1.0))
                + (A * w.values[:k] / w.partials[:k]) ** (1.0 / (q - 1.0))
                ) ** (1.0 - q)
    return first, _first_above(mu, envelope), mu


REFERENCE_WEIGHTS = {"constant": {}, "power": {"exponent": 0.7},
                     "geometric": {"ratio": 1.0005}}


@pytest.mark.parametrize("kind", sorted(REFERENCE_WEIGHTS))
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("family,c_or_alpha", [
    ("copson", 1.5), ("copson", 2.236), ("copson", 2.237), ("copson", 3.2),
    ("bge", 0.3), ("bge", 0.7), ("bge", 0.8), ("bge", 1.2)])
def test_family_dual_traces_match_docstring_recurrences(kind, p, family,
                                                        c_or_alpha):
    w = build_weights(kind, 2000, **REFERENCE_WEIGHTS[kind])
    _assert_matches_reference(w, p, family, c_or_alpha)


# Partial sums whose powers leave binary64 while the ratios stay moderate:
# Lam_n reaches about 1e213 for geometric:1.05 at N = 1e4, and
# Lam_n^alpha overflows for alpha = 1000 on constant weights at N = 1000.
@pytest.mark.parametrize("kind,param,N,p,family,c_or_alpha", [
    ("geometric", {"ratio": 1.05}, 10_000, 2.0, "copson", 3.0),
    ("geometric", {"ratio": 1.05}, 10_000, 2.0, "bge", 1.5),
    ("geometric", {"ratio": 1.05}, 10_000, 3.0, "bge", 0.8),
    ("constant", {}, 1000, 2.0, "bge", 1000.0),
], ids=["copson-geometric-c3", "bge-geometric-a1.5", "bge-geometric-p3-a0.8",
        "bge-constant-a1000"])
def test_family_dual_traces_survive_large_partial_sums(kind, param, N, p,
                                                       family, c_or_alpha):
    w = build_weights(kind, N, **param)
    _assert_matches_reference(w, p, family, c_or_alpha)


def _assert_matches_reference(w, p, family, c_or_alpha):
    if family == "copson":
        trace = mu_dual_copson(w, p, c_or_alpha)
        first, target, ref = _copson_dual_reference(w, p, c_or_alpha)
    else:
        trace = mu_bge(w, p, c_or_alpha, route="dual")
        first, target, ref = _bge_dual_reference(w, p, c_or_alpha)
    assert trace.first_violation == first
    assert trace.target_violation == target
    assert trace.n_evaluated == ref.shape[0]
    assert np.allclose(trace.mu, ref, rtol=1e-9, atol=0.0)


@given(st.integers(min_value=2, max_value=40),
       st.floats(min_value=1.1, max_value=1.9))
@settings(max_examples=60, deadline=None)
def test_copson_prefix_random_instances_stay_below_one(n, c):
    rng = np.random.default_rng(n)
    w = build_weights("explicit", n, values=rng.uniform(0.5, 2.0, size=n))
    x = rng.uniform(0.1, 10.0, size=n)
    X = np.array([x])
    inner, u = branch_parts(w, X, "copson_prefix", 2.0, c)
    lhs = float(np.sum(u * inner ** 2, axis=-1)[0])
    rhs = float(branch_constant("copson_prefix", 2.0, c) ** 2
                * np.sum(u * X ** 2, axis=-1)[0])
    assert lhs <= rhs * (1.0 + 1e-10)
