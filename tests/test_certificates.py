"""Norm-bound certificates: conditions, implications, and mu traces."""

import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcert import (BoundParams, FactorableSpec, build_weights,
                    cartlidge_constant, cesaro,
                    check_cartlidge,
                    check_factorable_product, check_factorable_stepwise,
                    check_product_condition, check_ratio_condition,
                    check_stepwise_p2, comparability_pair, mu_dual, mu_primal,
                    power_lower_bound, ratio_at, trace_report, weighted_mean)
from lpcert import _kernel
from lpcert._num import (_ROW_CHUNK, PASS_RTOL, MuTrace, fold, margin_ok,
                         passes)
from lpcert.certificates import CertificateReport
from lpcert.cli import CERTIFY_METHODS, run_certificate, search_smallest_L
from lpcert.copson import _with_envelope

weight_arrays = st.lists(
    st.floats(min_value=1e-2, max_value=1e2, allow_nan=False,
              allow_infinity=False),
    min_size=3, max_size=40,
).map(np.array)


def test_cartlidge_constant_closed_forms():
    assert cartlidge_constant(build_weights("constant", 50)) == 1.0
    # lam_n = n: Lam_n/lam_n = (n+1)/2, increments exactly 1/2
    assert cartlidge_constant(
        build_weights("power", 50, exponent=1.0)) == pytest.approx(0.5, abs=1e-12)
    # lam_n = 2^n: ratios (2 - 2^{1-n}), first increment 1/2 is the largest
    assert cartlidge_constant(
        build_weights("geometric", 20, ratio=2.0)) == pytest.approx(0.5, abs=1e-13)


def test_check_cartlidge_constant_weights_pass_and_bound():
    rep = check_cartlidge(build_weights("constant", 100), 2.0, 1.0)
    assert rep.passed
    assert rep.bound == pytest.approx(2.0, rel=1e-15)
    rep2 = check_cartlidge(build_weights("constant", 100), 2.0, 0.5)
    assert not rep2.passed


def test_bound_params_derived_quantities():
    params = BoundParams(p=2.0, L=1.0)
    assert params.q == pytest.approx(2.0)
    assert params.bound == pytest.approx(2.0)
    assert params.lam_p == pytest.approx(0.25)
    assert params.U_p == pytest.approx(4.0)


@given(weight_arrays, st.floats(min_value=1.2, max_value=4.0))
@settings(max_examples=80, deadline=None)
def test_ratio_condition_implies_product_condition(vals, p):
    w = build_weights("explicit", len(vals), values=vals)
    L = min(cartlidge_constant(w) * 1.01 + 1e-9, 0.999 * p)
    if not (0.0 < L < p):
        return
    if check_ratio_condition(w, p, L).passed:
        assert check_product_condition(w, p, L).passed


@given(weight_arrays, st.floats(min_value=1.2, max_value=4.0))
@settings(max_examples=80, deadline=None)
def test_cartlidge_implies_ratio_condition(vals, p):
    w = build_weights("explicit", len(vals), values=vals)
    L = min(cartlidge_constant(w) * 1.01 + 1e-9, 0.999 * p)
    if not (0.0 < L < p):
        return
    if check_cartlidge(w, p, L).passed:
        assert check_ratio_condition(w, p, L).passed


@given(weight_arrays)
@settings(max_examples=80, deadline=None)
def test_stepwise_specialization_agrees_at_p2(vals):
    w = build_weights("explicit", len(vals), values=vals)
    L = min(cartlidge_constant(w), 1.9)
    if not (0.0 < L < 2.0):
        return
    general = check_factorable_stepwise(weighted_mean(w), 2.0, L).passed
    special = check_stepwise_p2(w, L).passed
    assert general == special


def test_comparability_pair_separates_the_two_tests():
    a, b = comparability_pair()
    assert check_stepwise_p2(a, 1.0).passed
    assert not check_ratio_condition(a, 2.0, 1.0).passed
    assert not check_stepwise_p2(b, 1.0).passed
    assert check_ratio_condition(b, 2.0, 1.0).passed


def _seeded_weight_lists(sizes=(2, 3, 50, 200)):
    """Six seeded lists at each N: log-uniform positive weights in
    [0.1, 10] on even seeds, increasing ones (0.05 plus a running sum of
    U(0, 1)) on odd seeds."""
    for N in sizes:
        for seed in range(6):
            rng = np.random.default_rng([N, seed])
            values = (10.0 ** rng.uniform(-1.0, 1.0, N) if seed % 2 == 0
                      else 0.05 + np.cumsum(rng.uniform(0.0, 1.0, N)))
            yield build_weights("explicit", N, values=values)


def test_product_condition_on_factorable_matches_weight_form():
    # one evaluator: the weight form is the factorable report on
    # weighted_mean(w), digit for digit, under its own method name
    for w in _seeded_weight_lists():
        for p in (1.5, 2.0, 3.0):
            for L in (0.1 * p, 0.5 * p, 0.9 * p):
                rep_w = check_product_condition(w, p, L)
                rep_f = check_factorable_product(weighted_mean(w), p, L)
                assert rep_w.method == "product"
                assert rep_w == replace(rep_f, method="product"), (w.N, p, L)


def _exact_stepwise_p2_worst_margin(w, L: float) -> Fraction:
    """check_stepwise_p2's smallest margin, evaluated exactly from the
    binary64 weights and partial sums."""
    L = Fraction(L)
    k = L * L / 4 * (1 + L / 2) / (1 - L / 2)
    R = [Fraction(s) / Fraction(v) for s, v in zip(w.partials.tolist(),
                                                   w.values.tolist())]
    return min(L + k / (R1 + L / 2) - (R1 - R0) for R0, R1 in zip(R, R[1:]))


@pytest.mark.parametrize("kind, param", [
    ("constant", None), ("power", 0.5), ("power", 1.0), ("power", 2.0),
    ("geometric", 1.1)])
def test_stepwise_p2_margins_are_accurate(kind, param):
    # the reason check_stepwise_p2 is kept beside check_factorable_stepwise:
    # at the smallest L it accepts, its worst margin, in units of
    # R_{n+1} - R_n, is the exact one to within 1e-13 (measured: 1.7e-14
    # at most); the general form's margins are products of size up to
    # about R_n^3, whose 1e-12 relative pass slack admits a smaller L
    opts = ({"exponent": param} if kind == "power"
            else {"ratio": param} if kind == "geometric" else {})
    w = build_weights(kind, 200, **opts)
    L = search_smallest_L("stepwise-p2", w, 2.0)
    got = check_stepwise_p2(w, L).worst_margin
    exact = _exact_stepwise_p2_worst_margin(w, L)
    assert abs(Fraction(got) - exact) <= Fraction(1e-13), (got, float(exact))


@pytest.mark.parametrize("method", CERTIFY_METHODS)
def test_certificate_bounds_hold_against_norm_probe(method):
    # the bound certified at the smallest L the search accepts must
    # dominate the dense 2-norm and the power iteration's lower bound
    p = 2.0
    for w in _seeded_weight_lists():
        L = search_smallest_L(method, w, p)
        if L is None:
            continue
        bound = BoundParams(p, L).bound
        spec = weighted_mean(w)
        norm = float(np.linalg.norm(spec.to_dense(), 2))
        assert bound >= norm * (1.0 - 1e-12), (w.N, L, bound, norm)
        assert power_lower_bound(spec, p).lower_bound <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("p", [1.3, 3.5])
@pytest.mark.parametrize("method", [m for m in CERTIFY_METHODS
                                    if m != "stepwise-p2"])
def test_certificate_bounds_hold_against_power_iteration(method, p):
    # away from p = 2 there is no dense norm; the bound certified at the
    # smallest L the search accepts must still dominate the power
    # iteration's lower bound on ||M_N||_p
    checked = 0
    for w in _seeded_weight_lists(sizes=(50, 200)):
        L = search_smallest_L(method, w, p)
        if L is None:
            continue
        lower = power_lower_bound(weighted_mean(w), p).lower_bound
        assert lower <= BoundParams(p, L).bound * (1.0 + 1e-12), (w.N, L)
        checked += 1
    assert checked


def test_mu_primal_cesaro_hand_values():
    # p = 2, lam_p = 1/4: mu_1 = 1, mu_2 = 4/(1 + 1)^1 * 1... evaluated
    # by hand: mu_2 = 2^2 * 1 / (1 + 1)^1 ... = 3/4 after subtracting
    trace = mu_primal(cesaro(10), 2.0, 0.25)
    assert trace.mu[0] == pytest.approx(1.0, abs=0.0)
    assert trace.mu[1] == pytest.approx(0.75, rel=1e-14)
    assert trace.mu[2] == pytest.approx(41.0 / 28.0, rel=1e-12)
    assert trace.passed


def test_mu_primal_fails_for_overclaimed_bound():
    # lam_p too large (claiming a bound below the true norm) must die
    trace = mu_primal(cesaro(2000), 2.0, 0.5)
    assert not trace.passed
    assert trace.first_violation is not None


def test_mu_dual_cesaro_hand_values():
    trace = mu_dual(cesaro(10), 2.0, 4.0)
    assert trace.mu[0] == pytest.approx(0.25, abs=0.0)
    assert trace.mu[1] == pytest.approx(7.0 / 12.0, rel=1e-14)
    assert trace.mu[2] == pytest.approx(153.0 / 164.0, rel=1e-13)
    assert trace.passed
    assert trace.constraint.startswith("mu <")


def test_mu_dual_fails_below_norm():
    # U_p = 3 claims bound 3^(1/2)·... below the Cesaro norm: the
    # ceiling must break at some finite index
    trace = mu_dual(cesaro(5000), 2.0, 3.0)
    assert not trace.passed


def _mu_dual_reference(spec, p, U_p):
    """mu_dual's docstring recurrence as a plain scalar loop:
    (first violation, mu values)."""
    a, b = spec.a.tolist(), spec.b.tolist()
    q = p / (p - 1.0)
    mu = [U_p ** (-q / p)]
    for n in range(1, spec.N + 1):
        r = a[n - 1] / b[n - 1]
        if not (mu[-1] < r ** q):
            return n, mu
        if n == spec.N:
            return None, mu
        inner = r ** (q / (q - 1.0)) * mu[-1] ** (-1.0 / (q - 1.0)) - 1.0
        if not (inner > 0.0):
            return n, mu
        mu.append(mu[0] + (a[n - 1] / b[n]) ** q / inner ** (q - 1.0))


@pytest.mark.parametrize("kind,param", [("constant", None), ("power", 0.7),
                                        ("power", -0.5),
                                        ("geometric", 1.0005)])
@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("L", [0.5, 0.9, 1.2])
def test_mu_dual_matches_scalar_reference(kind, param, p, L):
    extra = {"power": {"exponent": param}, "geometric": {"ratio": param},
             "constant": {}}[kind]
    spec = weighted_mean(build_weights(kind, 2000, **extra))
    U_p = BoundParams(p, L).U_p
    trace = mu_dual(spec, p, U_p)
    first, ref = _mu_dual_reference(spec, p, U_p)
    ref = np.array(ref)
    assert trace.first_violation == first
    assert trace.n_evaluated == ref.shape[0]
    # the worst margin is the smallest ceiling margin (a_n/b_n)^q - mu_n
    ceilings = spec.row_ratios[:trace.n_evaluated] ** (p / (p - 1.0))
    assert trace.worst_margin == float(np.min(ceilings - trace.mu))
    # coefficient powers may differ from the scalar ones by an ulp; the
    # gap grows only on the steps where a failing trace blows up
    tol = 1e-12 if first is None else 1e-9
    assert np.allclose(trace.mu, ref, rtol=tol, atol=0.0)
    if first is not None:
        # truncated at the failing index, the last step is a ceiling test only
        head = FactorableSpec(kind=spec.kind, a=spec.a[:first],
                              b=spec.b[:first])
        assert (mu_dual(head, p, U_p).first_violation
                == _mu_dual_reference(head, p, U_p)[0])


def _mu_primal_reference(spec, p, lam_p):
    """mu_primal's docstring recurrence as a plain scalar loop with its
    clamp and denominator guard, rows n = 1..N: (first violation, mu
    values, without the closing mu_(N+1) of a passing trace)."""
    a, b = spec.a.tolist(), spec.b.tolist()
    e1, ep = 1.0 / (p - 1.0), p / (p - 1.0)
    mu = [1.0]
    for n in range(1, spec.N + 1):
        prev = mu[-1]
        anm1 = a[n - 2] if n >= 2 else 0.0
        base = prev ** e1 if prev > 0.0 else 0.0
        cross = (anm1 / b[n - 1]) ** ep if anm1 > 0.0 else 0.0
        denom = (base + cross) ** (p - 1.0)
        if denom <= 0.0 or not math.isfinite(denom):
            return n, mu
        t = (a[n - 1] / b[n - 1]) ** p * prev / denom
        nxt = t - lam_p
        if nxt < 0.0:
            if margin_ok(nxt, max(t, lam_p)):
                nxt = 0.0
            else:
                mu.append(nxt)
                return n + 1, mu
        mu.append(nxt)
    return None, mu[:-1]


@pytest.mark.parametrize("kind,param", [("constant", None), ("power", 0.7),
                                        ("power", -0.5),
                                        ("geometric", 1.0005)])
@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("L", [0.5, 0.9, 1.2])
def test_mu_primal_matches_scalar_reference(kind, param, p, L):
    extra = {"power": {"exponent": param}, "geometric": {"ratio": param},
             "constant": {}}[kind]
    spec = weighted_mean(build_weights(kind, 2000, **extra))
    lam_p = BoundParams(p, L).lam_p
    trace = mu_primal(spec, p, lam_p)
    first, ref = _mu_primal_reference(spec, p, lam_p)
    assert trace.first_violation == first
    assert trace.n_evaluated == len(ref)
    # numpy's powers may differ from the scalar ones by an ulp
    assert np.allclose(trace.mu, ref, rtol=1e-12, atol=1e-12)


def test_mu_primal_forms_its_powers_a_chunk_at_a_time(monkeypatch):
    spec = weighted_mean(build_weights("power", 5000, exponent=0.7))
    lam_p = BoundParams(2.5, 0.9).lam_p
    whole = mu_primal(spec, 2.5, lam_p)
    dual_steps, primal_steps = _kernel._step_loops()
    rows = []

    def counted(trace, rp, *args):
        rows.append(rp.shape[0])
        return primal_steps(trace, rp, *args)

    monkeypatch.setattr(_kernel, "_ROW_CHUNK", 7)
    monkeypatch.setattr(_kernel, "_step_loops",
                        lambda: (dual_steps, counted))
    assert mu_primal(spec, 2.5, lam_p).mu.tobytes() == whole.mu.tobytes()
    # the driver read the patched chunk: 5000 rows in steps of 7
    assert max(rows) == 7 and len(rows) == -(-5000 // 7)
    monkeypatch.undo()
    # an over-claimed bound dies by n = 7: it needs one chunk of powers
    # (about 1.4 MiB), not N trace values, N-length powers or a_(n-1)
    spec = cesaro(10 ** 6)
    tracemalloc.start()
    try:
        assert mu_primal(spec, 2.0, 0.9).first_violation <= 7
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20, peak / 2 ** 20


def test_mu_primal_out_of_range_power_is_a_domain_error():
    # (a_n/b_n)^p = n^200 leaves binary64 at n = 35
    with pytest.raises(ValueError, match=r"binary64 range at n = 35"):
        mu_primal(weighted_mean(build_weights("constant", 100)), 200.0,
                  BoundParams(200.0, 1.0).lam_p)


@pytest.mark.parametrize("check", [
    lambda spec: check_factorable_product(spec, 2.0, 1.0),
    lambda spec: check_factorable_stepwise(spec, 2.0, 1.0),
    lambda spec: mu_primal(spec, 2.0, 0.25),
], ids=["product", "stepwise", "mu_primal"])
def test_unnormalized_spec_is_rejected(check):
    spec = FactorableSpec(kind="unnormalized", a=np.array([2.0, 3.0, 4.0]),
                          b=np.ones(3))
    with pytest.raises(ValueError, match=r"normalized spec \(a_1 = b_1\)"):
        check(spec)


def test_mu_traces_certify_actual_inequality():
    # when the dual trace passes at U_p = 4, direct ratios at random
    # positive vectors confirm ||Mx||_2 <= 2 ||x||_2
    spec = cesaro(512)
    assert mu_dual(spec, 2.0, 4.0).passed
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = 10.0 ** rng.uniform(-2, 2, size=512)
        assert ratio_at(spec, 2.0, x) <= 2.0 + 1e-10


def test_trace_report_wraps_fields():
    params = BoundParams(p=2.0, L=1.0)
    trace = mu_dual(cesaro(16), 2.0, params.U_p)
    rep = trace_report(trace, "mu-dual", params, 16)
    d = rep.to_dict()
    assert d["method"] == "mu-dual"
    assert d["pass"] is True
    assert d["N"] == 16
    assert d["bound"] == pytest.approx(2.0)


def test_domain_validation():
    w = build_weights("constant", 8)
    with pytest.raises(ValueError):
        check_cartlidge(w, 1.0, 0.5)
    with pytest.raises(ValueError):
        check_cartlidge(w, 2.0, -0.1)
    with pytest.raises(ValueError):
        check_stepwise_p2(w, 2.5)


# ----------------------------------------------------------------------
# The chunked fold against whole-array references

# the fold runs _ROW_CHUNK rows at a time; these N end just before, on
# and just after a chunk boundary, and inside a third chunk
FOLD_NS = [_ROW_CHUNK - 1, _ROW_CHUNK, _ROW_CHUNK + 1, _ROW_CHUNK + 2,
           3 * _ROW_CHUNK + 5]


def _random_monotone(N):
    rng = np.random.default_rng(3)
    return build_weights("explicit", N,
                         values=0.05 + np.cumsum(rng.uniform(size=N)))


def ref_report(method, p, L, N, big, small, positive=None, what=""):
    """The verdict on whole arrays: the first nonpositive value fails
    with a NaN margin; else margins big - small, each passing down to
    -PASS_RTOL max(|big|, |small|, 1), finite."""
    bound = BoundParams(p, L).bound
    if positive is not None and np.any(positive <= 0.0):
        n = int(np.flatnonzero(positive <= 0.0)[0]) + 1
        return CertificateReport(method, p, N, False, n, math.nan, bound, L,
                                 f"{what} at n={n}")
    margins = big - small
    scales = np.maximum(np.maximum(np.abs(big), np.abs(small)), 1.0)
    bad = np.flatnonzero(~((margins >= -PASS_RTOL * scales)
                           & np.isfinite(margins)))
    return CertificateReport(
        method, p, N, not bad.size, int(bad[0]) + 1 if bad.size else None,
        float(np.min(margins)) if margins.size else math.inf, bound, L)


def ref_product(spec, p, L, method="factorable-product"):
    a, b = spec.a, spec.b
    nums = a[:-1] / b[1:] + 1.0 - L / p
    lnf = (np.log(nums) - np.log((a / b)[:-1])) / (p - 1.0)
    C = np.cumsum(lnf)
    S = np.logaddexp.accumulate(np.log(b[:-1])
                                - np.concatenate(([0.0], C[:-1])))
    lhs = np.exp(C + S - np.log(a[:-1]))
    return ref_report(method, p, L, spec.N, BoundParams(p, L).bound, lhs)


def ref_stepwise(spec, p, L):
    lam_p = (1.0 - L / p) ** p
    A = lam_p ** (1.0 - 1.0 / p)
    B = 1.0 - lam_p - A
    r = spec.a / spec.b
    cross = spec.a[:-1] / spec.b[1:]
    y, g = r[1:], A * r[:-1] + B
    if np.any(g <= 0.0):
        return ref_report("stepwise", p, L, spec.N, g, g, g,
                          "floor constant A*r_n+B nonpositive")
    e1, ep = 1.0 / (p - 1.0), p / (p - 1.0)
    lhs = (A * y + 1.0 - A) ** e1 * (g ** e1 + cross ** ep)
    return ref_report("stepwise", p, L, spec.N, y ** ep * g ** e1, lhs)


def ref_check(method, w, p, L):
    r = w.ratios
    if method == "cartlidge":
        return ref_report(method, p, L, w.N, L, np.diff(r))
    if method == "ratio":
        inner = 1.0 - (L / p) / r[:-1]
        return ref_report(method, p, L, w.N,
                          r[:-1] * inner ** (1.0 - p) + L / p, r[1:])
    if method == "product":
        return ref_product(weighted_mean(w), p, L, "product")
    if method == "factorable-product":
        return ref_product(weighted_mean(w), p, L)
    if method == "stepwise":
        return ref_stepwise(weighted_mean(w), p, L)
    rhs = L + (L * L / 4.0) * ((1.0 + L / 2.0) / (1.0 - L / 2.0)) / (
        r[1:] + L / 2.0)
    return ref_report(method, p, L, w.N, rhs, np.diff(r))


def _json(report):
    return json.dumps(report.to_dict(), sort_keys=True)


def test_fold_rules():
    K = _ROW_CHUNK
    big, small = np.ones(3 * K), np.ones(3 * K)

    def rows(positive=None):
        def sides(lo, hi):
            pair = big[lo:hi], small[lo:hi]
            return pair if positive is None else (*pair, positive[lo:hi])
        return sides

    assert fold(rows(), 0) == (None, math.inf)
    assert fold(rows(), 3 * K) == (None, 0.0)
    # a margin within the slack passes, an infinite one fails
    big[5] -= 1e-13
    big[K + 2] = math.inf
    assert fold(rows(), 3 * K) == (K + 2, float(big[5] - 1.0))
    assert fold(rows(), 3 * K, K + 3) == (None, 0.0)
    # a NaN margin fails and is the worst; a later failure is not first
    big[K + 1], big[2 * K] = math.nan, 0.5
    bad, worst = fold(rows(), 3 * K)
    assert bad == K + 1 and math.isnan(worst)
    # a nonpositive value ends the fold at its row, past any failure
    positive = np.ones(3 * K)
    positive[2 * K + 3] = 0.0
    assert fold(rows(positive), 3 * K) == (2 * K + 3, None)
    bad, worst = fold(rows(positive), 2 * K + 3)    # before that row
    assert bad == K + 1 and math.isnan(worst)
    # a scalar side stands for every row
    assert fold(lambda lo, hi: (0.5, small[lo:hi] / 4.0), 3 * K) == (
        None, 0.25)


@pytest.mark.parametrize("method", CERTIFY_METHODS[:6])
@pytest.mark.parametrize("N", FOLD_NS)
def test_chunked_checkers_match_whole_array_references(method, N):
    weights = [build_weights("constant", N),
               build_weights("power", N, exponent=0.5),
               build_weights("power", N, exponent=2.0), _random_monotone(N)]
    ps = [2.0] if method == "stepwise-p2" else [1.5, 2.0, 3.0]
    for w in weights:
        for p in ps:
            for L in (0.3, 1.0 - 1e-13, 1.0, 1.4):
                got = run_certificate(method, w, p, L)
                assert _json(got) == _json(ref_check(method, w, p, L)), (
                    w, p, L)


@pytest.mark.parametrize("row", [2, _ROW_CHUNK - 1, _ROW_CHUNK,
                                 _ROW_CHUNK + 1, 2 * _ROW_CHUNK + 7,
                                 3 * _ROW_CHUNK + 3])
def test_nonpositive_stepwise_floor_wins_over_an_earlier_failure(row):
    # the Cesaro matrix at p = 2, L = 0.5 fails its stepwise test at
    # n = 1; a_n/b_n = 0.1 on one later row puts the floor
    # 0.75 r_n - 0.3125 below 0 there, which is the reported failure
    N = 3 * _ROW_CHUNK + 5
    a, b = np.arange(1.0, N + 1.0), np.ones(N)
    b[row - 1] = 10.0 * a[row - 1]
    spec = FactorableSpec("dip", a, b)
    assert check_factorable_stepwise(cesaro(N), 2.0, 0.5).first_fail == 1
    got = check_factorable_stepwise(spec, 2.0, 0.5)
    assert _json(got) == _json(ref_stepwise(spec, 2.0, 0.5))
    assert got.first_fail == row and math.isnan(got.worst_margin)
    assert got.note == f"floor constant A*r_n+B nonpositive at n={row}"


@pytest.mark.parametrize("N", FOLD_NS)
def test_product_sums_carry_across_chunks(N):
    # a general spec with irregular factors: each chunk's cumsum and
    # log-sum-exp carry on from the chunk before, bit for bit
    rng = np.random.default_rng(N)
    a = np.cumsum(rng.uniform(0.5, 1.5, size=N))
    b = np.concatenate(([a[0]], rng.uniform(0.2, 2.0, size=N - 1)))
    spec = FactorableSpec("irregular", a, b)
    for p, L in ((1.5, 0.4), (2.0, 1.0), (3.0, 2.9)):
        got = check_factorable_product(spec, p, L)
        assert _json(got) == _json(ref_product(spec, p, L))
        assert _json(check_factorable_stepwise(spec, p, L)) == _json(
            ref_stepwise(spec, p, L))


@pytest.mark.parametrize("floor", [False, True])
@pytest.mark.parametrize("N", FOLD_NS)
def test_envelope_fold_matches_whole_array_reference(N, floor):
    rng = np.random.default_rng(N + floor)
    mu = rng.uniform(1.0, 2.0, size=N)
    targets = mu * (0.5 if floor else 2.0)
    # failing rows in the first and the last chunk, and a near-tie that
    # passes within the slack
    for i in (N // 3, N - 2):
        targets[i] = mu[i] * (1.0 + 1e-9 if floor else 1.0 - 1e-9)
    targets[1] = mu[1] * (1.0 + 1e-14 if floor else 1.0 - 1e-14)
    trace = MuTrace(mu=mu, constraint="c", worst_margin=0.25,
                    first_violation=None)
    got = _with_envelope(trace, "env", lambda lo, hi: targets[lo:hi], floor)
    big, small = (mu, targets) if floor else (targets, mu)
    big, small = big[int(floor):], small[int(floor):]
    margins = big - small
    bad = np.flatnonzero(~passes(big, small))
    assert got.target_violation == int(bad[0]) + 1 + int(floor) == N // 3 + 1
    assert got.worst_margin == min(0.25, float(np.min(margins)))
    assert got.constraint == "env" and not got.passed


@pytest.mark.parametrize("method", CERTIFY_METHODS[:6])
def test_checker_holds_a_few_chunks(method):
    # every side is formed a chunk at a time: at N = 1e6 a check holds a
    # few _ROW_CHUNK temporaries (128 KiB each), not arrays of N values
    w = build_weights("power", 10 ** 6, exponent=0.5)
    tracemalloc.start()
    try:
        assert run_certificate(method, w, 2.0, 1.0).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20, peak / 2 ** 20
