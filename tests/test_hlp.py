"""Reversed averaging inequality for exponents below one."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcert import (bracket_threshold, certify_direct, certify_report,
                    dual_feasible, hlp_constant, mu_direct, probe_dual,
                    probe_primal, search_c, shift_gap, threshold_margin)
from lpcert import hlp, mu_dual_hlp
from lpcert._num import PASS_RTOL


def test_constant_closed_forms():
    assert hlp_constant(0.5) == pytest.approx(1.0)
    assert hlp_constant(1.0 / 3.0) == pytest.approx(0.5 ** (1.0 / 3.0), rel=1e-15)


def test_mu_direct_hand_values():
    # p = 1/3: mu_1 = ((1-p)/p)^p = 2^{1/3}; mu_2 follows one recurrence step
    tr = mu_direct(1.0 / 3.0, 4)
    assert tr.mu[0] == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)
    mu2 = (2.0 ** (1.0 / 3.0)) * (math.sqrt(2.0) - 1.0) ** (2.0 / 3.0) \
        + 2.0 ** (1.0 / 3.0)
    assert tr.mu[1] == pytest.approx(mu2, rel=1e-12)
    assert tr.constraint.startswith("mu >")
    # margins mu_n - n^p must stay strictly positive for the recurrence
    n = np.arange(1, tr.n_evaluated + 1, dtype=np.float64)
    assert np.all(tr.mu - n ** (1.0 / 3.0) > 0.0)
    assert tr.worst_margin == float(np.min(tr.mu - n ** (1.0 / 3.0))) > 0.0


def test_mu_direct_domain():
    with pytest.raises(ValueError):
        mu_direct(0.2, 10)     # below 1/3 the recurrence degenerates
    with pytest.raises(ValueError):
        mu_direct(1.0, 10)


def test_certify_direct_pinned():
    # at p = 1/3 the linear floor is tight from the first index
    cert = certify_direct(1.0 / 3.0)
    assert cert.certified
    assert cert.n0 == 1
    assert abs(cert.margin) <= 1e-10
    # at p = 0.35 the floor only engages from n = 4
    cert2 = certify_direct(0.35)
    assert cert2.certified
    assert cert2.n0 == 4
    assert cert2.margin == pytest.approx(0.002642944094984667, rel=1e-8)


def test_threshold_margin_signs_and_domain():
    assert threshold_margin(0.346) == pytest.approx(
        0.007188153425712551, rel=1e-10)
    assert threshold_margin(0.35) == pytest.approx(
        -0.0448899542035166, rel=1e-10)
    with pytest.raises(ValueError):
        threshold_margin(1.0 / 3.0)
    with pytest.raises(ValueError):
        threshold_margin(0.5)


def test_bracket_threshold_bisection():
    lo, hi = bracket_threshold()
    assert lo == pytest.approx(0.3465)
    assert hi == pytest.approx(0.3465625)
    assert hi - lo <= 1e-4
    assert threshold_margin(lo) >= 0.0 > threshold_margin(hi)


def test_mu_dual_hand_values():
    tr = mu_dual_hlp(1.0 / 3.0, 6)
    assert tr.mu[0] == 0.0
    assert tr.mu[1] == pytest.approx(1.0 - 2.0 ** -0.5, rel=1e-13)
    # first index is unconstrained; positivity holds afterwards
    assert tr.worst_margin == float(np.min(tr.mu[1:]))
    assert np.all(tr.mu[1:] > 0.0)
    assert tr.first_violation is None


def test_shift_gap_basic_shape():
    assert shift_gap(0.0, 0.35, -1.3) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        shift_gap(1.0, 0.35, -1.5)   # 1 + c y <= 0


@given(st.floats(min_value=0.01, max_value=0.2),
       st.floats(min_value=-1.0, max_value=0.0))
@settings(max_examples=80, deadline=None)
def test_shift_gap_increasing_in_c(y, c):
    # raising the shift only helps the gap at fixed y > 0
    assert shift_gap(y, 0.35, c + 0.3) >= shift_gap(y, 0.35, c) - 1e-12


def test_dual_feasible_pinned_margins():
    fz = dual_feasible(0.35, 5, -1.33542621)
    assert fz.passed
    m1, m2, m3 = fz.margins
    assert m1 == pytest.approx(3.1929134891584e-09, rel=1e-4)
    assert m2 == pytest.approx(0.09314521857142855, rel=1e-10)
    assert m3 == pytest.approx(3.130234527271014e-05, rel=1e-8)
    assert all(m >= -1e-9 for m in fz.margins)


def test_dual_feasible_domain_note():
    fz = dual_feasible(0.35, 1, -1.5)   # 1 + c/n0 <= 0: out of domain
    assert not fz.passed
    assert fz.note


def test_search_c_pinned():
    sr = search_c(0.35)
    assert sr.feasible
    assert sr.n0 == 5
    assert sr.c == pytest.approx(-1.3354262017244798, rel=1e-12)
    assert sr.c_min == pytest.approx(-1.336608138806668, rel=1e-10)
    assert sr.c_min <= sr.c <= sr.c_max
    # p = 1/3 admits the closed form c = 2 sqrt(2) - 4 at n0 = 2
    sr2 = search_c(1.0 / 3.0)
    assert sr2.feasible
    assert sr2.n0 == 2
    assert sr2.c == pytest.approx(2.0 * math.sqrt(2.0) - 4.0, rel=1e-12)
    # large p: no shift makes the three conditions hold
    sr3 = search_c(0.45, n0_max=2000)
    assert not sr3.feasible
    assert sr3.n0 is None and sr3.c is None


def test_probe_primal_never_beats_constant():
    for p in (0.3, 1.0 / 3.0, 0.346):
        cp = hlp_constant(p)
        for s in (1.0 / p + 0.01, 1.0 / p + 0.5):
            for n in (10, 1000):
                assert probe_primal(p, s, n) >= cp - 1e-9
    with pytest.raises(ValueError):
        probe_primal(0.35, 1.0 / 0.35, 100)   # needs s > 1/p


def test_probe_dual_hand_value_and_trials():
    # a single unit mass: ratio is 1/sqrt(2) at p = 1/3
    assert probe_dual(1.0 / 3.0, np.array([1.0])) == pytest.approx(
        2.0 ** -0.5, rel=1e-13)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        x = 10.0 ** rng.uniform(-3.0, 3.0, size=50)
        worst = max(worst, probe_dual(0.35, x))
    assert worst <= 1.0 + 1e-10


@pytest.mark.parametrize("p, x, message", [
    (0.35, [], "x must be a nonempty positive finite vector"),
    (0.35, [1.0, 0.0], "x must be a nonempty positive finite vector"),
    (0.35, [1.0, np.inf], "x must be a nonempty positive finite vector"),
    (0.35, [np.nan, 1.0], "x must be a nonempty positive finite vector"),
    # a bad p is reported before a bad x
    (1.5, [-1.0], r"need 0 < p < 1"),
    (1.5, [], r"need 0 < p < 1"),
])
def test_probe_dual_messages(p, x, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        probe_dual(p, np.array(x))


@given(st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_probe_dual_scale_invariant(scale):
    x = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    a = probe_dual(0.4, x)
    b = probe_dual(0.4, scale * x)
    assert b == pytest.approx(a, rel=1e-12)


def test_certify_report_shapes():
    rd = certify_report(1.0 / 3.0, "direct")
    assert rd["certified"] is True
    assert rd["method"] == "direct"
    assert rd["n0"] == 1
    rs = certify_report(0.35, "dual-shift")
    assert rs["certified"] is True
    assert rs["method"] == "dual-shift"
    assert rs["n0"] == 5
    with pytest.raises(ValueError):
        certify_report(0.35, "unknown")


# ----------------------------------------------------------------------
# Early stop of the n0 searches


def _full_direct(p, n0_max):
    """certify_direct as a scan of the whole trace up to n0_max."""
    trace = mu_direct(p, n0_max)
    a, b = hlp.direct_floor(p)
    n = np.arange(1, trace.mu.shape[0] + 1, dtype=np.float64)
    floors = a * n + b
    slack = trace.mu - floors
    scales = np.maximum(np.abs(trace.mu), np.abs(floors))
    idx = np.flatnonzero(slack >= -PASS_RTOL * np.maximum(scales, 1.0))
    if idx.size == 0:
        return None, float(np.max(slack))
    return int(idx[0]) + 1, float(slack[idx[0]])


def _full_search_c(p, n0_max):
    """search_c as a scan of the whole dual trace up to n0_max:
    (n0, c_max, c_min, margins) or None."""
    mu = mu_dual_hlp(p, n0_max).mu
    slope = (1.0 / p - 1.0) ** (1.0 / (p - 1.0))
    for n0 in range(1, mu.shape[0] + 1):
        if n0 >= 2 and not (mu[n0 - 1] > 0.0):
            break
        c_max = float(mu[n0 - 1]) / slope - n0
        lower = max(-1.0 / (2.0 * p), -float(n0))
        if not (c_max > lower) or shift_gap(1.0 / n0, p, c_max) < 0.0:
            continue
        lo, hi = lower, c_max
        if shift_gap(1.0 / n0, p, lower + 1e-12 * max(1.0, abs(lower))) >= 0.0:
            c_min = lower
        else:
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if shift_gap(1.0 / n0, p, mid) >= 0.0:
                    hi = mid
                else:
                    lo = mid
            c_min = hi
        return n0, c_max, c_min, dual_feasible(p, n0, c_max).margins
    return None


def _full_trace_report(p, method, n0_max):
    """certify_report's dict built from the full-trace searches."""
    if method == "direct":
        n0, margin = _full_direct(p, n0_max)
        return {"p": p, "certified": n0 is not None, "n0": n0, "c": None,
                "method": "direct", "margins": [margin], "N_max": n0_max}
    found = _full_search_c(p, n0_max)
    return {"p": p, "certified": found is not None,
            "n0": found[0] if found else None,
            "c": found[1] if found else None, "method": "dual-shift",
            "margins": list(found[3]) if found else [], "N_max": n0_max}


# certified early (n0 = 1..9) and late, past the short prefix (direct
# and dual n0 = 994 and 1328 at 0.35150664062500003, 1558 and 2081 at
# 0.3515066528320313), uncertified to the end, and traces that die at n = 1, 7, 536 (p = 0.4)
# and 5317 (p = 0.39)
EARLY_STOP_PS = [1.0 / 3.0, 0.34, 0.345, 0.3465, 0.35, 0.351,
                 0.35150664062500003, 0.3515066528320313, 0.352, 0.355,
                 0.36, 0.38, 0.385, 0.39, 0.4, 0.45, 0.5, 0.7, 0.99]
EARLY_STOP_N0_MAX = [1, 2, 3, 4, 5, 7, 535, 536, 537, 1023, 1024, 1025,
                     5317, 5318, 20_000]


@pytest.mark.parametrize("p", EARLY_STOP_PS)
def test_early_stop_reports_equal_full_trace_scans(p):
    for n0_max in EARLY_STOP_N0_MAX:
        for method in ("direct", "dual-shift"):
            assert (json.dumps(certify_report(p, method, n0_max), sort_keys=True)
                    == json.dumps(_full_trace_report(p, method, n0_max),
                                  sort_keys=True)), (method, n0_max)
        found, ref = search_c(p, n0_max), _full_search_c(p, n0_max)
        assert found.feasible == (ref is not None)
        if ref is not None:
            assert (found.n0, found.c_max, found.c_min, found.margins) == ref


@pytest.mark.parametrize("p", [1.0 / 3.0, 0.35, 0.355, 0.39, 0.4])
@pytest.mark.parametrize("trace", [mu_direct, mu_dual_hlp])
def test_hlp_traces_are_prefixes_of_longer_ones(p, trace):
    full = trace(p, 6000).mu
    for k in (1, 2, 5, 536, 1024, 5317, 6000):
        assert trace(p, k).mu.tobytes() == full[:k].tobytes()


def test_certified_searches_stop_early(monkeypatch):
    steps = []

    def counted(fn):
        def wrapper(p, N):
            steps.append(N)
            return fn(p, N)
        return wrapper

    monkeypatch.setattr(hlp, "mu_direct", counted(hlp.mu_direct))
    monkeypatch.setattr(hlp, "mu_dual", counted(hlp.mu_dual))
    assert certify_direct(0.35, 10**6).n0 == 4
    assert search_c(0.345, 10**6).n0 == 3
    assert sum(steps) <= 5000
    # an uncertified search still reads the whole trace
    steps.clear()
    assert not certify_direct(0.355, 20_000).certified
    assert max(steps) == 20_000
