"""The mu drivers against the list-based loops they replaced.

`_kernel._mu_primal_ratios` (behind `mu_primal`, the primal route of
`mu_bge` and `hlp.mu_dual`) and `_kernel._mu_dual_ratios` (behind
`mu_dual`, `mu_dual_copson`, the dual route of `mu_bge` and
`hlp.mu_direct`) hand each trace to a growing array("d") a chunk of
steps at a time.  The reference functions below are the loops they
replaced, written out again here (the primal one with the closing step
mu_(N+1) that the N-section certificate needs): each keeps the whole
trace as a list of Python floats and converts it at the end.  The primal
and dual references (ref_mu_primal_ratios and ref_mu_dual_ratios) also
form every ratio, power, bound and envelope target as
a whole array before the loop (the dual ones test the bound inside it),
where the library forms them a chunk at a time (and tests the bound
with numpy).  The references keep every margin in an array and take the
worst margin from those arrays, as the library once did; the library
keeps only a running minimum.
Every trace must equal its reference bit for bit (mu, constraint, the
repr of the worst margin and both violations), including traces that
die next to a chunk boundary, and must peak at far less memory.  The
references of the two HLP routes run on their rows (n, n + 1) at
exponent p/(p-1): the dual one with the floor of q < 1 for
`hlp.mu_direct`, the primal one for `hlp.mu_dual`; the hand loops they
replaced, which group their powers differently, stay as tolerance
oracles.
"""

import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from lpcert import BoundParams, FactorableSpec, build_weights, hlp
from lpcert import _kernel, copson, weighted_mean
from lpcert._kernel import _mu_dual_ratios
from lpcert._num import _ROW_CHUNK, _binary64_pow, margin_ok, passes
from lpcert.certificates import mu_dual, mu_primal
from lpcert.copson import _with_envelope, mu_bge, mu_dual_copson
from lpcert.factorable import bge_matrix, bge_steps

# ----------------------------------------------------------------------
# Reference loops: whole-trace lists


@dataclass
class RefTrace:
    """A reference trace with its margin arrays; margins[i] is the
    constraint margin at n = i + 1."""

    mu: np.ndarray
    constraint: str
    margins: np.ndarray
    first_violation: int | None
    target_margins: np.ndarray | None = None
    target_violation: int | None = None

    @property
    def n_evaluated(self):
        return self.mu.shape[0]

    @property
    def worst_margin(self):
        worst = float(np.min(self.margins)) if self.margins.size else math.inf
        if self.target_margins is not None and self.target_margins.size:
            worst = min(worst, float(np.min(self.target_margins)))
        return worst


def ref_mu_primal(spec, p, lam_p):
    a, b = spec.a, spec.b
    return ref_mu_primal_ratios(a / b, a[:-1] / b[1:], p, lam_p)


def ref_mu_primal_ratios(r, cross, p, lam_p):
    """The primal loop on whole ratio arrays: r_n = a_n/b_n on every row
    and cross_n = a_n/b_(n+1), which is row n + 1's a_n/b_(n+1) (row 1
    takes a_0/b_1 = 0)."""
    e1 = 1.0 / (p - 1.0)
    with np.errstate(over="ignore"):
        rps = r ** p                    # rows n = 1..N
        crosses = np.concatenate(([0.0], cross)) ** (p / (p - 1.0))
    mu = [1.0]
    prev = 1.0
    violation = None
    rows = zip(rps.tolist(), crosses.tolist())
    try:
        for n, (rp, cross) in enumerate(rows, start=1):
            if math.isinf(rp) or math.isinf(cross):
                raise ValueError("(a_n/b_n)^p or (a_(n-1)/b_n)^(p/(p-1)) "
                                 f"leaves the binary64 range at n = {n}")
            base = prev ** e1 if prev > 0.0 else 0.0
            denom = (base + cross) ** (p - 1.0)
            if denom <= 0.0 or not math.isfinite(denom):
                violation = n
                break
            t = rp * prev / denom
            nxt = t - lam_p
            if nxt < 0.0:
                if margin_ok(nxt, max(t, lam_p)):
                    nxt = 0.0
                else:
                    mu.append(nxt)
                    violation = n + 1
                    break
            mu.append(nxt)
            prev = nxt
    except OverflowError:
        raise ValueError("(mu_n^(1/(p-1)) + (a_(n-1)/b_n)^(p/(p-1)))^(p-1) "
                         f"leaves the binary64 range at n = {n}") from None
    arr = np.array(mu, dtype=np.float64)
    # a passing trace drops its closing value mu_(N+1), a margin still
    return RefTrace(mu=arr if violation is not None else arr[:-1],
                    constraint="mu >= 0", margins=arr.copy(),
                    first_violation=violation)


def ref_mu_dual(spec, p, U_p):
    q = p / (p - 1.0)
    a, b = spec.a, spec.b
    mu_1 = _binary64_pow(U_p, -q / p, "mu_1 = U_p^(-q/p)")
    return ref_mu_dual_ratios(a / b, a[:-1] / b[1:], p, mu_1)


def ref_mu_dual_ratios(r, cross, p, mu_1):
    """The dual loop on whole ratio arrays, bound tested in the loop: a
    ceiling r^q, or for q < 1 a floor."""
    q = p / (p - 1.0)
    eq = q / (q - 1.0)
    e1 = 1.0 / (q - 1.0)
    floor = q < 1.0
    if not floor:
        _binary64_pow(mu_1, -e1, "U_p")
    with np.errstate(over="ignore"):
        ceilings = r ** q
        r_eq = r[:-1] ** eq
        cross_q = cross ** q
    mu = [mu_1]
    prev = mu_1
    violation = None
    rows = zip(ceilings[:-1].tolist(), r_eq.tolist(), cross_q.tolist())
    try:
        for n, (ceiling, rp, cq) in enumerate(rows, start=1):
            if not ((prev - ceiling if floor else ceiling - prev) > 0.0):
                violation = n
                break
            inner = rp * prev ** (-e1) - 1.0
            if inner <= 0.0 or not math.isfinite(inner):
                violation = n
                break
            prev = mu_1 + cq / inner ** (q - 1.0)
            mu.append(prev)
    except (OverflowError, ZeroDivisionError):
        raise ValueError("((a_n/b_n)^p mu_n^(1-p) - 1)^(q-1) leaves the "
                         f"binary64 range at n = {n}") from None
    arr = np.array(mu, dtype=np.float64)
    margins = ceilings[:arr.shape[0]] - arr
    if floor:
        margins = arr - ceilings[:arr.shape[0]]
    if violation is None and not (margins[-1] > 0.0):
        violation = arr.shape[0]
    return RefTrace(mu=arr, constraint="mu < (a_n/b_n)^q", margins=margins,
                    first_violation=violation)


def first_failing(big, small):
    """The 0-based index of the first entry of big >= small failing the
    pass rule, or None."""
    idx = np.flatnonzero(~passes(big, small))
    return int(idx[0]) if idx.size else None


def ref_with_envelope(trace, constraint, targets):
    t_margins = targets - trace.mu
    t_bad = first_failing(targets, trace.mu)
    return replace(trace, constraint=constraint, target_margins=t_margins,
                   target_violation=None if t_bad is None else t_bad + 1)


def ref_mu_dual_copson(w, p, c):
    lam, Lam = w.values, w.partials
    q = p / (p - 1.0)
    R = Lam / lam
    cross = (R[:-1] * (lam[:-1] / lam[1:]) ** (1.0 - 1.0 / p)
             * (Lam[1:] / Lam[:-1]) ** (1.0 - c / p))
    trace = ref_mu_dual_ratios(R, cross, p, _binary64_pow(
        (c - 1.0) / p, q, "mu_1 = ((c-1)/p)^q"))
    R = R[:trace.n_evaluated]
    targets = R * (1.0 / R + p / (c - 1.0)) ** (1.0 - q)
    return ref_with_envelope(trace, "mu < (Lam_n/lam_n)^q", targets)


def ref_mu_bge_dual(w, p, alpha):
    lam, Lam = w.values, w.partials
    q = p / (p - 1.0)
    s = bge_steps(w, alpha)
    trace = ref_mu_dual(bge_matrix(w, p, alpha), p,
                        _binary64_pow(alpha * p / (p - 1.0), p, "U_p"))
    k = trace.n_evaluated
    A = alpha ** q * q ** (q - 1.0)
    targets = (s[:k] ** (q / (q - 1.0))
               + (A * lam[:k] / Lam[:k]) ** (1.0 / (q - 1.0))) ** (1.0 - q)
    return ref_with_envelope(trace, "mu < s_n^(-q)", targets)


def ref_mu_bge_primal(w, p, alpha):
    lam, Lam = w.values, w.partials
    s = bge_steps(w, alpha)
    lam_p = ((p - 1.0) / (alpha * p)) ** p
    if not (lam_p < 1.0):
        raise ValueError("primal route needs alpha > 1 - 1/p")
    trace = ref_mu_primal(bge_matrix(w, p, alpha), p, lam_p)
    k = trace.n_evaluated
    # the floor constrains n >= 2; n = 1 gets an infinite margin
    t_margins = np.full(k, math.inf)
    idx = np.arange(1, k)
    floors = (lam[idx - 1] / Lam[idx - 1]) ** (p - 1.0) / (
        (p / (p - 1.0)) ** (p - 1.0) * s[idx - 1] ** p)
    t_margins[1:] = trace.mu[1:] - floors
    bad = first_failing(trace.mu[1:], floors)
    return replace(trace, target_margins=t_margins,
                   target_violation=None if bad is None else bad + 2)


def ref_hlp_mu_direct(p, N):
    """The dual loop on the rows of the HLP dual form b_k/a_n = 1/k at
    exponent p/(p-1): q = p, and the bound n^p is a floor."""
    n = np.arange(1.0, N + 1.0)
    trace = ref_mu_dual_ratios(n, n[1:], p / (p - 1.0),
                               ((1.0 - p) / p) ** p)
    return replace(trace, constraint="mu > n^p")


def old_hlp_mu_direct(p, N):
    """The hand loop hlp.mu_direct once ran: the same recurrence with its
    powers grouped as (n+1)^p inner^(1-p), not (n+1)^p / inner^(p-1)."""
    base = ((1.0 - p) / p) ** p
    ep = p / (p - 1.0)
    e1 = 1.0 / (1.0 - p)
    mu = [base]
    margins = []
    violation = None
    for n in range(1, N + 1):
        m = mu[-1] - float(n) ** p
        margins.append(m)
        if not (m > 0.0):
            violation = n
            break
        if n == N:
            break
        inner = float(n) ** ep * mu[-1] ** e1 - 1.0
        if inner <= 0.0 or not math.isfinite(inner):
            violation = n
            break
        mu.append(float(n + 1) ** p * inner ** (1.0 - p) + base)
    return RefTrace(mu=np.array(mu), constraint="mu > n^p",
                    margins=np.array(margins), first_violation=violation)


def ref_hlp_mu_dual(p, N):
    """The primal loop on hlp.mu_direct's rows (n, n + 1) at exponent
    p/(p-1) with lam = (1/p - 1)^(p/(p-1)), wrapped as hlp.mu_dual is:
    mu_1 = 0, mu_1..mu_N only, and the trace ends at the first mu_n <= 0
    for n >= 2 (a value the loop clamped to 0 included)."""
    q = p / (p - 1.0)
    n = np.arange(1.0, N + 1.0)
    trace = ref_mu_primal_ratios(n, n[1:], q, (1.0 / p - 1.0) ** q)
    mu = trace.mu[:N].copy()
    mu[0] = 0.0
    violation = mu.shape[0] if mu.shape[0] < N else None
    for i in range(1, mu.shape[0]):
        if not (mu[i] > 0.0):
            violation = i + 1
            mu = mu[:i + 1]
            break
    return RefTrace(mu=mu, constraint="mu > 0 (n >= 2)",
                    margins=np.concatenate(([math.inf], mu[1:])),
                    first_violation=violation)


def old_hlp_mu_dual(p, N):
    """The hand loop hlp.mu_dual once ran: the same recurrence as
    (n^-p + mu_n^(1-p))^(1/(1-p)) - lam, not the primal step
    n^P mu_n / (mu_n^(1/(P-1)) + n^p)^(P-1) at P = p/(p-1)."""
    shift = (1.0 / p - 1.0) ** (p / (p - 1.0))
    e1 = 1.0 / (1.0 - p)
    mu = [0.0]
    margins = [math.inf]
    violation = None
    for n in range(1, N + 1):
        if n >= 2:
            m = mu[-1]
            margins.append(m)
            if not (m > 0.0):
                violation = n
                break
        if n == N:
            break
        nxt = (float(n) ** (-p) + mu[-1] ** (1.0 - p)) ** e1 - shift
        mu.append(nxt)
    return RefTrace(mu=np.array(mu), constraint="mu > 0 (n >= 2)",
                    margins=np.array(margins), first_violation=violation)


# ----------------------------------------------------------------------
# Bitwise comparison


def _bits(x):
    return None if x is None else (x.dtype.str, x.shape, x.tobytes())


def _outcome(fn, *args):
    """The trace's mu as bytes, its constraint, the repr of its worst
    margin and its two violations, or the error message."""
    try:
        t = fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return (_bits(t.mu), t.constraint, repr(t.worst_margin),
            t.first_violation, t.target_violation)


def _assert_same(lib, ref, *args):
    got = _outcome(lib, *args)
    assert got == _outcome(ref, *args)
    return got


NS = [1, 2, _ROW_CHUNK, _ROW_CHUNK + 1, 40_000]
# rows n = K - 2 .. K + 2 around the first chunk boundary K = _ROW_CHUNK
DEATHS = [_ROW_CHUNK + d for d in (-2, -1, 0, 1, 2)]


def _dying_cesaro(N, row):
    """The Cesaro matrix with a_n/b_n = n/1e6 at n = row: both traces
    die on that row, mu_dual at n = row and mu_primal at n = row + 1."""
    b = np.ones(N)
    b[row - 1] = 1e6
    return FactorableSpec(kind="dying", a=np.arange(1.0, N + 1.0), b=b)


@pytest.mark.parametrize("N", NS)
@pytest.mark.parametrize("p,L", [(2.0, 1.0), (1.95, 1.0), (3.0, 0.5)])
def test_certificate_loops_match_list_loops(N, p, L):
    spec = weighted_mean(build_weights("power", N, exponent=0.5))
    params = BoundParams(p, L)
    _assert_same(mu_primal, ref_mu_primal, spec, p, params.lam_p)
    _assert_same(mu_dual, ref_mu_dual, spec, p, params.U_p)


@pytest.mark.parametrize("row", DEATHS)
def test_certificate_loops_dying_at_a_chunk_boundary(row):
    spec = _dying_cesaro(40_000, row)
    primal = _assert_same(mu_primal, ref_mu_primal, spec, 2.0, 0.25)
    dual = _assert_same(mu_dual, ref_mu_dual, spec, 2.0, 4.0)
    assert primal[3] == row + 1 and dual[3] == row
    # the failing primal value is recorded
    assert np.frombuffer(primal[0][2])[-1] < 0.0


@pytest.mark.parametrize("N", [row + 1 for row in DEATHS])
def test_certificate_loops_dying_on_the_last_row(N):
    spec = _dying_cesaro(N, N - 1)
    assert _assert_same(mu_primal, ref_mu_primal, spec, 2.0, 0.25)[3] == N
    assert _assert_same(mu_dual, ref_mu_dual, spec, 2.0, 4.0)[3] == N - 1


@pytest.mark.parametrize("N", DEATHS)
def test_primal_trace_dies_on_its_closing_step(N):
    # the last row n = N drives mu_(N+1) below 0: the N-section claim
    # fails at n = N + 1, and the trace keeps the failing value
    got = _assert_same(mu_primal, ref_mu_primal, _dying_cesaro(N, N),
                       2.0, 0.25)
    assert got[3] == N + 1 and got[0][1] == (N + 1,)


@pytest.mark.parametrize("row", DEATHS)
def test_primal_domain_error_at_a_chunk_boundary(row):
    # (a_n/b_n)^2 overflows on that row, which the trace reaches
    b = np.ones(40_000)
    b[row - 1] = 1e-300
    spec = FactorableSpec(kind="overflow", a=np.arange(1.0, 40_001.0), b=b)
    got = _assert_same(mu_primal, ref_mu_primal, spec, 2.0, 0.25)
    assert got == f"ValueError: (a_n/b_n)^p or (a_(n-1)/b_n)^(p/(p-1)) " \
                  f"leaves the binary64 range at n = {row}"


def test_dual_domain_error_matches():
    # ((a_n/b_n)^p mu_n^(1-p) - 1)^(q-1) underflows to 0 at p = 1.01
    spec = weighted_mean(build_weights("constant", 100))
    got = _assert_same(mu_dual, ref_mu_dual, spec, 1.01,
                       BoundParams(1.01, 1e-5).U_p)
    assert got.startswith("ValueError: ((a_n/b_n)^p")


@pytest.mark.parametrize("N", NS)
@pytest.mark.parametrize("p,c,alpha", [(2.0, 1.5, 0.8), (1.5, 1.6, 0.7),
                                       (3.0, 2.5, 1.2)])
def test_copson_routes_match_whole_array_loops(N, p, c, alpha):
    for w in (build_weights("power", N, exponent=0.5),
              build_weights("geometric", N, ratio=1.0001)):
        _assert_same(mu_dual_copson, ref_mu_dual_copson, w, p, c)
        _assert_same(mu_bge, ref_mu_bge_dual, w, p, alpha)
        _assert_same(lambda *args: mu_bge(*args, route="primal"),
                     ref_mu_bge_primal, w, p, alpha)


def test_bge_steps_of_a_row_range_are_the_whole_array_formula():
    N = 3 * _ROW_CHUNK + 5
    w = build_weights("power", N, exponent=0.5)
    Lam = w.partials
    ranges = [(lo, min(lo + _ROW_CHUNK, N)) for lo in range(0, N, _ROW_CHUNK)]
    ranges += [(0, 1), (1, 2), (_ROW_CHUNK - 1, _ROW_CHUNK + 2), (N - 1, N)]
    for alpha in (0.62, 0.8, 1.2):
        whole = 1.0 - (np.concatenate(([0.0], Lam[:-1])) / Lam) ** alpha
        assert bge_steps(w, alpha).tobytes() == whole.tobytes()
        for lo, hi in ranges:
            assert (bge_steps(w, alpha, lo, hi).tobytes()
                    == whole[lo:hi].tobytes())
    # geometric:0.99 partial sums first stall at n = 3185; a range
    # reports a stall only when it holds one
    stalled = build_weights("geometric", 5000, ratio=0.99)
    assert bge_steps(stalled, 0.8, 0, 3184).shape == (3184,)
    with pytest.raises(ValueError, match="power differences"):
        bge_steps(stalled, 0.8, 3184, 3185)


# c (copson, p = 1.5) and alpha (bge, p = 2) at which each dual trace on
# constant weights crosses its ceiling at n = 16382 .. 16386 at N = 40000
# (any index would still be compared)
COPSON_DEATHS = [1.8836624145507814, 1.8836616516113283, 1.8836612701416016,
                 1.883660888671875, 1.883660125732422]
BGE_DEATHS = [0.631923370361328, 0.6319235038757323, 0.6319236373901365,
              0.6319239044189451, 0.6319241714477537]


def test_copson_routes_dying_near_a_chunk_boundary():
    w = build_weights("constant", 40_000)
    deaths = [_assert_same(mu_dual_copson, ref_mu_dual_copson, w, 1.5, c)
              for c in COPSON_DEATHS]
    deaths += [_assert_same(mu_bge, ref_mu_bge_dual, w, 2.0, alpha)
               for alpha in BGE_DEATHS]
    for got in deaths:
        assert abs(got[3] - _ROW_CHUNK) <= 3
        # the ceiling margin of the last row is the violation
        assert float(got[2]) <= 0.0


@pytest.mark.parametrize("row", DEATHS)
def test_envelope_violation_at_a_chunk_boundary(row):
    spec = weighted_mean(build_weights("power", 40_000, exponent=0.5))
    U_p = BoundParams(2.0, 1.0).U_p
    trace = mu_dual(spec, 2.0, U_p)
    assert trace.passed
    targets = 2.0 * trace.mu
    # pull the envelope just under the trace on that row
    targets[row - 1] = trace.mu[row - 1] * (1.0 - 1e-9)
    got = _with_envelope(trace, "env", lambda lo, hi: targets[lo:hi])
    ref = ref_with_envelope(ref_mu_dual(spec, 2.0, U_p), "env", targets)
    assert _outcome(lambda: got) == _outcome(lambda: ref)
    assert got.target_violation == row and not got.passed


@pytest.mark.parametrize("floor", [False, True])
def test_nan_envelope_margin_fails_but_is_not_the_worst(floor):
    # a NaN target margin is a violation; folded into the worst margin
    # with Python's min, it leaves the ceiling's worst margin in place
    spec = weighted_mean(build_weights("power", 40_000, exponent=0.5))
    U_p = BoundParams(2.0, 1.0).U_p
    trace = mu_dual(spec, 2.0, U_p)
    targets = (0.5 if floor else 2.0) * trace.mu
    targets[_ROW_CHUNK + 1] = math.nan
    got = _with_envelope(trace, "env", lambda lo, hi: targets[lo:hi], floor)
    ref = ref_mu_dual(spec, 2.0, U_p)
    t_margins = trace.mu - targets if floor else targets - trace.mu
    ref = replace(ref, constraint="env", target_margins=t_margins[floor:],
                  target_violation=_ROW_CHUNK + 2)
    assert _outcome(lambda: got) == _outcome(lambda: ref)
    assert got.worst_margin == trace.worst_margin


def _ceiling_meets_trace_on(row, N, p):
    """Ratios whose ceiling r^q equals mu on that row while the domain
    test there still rounds above 0: every cross ratio before it is 0, so
    mu_n stays mu_1, and r there is chosen with r^q = mu_1."""
    q = p / (p - 1.0)
    eq, e1 = q / (q - 1.0), 1.0 / (q - 1.0)   # the loop's exponents
    for k in range(1000):
        r0 = np.array([1.1 + 1e-3 * k])
        mu_1 = float((r0 ** q)[0])
        if float((r0 ** eq)[0]) * mu_1 ** (-e1) - 1.0 > 0.0:
            break
    else:
        raise AssertionError("no ratio found")
    r = np.full(N, 2.0 * r0[0])
    r[row - 1] = r0[0]
    cross = np.zeros(N - 1)
    cross[row - 1:] = 1.0
    return r, cross, mu_1


@pytest.mark.parametrize("row", [1, 6] + DEATHS)
@pytest.mark.parametrize("p", [1.04, 3.0])
def test_dual_ceiling_comes_before_a_later_failure(row, p):
    # the domain test rounds to 2^-52 on that row: at p = 1.04 its power
    # (q - 1 = 25) underflows to 0, which would be a domain error; at
    # p = 3 the next mu is near 7e7 and the domain test fails on the row
    # after
    N = 40_000
    r, cross, mu_1 = _ceiling_meets_trace_on(row, N, p)
    got = _outcome(_mu_dual_ratios,
                   lambda lo, hi: (r[lo:hi], cross[lo:min(hi, N - 1)]),
                   N, p, mu_1)
    assert got == _outcome(ref_mu_dual_ratios, r, cross, p, mu_1)
    assert got[3] == row
    # the ceiling margin is 0 on that row and positive before it
    assert got[2] == repr(0.0)


@pytest.mark.parametrize("N", NS)
@pytest.mark.parametrize("p", [0.34, 0.35, 0.355, 0.4, 0.6, 0.9])
def test_hlp_loops_match_list_loops(N, p):
    _assert_same(hlp.mu_direct, ref_hlp_mu_direct, p, N)
    _assert_same(hlp.mu_dual, ref_hlp_mu_dual, p, N)


@pytest.mark.parametrize("N", NS)
def test_hlp_dual_exact_zero_death_matches_list_loop(N):
    # at p = 1/2, lam = 1 and mu_2 = 1 - 1 is exactly 0, not clamped: the
    # driver goes on to mu_3 = -1, and the trace dies at n = 2 (the last
    # value when N = 2)
    got = _assert_same(hlp.mu_dual, ref_hlp_mu_dual, 0.5, N)
    assert got[3] == (2 if N >= 2 else None)


@pytest.mark.parametrize("N", NS)
def test_hlp_direct_exact_zero_margin_matches_list_loop(N):
    # at p = 1/2, mu_1 = 1 = 1^p: the floor margin mu_1 - 1 is exactly
    # +0.0 (a negated 1 - mu_1 would be -0.0) and the trace dies at n = 1
    got = _assert_same(hlp.mu_direct, ref_hlp_mu_direct, 0.5, N)
    assert got[2] == repr(0.0) and got[3] == 1


@pytest.mark.parametrize("N", [10**3, 10**5])
@pytest.mark.parametrize("p", [0.34, 0.35, 0.355, 0.3865240616071652, 0.4,
                               0.6, 0.9])
def test_hlp_direct_is_the_old_hand_loop_within_rounding(p, N):
    # the driver divides by inner^(p-1) where the hand loop multiplied by
    # inner^(1-p); the verdict is the same, and the values agree to 1e-9
    # up to the collapse of a trace that falls through its floor after a
    # long run (the last 8 values of a dying trace): there mu_n - n^p
    # cancels, and at p = 0.38652... the last 7 of 16384 values part by
    # up to 7.5e-9
    got, old = hlp.mu_direct(p, N), old_hlp_mu_direct(p, N)
    assert (got.n_evaluated, got.first_violation) == (old.n_evaluated,
                                                      old.first_violation)
    rel = np.abs(got.mu - old.mu) / np.abs(old.mu)
    collapse = 0 if got.passed else 8
    assert np.all(rel[:rel.shape[0] - collapse] <= 1e-9)
    assert np.all(rel <= 1e-8)
    if got.passed:
        assert math.isclose(got.worst_margin, old.worst_margin, rel_tol=1e-9)
    else:
        assert got.worst_margin <= 0.0 and old.worst_margin <= 0.0


@pytest.mark.parametrize("N", [10**3, 10**5])
@pytest.mark.parametrize("p", [1.0 / 3.0, 0.34, 0.35, 0.355, 0.385,
                               0.3865240616071652, 0.39, 0.4, 0.45, 0.5,
                               0.6, 0.9, 0.99])
def test_hlp_dual_is_the_old_hand_loop_within_rounding(p, N):
    # the primal driver's step n^P mu / (mu^(1/(P-1)) + n^p)^(P-1) is the
    # hand loop's (n^-p + mu^(1-p))^(1/(1-p)) regrouped.  A trace that
    # dies climbs to a peak and falls through 0 in steps of about lam;
    # on the fall the values cancel and part (at p = 0.38652... and
    # N = 1e5 the value before the death is 1.6e-7 against 6.2e-8), so
    # the 1e-9 relative holds up to the peak (at most 8.2e-11 here), and
    # after it the difference is bounded against the peak (3.8e-9)
    got, old = hlp.mu_dual(p, N), old_hlp_mu_dual(p, N)
    assert (got.first_violation is None) == (old.first_violation is None)
    if got.passed:
        assert got.n_evaluated == old.n_evaluated == N
    else:
        assert got.n_evaluated == got.first_violation
        assert abs(got.first_violation - old.first_violation) <= 1
    k = min(got.n_evaluated, old.n_evaluated)
    top = int(np.argmax(old.mu[:k])) + 1
    diff = np.abs(got.mu[:k] - old.mu[:k])
    assert got.mu[0] == old.mu[0] == 0.0
    assert np.all(diff[1:top] <= 1e-9 * np.abs(old.mu[1:top]))
    assert np.all(diff <= 1e-8 * old.mu[top - 1])
    if got.passed:
        assert math.isclose(got.worst_margin, old.worst_margin, rel_tol=1e-9)
    else:
        assert got.worst_margin <= 0.0 and old.worst_margin <= 0.0


@pytest.mark.parametrize("p", [0.995, 0.999])
def test_hlp_direct_near_1_dies_on_its_floor(p):
    # mu_1^(1/(1-p)) underflows to 0 here, which the ceiling side's U_p
    # range check would reject; a floor takes no such check, so the trace
    # dies on its floor at n = 1, as the hand loop did
    assert _assert_same(hlp.mu_direct, ref_hlp_mu_direct, p, 100)[3] == 1
    assert old_hlp_mu_direct(p, 100).first_violation == 1


# p at which each trace dies at n = 16383 .. 16386 at N = 40000 (the
# death index falls as p rises; the mu_dual ones are the midpoints of
# the bisected p intervals of each death)
HLP_DEATHS = {
    "mu_direct": [0.3865242322248547, 0.3865240616071652,
                  0.3865238910017129, 0.3865237204083251],
    "mu_dual": [0.38652448817577423, 0.3865243175398245,
                0.3865241469160533, 0.38652397630445456],
}


@pytest.mark.parametrize("route", sorted(HLP_DEATHS))
def test_hlp_loops_dying_near_a_chunk_boundary(route):
    lib = getattr(hlp, route)
    ref = {"mu_direct": ref_hlp_mu_direct, "mu_dual": ref_hlp_mu_dual}[route]
    deaths = [_assert_same(lib, ref, p, 40_000)[3]
              for p in HLP_DEATHS[route]]
    assert deaths == list(range(_ROW_CHUNK - 1, _ROW_CHUNK + 3))


def step_rows(monkeypatch):
    """The rows of every step-loop call the drivers make from now on."""
    rows = []

    def loops():
        def count(loop):
            def run(trace, rp, *args):
                rows.append(rp.shape[0])
                return loop(trace, rp, *args)
            return run

        return tuple(map(count, steps))

    steps = _kernel._step_loops()
    monkeypatch.setattr(_kernel, "_step_loops", loops)
    return rows


def test_chunk_size_does_not_change_a_trace(monkeypatch):
    spec = weighted_mean(build_weights("power", 3000, exponent=0.5))
    params = BoundParams(2.0, 1.0)
    whole = [_outcome(mu_primal, spec, 2.0, params.lam_p),
             _outcome(mu_dual, spec, 2.0, params.U_p),
             _outcome(hlp.mu_direct, 0.355, 3000),
             _outcome(hlp.mu_dual, 0.355, 3000)]
    rows = step_rows(monkeypatch)
    for chunk in (1, 7):
        monkeypatch.setattr(_kernel, "_ROW_CHUNK", chunk)
        rows.clear()
        assert [_outcome(mu_primal, spec, 2.0, params.lam_p),
                _outcome(mu_dual, spec, 2.0, params.U_p),
                _outcome(hlp.mu_direct, 0.355, 3000),
                _outcome(hlp.mu_dual, 0.355, 3000)] == whole
        # the drivers read the patched chunk: four passing traces of
        # 3000 rows, about 3000 / chunk step-loop calls each
        assert max(rows) == chunk and len(rows) >= 4 * (2999 // chunk)


def test_chunk_size_does_not_change_a_copson_trace(monkeypatch):
    w = build_weights("power", 3000, exponent=0.5)
    # a passing trace of each route, and one that dies on its ceiling
    calls = [(mu_dual_copson, w, 2.0, 1.5), (mu_bge, w, 2.0, 0.8),
             (mu_dual_copson, w, 1.5, 2.2), (mu_bge, w, 2.0, 0.62),
             (mu_bge, w, 2.0, 0.8, "primal")]
    whole = [_outcome(*call) for call in calls]
    assert whole[2][3] is not None and whole[3][3] is not None
    rows = step_rows(monkeypatch)
    for chunk in (1, 7):
        monkeypatch.setattr(_kernel, "_ROW_CHUNK", chunk)
        monkeypatch.setattr(copson, "_ROW_CHUNK", chunk)
        rows.clear()
        assert [_outcome(*call) for call in calls] == whole
        assert max(rows) == chunk and len(rows) >= 3 * (2999 // chunk)


# ----------------------------------------------------------------------
# Memory


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# What the list loop of ref_mu_dual holds at least, without running it:
# every value of a passing trace as a Python float (24 bytes) and a list
# slot (8 bytes) pointing at it, and before the loop its whole-length
# float64 powers r^q, r^p and cross^q (8 bytes a row each).
LIST_FLOAT_BYTES = 24 + 8
WHOLE_POWERS_BYTES = 3 * 8


def test_mu_dual_peak_memory_is_below_the_list_loop():
    N = 200_000
    spec = weighted_mean(build_weights("power", N, exponent=1.0))
    U_p = BoundParams(1.95, 1.0).U_p
    trace = mu_dual(spec, 1.95, U_p)
    assert trace.passed and trace.n_evaluated == N
    got = _peak(mu_dual, spec, 1.95, U_p)
    # the trace (1.6 MB) and one chunk of ratios and powers stay; the
    # margins, the whole-length ratios and powers (six more arrays) and
    # the list of 2e5 floats (at least 6.1 MiB) are gone
    ref = N * LIST_FLOAT_BYTES
    assert got < 5 * 2 ** 20 < ref, (got / 2 ** 20, ref / 2 ** 20)


@pytest.mark.parametrize("route", ["dual", "primal"])
def test_mu_bge_peak_is_its_trace_and_one_chunk(route):
    # both routes read the same row source: the steps s_n are formed a
    # chunk at a time, like the ratios and the envelope or floor; past
    # the trace (1.6 MB), one chunk of ratios, powers and their lists of
    # Python floats stays (about 2.6 MiB), where a whole s (1.6 MB more),
    # or a whole bge_matrix, would not fit
    N = 200_000
    w = build_weights("power", N, exponent=0.5)
    trace = mu_bge(w, 2.0, 0.8, route)
    assert trace.passed and trace.n_evaluated == N
    got = _peak(mu_bge, w, 2.0, 0.8, route)
    assert got < trace.mu.nbytes + 3.25 * 2 ** 20, got / 2 ** 20


def test_early_dual_death_peaks_at_one_chunk():
    # L = 0.25 is below the Cartlidge constant 0.5 of power:1 weights:
    # the trace dies at n = 4, so it needs one chunk of ratios and
    # powers (about 1.5 MiB), not N trace values, every power or a
    # margin buffer
    N = 1_000_000
    spec = weighted_mean(build_weights("power", N, exponent=1.0))
    U_p = BoundParams(2.0, 0.25).U_p
    assert mu_dual(spec, 2.0, U_p).first_violation == 4
    got = _peak(mu_dual, spec, 2.0, U_p)
    # the list loop forms its three whole-length powers (22.9 MiB) first
    ref = N * WHOLE_POWERS_BYTES
    assert got < 3 * 2 ** 20 < ref, (got / 2 ** 20, ref / 2 ** 20)
