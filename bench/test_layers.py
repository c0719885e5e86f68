"""Layer timings with pytest-benchmark, outside the tier-1 suite.

Times the compensated partial sums (`comp_cumsum`) and weight
construction (`build_weights`, two compensated sums plus the family's
values) at N = 1e3, 1e5, 1e6 and 1e7, and the mu recurrences and the
HLP n0 searches at N = 1e3, 1e5 and 1e6: `mu_primal` and
`certificates.mu_dual` on the weighted mean of lam_n = n^0.5 at p = 2
(both traces pass), `hlp.certify_direct` at p = 0.35 (certified at
n0 = 4) and 0.355 (uncertified, the whole trace), and `hlp.search_c` at
p = 0.345 (feasible at n0 = 3) and 0.355 (infeasible), each with
n0_max = N.  Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_layers.py \\
        --benchmark-json=OUT.json

The JSON holds the machine info, the git commit and, per case, the
median and IQR of the rounds.  `BENCH_<n>.json` files at the root keep
such runs of a change and of its parent side by side.
"""

import numpy as np
import pytest

from lpcert import (BoundParams, build_weights, certify_direct, comp_cumsum,
                    mu_dual, mu_primal, search_c, weighted_mean)

# Fewer rounds at large N keep a run of the sequential loop this
# replaced (about 5 s per sum at N = 1e7) within a few minutes.
ROUNDS = {10**3: 200, 10**5: 20, 10**6: 7, 10**7: 5}
# The recurrences and searches take up to a few seconds at N = 1e6.
TRACE_ROUNDS = {10**3: 50, 10**5: 10, 10**6: 5}


@pytest.mark.parametrize("N", sorted(ROUNDS))
def test_comp_cumsum(benchmark, N):
    vals = np.arange(1, N + 1, dtype=np.float64) ** -0.9
    out = benchmark.pedantic(comp_cumsum, args=(vals,), rounds=ROUNDS[N],
                             warmup_rounds=1)
    assert out.shape == (N,)


@pytest.mark.parametrize("N", sorted(ROUNDS))
def test_build_weights(benchmark, N):
    w = benchmark.pedantic(build_weights, args=("power", N),
                           kwargs={"exponent": 1.0}, rounds=ROUNDS[N],
                           warmup_rounds=1)
    assert w.N == N


@pytest.mark.parametrize("N", sorted(TRACE_ROUNDS))
@pytest.mark.parametrize("route", ["mu_primal", "mu_dual"])
def test_mu_trace(benchmark, route, N):
    spec = weighted_mean(build_weights("power", N, exponent=0.5))
    params = BoundParams(2.0, 1.0)
    fn, arg = {"mu_primal": (mu_primal, params.lam_p),
               "mu_dual": (mu_dual, params.U_p)}[route]
    trace = benchmark.pedantic(fn, args=(spec, 2.0, arg),
                               rounds=TRACE_ROUNDS[N], warmup_rounds=1)
    assert trace.passed and trace.n_evaluated == N


@pytest.mark.parametrize("N", sorted(TRACE_ROUNDS))
@pytest.mark.parametrize("p", [0.35, 0.355])
def test_certify_direct(benchmark, p, N):
    cert = benchmark.pedantic(certify_direct, args=(p, N),
                              rounds=TRACE_ROUNDS[N], warmup_rounds=1)
    assert cert.certified == (p == 0.35)


@pytest.mark.parametrize("N", sorted(TRACE_ROUNDS))
@pytest.mark.parametrize("p", [0.345, 0.355])
def test_search_c(benchmark, p, N):
    found = benchmark.pedantic(search_c, args=(p, N),
                               rounds=TRACE_ROUNDS[N], warmup_rounds=1)
    assert found.feasible == (p == 0.345)
