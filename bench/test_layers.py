"""Layer timings with pytest-benchmark, outside the tier-1 suite.

Times the compensated partial sums (`comp_cumsum`) and weight
construction (`build_weights`, two compensated sums plus the family's
values) at N = 1e3, 1e5, 1e6 and 1e7.  Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_layers.py \\
        --benchmark-json=OUT.json

The JSON holds the machine info, the git commit and, per case, the
median and IQR of the rounds.  `BENCH_<n>.json` files at the root keep
such runs of a change and of its parent side by side.
"""

import numpy as np
import pytest

from lpcert import build_weights, comp_cumsum

# Fewer rounds at large N keep a run of the sequential loop this
# replaced (about 5 s per sum at N = 1e7) within a few minutes.
ROUNDS = {10**3: 200, 10**5: 20, 10**6: 7, 10**7: 5}


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
