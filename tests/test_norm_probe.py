"""Power-iteration lower bounds against a dense spectral oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcert import (FactorableSpec, build_weights, cesaro, power_lower_bound,
                    ratio_at, weighted_mean)


def jacobi_largest_singular_value(m: np.ndarray, sweeps: int = 60) -> float:
    """Largest singular value via cyclic Jacobi on the Gram matrix.

    Independent of both the package and numpy's LAPACK path: plain
    two-sided rotations until off-diagonal mass is negligible.
    """
    a = m.T @ m
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off = max(off, abs(a[i, j]))
                if abs(a[i, j]) < 1e-16:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[i, j], a[j, j] - a[i, i])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[i, i] = rot[j, j] = c
                rot[i, j] = s
                rot[j, i] = -s
                a = rot.T @ a @ rot
        if off < 1e-15:
            break
    return float(np.sqrt(np.max(np.diag(a))))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_p2_lower_bound_matches_jacobi_oracle(n):
    spec = cesaro(n)
    est = power_lower_bound(spec, 2.0)
    want = jacobi_largest_singular_value(spec.to_dense())
    assert est.lower_bound == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("exponent", [0.5, 1.0, 2.0])
def test_p2_weighted_mean_matches_jacobi_oracle(exponent):
    w = build_weights("power", 10, exponent=exponent)
    spec = weighted_mean(w)
    est = power_lower_bound(spec, 2.0)
    want = jacobi_largest_singular_value(spec.to_dense())
    assert est.lower_bound == pytest.approx(want, abs=1e-8)


@given(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False,
                 allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_ratio_scale_invariance(t):
    spec = cesaro(16)
    x = np.linspace(1.0, 3.0, 16)
    r1 = ratio_at(spec, 2.0, x)
    r2 = ratio_at(spec, 2.0, t * x)
    assert r2 == pytest.approx(r1, rel=1e-12)


def test_lower_bound_is_certified_lower_bound():
    # any iterate's ratio is a valid lower bound, so the estimate can
    # never exceed what a direct evaluation at the same vector gives
    spec = cesaro(64)
    est = power_lower_bound(spec, 2.5)
    assert est.lower_bound <= 2.5 / 1.5 + 1e-9


def test_lower_bound_monotone_in_truncation():
    prev = 0.0
    for n in (8, 16, 32, 64, 128):
        est = power_lower_bound(cesaro(n), 2.0)
        assert est.lower_bound >= prev - 1e-12
        prev = est.lower_bound


def test_negative_exponent_norm_on_small_dual_matrix():
    # for the dual matrix (a_n = 1, b_k = 1/k, the prefix sums of x_k/k)
    # with N = 2 and exponent -1, the all-ones
    # vector gives means (1, 3/2) entrywise summed as harmonic ratios:
    # ||y||/-1 / ||x||_-1 = (3/5)/(1/2) = 1.2, computable by hand
    spec = FactorableSpec(kind="hlp_dual", a=np.ones(2),
                          b=np.array([1.0, 0.5]))
    got = ratio_at(spec, -1.0, np.ones(2))
    assert got == pytest.approx(1.2, rel=1e-13)


def test_ratio_rejects_degenerate_exponents():
    spec = cesaro(4)
    with pytest.raises(ValueError):
        ratio_at(spec, 0.0, np.ones(4))
    with pytest.raises(ValueError):
        ratio_at(spec, 1.0, np.ones(4))


def test_estimate_reports_iterations_and_convergence():
    est = power_lower_bound(cesaro(256), 2.0)
    assert est.converged
    assert est.iterations >= 1
    assert est.residual <= 1e-10
    d = est.to_dict()
    assert set(d) == {"p", "N", "lower_bound", "iterations", "residual",
                      "converged"}
