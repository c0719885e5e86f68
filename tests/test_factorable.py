"""Factorable matrix constructors and dense agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcert import (FactorableSpec, WeightSequence, bge_matrix,
                    build_weights, cesaro, copson_matrix, weighted_mean)

weight_arrays = st.lists(
    st.floats(min_value=1e-2, max_value=1e2, allow_nan=False,
              allow_infinity=False),
    min_size=2, max_size=24,
).map(np.array)


def dense_oracle(spec: FactorableSpec) -> np.ndarray:
    """Entrywise reconstruction, independent of the module's to_dense."""
    n = spec.N
    out = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1):
            out[i, k] = spec.b[k] / spec.a[i]
    return out


def test_cesaro_entries_are_reciprocal_row_index():
    spec = cesaro(5)
    dense = dense_oracle(spec)
    for i in range(5):
        assert np.allclose(dense[i, : i + 1], 1.0 / (i + 1), rtol=1e-15)


@given(weight_arrays)
@settings(max_examples=100, deadline=None)
def test_apply_matches_dense_matmul(vals):
    w = build_weights("explicit", len(vals), values=vals)
    spec = weighted_mean(w)
    x = np.linspace(1.0, 2.0, len(vals))
    direct = dense_oracle(spec) @ x
    assert np.allclose(spec.apply(x), direct, rtol=1e-10)


@given(weight_arrays)
@settings(max_examples=100, deadline=None)
def test_adjoint_matches_dense_transpose(vals):
    w = build_weights("explicit", len(vals), values=vals)
    spec = weighted_mean(w)
    z = np.linspace(0.5, 1.5, len(vals))
    direct = dense_oracle(spec).T @ z
    assert np.allclose(spec.adjoint_apply(z), direct, rtol=1e-10)


def test_weighted_mean_rows_sum_to_one():
    w = build_weights("power", 12, exponent=0.5)
    dense = dense_oracle(weighted_mean(w))
    assert np.allclose(dense.sum(axis=1), 1.0, rtol=1e-12)


def test_copson_matrix_at_c_equals_p_constant_weights_is_weighted_mean():
    # with constant weights and c = p the two constructions coincide row
    # by row, so certificates proven on one transfer to the other
    w = build_weights("constant", 8)
    a = copson_matrix(w, 2.0, 2.0)
    b = weighted_mean(w)
    da, db = dense_oracle(a), dense_oracle(b)
    assert np.allclose(da, db, rtol=1e-12)


def test_copson_matrix_general_weights_differs_from_weighted_mean():
    w = build_weights("power", 6, exponent=1.0)
    da = dense_oracle(copson_matrix(w, 2.0, 2.0))
    db = dense_oracle(weighted_mean(w))
    assert not np.allclose(da, db, rtol=1e-3)


def test_bge_matrix_blocked_rows():
    # a_n = lam_n^{1-1/p} / (1 - (Lam_{n-1}/Lam_n)^alpha),
    # b_k = lam_k^{1-1/p}; constant weights, alpha = 1 gives the
    # averaging matrix entries 1/n
    w = build_weights("constant", 6)
    dense = dense_oracle(bge_matrix(w, 2.0, 1.0))
    for i in range(6):
        assert np.allclose(dense[i, : i + 1], 1.0 / (i + 1), rtol=1e-13)


def test_bge_matrix_stays_finite_on_large_partial_sums():
    # a_n = lam_n^{1-1/p} / s_n with s_n = 1 - (Lam_{n-1}/Lam_n)^alpha;
    # geometric:1.05 partial sums reach about 1e213 at N = 1e4, where
    # Lam_n^alpha alone would overflow
    w = build_weights("geometric", 10_000, ratio=1.05)
    spec = bge_matrix(w, 2.0, 1.5)
    assert np.all(np.isfinite(spec.a))
    lam, Lam = w.values[:200], w.partials[:200]
    prev = np.concatenate(([0.0], Lam[:-1]))
    power_form = lam ** 0.5 * Lam ** 1.5 / (Lam ** 1.5 - prev ** 1.5)
    assert np.allclose(spec.a[:200], power_form, rtol=1e-12, atol=0.0)


def test_to_dense_refuses_large():
    with pytest.raises(ValueError):
        cesaro(5000).to_dense()


def test_cesaro_is_weighted_mean_of_constant_weights():
    a = dense_oracle(cesaro(6))
    b = dense_oracle(weighted_mean(build_weights("constant", 6)))
    assert np.allclose(a, b, rtol=1e-15)


@pytest.mark.parametrize("a, b, message", [
    ([1.0, math.nan], [1.0, 1.0], "finite"),
    ([1.0, 2.0], [1.0, math.inf], "finite"),
    ([1.0, -2.0], [1.0, 1.0], "positive"),
    ([1.0, 2.0], [0.0, 1.0], "positive"),
])
def test_spec_and_weights_of_raw_arrays_are_checked(a, b, message):
    # weighted_mean skips the spec's checks, since a WeightSequence has
    # made them on its own arrays; every other spec still makes them
    with pytest.raises(ValueError, match=f"a and b must be {message}"):
        FactorableSpec(kind="raw", a=np.array(a), b=np.array(b))
    with pytest.raises(ValueError):
        WeightSequence(kind="raw", values=np.array(b), partials=np.array(a))


def test_weighted_mean_is_the_checked_spec():
    w = build_weights("power", 50, exponent=0.5)
    spec = weighted_mean(w)
    checked = FactorableSpec(kind="weighted_mean", a=w.partials, b=w.values)
    assert spec == checked and spec.a is w.partials and spec.b is w.values
    assert not spec.a.flags.writeable and not spec.b.flags.writeable
