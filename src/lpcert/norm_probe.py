"""Brute-force lower bounds on l^p operator norms.

power_lower_bound runs the nonlinear power iteration for the norm of a
nonnegative lower triangular factorable matrix on l^p, p > 1:

    y = M x,  z = y^(p-1),  u = M^T z,  x' = u^(1/(p-1)),  renormalize.

Every iterate yields a certified lower bound ||M x||_p / ||x||_p; the
maximum ratio seen is reported, so early stopping can only weaken the
bound, never invalidate it.  The starting vector x_n = n^(-1/p - 0.01)
is near-extremal for the weighted mean families.

ratio_at evaluates the raw ratio at a supplied vector and is also valid
for 0 < p < 1 and for p < 0, where it probes lower bounds of a different
flavour (no iteration is attempted there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._num import record_dict
from .factorable import FactorableSpec


@dataclass(frozen=True)
class NormEstimate:
    """Result of a power-iteration run."""

    p: float
    N: int
    lower_bound: float   # max ratio over all iterates
    iterations: int
    residual: float      # last relative change of the ratio
    converged: bool

    to_dict = record_dict


def _pnorm(x: np.ndarray, p: float) -> float:
    return float(np.sum(x ** p) ** (1.0 / p))


def ratio_at(spec: FactorableSpec, p: float, x) -> float:
    """(sum (Mx)_n^p / sum x_n^p)^(1/p) at a positive vector x.

    Valid for p > 1, 0 < p < 1, and p < 0 (all entries of x must be
    positive and finite; for p < 0 the power just inverts).
    """
    if not math.isfinite(p) or p == 0.0 or p == 1.0:
        raise ValueError(f"unsupported exponent p={p!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.N,):
        raise ValueError(f"x must have shape ({spec.N},), got {x.shape}")
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise ValueError("x must be positive and finite")
    y = spec.apply(x)
    num = np.sum(y ** p)
    den = np.sum(x ** p)
    if not (math.isfinite(num) and math.isfinite(den)) or den == 0.0:
        raise ValueError("non-finite power sums; rescale x")
    return float((num / den) ** (1.0 / p))


def power_lower_bound(spec: FactorableSpec, p: float, *,
                      max_iter: int = 10000, tol: float = 1e-10) -> NormEstimate:
    """Nonlinear power iteration for a lower bound on ||M||_{p,p}, p > 1."""
    if not (p > 1.0):
        raise ValueError("power iteration needs p > 1")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    N = spec.N
    n = np.arange(1, N + 1, dtype=np.float64)
    x = n ** (-1.0 / p - 0.01)
    if not np.all(np.isfinite(x)):
        x = np.ones(N, dtype=np.float64)
    x = x / _pnorm(x, p)

    pm1 = p - 1.0
    best = 0.0
    prev_ratio = 0.0
    residual = math.inf
    iters = 0
    converged = False
    for iters in range(1, max_iter + 1):
        y = spec.apply(x)
        ratio = _pnorm(y, p)  # ||x||_p = 1 by construction
        if not math.isfinite(ratio):
            raise ValueError("power iteration overflowed; matrix too large?")
        best = max(best, ratio)
        residual = abs(ratio - prev_ratio) / max(ratio, 1.0)
        if iters > 1 and residual < tol:
            converged = True
            break
        prev_ratio = ratio
        z = y ** pm1
        u = spec.adjoint_apply(z)
        x_new = u ** (1.0 / pm1)
        norm = _pnorm(x_new, p)
        if not math.isfinite(norm) or norm == 0.0:
            # one fallback restart from the flat vector, then give up
            x_new = np.ones(N, dtype=np.float64)
            norm = _pnorm(x_new, p)
        x = x_new / norm
    return NormEstimate(p=p, N=N, lower_bound=best, iterations=iters,
                        residual=residual, converged=converged)
