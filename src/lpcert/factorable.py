"""Lower triangular factorable matrices.

A factorable matrix here is determined by two positive sequences a, b:

    M[n, k] = b_k / a_n   for k <= n,   0 otherwise   (indices 1-based).

Applying M to a vector only needs one running prefix sum of b_k x_k, so
the matrix is never materialized.  The adjoint apply needs one suffix sum.

Constructors cover the families the certificates target:

    weighted_mean(w):        a_n = Lam_n, b_k = lam_k        (rows sum to 1)
    copson_matrix(w, p, c):  a_n = lam_n^(-1/p) Lam_n^(c/p),
                             b_k = lam_k^(1-1/p) Lam_k^(-(1-c/p))
    bge_matrix(w, p, alpha): a_n = lam_n^(1-1/p) / s_n,
                             b_k = lam_k^(1-1/p),
                             s_n = 1 - (Lam_{n-1}/Lam_n)^alpha

weighted_mean with constant weights is the Cesaro matrix (entries 1/n).
copson_matrix and bge_matrix are normalized (a_1 = b_1) for every weight
sequence; their diagonal ratios a_n/b_n are Lam_n/lam_n and 1/s_n
respectively.  copson_matrix forms powers of Lam_n, so it overflows on
fast-growing weights where those ratios stay moderate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._num import prefix_sums, suffix_sums
from .sequences import WeightSequence

_DENSE_LIMIT = 4096  # to_dense is a test/debug aid, not a compute path


@dataclass(frozen=True)
class FactorableSpec:
    """Positive row divisors a_n and column factors b_k of a factorable matrix."""

    kind: str
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a, b = self.a, self.b
        if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape or a.shape[0] < 1:
            raise ValueError("a and b must be 1-d arrays of equal positive length")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("a and b must be finite")
        if np.any(a <= 0.0) or np.any(b <= 0.0):
            raise ValueError("a and b must be positive")
        a.setflags(write=False)
        b.setflags(write=False)

    @property
    def N(self) -> int:
        return int(self.a.shape[0])

    @property
    def normalized(self) -> bool:
        """a_1 = b_1, required by the product and stepwise certificates."""
        a1, b1 = float(self.a[0]), float(self.b[0])
        return abs(a1 - b1) <= 1e-12 * max(abs(a1), abs(b1))

    @property
    def row_ratios(self) -> np.ndarray:
        """Diagonal ratios a_n / b_n."""
        return self.a / self.b

    def apply(self, x) -> np.ndarray:
        """y_n = (1/a_n) sum_{k<=n} b_k x_k via one running prefix sum."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.N,):
            raise ValueError(f"x must have shape ({self.N},), got {x.shape}")
        y = self.b * x
        return np.divide(prefix_sums(y, out=y), self.a, out=y)

    def adjoint_apply(self, z) -> np.ndarray:
        """(M^T z)_k = b_k sum_{n>=k} z_n / a_n via one suffix sum."""
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.N,):
            raise ValueError(f"z must have shape ({self.N},), got {z.shape}")
        y = z / self.a
        return np.multiply(self.b, suffix_sums(y, out=y), out=y)

    def to_dense(self) -> np.ndarray:
        """Materialize the matrix; guarded, for small-N oracle checks only."""
        if self.N > _DENSE_LIMIT:
            raise ValueError(f"refusing to materialize N={self.N} > {_DENSE_LIMIT}")
        m = np.tril(np.outer(1.0 / self.a, self.b))
        return m


def weighted_mean(w: WeightSequence) -> FactorableSpec:
    """Rows are weighted averages: entries lam_k / Lam_n.  The spec shares
    the weights' read-only arrays, which WeightSequence has checked as
    FactorableSpec would (1-d, one length, finite, positive), so it is
    built without running those checks again."""
    spec = object.__new__(FactorableSpec)
    for name, value in (("kind", "weighted_mean"), ("a", w.partials),
                        ("b", w.values)):
        object.__setattr__(spec, name, value)
    return spec


def copson_matrix(w: WeightSequence, p: float, c: float) -> FactorableSpec:
    """The factorable matrix whose l^p bound (p/(c-1))^p encodes the
    Copson inequality with weight exponent c; c = p with constant weights
    recovers the Cesaro matrix."""
    if not (p > 1.0):
        raise ValueError("copson_matrix needs p > 1")
    if not (c > 1.0):
        raise ValueError("copson_matrix needs c > 1")
    lam, Lam = w.values, w.partials
    a = lam ** (-1.0 / p) * Lam ** (c / p)
    b = lam ** (1.0 - 1.0 / p) * Lam ** (-(1.0 - c / p))
    return FactorableSpec(kind=f"copson(p={p:g},c={c:g})", a=a, b=b)


def bge_steps(w: WeightSequence, alpha: float, lo: int = 0,
              hi: int | None = None) -> np.ndarray:
    """Relative power differences s_n = 1 - (Lam_{n-1}/Lam_n)^alpha, i.e.
    (Lam_n^alpha - Lam_{n-1}^alpha)/Lam_n^alpha, with s_1 = 1, at the
    0-based rows lo <= i < hi (by default every row).

    Formed from ratios, so large partial sums do not overflow; stalled
    partial sums (s_n rounding to 0) are rejected.  Each s_n is one
    elementwise formula, so a range is the same slice of the whole array
    bit for bit, and callers that go a chunk at a time hold one chunk.
    """
    Lam = w.partials
    hi = w.N if hi is None else hi
    prev = Lam[lo - 1:hi - 1] if lo else np.concatenate(([0.0], Lam[:hi - 1]))
    s = 1.0 - (prev / Lam[lo:hi]) ** alpha
    if np.any(s <= 0.0):
        raise ValueError("power differences must stay positive")
    return s


def bge_matrix(w: WeightSequence, p: float, alpha: float) -> FactorableSpec:
    """The factorable matrix behind the power-difference inequality with
    exponent alpha; its l^p bound target is (alpha*p/(p-1))^p."""
    if not (p > 1.0):
        raise ValueError("bge_matrix needs p > 1")
    if not (alpha > 0.0):
        raise ValueError("bge_matrix needs alpha > 0")
    base = w.values ** (1.0 - 1.0 / p)
    with np.errstate(over="ignore"):   # the spec rejects an infinite a_n
        a = base / bge_steps(w, alpha)
    return FactorableSpec(kind=f"bge(p={p:g},alpha={alpha:g})", a=a, b=base)


def cesaro(N: int) -> FactorableSpec:
    """Convenience: the Cesaro matrix, entries 1/n for k <= n."""
    a = np.arange(1, N + 1, dtype=np.float64)
    b = np.ones(N, dtype=np.float64)
    return FactorableSpec(kind="cesaro", a=a, b=b)


def _require_normalized(spec: FactorableSpec, what: str):
    if not spec.normalized:
        raise ValueError(f"{what} needs a normalized spec (a_1 = b_1); "
                         f"got a_1={spec.a[0]!r}, b_1={spec.b[0]!r}")


__all__ = [
    "FactorableSpec", "weighted_mean", "copson_matrix", "bge_steps",
    "bge_matrix", "cesaro",
]
