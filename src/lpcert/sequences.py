"""Weight sequences and the averaged transforms built from them.

A weight sequence is a finite positive sequence lam_1..lam_N together with
its partial sums Lam_n = lam_1 + ... + lam_n and the truncated tail sums
Lam*_n = lam_n + ... + lam_N.  Four averaged transforms of an input vector
x are used throughout the package:

    prefix_mean[n] = (1/Lam_n)   * sum_{k<=n} lam_k x_k
    tail_mean[n]   = (1/Lam*_n)  * sum_{k>=n} lam_k x_k
    dual_prefix[n] = lam_n * sum_{k>=n} x_k / Lam_k
    dual_tail[n]   = lam_n * sum_{k<=n} x_k / Lam*_k

All tail sums are truncated at N; there is no extrapolation.  Partial sums
of the weights use compensated summation (see _num.comp_cumsum).  Every
averaged transform in the package, these four and the crossed ones of the
Copson and Leindler branches, is one call of `averaged`, row-wise over a
batch of input vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._num import comp_cumsum, suffix_sums

WEIGHT_KINDS = ("constant", "power", "geometric", "explicit")


@dataclass(frozen=True)
class WeightSequence:
    """A positive weight sequence with its partial sums; the tail sums
    are summed on first use.

    Both arrays are checked here, once: 1-d, of one nonempty length,
    finite and positive.  So every WeightSequence holds valid weights,
    and the specs built on them (factorable.weighted_mean) skip
    FactorableSpec's checks of the same arrays."""

    kind: str
    values: np.ndarray    # lam_1..lam_N
    partials: np.ndarray  # Lam_n
    label: str = ""

    def __post_init__(self):
        lam, Lam = self.values, self.partials
        if lam.ndim != 1 or lam.shape[0] < 1 or Lam.shape != lam.shape:
            raise ValueError("weights must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(lam)):
            raise ValueError("weights must be finite (overflow in construction?)")
        if np.any(lam <= 0.0):
            raise ValueError("weights must be positive")
        idx = np.flatnonzero(~np.isfinite(Lam))
        if idx.size:
            raise ValueError(f"{self.label} partial sums overflow from n = "
                             f"{idx[0] + 1}; lower N")
        if np.any(Lam <= 0.0):
            raise ValueError("partial sums must be positive")
        for arr in (lam, Lam):
            arr.setflags(write=False)

    @property
    def N(self) -> int:
        return int(self.values.shape[0])

    @cached_property
    def tails(self) -> np.ndarray:
        """Lam*_n, truncated at N; read-only, summed on first read.

        Held C-contiguous, so that the powers taken of it run numpy's
        SIMD `pow` (see suffix_sums).
        """
        tails = np.ascontiguousarray(comp_cumsum(self.values[::-1])[::-1])
        tails.setflags(write=False)
        return tails

    def head(self, n: int) -> WeightSequence:
        """The first n weights: self when n = N, else the leading slices
        of the values and partial sums, since the compensated partial
        sums of lam_1..lam_n are those of the whole list, bit for bit."""
        if not (1 <= n <= self.N):
            raise ValueError("need 1 <= N <= len(weights)")
        if n == self.N:
            return self
        return WeightSequence(kind=self.kind, values=self.values[:n],
                              partials=self.partials[:n], label=self.label)

    @property
    def ratios(self) -> np.ndarray:
        """Lam_n / lam_n."""
        return self.partials / self.values

    @property
    def tail_ratios(self) -> np.ndarray:
        """Lam*_n / lam_n."""
        return self.tails / self.values

    def __repr__(self):
        tag = self.label or self.kind
        return f"WeightSequence({tag}, N={self.N})"


def _finish(kind: str, lam: np.ndarray, label: str) -> WeightSequence:
    """The sequence of lam with its compensated partial sums, both
    checked by WeightSequence."""
    if lam.ndim != 1:     # comp_cumsum sums along the one axis
        raise ValueError("weights must form a nonempty 1-d sequence")
    return WeightSequence(kind=kind, values=lam, partials=comp_cumsum(lam),
                          label=label)


def build_weights(kind: str, N: int, *, exponent: float | None = None,
                  ratio: float | None = None,
                  values=None, label: str = "") -> WeightSequence:
    """Construct one of the supported weight families at truncation N.

    kind "constant":  lam_n = 1
    kind "power":     lam_n = n**exponent, exponent > -1
    kind "geometric": lam_n = ratio**n, ratio > 0
    kind "explicit":  lam_n = values[n-1], all positive
    """
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"truncation N must be a positive integer, got {N!r}")
    if kind == "constant":
        lam = np.ones(N, dtype=np.float64)
        label = label or "constant"
    elif kind == "power":
        if exponent is None or not math.isfinite(exponent) or exponent <= -1.0:
            raise ValueError("power weights need exponent > -1")
        lam = np.arange(1, N + 1, dtype=np.float64) ** float(exponent)
        label = label or f"power:{exponent:g}"
    elif kind == "geometric":
        if ratio is None or not math.isfinite(ratio) or ratio <= 0.0:
            raise ValueError("geometric weights need ratio > 0")
        with np.errstate(over="ignore"):
            lam = float(ratio) ** np.arange(1, N + 1, dtype=np.float64)
        label = label or f"geometric:{ratio:g}"
        for bad, what in ((lam == 0.0, "underflow to 0"),
                          (np.isinf(lam), "overflow")):
            idx = np.flatnonzero(bad)
            if idx.size:
                raise ValueError(f"{label} weights {what} from n = "
                                 f"{idx[0] + 1}; lower N")
    elif kind == "explicit":
        if values is None:
            raise ValueError("explicit weights need values")
        lam = np.array(values, dtype=np.float64).reshape(-1)
        if lam.shape[0] != N:
            raise ValueError(f"expected {N} values, got {lam.shape[0]}")
        label = label or "explicit"
    else:
        raise ValueError(f"unknown weight kind {kind!r}; expected one of {WEIGHT_KINDS}")
    return _finish(kind, lam, label)


def load_weight_file(path: str) -> WeightSequence:
    """Read an explicit weight list: one positive decimal per line.

    UTF-8 text, LF newlines, '#' starts a comment, blank lines ignored.
    Values are parsed exactly once; serialization round-trips use repr.
    A file with no '#' and no whitespace but line breaks is parsed in
    one pass; any other file, and every file the one pass rejects, goes
    through the line loop, whose error messages name the line.
    """
    vals = _plain_weights(path)
    if vals is None:
        vals = _weight_lines(path)
    return build_weights("explicit", len(vals), values=vals, label=f"file:{path}")


def _plain_weights(path: str):
    """The weights of a file as a float64 array in one pass, or None when
    the file needs the line loop: a '#', whitespace other than line
    breaks, undecodable bytes, no values, or a value that is not a
    positive finite decimal.  When the only whitespace is LF and CR, at
    which the loop splits lines, each token is one of the loop's
    stripped lines, and float parses it the same way."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if "#" in text:
        return None
    tokens = text.split()
    if len(text) - sum(map(len, tokens)) != text.count("\n") + text.count("\r"):
        return None
    try:
        vals = np.array(list(map(float, tokens)), dtype=np.float64)
    except ValueError:
        return None
    if not vals.size or not np.all((vals > 0.0) & (vals < math.inf)):
        return None
    return vals


def _weight_lines(path: str) -> list[float]:
    """The weights of a file read one line at a time; raises on the
    first bad line with its number."""
    vals: list[float] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for ln, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            try:
                v = float(body)
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: not a decimal number: {body!r}") from exc
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{path}:{ln}: weights must be positive and finite")
            vals.append(v)
    if not vals:
        raise ValueError(f"{path}: no weights found")
    return vals


def averaged(w: WeightSequence, X, direction: str, base: str,
             dual: bool = False, out=None) -> np.ndarray:
    """One averaged transform of x, row-wise along the last axis of X,
    written into `out` (an array of X's shape, which may be X itself)
    or a fresh array.

    direction "prefix" sums over k <= n and "suffix" over k >= n
    (truncated at N); base "partials" is B = Lam and "tails" is B = Lam*.
    The mean form is (1/B_n) sum lam_k x_k, the dual form
    lam_n sum x_k / B_k.
    """
    lam, B = w.values, getattr(w, base)
    if dual:
        summed = np.divide(X, B, out=out)
    else:
        summed = np.multiply(X, lam, out=out)
    if direction == "suffix":
        suffix_sums(summed, out=summed)
    else:
        np.cumsum(summed, axis=-1, out=summed)
    if dual:
        return np.multiply(summed, lam, out=summed)
    return np.divide(summed, B, out=summed)

