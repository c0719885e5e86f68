"""Weight sequence construction, partial sums, and tail identities."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcert import (build_weights, cli, comp_cumsum, load_weight_file,
                    sequences, suffix_sums)
from lpcert.sequences import averaged
from lpcert._num import _ROW_CHUNK

finite_weights = st.lists(
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=64,
)

# Mixed signs over the whole binary64 range, so that partial sums also
# cancel, go subnormal and overflow to inf (and then nan).
wide_floats = st.lists(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              st.builds(lambda m, e: m * 2.0 ** e,
                        st.floats(min_value=-2.0, max_value=2.0),
                        st.integers(min_value=-1074, max_value=1023))),
    min_size=0, max_size=64,
)


def neumaier_loop(values):
    """The sequential Neumaier loop that comp_cumsum must reproduce."""
    arr = np.asarray(values, dtype=np.float64)
    out = np.empty(arr.shape[0], dtype=np.float64)
    total = 0.0
    comp = 0.0
    for i in range(arr.shape[0]):
        v = float(arr[i])
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
        out[i] = total + comp
    return out


def test_constant_weights_partials_and_ratios():
    w = build_weights("constant", 6)
    assert np.array_equal(w.values, np.ones(6))
    assert np.array_equal(w.partials, np.arange(1, 7, dtype=float))
    assert np.array_equal(w.ratios, np.arange(1, 7, dtype=float))
    # tails count the remaining indices including n
    assert np.array_equal(w.tails, np.arange(6, 0, -1, dtype=float))


def test_power_weights_match_direct_formula():
    w = build_weights("power", 10, exponent=2.0)
    n = np.arange(1, 11, dtype=float)
    assert np.allclose(w.values, n ** 2, rtol=0, atol=0)
    assert np.allclose(w.partials, np.cumsum(n ** 2), rtol=1e-15)


def test_geometric_weights_start_at_ratio():
    w = build_weights("geometric", 4, ratio=3.0)
    assert np.allclose(w.values, [3.0, 9.0, 27.0, 81.0], rtol=0)


def test_explicit_weights_round_trip():
    vals = np.array([0.5, 1.25, 0.75])
    w = build_weights("explicit", 3, values=vals, label="abc")
    assert w.label == "abc"
    assert np.array_equal(w.values, vals)


@pytest.mark.parametrize("kind,kwargs", [
    ("power", {"exponent": -1.5}),
    ("geometric", {"ratio": 0.0}),
    ("geometric", {"ratio": -2.0}),
    ("unknown", {}),
])
def test_bad_parameters_rejected(kind, kwargs):
    with pytest.raises(ValueError):
        build_weights(kind, 5, **kwargs)


def test_nonpositive_values_rejected():
    with pytest.raises(ValueError):
        build_weights("explicit", 3, values=np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        build_weights("explicit", 2, values=np.array([1.0, -1.0]))


@given(finite_weights)
@settings(max_examples=200, deadline=None)
def test_partials_match_exact_fraction_cumsum(vals):
    w = build_weights("explicit", len(vals), values=np.array(vals))
    exact = []
    total = Fraction(0)
    for v in vals:
        total += Fraction(v)
        exact.append(float(total))
    assert np.allclose(w.partials, exact, rtol=1e-13, atol=0.0)


@given(finite_weights)
@settings(max_examples=200, deadline=None)
def test_tail_plus_previous_partial_is_total(vals):
    w = build_weights("explicit", len(vals), values=np.array(vals))
    total = w.partials[-1]
    # tails[n] counts indices n..N, so tails[n] + partials[n-1] = total
    recomposed = w.tails.copy()
    recomposed[1:] += w.partials[:-1]
    assert np.allclose(recomposed, total, rtol=1e-12)


@given(finite_weights)
@settings(max_examples=200, deadline=None)
def test_ratio_families_bounded_below_by_one(vals):
    w = build_weights("explicit", len(vals), values=np.array(vals))
    assert np.all(w.ratios >= 1.0 - 1e-12)
    assert np.all(w.tail_ratios >= 1.0 - 1e-12)
    assert np.all(np.diff(w.partials) > 0.0)


@given(wide_floats)
@settings(max_examples=400, deadline=None)
def test_comp_cumsum_is_bitwise_the_neumaier_loop(vals):
    arr = np.array(vals, dtype=np.float64)
    for seq in (arr, arr[::-1]):
        assert comp_cumsum(seq).tobytes() == neumaier_loop(seq).tobytes()


# comp_cumsum sums one _ROW_CHUNK block at a time; these lengths end
# just before, on and just after the first block boundary, and three
# blocks in
BLOCK_LENGTHS = [_ROW_CHUNK - 1, _ROW_CHUNK, _ROW_CHUNK + 1,
                 3 * _ROW_CHUNK + 5]


@pytest.mark.parametrize("n", BLOCK_LENGTHS)
def test_comp_cumsum_is_the_neumaier_loop_across_blocks(n):
    rng = np.random.default_rng(n)
    # slowly growing weights, wide positive ones, and mixed signs that
    # cancel, so the carried compensation matters
    for arr in (np.arange(1, n + 1, dtype=np.float64) ** -0.9,
                rng.lognormal(0.0, 8.0, n),
                rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)):
        for seq in (arr, arr[::-1]):
            assert comp_cumsum(seq).tobytes() == neumaier_loop(seq).tobytes()


def test_overflowing_partials_emit_no_warning():
    # 2^1023 is finite, but the last partial sums overflow (to nan, as
    # in the loop: inf plus a compensation of inf - inf); build_weights
    # names that index instead of returning them.  The second list
    # overflows in the second block of comp_cumsum.
    lam = 2.0 ** np.arange(1, 1024, dtype=np.float64)
    late = np.ones(_ROW_CHUNK + 10)
    late[_ROW_CHUNK + 2:] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        partials = comp_cumsum(lam)
        late_partials = comp_cumsum(late)
        with pytest.raises(ValueError,
                           match="geometric:2 partial sums overflow from "
                                 "n = 1023; lower N"):
            build_weights("geometric", 1023, ratio=2.0)
        with pytest.raises(ValueError,
                           match="explicit partial sums overflow from "
                                 f"n = {_ROW_CHUNK + 4}; lower N"):
            build_weights("explicit", late.shape[0], values=late)
    assert not np.isfinite(partials[-1])
    assert partials.tobytes() == neumaier_loop(lam).tobytes()
    assert late_partials.tobytes() == neumaier_loop(late).tobytes()


def test_build_weights_holds_its_arrays_and_one_block():
    # the partial sums are summed a block at a time: past lam and Lam,
    # the temporaries are a few blocks of 2^14 values (128 KiB each), not
    # five arrays of N (1.6 MB each here)
    tracemalloc.start()
    try:
        w = build_weights("power", 200_000, exponent=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = w.values.nbytes + w.partials.nbytes
    assert peak < held + 2 ** 20, (peak - held) / 2 ** 20


def test_underflowing_geometric_weights_name_the_index():
    # 0.5^1075 is below the smallest subnormal
    with pytest.raises(ValueError,
                       match="geometric:0.5 weights underflow to 0 from "
                             "n = 1075"):
        build_weights("geometric", 2000, ratio=0.5)
    assert build_weights("geometric", 1074, ratio=0.5).values[-1] > 0.0


def test_overflowing_geometric_weights_name_the_index(capsys):
    # 2^1024 is above the largest finite double; no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="geometric:2 weights overflow from "
                                 "n = 1024; lower N"):
            build_weights("geometric", 2000, ratio=2.0)
    assert cli.main(["certify", "--method", "mu-dual", "--weights",
                     "geometric:2", "--N", "2000", "--p", "2", "--L", "1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: geometric:2 weights overflow from n = 1024; lower N\n"


def test_comp_cumsum_beats_naive_on_adversarial_input():
    vals = np.array([1e16, 1.0, -1e16, 1.0])
    out = comp_cumsum(vals)
    assert out[-1] == 2.0


def test_four_averaged_transforms_match_direct_sums():
    w = build_weights("power", 5, exponent=1.0)
    x = np.array([2.0, 0.5, 1.0, 3.0, 0.25])
    prefix_mean = averaged(w, x, "prefix", "partials")
    tail_mean = averaged(w, x, "suffix", "tails")
    dual_prefix = averaged(w, x, "suffix", "partials", dual=True)
    dual_tail = averaged(w, x, "prefix", "tails", dual=True)
    lam = w.values
    direct_prefix = [float(np.sum(lam[:n] * x[:n]) / w.partials[n - 1])
                     for n in range(1, 6)]
    direct_tail = [float(np.sum(lam[n - 1:] * x[n - 1:]) / w.tails[n - 1])
                   for n in range(1, 6)]
    direct_dual_prefix = [float(lam[n - 1] * np.sum(x[n - 1:] /
                                                    w.partials[n - 1:]))
                          for n in range(1, 6)]
    direct_dual_tail = [float(lam[n - 1] * np.sum(x[:n] / w.tails[:n]))
                        for n in range(1, 6)]
    assert np.allclose(prefix_mean, direct_prefix, rtol=1e-13)
    assert np.allclose(tail_mean, direct_tail, rtol=1e-13)
    assert np.allclose(dual_prefix, direct_dual_prefix, rtol=1e-13)
    assert np.allclose(dual_tail, direct_dual_tail, rtol=1e-13)


def test_weight_file_parsing(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("# header\n1.5\n\n2.5  # inline note\n4\n", encoding="utf-8")
    w = load_weight_file(str(path))
    assert np.allclose(w.values, [1.5, 2.5, 4.0], rtol=0)


def test_weight_file_rejects_nonpositive(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("1.0\n-2.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_weight_file(str(path))


def ref_weight_lines(path):
    """The line loop load_weight_file ran on every file: its values, or
    the type and message of the error it raised."""
    vals = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for ln, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                try:
                    v = float(body)
                except ValueError as exc:
                    raise ValueError(f"{path}:{ln}: not a decimal number: "
                                     f"{body!r}") from exc
                if not math.isfinite(v) or v <= 0.0:
                    raise ValueError(f"{path}:{ln}: weights must be "
                                     f"positive and finite")
                vals.append(v)
    except ValueError as exc:
        return type(exc), str(exc)
    if not vals:
        return ValueError, f"{path}: no weights found"
    return np.array(vals, dtype=np.float64).tobytes()


def _loaded(path):
    try:
        return load_weight_file(path).values.tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


# (contents, whether the one pass parses it)
WEIGHT_FILES = [
    (b"1.5\n2.5\n4\n", True),
    (b"1.5\r\n2.5\r\n4\r\n", True),
    (b"1.5\r2.5\r4", True),
    (b"\n\n1.5\n\n\r\n2.5\n\n", True),
    (b"0.1\n1e-300\n1_000\n+7\n.5\n3.\n", True),
    ("\u0661.5\n2\n".encode(), True),
    (b"# header\n1.5\n\n2.5  # inline note\n4\n", False),
    (b"1.5 # note\r\n# 2\r\n\r\n3\r\n", False),
    (b"  1.5\n\t2.5 \n", False),
    (b"1 2\n", False),
    (b"1\t2\n", False),
    (b"1\x0c2\n", False),
    (b"1\n2 3\n", False),
    (b"1.0\n-2.0\n", False),
    (b"1.0\n0\n", False),
    (b"1\nnan\n", False),
    (b"1\ninf\n", False),
    (b"1\n1e400\n", False),
    (b"1\nabc\n", False),
    (b"1\n0x10\n", False),
    (b"\xef\xbb\xbf1\n", False),
    (b"1\n\xff\n", False),
    (b"", False),
    (b"\n\r\n", False),
    (b"# only a comment\n", False),
]


@pytest.mark.parametrize("data,plain", WEIGHT_FILES)
def test_weight_file_matches_the_line_loop(tmp_path, data, plain):
    path = tmp_path / "w.txt"
    path.write_bytes(data)
    assert _loaded(str(path)) == ref_weight_lines(str(path))
    fast = sequences._plain_weights(str(path))
    assert (fast is not None) == plain
    if plain:
        assert fast.tobytes() == ref_weight_lines(str(path))


def test_large_weight_file_is_bitwise_the_line_loop(tmp_path):
    # 0.05 plus a running sum of U(0, 1), as the corpus writes it; the
    # partial sums are those of the loop's values too
    vals = 0.05 + np.cumsum(np.random.default_rng(3).uniform(size=20_000))
    text = "".join(repr(float(v)) + "\n" for v in vals)
    for name, body in (("lf", text), ("crlf", text.replace("\n", "\r\n")),
                       ("commented", "# seeded\n" + text)):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(body.encode())
        w = load_weight_file(str(path))
        ref = build_weights("explicit", vals.size, values=vals)
        assert w.values.tobytes() == ref.values.tobytes() == vals.tobytes()
        assert w.partials.tobytes() == ref.partials.tobytes()


@pytest.mark.parametrize("shape", [(0,), (1,), (5,), (7, 37), (6, 20_000)])
def test_suffix_sums_are_contiguous_reversed_cumsums(shape):
    # a negative-stride result would send every power of it to libm pow
    a = np.random.default_rng(len(shape)).standard_normal(shape)
    got = suffix_sums(a)
    assert got.flags.c_contiguous and got.shape == a.shape
    ref = np.cumsum(a[..., ::-1], axis=-1)[..., ::-1]
    assert got.tobytes() == ref.tobytes()


def test_suffix_sums_of_a_list():
    a = [0.1, 0.2, 0.3, 1e16, -1e16]
    got = suffix_sums(a)
    assert got.flags.c_contiguous and got.dtype == np.float64
    ref = np.cumsum(np.array(a)[::-1])[::-1]
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind,extra", [("constant", {}),
                                        ("power", {"exponent": 0.5}),
                                        ("geometric", {"ratio": 1.01})])
def test_tails_are_summed_on_first_read(kind, extra):
    w = build_weights(kind, 500, **extra)
    assert "tails" not in w.__dict__
    tails = w.tails
    assert "tails" in w.__dict__ and w.tails is tails
    assert not tails.flags.writeable and tails.flags.c_contiguous
    with pytest.raises(ValueError):
        tails[0] = 1.0
    ref = comp_cumsum(w.values[::-1])[::-1]
    assert tails.tobytes() == ref.tobytes()


@given(st.lists(st.floats(min_value=1e-30, max_value=1e30), min_size=1,
                max_size=64), st.integers(min_value=1, max_value=64))
@settings(max_examples=200, deadline=None)
def test_head_is_the_weights_built_from_a_prefix(vals, n):
    w = build_weights("explicit", len(vals), values=np.array(vals))
    n = min(n, w.N)
    head = w.head(n)
    ref = build_weights("explicit", n, values=np.array(vals[:n]))
    assert head.values.tobytes() == ref.values.tobytes()
    assert head.partials.tobytes() == ref.partials.tobytes()
    assert head.tails.tobytes() == ref.tails.tobytes()
    assert (head is w) == (n == w.N)
    with pytest.raises(ValueError):
        w.head(w.N + 1)
