"""The compiled loops against the Python and numpy code they stand in for.

`lpcert._kernel` builds a C step loop for each mu driver
(`_kernel._mu_dual_ratios` and `_mu_primal_ratios`) on first use and
caches it; the Python step loops (`_kernel._dual_steps` and
`_primal_steps`) stay as the fallback and as the reference.  Every trace
the recurrences return with the compiled loops must equal, bit for bit,
the one they return with the Python loops: mu, constraint, the repr of
the worst margin, both violations, or the domain error's message.  Each
comparison also checks that the trace ran the loops it set.  Where no
compiler is present, the comparisons skip (the Python loops are then
the only ones, and tests/test_traces.py checks them against the list
loops); the cache and fallback tests run CLI processes with their own
XDG_CACHE_HOME and PATH.

The compiled scaled sums must equal numpy's product, cumsum and
quotient bit for bit, and with no weight rows (`_num.prefix_sums` and
`suffix_sums`) np.cumsum; the weighted sums np.sum(a * u, axis=-1) and
the draw Generator.random with numpy's affine step.  Every trial batch
and mu trace must report the same with the library as without it, which
one patch switches off: `_kernel._functions`, the table of bound C
functions, replaced by `dict` (an empty table).  That table must name
every function the C source exports.
"""

import json
import math
import os
import re
import stat
import subprocess
import sys
import zlib

import numpy as np
import pytest

import lpcert
from lpcert import (BoundParams, StrengthenedCase, _kernel, _num,
                    build_weights, check_bge, check_copson_branch, hlp,
                    strengthened_trials, weighted_mean)
from lpcert._kernel import _dual_steps, _primal_steps
from lpcert._num import _ROW_CHUNK, prefix_sums, suffix_sums
from lpcert.certificates import mu_dual, mu_primal
from lpcert.copson import mu_bge, mu_dual_copson
from lpcert.factorable import FactorableSpec
from lpcert.sequences import averaged

WEIGHTS = {"power:1": ("power", {"exponent": 1.0}),
           "power:0.5": ("power", {"exponent": 0.5}),
           "constant": ("constant", {}),
           "geometric:1.00001": ("geometric", {"ratio": 1.00001})}
PS = [1.3, 1.95, 2.0, 3.5]
LS = [0.3, 0.6, 0.9, 1.2]


@pytest.fixture(scope="module")
def compiled():
    loops = _kernel.loops()
    if loops is None:
        pytest.skip("no C compiler: the Python step loops are the only ones")
    return loops


def _outcome(fn, *args):
    try:
        t = fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return (t.mu.dtype.str, t.mu.tobytes(), t.constraint, repr(t.worst_margin),
            t.first_violation, t.target_violation)


def counted(loops, calls):
    """The step loops `loops`, each call appended to `calls`."""
    def count(loop):
        def run(*args):
            calls.append(loop)
            return loop(*args)
        return run

    return tuple(map(count, loops))


def _both(monkeypatch, compiled, fn, *args):
    """fn's outcome with the compiled loops, asserted equal to its
    outcome with the Python loops; each run must call the loops set."""
    outcomes = []
    for loops in (compiled, (_dual_steps, _primal_steps)):
        calls = []
        monkeypatch.setattr(_kernel, "_step_loops",
                            lambda: counted(loops, calls))
        outcomes.append(_outcome(fn, *args))
        assert calls, "the trace did not run the patched step loops"
    assert outcomes[0] == outcomes[1], args[1:]
    return outcomes[0]


@pytest.mark.parametrize("N", [10**3, 10**5])
@pytest.mark.parametrize("weights", sorted(WEIGHTS))
def test_certificate_traces_match_the_python_loops(monkeypatch, compiled,
                                                   weights, N):
    kind, kw = WEIGHTS[weights]
    spec = weighted_mean(build_weights(kind, N, **kw))
    outcomes = set()
    for p in PS:
        for L in LS:
            params = BoundParams(p, L)
            for fn, arg in ((mu_dual, params.U_p), (mu_primal, params.lam_p)):
                got = _both(monkeypatch, compiled, fn, spec, p, arg)
                outcomes.add(got[4] is None)
    # the grid holds passing and failing traces
    assert outcomes == {True, False}


@pytest.mark.parametrize("N", [10**3, 10**5])
@pytest.mark.parametrize("weights", sorted(WEIGHTS))
def test_copson_and_bge_traces_match_the_python_loops(monkeypatch, compiled,
                                                      weights, N):
    kind, kw = WEIGHTS[weights]
    w = build_weights(kind, N, **kw)
    for p in PS:
        _both(monkeypatch, compiled, mu_dual_copson, w, p, 1.5)
        for route in ("dual", "primal"):
            _both(monkeypatch, compiled, mu_bge, w, p, 0.9, route)


@pytest.mark.parametrize("N", [10**3, 10**5])
def test_hlp_direct_traces_match_the_python_loops(monkeypatch, compiled, N):
    # the direct route is the dual driver with a floor (q = p < 1)
    deaths = []
    for p in (0.34, 0.35, 0.355, 0.3865240616071652, 0.4, 0.6, 0.9):
        deaths.append(_both(monkeypatch, compiled, hlp.mu_direct, p, N)[4])
    # the grid holds passing traces, deaths at n = 1 and deaths later
    assert None in deaths and 1 in deaths
    assert any(d is not None and d > 1 for d in deaths)


# p at which hlp.mu_dual dies at n = 16383 .. 16386 at N = 40000, as in
# tests/test_traces.py
HLP_DUAL_DEATHS = [0.38652448817577423, 0.3865243175398245,
                   0.3865241469160533, 0.38652397630445456]


@pytest.mark.parametrize("N", [10**3, 10**5])
def test_hlp_dual_traces_match_the_python_loops(monkeypatch, compiled, N):
    # the dual route is the primal driver at p/(p-1) < 0
    got = [_both(monkeypatch, compiled, hlp.mu_dual, p, N)
           for p in (1.0 / 3.0, 0.35, 0.39, 0.5, 0.99)]
    # passing traces, a death at n = 5318 (past N = 1e3), the exact-zero
    # death of p = 1/2 at n = 2 (mu_2 = 1 - 1) and the death of
    # lam = 3.7e197 at n = 2
    assert [g[4] for g in got] == [None, None, 5318 if N > 5318 else None,
                                   2, 2]
    assert np.frombuffer(got[3][1]).tolist() == [0.0, 0.0]


def test_hlp_dual_deaths_near_a_chunk_boundary_match(monkeypatch, compiled):
    deaths = [_both(monkeypatch, compiled, hlp.mu_dual, p, 40_000)[4]
              for p in HLP_DUAL_DEATHS]
    assert deaths == list(range(_ROW_CHUNK - 1, _ROW_CHUNK + 3))


@pytest.mark.parametrize("p, lam_p, message", [
    (0.5, 0.5, "need p > 1 or p < 0"), (1.0, 0.5, "need p > 1 or p < 0"),
    (0.0, 0.5, "need p > 1 or p < 0"), (-0.5, 0.0, "need lam_p > 0"),
    (2.0, -0.25, "need lam_p > 0"), (-0.5, math.nan, "need lam_p > 0")])
def test_primal_guard_errors_match(monkeypatch, compiled, p, lam_p, message):
    # the guards come before any step loop, with either set of loops
    for loops in (compiled, (_dual_steps, _primal_steps)):
        calls = []
        monkeypatch.setattr(_kernel, "_step_loops",
                            lambda: counted(loops, calls))
        assert _outcome(_kernel._mu_primal_ratios, hlp._rows(10), 10, p,
                        lam_p) == f"ValueError: {message}"
        assert not calls


@pytest.mark.parametrize("N, p, L, message", [
    # ((a_n/b_n)^p mu_n^(1-p) - 1)^(q-1) overflows (p = 100) or its
    # power underflows to 0 (p = 1.01)
    (3000, 100.0, 2.0, "leaves the binary64 range at n = 1210"),
    (100, 1.01, 1e-5, "leaves the binary64 range at n = 1"),
])
def test_dual_domain_errors_match(monkeypatch, compiled, N, p, L, message):
    spec = weighted_mean(build_weights("constant", N))
    got = _both(monkeypatch, compiled, mu_dual, spec, p, BoundParams(p, L).U_p)
    assert got.startswith("ValueError: ((a_n/b_n)^p") and got.endswith(message)


def test_primal_domain_error_matches(monkeypatch, compiled):
    # r_n mu_n / denom overflows to inf on the step to n = 1131
    spec = weighted_mean(build_weights("constant", 3000))
    got = _both(monkeypatch, compiled, mu_primal, spec, 100.0,
                BoundParams(100.0, 2.0).lam_p)
    assert got.endswith("leaves the binary64 range at n = 1130")


@pytest.mark.parametrize("row", [_ROW_CHUNK + d for d in (-1, 0, 1)])
def test_deaths_at_a_chunk_boundary_match(monkeypatch, compiled, row):
    # a_n/b_n = n/1e6 on that row: mu_dual dies there, mu_primal on the
    # next row (a failing value) or on its closing step
    for N in (row, 40_000):
        b = np.ones(N)
        b[row - 1] = 1e6
        spec = FactorableSpec(kind="dying", a=np.arange(1.0, N + 1.0), b=b)
        assert _both(monkeypatch, compiled, mu_dual, spec, 2.0, 4.0)[4] == row
        got = _both(monkeypatch, compiled, mu_primal, spec, 2.0, 0.25)
        assert got[4] == row + 1


@pytest.mark.parametrize("p, r", [(2.0, 1.8466528979451513),
                                  (3.0, 2.4398187670173863)])
def test_domain_test_failing_under_the_ceiling_matches(monkeypatch, compiled,
                                                       p, r):
    # mu_1 one ulp under the ceiling r^q: the ceiling margin is positive,
    # but the domain test r^p mu_1^(1-p) - 1 rounds to 0, so the step
    # loop stops there (no value, no overflow) and the trace dies at n = 1
    q = p / (p - 1.0)
    rows = np.array([r, 2.0 * r, 2.0 * r])
    mu_1 = math.nextafter(float((rows[:1] ** q)[0]), 0.0)
    assert not float((rows[:1] ** p)[0]) * mu_1 ** (1.0 - p) - 1.0 > 0.0
    got = _both(monkeypatch, compiled, _kernel._mu_dual_ratios,
                lambda lo, hi: (rows[lo:hi], np.ones(3)[lo:min(hi, 2)]),
                3, p, mu_1)
    assert got[4] == 1 and float(got[3]) > 0.0


def test_primal_clamp_matches(monkeypatch, compiled):
    # the first step lands one ulp below zero, inside the pass slack: it
    # is clamped to 0, and the trace dies on the step after
    rows = np.array([0.9, 1.0, 1.0])
    lam_p = math.nextafter(float((rows[:1] ** 2.0)[0]), 1.0)
    got = _both(monkeypatch, compiled, _kernel._mu_primal_ratios,
                lambda lo, hi: (rows[lo:hi], np.ones(3)[lo:min(hi, 2)]),
                3, 2.0, lam_p)
    assert got[4] == 3
    assert np.frombuffer(got[1]).tolist() == [1.0, 0.0, -lam_p]


# ----------------------------------------------------------------------
# Build, cache and fallback, in fresh processes

SRC = os.path.dirname(os.path.dirname(lpcert.__file__))

# a passing trace of each recurrence and route, and two domain errors
COMMANDS = [
    ["certify", "--method", "mu-dual", "--weights", "power:1", "--N", "3000",
     "--p", "2", "--L", "1.0"],
    ["certify", "--method", "mu-primal", "--weights", "power:0.5", "--N",
     "3000", "--p", "1.5", "--L", "0.7"],
    ["copson", "mu", "--p", "2", "--c", "1.5", "--weights", "power:0.5",
     "--N", "3000"],
    ["copson", "bge-mu", "--p", "2", "--alpha", "0.8", "--N", "3000",
     "--route", "primal"],
    ["certify", "--method", "mu-dual", "--weights", "constant", "--N",
     "3000", "--p", "100", "--L", "2"],
    ["certify", "--method", "mu-primal", "--weights", "constant", "--N",
     "3000", "--p", "100", "--L", "2"],
    # the trial batches: draw, averages, running and weighted sums
    ["copson", "branch", "--branch", "leindler_tail", "--c", "1.2", "--p",
     "1.5", "--weights", "power:0.8", "--N", "2000", "--trials", "40"],
    ["bge", "--alpha", "0.85", "--p", "3", "--weights", "power:0.8", "--N",
     "2000", "--trials", "40"],
    ["strengthened", "check", "--which", "copson_tail", "--c", "0.4", "--p",
     "1.5", "--weights", "power:0.8", "--N", "2000", "--trials", "40"],
    ["hlp", "dual-probe", "--p", "0.31", "--N", "256", "--trials", "300"],
]

_RUN = """
import contextlib, io, json, sys
from lpcert import _kernel, cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    runs.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps({"compiled": _kernel.loops() is not None, "runs": runs}))
"""


def _fresh(tmp_path, commands, **env_updates):
    """The exit codes and outputs of CLI commands run in one fresh
    process with XDG_CACHE_HOME under tmp_path, and whether it ran the
    compiled loops."""
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"),
               **env_updates)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", _RUN, json.dumps(commands)],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=300)
    return json.loads(res.stdout)


def test_cold_cache_build_is_reused_by_a_second_process(tmp_path, compiled):
    first = _fresh(tmp_path, COMMANDS[:1])
    cache = tmp_path / "cache" / "lpcert"
    assert first["compiled"]
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    (lib,) = cache.iterdir()             # no temporary file is left
    before = lib.stat()
    # with no compiler on its PATH, the second process can only load it
    (tmp_path / "bin").mkdir()
    second = _fresh(tmp_path, COMMANDS[:1], PATH=str(tmp_path / "bin"))
    assert second == first
    after = lib.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)


def test_missing_compiler_falls_back_to_the_same_reports(tmp_path, compiled):
    with_cc = _fresh(tmp_path / "a", COMMANDS)
    (tmp_path / "bin").mkdir()
    without = _fresh(tmp_path / "b", COMMANDS, PATH=str(tmp_path / "bin"))
    assert with_cc["compiled"] and not without["compiled"]
    assert without["runs"] == with_cc["runs"]
    assert [rc for rc, _, _ in with_cc["runs"]] == [0, 0, 0, 0, 2, 2,
                                                    0, 0, 0, 0]
    assert not list((tmp_path / "b" / "cache" / "lpcert").iterdir())


def test_a_cache_directory_others_can_write_is_not_used(tmp_path, monkeypatch,
                                                        compiled):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    shared = tmp_path / "lpcert"
    shared.mkdir()
    shared.chmod(0o777)
    assert _kernel._cache_dir() is None
    # the library is built in a private temporary directory instead
    assert _kernel._library() is not None
    assert not list(shared.iterdir())
    shared.chmod(0o700)
    assert _kernel._cache_dir() == str(shared)


def test_a_build_leaves_one_library_in_the_cache(tmp_path, monkeypatch,
                                                compiled):
    # two builds from two sources: the second unlinks the first one's
    # library (still mapped here, which Linux allows), and leaves no
    # temporary file
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "lpcert"
    names = []
    for extra in ("", "\n/* another version */\n"):
        monkeypatch.setattr(_kernel, "_SOURCE", _kernel._SOURCE + extra)
        assert _kernel._library() is not None
        names.append(f"steps-{zlib.crc32(_kernel._material()):08x}.so")
        assert [f.name for f in cache.iterdir()] == names[-1:]
    assert names[0] != names[1]


def test_a_library_of_other_material_is_rejected(tmp_path, compiled):
    material = _kernel._material()
    path = str(tmp_path / "steps.so")
    assert _kernel._build(path, material + b"\0other")
    assert _kernel._open(path, material) is None
    (tmp_path / "broken.so").write_bytes(b"not a library")
    assert _kernel._open(str(tmp_path / "broken.so"), material) is None


def test_the_signature_table_names_every_exported_function():
    # every non-static function of the C source; the source itself does
    # not hold lpcert_built_from, which the build appends
    exported = set(re.findall(r"^\w.*\b(lpcert_\w+)\(", _kernel._SOURCE,
                              re.M))
    assert exported - {"lpcert_built_from"} == set(_kernel._SIGNATURES)


def test_a_built_library_binds_every_function(compiled):
    assert set(_kernel._functions()) == set(_kernel._SIGNATURES)


# ----------------------------------------------------------------------
# The trial-block passes: running and scaled sums, weighted sums, draw

PASSES = ("scaled_sums", "weighted_sums", "draw")


@pytest.fixture(scope="module")
def compiled_passes():
    if set(_kernel._functions()) != set(_kernel._SIGNATURES):
        pytest.skip("no C compiler: numpy runs every pass")
    return {name: getattr(_kernel, name) for name in PASSES}


def _reference(X, reverse):
    if reverse:
        return np.cumsum(X[..., ::-1], axis=-1)[..., ::-1]
    return np.cumsum(X, axis=-1)


def _sum_rows(rows, n):
    """Rows of n values over 120 binades, each row's first and last
    value -0.0 (a loop that starts from +0.0 gives +0.0 there), every
    fifth value subnormal, and from the third row on an inf, a -inf and
    a NaN."""
    rng = np.random.default_rng(rows * 7 + n)
    X = rng.standard_normal((rows, n)) * np.exp2(rng.integers(-60, 60,
                                                              (rows, n)))
    X[:, 2::5] = rng.choice([5e-324, -5e-324, 1e-310, -2.5e-309],
                            X[:, 2::5].shape)
    if n:
        X[:, 0] = X[:, -1] = -0.0
    if rows >= 3 and n >= 3:
        X[1, n // 2] = np.inf
        X[2, n // 3] = -np.inf
        X[2, 2 * n // 3] = np.nan
    return X


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@pytest.mark.parametrize("n", [0, 1, 2, 20_000])
@pytest.mark.parametrize("rows", [0, 1, 3, 256])
def test_running_sums_match_cumsum(monkeypatch, compiled_passes, rows, n):
    ran = []
    loop = compiled_passes["scaled_sums"]

    def counted(*args):
        ran.append(loop(*args))
        return ran[-1]

    monkeypatch.setattr(_kernel, "scaled_sums", counted)
    # short calls too (they take numpy's path by the size rule)
    monkeypatch.setattr(_num, "_COMPILED_MIN", 0)
    X = _sum_rows(rows, n)
    for reverse, helper in ((False, prefix_sums), (True, suffix_sums)):
        ref = _reference(X, reverse)
        assert _same_bits(helper(X), ref)
        # in place
        Y = X.copy()
        assert helper(Y, out=Y) is Y and _same_bits(Y, ref)
        # from a non-contiguous input: a Fortran-ordered copy, and every
        # other column of a wider array
        assert _same_bits(helper(np.asfortranarray(X)), ref)
        if rows and n:
            wide = np.zeros((rows, 2 * n))
            wide[:, ::2] = X
            assert _same_bits(helper(wide[:, ::2]), ref)
        del Y, ref
    # 1-d rows too
    if rows == 1:
        for reverse, helper in ((False, prefix_sums), (True, suffix_sums)):
            assert _same_bits(helper(X[0]), _reference(X[0], reverse))
    if rows and n:
        # each row's first sum is its leading -0.0 itself
        assert np.signbit(prefix_sums(X)[:, 0]).all()
        assert np.signbit(suffix_sums(X)[:, -1]).all()
    # every call ran the compiled loop
    assert ran and all(ran)


def test_running_sums_write_to_overlapping_memory_as_numpy(compiled_passes):
    loop = compiled_passes["scaled_sums"]

    def sums(values, out):
        return loop(values, None, None, False, False, out)

    # out overlaps values without being values: values is copied first
    buf = np.arange(1.0, 12.0)
    values, out = buf[:10], buf[1:11]
    ref = np.cumsum(values.copy())
    assert sums(values, out) and _same_bits(out, ref)
    # an out that does not suit the loop is left to numpy
    assert not sums(np.ones(4), np.empty(4)[::-1])
    assert not sums(np.ones(4), np.empty(5))
    assert not sums(np.ones(4), np.empty(4, np.float32))


def _batches():
    """The four trial batch kinds, each report as a string, and a mu
    trace."""
    w = build_weights("power", 2000, exponent=0.8)
    mean = weighted_mean(build_weights("power", 20_000, exponent=0.5))
    return [
        _outcome(mu_dual, mean, 2.0, BoundParams(2.0, 1.0).U_p),
        repr(check_copson_branch(w, 2.5, 1.5, "copson_prefix", trials=100,
                                 seed=3).to_dict()),
        repr(check_copson_branch(w, 1.5, 0.5, "copson_tail", trials=100,
                                 seed=4).to_dict()),
        repr(check_bge(w, 3.0, 0.85, trials=100, seed=5).to_dict()),
        repr(strengthened_trials(StrengthenedCase(kind="dual", p=1.5), w,
                                 trials=100, seed=6).to_dict()),
        repr(hlp.probe_dual_trials(0.31, 256, 300, seed=7)),
    ]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_trial_batches_report_the_same_without_the_library(
        monkeypatch, compiled_passes, threads):
    monkeypatch.setenv("THREADS", threads)
    with_library = _batches()
    with monkeypatch.context() as patched:
        patched.setattr(_kernel, "_functions", dict)
        # the patch leaves no compiled loop, pass or step loop
        assert _kernel.loops() is None
        assert not _kernel.scaled_sums(np.ones(4), None, None, False,
                                       False, np.empty(4))
        without = _batches()
    assert without == with_library


_COLD_BATCH = """
import json
from lpcert import _kernel, build_weights, check_bge
builds, build = [], _kernel._build

def counted(*args):
    builds.append(args[0])
    return build(*args)

_kernel._build = counted
w = build_weights("power", 2000, exponent=0.8)
rep = check_bge(w, 2.0, 0.85, trials=200, seed=0)
print(json.dumps({"builds": len(builds), "report": rep.to_dict(),
                  "compiled": bool(_kernel._functions())}))
"""


def test_a_cold_cache_with_two_trial_workers_builds_once(tmp_path,
                                                         compiled_passes):
    # both workers ask for the library on their first block; the second
    # waits for the first one's build instead of making its own
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"),
               THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", _COLD_BATCH], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    got = json.loads(res.stdout)
    assert got["compiled"] and got["builds"] == 1
    assert got["report"] == json.loads(json.dumps(check_bge(
        build_weights("power", 2000, exponent=0.8), 2.0, 0.85, trials=200,
        seed=0).to_dict()))


LOG_LOW, LOG_HIGH = np.log(1e-3), np.log(1e3)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize("skip", [0, 1, 3, 12_345, 2**32, 2**32 + 1,
                                  2**63 + 5])
def test_draw_matches_generator_random(compiled_passes, seed, skip):
    fill = compiled_passes["draw"]
    state = np.random.default_rng(seed).bit_generator.state
    for n in [*range(1, 10), 2**16]:
        got = np.full(n, np.nan)
        assert fill(got, state, skip, LOG_LOW, LOG_HIGH - LOG_LOW)
        assert _same_bits(got, _draw_reference(state, skip, n)), n
    # a 2-d block is filled in row order
    got = np.empty((3, 7))
    assert fill(got, state, skip, LOG_LOW, LOG_HIGH - LOG_LOW)
    assert _same_bits(got.ravel(), _draw_reference(state, skip, 21))


def _draw_reference(state, skip, n):
    """numpy's draw: PCG64 set and advanced, Generator.random, then the
    affine step of _num.trial_rows."""
    bits = np.random.PCG64()
    bits.state = state
    bits.advance(skip)
    ref = np.random.Generator(bits).random(n)
    ref *= LOG_HIGH - LOG_LOW
    return ref + LOG_LOW


def test_draw_declines_what_it_cannot_fill(compiled_passes):
    fill = compiled_passes["draw"]
    state = np.random.default_rng(0).bit_generator.state
    assert not fill(np.empty(8)[::2], state, 0, 0.0, 1.0)
    assert not fill(np.empty(4, np.float32), state, 0, 0.0, 1.0)
    assert not fill(np.empty(4), state, 2**64, 0.0, 1.0)
    other = np.random.Philox(0).state
    assert not fill(np.empty(4), other, 0, 0.0, 1.0)


def _averaged_reference(X, pre, post, dual, reverse):
    """numpy's passes: product or quotient, np.cumsum (through reversed
    views backward), quotient or product."""
    v = X / pre if dual else X * pre
    s = (np.cumsum(v[..., ::-1], axis=-1)[..., ::-1] if reverse
         else np.cumsum(v, axis=-1))
    if post is None:
        return s
    return s * post if dual else s / post


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 20_000])
def test_scaled_sums_match_averaged(monkeypatch, compiled_passes, n):
    monkeypatch.setattr(_num, "_COMPILED_MIN", 0)
    ran = []
    loop = compiled_passes["scaled_sums"]

    def counted(*args):
        ran.append(loop(*args))
        return ran[-1]

    monkeypatch.setattr(_kernel, "scaled_sums", counted)
    w = build_weights("power", n, exponent=0.8)
    X = _sum_rows(3, n)
    X[0] = np.abs(X[0])
    for base in ("partials", "tails"):
        B = getattr(w, base)
        for dual in (False, True):
            pre, post = (B, w.values) if dual else (w.values, B)
            for direction in ("prefix", "suffix"):
                reverse = direction == "suffix"
                ref = _averaged_reference(X, pre, post, dual, reverse)
                assert _same_bits(averaged(w, X, direction, base, dual), ref)
                Y = X.copy()
                assert averaged(w, Y, direction, base, dual, out=Y) is Y
                assert _same_bits(Y, ref)
                # check_bge's form: no post
                assert _same_bits(_num.scaled_sums(X, pre, None, dual,
                                                   reverse),
                                  _averaged_reference(X, pre, None, dual,
                                                      reverse))
    assert ran and all(ran)


def test_scaled_sums_decline_rows_of_another_shape(compiled_passes):
    loop = compiled_passes["scaled_sums"]
    X, out = np.ones((2, 4)), np.empty((2, 4))
    assert not loop(X, np.ones(3), None, False, False, out)
    assert not loop(X, np.ones(4), np.ones(8)[::2], False, False, out)
    assert not loop(X, np.ones(4), None, False, False, np.empty((2, 3)))
    # the plain running sums (no pre row) take no post row
    assert not loop(X, None, np.ones(4), False, False, out)
    assert loop(X, np.ones(4), None, False, True, out)
    assert out.tolist() == [[4.0, 3.0, 2.0, 1.0]] * 2


def _weighted_rows(n):
    """Four rows of n values over 120 binades: one of -0.0 only, one
    with an inf, one with a NaN and one with both signs of inf."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((4, n)) * np.exp2(rng.integers(-60, 60, (4, n)))
    a[0] = -0.0
    a[1, n // 2] = np.inf
    a[2, n // 3] = np.nan
    if n >= 2:
        a[3, 0], a[3, -1] = np.inf, -np.inf
    return a


@pytest.mark.parametrize("n", [*range(1, 301), 20_000, 65_536])
def test_weighted_sums_match_numpy_sum(compiled_passes, n):
    loop = compiled_passes["weighted_sums"]
    a = _weighted_rows(n)
    rng = np.random.default_rng(n + 1)
    for u in (rng.random(n) * 3.0, rng.random((4, n)) * 3.0, -np.ones(n)):
        with np.errstate(invalid="ignore"):
            ref = np.sum(a * u, axis=-1)
        assert _same_bits(loop(a, u), ref), n
        # one row, and through the dispatch at any size
        row = u if u.ndim == 1 else u[1]
        with np.errstate(invalid="ignore"):
            assert _same_bits(loop(a[1], row), np.sum(a[1] * row))
            assert _same_bits(_num.weighted_sums(a, u, a.copy()), ref)
    # an all -0.0 row sums to +0.0, as numpy's add.reduce from 0.0
    assert not np.signbit(loop(a, np.ones(n))[0])


def test_weighted_sums_decline_what_they_cannot_sum(compiled_passes):
    loop = compiled_passes["weighted_sums"]
    a = np.ones((2, 4))
    assert loop(a, np.ones(3)) is None
    assert loop(a, np.ones((3, 4))) is None
    assert loop(np.ones((4, 2)).T, np.ones(4)) is None
    assert loop(a, np.ones(8)[::2]) is None


def test_short_calls_run_numpy(monkeypatch, compiled_passes):
    # the one size rule: below _COMPILED_MIN values no pass is asked for
    asked = []
    for name in PASSES:
        monkeypatch.setattr(_kernel, name,
                            lambda *args, name=name: asked.append(name))
    small = _num._COMPILED_MIN - 1
    x = np.linspace(0.5, 2.0, small)
    prefix_sums(x)
    suffix_sums(x)
    _num.scaled_sums(x, x, x, False, False)
    _num.weighted_sums(x, x, x.copy())
    _num.trial_rows(small, 1, 0, lambda X, work: X[:, 0].copy())
    assert asked == []
    big = np.ones(_num._COMPILED_MIN)
    prefix_sums(big)
    _num.scaled_sums(big, big, None, True, True)
    _num.weighted_sums(big, big, big.copy())
    _num.trial_rows(big.size, 1, 0, lambda X, work: X[:, 0].copy())
    assert sorted(asked) == sorted(PASSES + ("scaled_sums",))
