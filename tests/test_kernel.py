"""The compiled mu step loops against the Python loops they stand in for.

`lpcert._kernel` builds a C step loop for each mu recurrence
(`certificates._mu_dual_ratios` and `_mu_primal_ratios`) on first use
and caches it; the Python step loops (`certificates._dual_steps` and
`_primal_steps`) stay as the fallback and as the reference.  Every trace
the recurrences return with the compiled loops must equal, bit for bit,
the one they return with the Python loops: mu, constraint, the repr of
the worst margin, both violations, or the domain error's message.  Where
no compiler is present, the comparisons skip (the Python loops are then
the only ones, and tests/test_traces.py checks them against the list
loops); the cache and fallback tests run CLI processes with their own
XDG_CACHE_HOME and PATH.
"""

import json
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import lpcert
from lpcert import BoundParams, _kernel, build_weights, certificates
from lpcert import weighted_mean
from lpcert._num import _ROW_CHUNK
from lpcert.certificates import _dual_steps, _primal_steps, mu_dual, mu_primal
from lpcert.copson import mu_bge, mu_dual_copson
from lpcert.factorable import FactorableSpec

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


def _both(monkeypatch, compiled, fn, *args):
    """fn's outcome with the compiled loops, asserted equal to its
    outcome with the Python loops."""
    monkeypatch.setattr(certificates, "_step_loops", lambda: compiled)
    got = _outcome(fn, *args)
    monkeypatch.setattr(certificates, "_step_loops",
                        lambda: (_dual_steps, _primal_steps))
    assert got == _outcome(fn, *args), args[1:]
    return got


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
    got = _both(monkeypatch, compiled, certificates._mu_dual_ratios,
                lambda lo, hi: (rows[lo:hi], np.ones(3)[lo:min(hi, 2)]),
                3, p, mu_1)
    assert got[4] == 1 and float(got[3]) > 0.0


def test_primal_clamp_matches(monkeypatch, compiled):
    # the first step lands one ulp below zero, inside the pass slack: it
    # is clamped to 0, and the trace dies on the step after
    rows = np.array([0.9, 1.0, 1.0])
    lam_p = math.nextafter(float((rows[:1] ** 2.0)[0]), 1.0)
    got = _both(monkeypatch, compiled, certificates._mu_primal_ratios,
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
    assert [rc for rc, _, _ in with_cc["runs"]] == [0, 0, 0, 0, 2, 2]
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


def test_a_library_of_other_material_is_rejected(tmp_path, compiled):
    material = _kernel._material()
    path = str(tmp_path / "steps.so")
    assert _kernel._build(path, material + b"\0other")
    assert _kernel._open(path, material) is None
    (tmp_path / "broken.so").write_bytes(b"not a library")
    assert _kernel._open(str(tmp_path / "broken.so"), material) is None
