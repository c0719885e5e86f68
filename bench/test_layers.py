"""Layer timings with pytest-benchmark, outside the tier-1 suite.

Times the compensated partial sums (`comp_cumsum`) and weight
construction (`build_weights`, the family's values and their compensated
partial sums) at N = 1e3, 1e5, 1e6 and 1e7, each with the tracemalloc
peak of one untimed call in `extra_info`; the plain running sums of
`_num.prefix_sums` and `suffix_sums` on standard normal rows of shape
(3, 2e4) and (1, 1e6), with the compiled scaled-sum loop of
`lpcert._kernel` (no weight rows) and with np.cumsum
(`test_running_sums`, the nanoseconds a value in `extra_info`); the
three trial-block passes on a (3, 2e4) block of log-uniform rows, each
with its compiled loop and with numpy (`test_block_passes`: the draw of
`_num._draw`, the prefix mean of `averaged` on lam_n = n^0.8 and
`_num.weighted_sums` against those weights; nanoseconds a value in
`extra_info`).  The numpy cases replace `_kernel._functions`, the table
of bound C functions, with an empty one; under `--benchmark-disable`
no case records nanoseconds, so the suite runs as a quick smoke test.
The other cases time the factorable apply and
adjoint, the power iteration, the mu recurrences and the HLP n0
searches at N = 1e3, 1e5 and 1e6.  `FactorableSpec.apply` and
`adjoint_apply` run on the weighted mean of lam_n = n^0.5 with
x_n = n^(-0.6), and `power_lower_bound` on the same matrix at p = 2
(default tolerance; its iteration count goes in `extra_info`).
`mu_primal` and
`certificates.mu_dual` on the weighted mean of lam_n = n^0.5 at p = 2,
`mu_dual_copson` (c = 1.5) and both routes of `mu_bge`
(alpha = 0.8) on the same weights at p = 2, and `hlp.mu_direct` and
`hlp.mu_dual` at p = 0.355 (every trace passes or, for the two `hlp`
ones, runs to N); each mu trace also records the tracemalloc peak of
one untimed call in `extra_info`.  `mu_dual` is also timed on a claim
that dies at n = 4 (power:1 weights, p = 2, L = 0.25, N = 1e6), and
`mu_primal` on a claim that dies at n = 3 (the Cesaro matrix, p = 2,
lam_p = 0.9, N = 1e6), each with its peak.  `test_step_loops` times
`mu_primal` and `mu_dual` at N = 1e6, p = 2 (the weights above), and
`hlp.mu_direct` and `hlp.mu_dual` at p = 0.355, with the compiled step
loops of `lpcert._kernel` and with the Python ones (skipping the
compiled case where no compiler is present), and
`test_kernel_build` one cold build of the kernel library.
`cli.search_smallest_L` is timed on the product condition at N = 1e3 and
1e5, p = 2, on a seeded random-monotone list (0.05 plus a running sum of
U(0, 1)), which the first `cli._HEAD` weights decide, and on power:0.5
weights, which they do not; the number of whole-list and head-only
checks of one untimed search goes in `extra_info`.  Each of the six
vectorized `certify` checkers (`cartlidge`, `ratio`, `product`,
`factorable-product`, `stepwise`, `stepwise-p2`) is timed through
`cli.run_certificate`, as a command runs it, on power:0.5 weights at N =
1e5, p = 2 and L = 1, where every one passes.  The HLP searches are
`hlp.certify_direct` at p = 0.35 (certified at n0 = 4) and 0.355
(uncertified, the whole trace), and `hlp.search_c` at p = 0.345
(feasible at n0 = 3) and 0.355 (infeasible), each with n0_max = N.  The random-trial batches run at N = 1e3, 2e4 and 1e5 with
300 trials on lam_n = n^0.8 weights at p = 1.5, 2 and 3:
`check_copson_branch` (copson_prefix, c at 60% of the admissible
range), `check_bge` (alpha = 0.85) and `strengthened_trials` (the dual
case); p = 2 alone would hide the cost of `pow`, since numpy squares
there without calling it; `hlp
dual-probe` runs through the CLI entry point at p = 0.31 with 1000
trials of N = 256 (the large-n call) and with 300 trials at the same N
as the others; each batch records in `extra_info` the minor page faults
(`ru_minflt`, all threads of the process) of one untimed call after a
warm-up call, and the tracemalloc peak of another.  `copson_root` is
timed at p = 1.5, 3 and 40.  End to
end, `test_cli_subprocess` runs five N = 1e6 CLI commands
(`certify --method mu-dual`, passing and dying at once, `copson mu` and
`copson bge-mu` on either route) as `python -m lpcert.cli`
grandchildren, each timed
with the fresh interpreter that starts it, and records the `ru_maxrss`
of every one (the warm-up one too) in `extra_info`; they inherit the
environment, so PYTHONPATH must name `src`.  Start-up is timed on a
copy of lpcert's sources with no bytecode, under
PYTHONDONTWRITEBYTECODE=1, as perfbench starts every command:
`test_cli_import` runs `python -c "import lpcert.cli"` and
`test_cli_startup` each `large-n` command shape at N = 1e3 (a 1000-line
random-monotone file for the `file:` ones), where start-up is most of
the call; each records in `extra_info` the `-X importtime` self time
(median of three runs, in us) of every lpcert module it loads.  Run
from the repository root:

    PYTHONPATH=src python -m pytest bench/test_layers.py \\
        --benchmark-json=OUT.json

The JSON holds the machine info, the git commit and, per case, the
median and IQR of the rounds.  `BENCH_<n>.json` files at the root keep
such runs of a change and of its parent side by side.
"""

import os
import resource
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lpcert
from lpcert import _kernel, _num
from lpcert import (BoundParams, StrengthenedCase, build_weights,
                    certify_direct, cesaro, check_bge, check_copson_branch,
                    cli, comp_cumsum, copson_root, copson_threshold, hlp,
                    mu_bge, mu_dual, mu_dual_copson, mu_primal,
                    power_lower_bound, search_c, strengthened_trials,
                    weighted_mean)
from lpcert.sequences import averaged

# Fewer rounds at large N keep a run of the sequential loop this
# replaced (about 5 s per sum at N = 1e7) within a few minutes.
ROUNDS = {10**3: 200, 10**5: 20, 10**6: 7, 10**7: 5}
# The recurrences and searches take up to a few seconds at N = 1e6.
TRACE_ROUNDS = {10**3: 50, 10**5: 10, 10**6: 5}
# Trial batches of 300 rows; at N = 1e5 an unblocked batch holds 1.7 GB.
TRIAL_ROUNDS = {10**3: 30, 2 * 10**4: 10, 10**5: 3}


@pytest.mark.parametrize("N", sorted(ROUNDS))
def test_comp_cumsum(benchmark, N):
    vals = np.arange(1, N + 1, dtype=np.float64) ** -0.9
    benchmark.extra_info["tracemalloc_peak_bytes"] = _tracemalloc_peak(
        comp_cumsum, (vals,))
    out = benchmark.pedantic(comp_cumsum, args=(vals,), rounds=ROUNDS[N],
                             warmup_rounds=1)
    assert out.shape == (N,)


@pytest.mark.parametrize("N", sorted(ROUNDS))
def test_build_weights(benchmark, N):
    def build():
        return build_weights("power", N, exponent=1.0)

    benchmark.extra_info["tracemalloc_peak_bytes"] = _tracemalloc_peak(
        build, ())
    w = benchmark.pedantic(build, rounds=ROUNDS[N], warmup_rounds=1)
    assert w.N == N


@pytest.mark.parametrize("shape", [(3, 2 * 10**4), (1, 10**6)],
                         ids=["3x20000", "1x1000000"])
@pytest.mark.parametrize("impl", ["compiled", "numpy"])
@pytest.mark.parametrize("helper", ["prefix_sums", "suffix_sums"])
def test_running_sums(benchmark, monkeypatch, helper, impl, shape):
    _use_library(monkeypatch, impl, "lpcert_scaled_sums")
    X = np.random.default_rng(0).standard_normal(shape)
    out = np.empty(shape)
    fn = getattr(_num, helper)
    benchmark.pedantic(fn, args=(X, out), rounds=50, warmup_rounds=1)
    _record_ns_per_value(benchmark, X.size)


def _use_library(monkeypatch, impl, function):
    """Run the compiled `function` of lpcert._kernel (skipping where it
    did not build), or with impl "numpy" no compiled loop at all."""
    if impl == "numpy":
        monkeypatch.setattr(_kernel, "_functions", dict)
    elif function not in _kernel._functions():
        pytest.skip("no C compiler: only numpy runs")


def _record_ns_per_value(benchmark, values):
    # no stats under --benchmark-disable
    if benchmark.stats is not None:
        benchmark.extra_info["ns_per_value"] = (
            benchmark.stats.stats.median / values * 1e9)


# the trial-block passes of a 3 x 2e4 block: the C function of each pass
# in lpcert._kernel, and the call that runs it
BLOCK_STAGES = {"draw": "lpcert_draw", "average": "lpcert_scaled_sums",
                "weighted-sums": "lpcert_weighted_sums"}


@pytest.mark.parametrize("impl", ["compiled", "numpy"])
@pytest.mark.parametrize("stage", list(BLOCK_STAGES))
def test_block_passes(benchmark, monkeypatch, stage, impl):
    _use_library(monkeypatch, impl, BLOCK_STAGES[stage])
    shape = (3, 2 * 10**4)
    w = build_weights("power", shape[1], exponent=0.8)
    X = np.exp(np.random.default_rng(0).uniform(-6.9, 6.9, shape))
    out = np.empty(shape)
    state = np.random.default_rng(1).bit_generator.state
    call = {"draw": lambda: _num._draw(out, state, 12_345 * shape[1],
                                       np.random.PCG64),
            "average": lambda: averaged(w, X, "prefix", "partials",
                                        out=out),
            "weighted-sums": lambda: _num.weighted_sums(X, w.values, out)}
    benchmark.pedantic(call[stage], rounds=200, warmup_rounds=1)
    _record_ns_per_value(benchmark, X.size)


# The N = 1e6 commands whose peak resident memory the weights set, with
# the exit code each must return: a passing dual trace, a claim below
# the Cartlidge constant 0.5 of power:1 that dies within a few steps
# (weights alone), and the mu recurrences of the copson family (both
# routes of bge-mu).
CLI_COMMANDS = {
    "certify-mu-dual": (["certify", "--method", "mu-dual", "--weights",
                         "power:1", "--N", "1000000", "--p", "2",
                         "--L", "1.0"], 0),
    "certify-mu-dual-early-fail": (["certify", "--method", "mu-dual",
                                    "--weights", "power:1", "--N",
                                    "1000000", "--p", "2", "--L", "0.25"], 1),
    "copson-mu": (["copson", "mu", "--p", "2", "--c", "1.75",
                   "--N", "1000000"], 0),
    "copson-bge-mu": (["copson", "bge-mu", "--p", "2", "--alpha", "0.8",
                       "--N", "1000000"], 0),
    "copson-bge-mu-primal": (["copson", "bge-mu", "--p", "2", "--alpha",
                              "0.8", "--N", "1000000", "--route", "primal"],
                             0),
}


# A forked child starts from its parent's resident set, so its ru_maxrss
# would count this test process (hundreds of MiB after the N = 1e7 sums);
# a fresh interpreter forks the command instead and prints its exit code
# and ru_maxrss.
_MEASURE = """import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"""


@pytest.mark.parametrize("command", list(CLI_COMMANDS))
def test_cli_subprocess(benchmark, command):
    argv, rc = CLI_COMMANDS[command]
    argv = [sys.executable, "-c", _MEASURE, sys.executable, "-m",
            "lpcert.cli", *argv, "--out", os.devnull]
    rss_kib = []

    def run():
        out = subprocess.run(argv, capture_output=True, text=True,
                             check=True).stdout.split()
        rss_kib.append(int(out[1]))
        return int(out[0])

    assert benchmark.pedantic(run, rounds=3, warmup_rounds=1) == rc
    benchmark.extra_info["ru_maxrss_kib"] = sorted(rss_kib)


# Start-up.  perfbench runs every command from a fresh checkout under
# PYTHONDONTWRITEBYTECODE=1, so each process compiles the lpcert modules
# it imports; these cases run a copy of the package with no bytecode next
# to it, in the same way.  The large-n command shapes run at N = 1e3 (a
# 1000-line weight file for the file: ones), where start-up is most of
# each call; the exit code each must return is given with it.
STARTUP_ROUNDS = 20
STARTUP_COMMANDS = {
    "certify-mu-dual": (["certify", "--method", "mu-dual", "--weights",
                         "power:1", "--N", "1000", "--p", "2", "--L", "1.0"],
                        0),
    "certify-mu-dual-early-fail": (["certify", "--method", "mu-dual",
                                    "--weights", "power:1", "--N", "1000",
                                    "--p", "2", "--L", "0.25"], 1),
    "copson-mu": (["copson", "mu", "--p", "2", "--c", "1.75", "--N", "1000"],
                  0),
    "copson-bge-mu": (["copson", "bge-mu", "--p", "2", "--alpha", "0.8",
                       "--N", "1000"], 0),
    "hlp-certify": (["hlp", "certify", "--p", "0.35", "--nmax", "1000"], 0),
    "hlp-certify-dual-shift": (["hlp", "certify", "--p", "0.345", "--method",
                                "dual-shift", "--nmax", "1000"], 0),
    "file-mu-primal": (["certify", "--method", "mu-primal", "--weights",
                        "file:FILE", "--p", "2", "--L", "1.0"], 0),
    "file-product-search-L": (["certify", "--method", "product", "--weights",
                               "file:FILE", "--p", "2", "--search-L"], 0),
    "file-norm": (["norm", "--weights", "file:FILE", "--p", "2", "--tol",
                   "1e-6"], 0),
    "compare": (["compare", "--methods", "ratio,product", "--p", "2",
                 "--N", "256", "--seed", "1"], 0),
    "hlp-dual-probe": (["hlp", "dual-probe", "--p", "0.32", "--trials",
                        "1000", "--seed", "1"], 0),
}


@pytest.fixture(scope="module")
def startup(tmp_path_factory):
    """(environment, weight file) of the start-up cases: PYTHONPATH names
    a copy of lpcert's sources alone, and bytecode is not written."""
    root = tmp_path_factory.mktemp("startup")
    pkg = root / "src" / "lpcert"
    pkg.mkdir(parents=True)
    for path in Path(lpcert.__file__).parent.glob("*.py"):
        shutil.copy(path, pkg / path.name)
    rng = np.random.default_rng(1)
    weights = root / "random-monotone.txt"
    weights.write_text("\n".join(
        map(repr, (0.05 + np.cumsum(rng.uniform(size=1000))).tolist())))
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    return env, str(weights)


def _import_self_us(env, code: str) -> dict[str, int]:
    """Median `-X importtime` self time (us) of each lpcert module that
    `python -c code` imports, over three runs."""
    runs: dict[str, list[int]] = {}
    for _ in range(3):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                             env=env, capture_output=True, text=True,
                             check=True).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("lpcert"):
                runs.setdefault(parts[2].strip(), []).append(
                    int(parts[0].split(":")[1]))
    return {mod: int(np.median(us)) for mod, us in sorted(runs.items())}


def test_cli_import(benchmark, startup):
    env, _ = startup
    argv = [sys.executable, "-c", "import lpcert.cli"]
    benchmark.extra_info["import_self_us"] = _import_self_us(
        env, "import lpcert.cli")
    benchmark.pedantic(subprocess.run, args=(argv,),
                       kwargs={"env": env, "check": True},
                       rounds=STARTUP_ROUNDS, warmup_rounds=1)


@pytest.mark.parametrize("command", list(STARTUP_COMMANDS))
def test_cli_startup(benchmark, startup, command):
    env, weights = startup
    args, rc = STARTUP_COMMANDS[command]
    args = [a.replace("FILE", weights) for a in args] + ["--out", os.devnull]
    benchmark.extra_info["import_self_us"] = _import_self_us(
        env, f"from lpcert.cli import main; main({args!r})")

    def run():
        return subprocess.run([sys.executable, "-m", "lpcert.cli", *args],
                              env=env).returncode

    assert benchmark.pedantic(run, rounds=STARTUP_ROUNDS // 2,
                              warmup_rounds=1) == rc


@pytest.mark.parametrize("N", sorted(TRACE_ROUNDS))
@pytest.mark.parametrize("op", ["apply", "adjoint_apply"])
def test_factorable_apply(benchmark, op, N):
    spec = weighted_mean(build_weights("power", N, exponent=0.5))
    x = np.arange(1, N + 1, dtype=np.float64) ** -0.6
    y = benchmark.pedantic(getattr(spec, op), args=(x,), rounds=ROUNDS[N],
                           warmup_rounds=1)
    assert y.shape == (N,)


@pytest.mark.parametrize("N", sorted(TRACE_ROUNDS))
def test_power_lower_bound(benchmark, N):
    spec = weighted_mean(build_weights("power", N, exponent=0.5))
    est = benchmark.pedantic(power_lower_bound, args=(spec, 2.0),
                             rounds=TRACE_ROUNDS[N], warmup_rounds=1)
    benchmark.extra_info["iterations"] = est.iterations
    assert est.lower_bound > 1.0


def _mu_call(route, N):
    """(function, args) of one mu trace of length N."""
    w = build_weights("power", N, exponent=0.5)
    params = BoundParams(2.0, 1.0)
    return {"mu_primal": (mu_primal, (weighted_mean(w), 2.0, params.lam_p)),
            "mu_dual": (mu_dual, (weighted_mean(w), 2.0, params.U_p)),
            "mu_dual_copson": (mu_dual_copson, (w, 2.0, 1.5)),
            "mu_bge": (mu_bge, (w, 2.0, 0.8)),
            "mu_bge_primal": (mu_bge, (w, 2.0, 0.8, "primal")),
            "hlp.mu_direct": (hlp.mu_direct, (0.355, N)),
            "hlp.mu_dual": (hlp.mu_dual, (0.355, N))}[route]


def _tracemalloc_peak(fn, args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _record_untimed_call(benchmark, fn, args):
    """Put the minor page faults of one untimed call of fn (after one
    warm-up call) and the tracemalloc peak of another in extra_info."""
    fn(*args)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn(*args)
    benchmark.extra_info["ru_minflt"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    benchmark.extra_info["tracemalloc_peak_bytes"] = _tracemalloc_peak(
        fn, args)


@pytest.mark.parametrize("N", sorted(TRACE_ROUNDS))
@pytest.mark.parametrize("route", ["mu_primal", "mu_dual", "mu_dual_copson",
                                   "mu_bge", "mu_bge_primal", "hlp.mu_direct",
                                   "hlp.mu_dual"])
def test_mu_trace(benchmark, route, N):
    fn, args = _mu_call(route, N)
    benchmark.extra_info["tracemalloc_peak_bytes"] = _tracemalloc_peak(
        fn, args)
    trace = benchmark.pedantic(fn, args=args, rounds=TRACE_ROUNDS[N],
                               warmup_rounds=1)
    assert trace.n_evaluated == N
    assert trace.passed or route.startswith("hlp")


@pytest.mark.parametrize("loops", ["compiled", "python"])
@pytest.mark.parametrize("route", ["mu_primal", "mu_dual", "hlp.mu_direct",
                                   "hlp.mu_dual"])
def test_step_loops(benchmark, monkeypatch, route, loops):
    if loops == "python":
        steps = (_kernel._dual_steps, _kernel._primal_steps)
    else:
        steps = _kernel.loops()
        if steps is None:
            pytest.skip("no C compiler: only the Python step loops run")
    calls = []
    monkeypatch.setattr(_kernel, "_step_loops",
                        lambda: calls.append(steps) or steps)
    fn, args = _mu_call(route, 10**6)
    trace = benchmark.pedantic(fn, args=args, rounds=TRACE_ROUNDS[10**6],
                               warmup_rounds=1)
    # the trace ran the loops set here
    assert calls and trace.n_evaluated == 10**6
    assert trace.passed or route.startswith("hlp")


def test_kernel_build(benchmark, tmp_path):
    material = _kernel._material()
    paths = iter(str(tmp_path / f"steps-{i}.so") for i in range(100))
    built = benchmark.pedantic(lambda: _kernel._build(next(paths), material),
                               rounds=5, warmup_rounds=1)
    if not built:
        pytest.skip("no C compiler")


def test_mu_dual_early_death(benchmark):
    spec = weighted_mean(build_weights("power", 10**6, exponent=1.0))
    args = (spec, 2.0, BoundParams(2.0, 0.25).U_p)
    benchmark.extra_info["tracemalloc_peak_bytes"] = _tracemalloc_peak(
        mu_dual, args)
    trace = benchmark.pedantic(mu_dual, args=args, rounds=20,
                               warmup_rounds=1)
    assert trace.first_violation == 4


def test_mu_primal_early_death(benchmark):
    args = (cesaro(10**6), 2.0, 0.9)
    benchmark.extra_info["tracemalloc_peak_bytes"] = _tracemalloc_peak(
        mu_primal, args)
    trace = benchmark.pedantic(mu_primal, args=args, rounds=20,
                               warmup_rounds=1)
    assert trace.first_violation == 3


@pytest.mark.parametrize("method", ["cartlidge", "ratio", "product",
                                    "factorable-product", "stepwise",
                                    "stepwise-p2"])
def test_checker(benchmark, method):
    w = build_weights("power", 10**5, exponent=0.5)
    rep = benchmark.pedantic(cli.run_certificate, args=(method, w, 2.0, 1.0),
                             rounds=50, warmup_rounds=1)
    assert rep.passed


@pytest.mark.parametrize("N", [10**3, 10**5])
@pytest.mark.parametrize("weights", ["random-monotone", "power:0.5"])
def test_search_L(benchmark, monkeypatch, weights, N):
    if weights == "random-monotone":
        rng = np.random.default_rng(1)
        w = build_weights("explicit", N,
                          values=0.05 + np.cumsum(rng.uniform(size=N)))
    else:
        w = build_weights("power", N, exponent=0.5)
    certify, sizes = cli.run_certificate, []
    monkeypatch.setattr(cli, "run_certificate", lambda m, v, p, L: (
        sizes.append(v.N) or certify(m, v, p, L)))
    cli.search_smallest_L("product", w, 2.0)
    monkeypatch.undo()
    benchmark.extra_info["whole_list_checks"] = sizes.count(N)
    benchmark.extra_info["head_checks"] = len(sizes) - sizes.count(N)
    L = benchmark.pedantic(cli.search_smallest_L, args=("product", w, 2.0),
                           rounds=TRACE_ROUNDS[N], warmup_rounds=1)
    assert L is not None


@pytest.mark.parametrize("p", [1.5, 3.0, 40.0])
def test_copson_root(benchmark, p):
    res = benchmark.pedantic(copson_root, args=(p,), rounds=200,
                             warmup_rounds=1)
    assert res.root < 0.0


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


@pytest.mark.parametrize("N", sorted(TRIAL_ROUNDS))
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("kind", ["branch", "bge", "strengthened"])
def test_trials(benchmark, kind, p, N):
    w = build_weights("power", N, exponent=0.8)
    c = 1.0 + 0.6 * (copson_threshold(p) - 1.0)
    fn = {"branch": lambda: check_copson_branch(w, p, c, "copson_prefix",
                                                trials=300, seed=1),
          "bge": lambda: check_bge(w, p, 0.85, trials=300, seed=1),
          "strengthened": lambda: strengthened_trials(
              StrengthenedCase(kind="dual", p=p), w, trials=300, seed=1)}
    _record_untimed_call(benchmark, fn[kind], ())
    rep = benchmark.pedantic(fn[kind], rounds=TRIAL_ROUNDS[N],
                             warmup_rounds=1)
    assert rep.passed and rep.trials == 300


@pytest.mark.parametrize("N,trials", [(256, 1000)] + [
    (N, 300) for N in sorted(TRIAL_ROUNDS)])
def test_dual_probe(benchmark, N, trials):
    argv = ["hlp", "dual-probe", "--p", "0.31", "--N", str(N), "--trials",
            str(trials), "--seed", "1", "--out", os.devnull]
    _record_untimed_call(benchmark, cli.main, (argv,))
    rc = benchmark.pedantic(cli.main, args=(argv,),
                            rounds=TRIAL_ROUNDS.get(N, 30), warmup_rounds=1)
    assert rc == 0
