"""End-to-end checks of the command-line surface.

Covers exit codes (0 pass, 1 certificate failure, 2 usage/domain error),
byte-identical reports for repeated runs, the fixed CSV column set, and
weight-spec parsing including file loading and truncation.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lpcert
from lpcert import build_weights, cli

CSV_HEADER = "method,p,L,c,alpha,N,pass,first_fail,worst_margin,bound"


def run(argv):
    return cli.main(argv)


# ----------------------------------------------------------------------
# Exit codes


def test_exit_zero_on_pass(tmp_path):
    out = tmp_path / "r.json"
    assert run(["certify", "--method", "cartlidge", "--p", "2",
                "--L", "1.0", "--N", "64", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] is True
    assert rep["method"] == "cartlidge"


def test_exit_one_on_certificate_failure(tmp_path):
    out = tmp_path / "r.json"
    code = run(["certify", "--method", "ratio", "--p", "2", "--L", "0.05",
                "--N", "64", "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["pass"] is False
    assert rep["first_fail"] is not None


def test_exit_two_on_domain_error(capsys):
    # the p = 2 specialization rejects other exponents
    assert run(["certify", "--method", "stepwise-p2", "--p", "3",
                "--N", "16"]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_two_on_bad_weight_spec():
    assert run(["certify", "--method", "cartlidge", "--p", "2",
                "--weights", "bogus"]) == 2
    assert run(["certify", "--method", "cartlidge", "--p", "2",
                "--weights", "triangular:3"]) == 2


def test_exit_two_on_missing_p():
    assert run(["norm", "--N", "16"]) == 2


def test_argparse_usage_error_is_exit_two():
    with pytest.raises(SystemExit) as exc:
        run(["certify", "--N", "16"])      # --method is required
    assert exc.value.code == 2


@pytest.mark.parametrize("route", ["dual", "primal"])
def test_bge_mu_stalled_partials_are_domain_errors(route, capsys):
    # geometric:0.99 partial sums stop growing in binary64 well before
    # N = 5000, so a power difference Lam_n^alpha - Lam_{n-1}^alpha is 0
    assert run(["copson", "bge-mu", "--p", "2", "--alpha", "0.8",
                "--weights", "geometric:0.99", "--N", "5000",
                "--route", route]) == 2
    assert ("error: power differences must stay positive"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv,message", [
    # U_p = (p/(c-1))^p is about 1e344, (alpha p/(p-1))^p about 1e600
    (["copson", "mu", "--p", "40", "--c", "1.0000001", "--N", "1000"],
     "U_p leaves the binary64 range"),
    (["copson", "bge-mu", "--p", "200", "--alpha", "1000", "--N", "1000"],
     "U_p leaves the binary64 range"),
    (["copson", "mu", "--p", "1.01", "--c", "1.0000001", "--N", "1000"],
     "mu_1 = ((c-1)/p)^q underflows to 0"),
    (["copson", "mu", "--p", "1.01", "--c", "1e10", "--N", "100"],
     "mu_1 = ((c-1)/p)^q leaves the binary64 range"),
    (["copson", "bge-mu", "--p", "1.001", "--alpha", "0.5", "--N", "1000"],
     "mu_1 = U_p^(-q/p) underflows to 0"),
    (["certify", "--method", "mu-dual", "--weights", "geometric:0.5",
      "--N", "2000", "--p", "2", "--L", "1.0"],
     "geometric:0.5 weights underflow to 0 from n = 1075"),
    # ((a_n/b_n)^p mu_n^(1-p) - 1)^(q-1) underflows to 0 at p = 1.01
    (["certify", "--method", "mu-dual", "--weights", "constant", "--N", "100",
      "--p", "1.01", "--L", "1e-5"],
     "((a_n/b_n)^p mu_n^(1-p) - 1)^(q-1) leaves the binary64 range at n = 1"),
    # R_n^2 is about 4^n for geometric:0.5
    (["certify", "--method", "mu-primal", "--weights", "geometric:0.5",
      "--N", "1000", "--p", "2", "--L", "1.99"],
     "(a_n/b_n)^p or (a_(n-1)/b_n)^(p/(p-1)) leaves the binary64 range "
     "at n = 512"),
    # 2^1023 fits, Lam_1023 = 2^1024 - 2 does not
    (["certify", "--method", "mu-dual", "--weights", "geometric:2",
      "--N", "1023", "--p", "2", "--L", "1"],
     "geometric:2 partial sums overflow from n = 1023; lower N"),
    # K^p = (p/(c-1))^p is about 10^600, (alpha p + 1)^p about 10^600
    (["copson", "branch", "--branch", "copson_prefix", "--c", "1.0001",
      "--p", "100", "--N", "1000", "--trials", "30"],
     "K^p leaves the binary64 range"),
    (["bge", "--p", "200", "--alpha", "5", "--N", "500", "--trials", "20"],
     "K^p = (alpha p + 1)^p leaves the binary64 range"),
    # --N 0 is a truncation of its own, not the default
    (["certify", "--method", "ratio", "--N", "0", "--p", "2", "--L", "1"],
     "truncation N must be a positive integer, got 0"),
    (["compare", "--methods", "ratio,product", "--p", "2", "--N", "0"],
     "need N >= 2"),
] + [
    # lam_p = (1 - L/p)^p underflows to 0 for L this close to p (from
    # p = 36 at L = p (1 - 1e-9), where --search-L starts below p = 36)
    (["certify", "--method", method, "--weights", "constant", "--N", "3000",
      "--p", p] + claim, "lam_p = (1 - L/p)^p underflows to 0")
    for method in ("mu-dual", "mu-primal") for p in ("50", "100")
    for claim in (["--L", str(float(p) - 1e-7)],
                  ["--L", repr(float(p) * (1.0 - 1e-9))])
] + [
    # at p = 100 on constant weights r_n = n^100 still fits at n = 1130,
    # but r_n mu_n does not: the primal step overflows (it used to store
    # mu_1131 = inf and report a violation at n = 1131 with every margin
    # positive), and the dual step a little later
    (["certify", "--method", "mu-primal", "--weights", "constant",
      "--N", "3000", "--p", "100", "--L", "2"],
     "(a_n/b_n)^p mu_n / (mu_n^(1/(p-1)) + (a_(n-1)/b_n)^(p/(p-1)))^(p-1) "
     "leaves the binary64 range at n = 1130"),
    # the same overflow on the last row, with no next row to trip on
    (["certify", "--method", "mu-primal", "--weights", "constant",
      "--N", "1130", "--p", "100", "--L", "2"],
     "(a_n/b_n)^p mu_n / (mu_n^(1/(p-1)) + (a_(n-1)/b_n)^(p/(p-1)))^(p-1) "
     "leaves the binary64 range at n = 1130"),
    (["certify", "--method", "mu-dual", "--weights", "constant",
      "--N", "3000", "--p", "100", "--L", "2"],
     "((a_n/b_n)^p mu_n^(1-p) - 1)^(q-1) leaves the binary64 range "
     "at n = 1210"),
    # no probe of the search gets past the overflow, so it has no verdict
    # (it used to report "no L in (0, p) passes")
    (["certify", "--method", "mu-primal", "--weights", "constant",
      "--N", "3000", "--p", "100", "--search-L"],
     "(a_n/b_n)^p mu_n / (mu_n^(1/(p-1)) + (a_(n-1)/b_n)^(p/(p-1)))^(p-1) "
     "leaves the binary64 range at n = 1128"),
    # ((p-1)/(alpha p))^p is about 10^2000: alpha is tested on the base
    # before the power is taken (it used to be an OverflowError traceback)
    (["copson", "bge-mu", "--p", "2000", "--alpha", "0.1", "--route",
      "primal", "--N", "10"], "primal route needs alpha > 1 - 1/p"),
    # ((p-1)/(alpha p))^p is about 10^-396
    (["copson", "bge-mu", "--p", "5000", "--alpha", "1.2", "--route",
      "primal", "--N", "10"], "lam_p = ((p-1)/(alpha p))^p underflows to 0"),
    # trial power sums out of range, by the rule of `copson branch` (bge
    # reported a NaN failure with numpy warnings, strengthened a passing
    # corollary ratio of 2.7e-95 from an overflowing right side)
    (["bge", "--p", "60", "--alpha", "1", "--N", "2000", "--trials", "50"],
     "bge power sums leave the binary64 range at p = 60; lower p"),
    (["strengthened", "check", "--which", "copson_prefix", "--c", "2", "--p",
      "80", "--N", "2000", "--trials", "50"],
     "copson_prefix power sums leave the binary64 range at p = 80; lower p"),
    (["copson", "branch", "--branch", "copson_prefix", "--c", "2", "--p",
      "80", "--N", "2000", "--trials", "50"],
     "copson_prefix power sums leave the binary64 range at p = 80; lower p"),
    # the n0 searches name their own bound, checked first (they said
    # "need N >= 1", a parameter neither command has)
    (["hlp", "certify", "--p", "0.35", "--nmax", "0"], "need n0_max >= 1"),
    (["hlp", "certify", "--p", "0.35", "--nmax", "0", "--method",
      "dual-shift"], "need n0_max >= 1"),
    (["hlp", "search", "--p", "0.35", "--nmax", "0"], "need n0_max >= 1"),
    (["hlp", "certify", "--p", "2", "--nmax", "-3"], "need n0_max >= 1"),
])
def test_out_of_range_inputs_are_domain_errors(argv, message, capsys):
    assert run(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


def _loaded(code: str) -> list[str]:
    """The modules loaded after `code` runs in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(lpcert.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    return json.loads(res.stdout.splitlines()[-1])


def _after_main(argv: list[str]) -> list[str]:
    """The modules loaded after a passing `lpcert argv` in a fresh
    interpreter."""
    return _loaded("from lpcert import cli\n"
                   f"assert cli.main({argv + ['--out', os.devnull]!r}) == 0")


def _ours(modules: list[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "lpcert"}


def test_cli_import_leaves_scipy_unloaded():
    assert not [m for m in _loaded("import lpcert.cli")
                if m.split(".")[0] == "scipy"]


def test_cp_root_loads_no_scipy():
    assert not [m for m in _after_main(["copson", "cp-root", "--p", "3"])
                if m.split(".")[0] == "scipy"]


def test_cli_import_loads_no_compute_module():
    # the parser needs only the option lists; every handler imports the
    # modules it runs, and the trial pool its own thread pool
    loaded = _loaded("import lpcert.cli")
    assert _ours(loaded) == {"lpcert", "lpcert._options", "lpcert.cli"}
    assert "concurrent.futures" not in loaded
    assert _ours(_loaded("import lpcert")) == {"lpcert"}


@pytest.mark.parametrize("argv, used, unused", [
    (["certify", "--method", "mu-dual", "--weights", "power:1", "--N", "1000",
      "--p", "2", "--L", "1.0"],
     {"certificates", "factorable", "sequences", "_kernel"},
     {"copson", "hlp", "strengthened", "norm_probe", "corpus"}),
    # MuTrace and the mu drivers live in _num and _kernel, so the direct
    # and dual-shift traces run on the shared dual and primal drivers
    # without the weighted-mean modules
    (["hlp", "certify", "--p", "0.35"], {"hlp", "_kernel"},
     {"copson", "strengthened", "norm_probe", "corpus", "certificates",
      "factorable", "sequences"}),
    (["hlp", "certify", "--p", "0.345", "--method", "dual-shift"],
     {"hlp", "_kernel"},
     {"copson", "strengthened", "norm_probe", "corpus", "certificates",
      "factorable", "sequences"}),
    # commands that run no mu step loop and no running sum load no _kernel
    (["certify", "--method", "product", "--weights", "power:1", "--N", "1000",
      "--p", "2", "--L", "1.0"],
     {"certificates", "factorable", "sequences"},
     {"copson", "hlp", "strengthened", "norm_probe", "corpus", "_kernel"}),
    # the trial batches and the power iteration form their running sums
    # with _kernel's compiled loop
    (["copson", "branch", "--branch", "copson_prefix", "--c", "1.5", "--p",
      "2", "--N", "200", "--trials", "20"],
     {"copson", "certificates", "sequences", "_kernel"},
     {"hlp", "strengthened", "norm_probe", "corpus"}),
    (["bge", "--alpha", "0.85", "--p", "2", "--N", "200", "--trials", "20"],
     {"copson", "sequences", "_kernel"},
     {"hlp", "strengthened", "norm_probe", "corpus"}),
    (["strengthened", "check", "--which", "dual", "--p", "2", "--N", "200",
      "--trials", "20"],
     {"strengthened", "copson", "sequences", "_kernel"},
     {"hlp", "norm_probe", "corpus"}),
    (["hlp", "dual-probe", "--p", "0.31", "--N", "256", "--trials", "20"],
     {"hlp", "_kernel"},
     {"copson", "strengthened", "norm_probe", "corpus", "certificates",
      "factorable", "sequences"}),
    (["norm", "--weights", "power:0.5", "--N", "2000", "--p", "2"],
     {"norm_probe", "factorable", "sequences", "_kernel"},
     {"copson", "hlp", "strengthened", "corpus"}),
    # calls of fewer than _num._COMPILED_MIN values run numpy's passes,
    # so a command made only of them loads no _kernel
    (["hlp", "dual-probe", "--p", "0.31", "--N", "64", "--trials", "20"],
     {"hlp"},
     {"copson", "strengthened", "norm_probe", "corpus", "certificates",
      "factorable", "sequences", "_kernel"}),
    (["norm", "--weights", "power:0.5", "--N", "200", "--p", "2"],
     {"norm_probe", "factorable", "sequences"},
     {"copson", "hlp", "strengthened", "corpus", "_kernel"}),
])
def test_a_subcommand_loads_only_what_it_runs(argv, used, unused):
    loaded = _ours(_after_main(argv))
    assert {f"lpcert.{m}" for m in used} <= loaded
    assert not loaded & {f"lpcert.{m}" for m in unused}


def test_only_a_compiled_loop_loads_the_kernel():
    # _kernel (and with it lpcert's use of ctypes, which numpy loads
    # anyway) comes in with the first mu trace or running sum of at
    # least _num._COMPILED_MIN values only: the
    # HLP threshold margin is closed-form, and the product check and the
    # Brent port run no loop of _kernel's
    assert "lpcert._kernel" not in _loaded("import lpcert.cli")
    for argv in (["hlp", "threshold", "--p", "0.34"],
                 ["certify", "--method", "product", "--weights", "power:1",
                  "--N", "1000", "--p", "2", "--L", "1.0"],
                 ["copson", "cp-root", "--p", "3"]):
        assert "lpcert._kernel" not in _after_main(argv), argv
    # the same check flags a command that runs a compiled loop
    assert "lpcert._kernel" in _after_main(
        ["hlp", "probe", "--p", "0.4", "--s", "2.6", "--N", "2000"])


def test_cp_root_report_is_unchanged(capsys):
    # the Brent port takes scipy's brentq steps, so the iteration count
    # of the report is unchanged
    assert run(["copson", "cp-root", "--p", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["iterations"] == 7
    assert rep["c"] == -0.3967136956303042
    assert rep["residual"] == 5.551115123125783e-17


def test_tol_is_a_norm_option_only(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["certify", "--method", "cartlidge", "--p", "2", "--L", "1.0",
             "--N", "16", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert run(["norm", "--p", "2", "--N", "64", "--tol", "1e-3",
                "--out", str(tmp_path / "r.json")]) == 0


def test_norm_tol_0_runs_every_iteration(tmp_path):
    out = tmp_path / "r.json"
    assert run(["norm", "--p", "2", "--N", "16", "--tol", "0",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["iterations"] == 10000 and rep["converged"] is False


def test_stepwise_p2_defaults_p(tmp_path):
    out = tmp_path / "r.json"
    assert run(["certify", "--method", "stepwise-p2", "--N", "32",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["p"] == 2.0


# ----------------------------------------------------------------------
# Determinism


def test_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["copson", "branch", "--branch", "copson_prefix", "--c", "1.5",
            "--p", "2", "--N", "64", "--trials", "50", "--seed", "3"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compare_is_deterministic_under_threads(tmp_path, monkeypatch):
    monkeypatch.setenv("THREADS", "3")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["compare", "--methods", "cartlidge,ratio", "--p", "2",
            "--N", "64"]
    assert run(argv + ["--out", str(a)]) == 0
    monkeypatch.setenv("THREADS", "1")
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ----------------------------------------------------------------------
# CSV rendering


def test_csv_header_and_cells(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["certify", "--method", "cartlidge", "--p", "2", "--L", "1.0",
                "--N", "64", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[0] == "cartlidge"
    assert cells[1] == "2.0"       # floats rendered via repr
    assert cells[6] == "true"      # booleans lowercased


def test_csv_root_report(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["copson", "cp-root", "--p", "2", "--format", "csv",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[0] == "cp-root"
    assert float(cells[3]) == pytest.approx(2.0 - np.sqrt(5.0), abs=1e-12)
    assert float(cells[9]) == pytest.approx(np.sqrt(5.0), abs=1e-12)


def test_csv_branch_report_leaves_first_fail_empty(tmp_path):
    # a trial batch has no failing index: its argmin is the trial that
    # came closest, which stays in the JSON report only
    out = tmp_path / "r.csv"
    assert run(["copson", "branch", "--branch", "copson_prefix", "--p", "2",
                "--c", "2", "--N", "100", "--trials", "20", "--format", "csv",
                "--out", str(out)]) == 0
    cells = out.read_text().splitlines()[1].split(",")
    assert cells[6:8] == ["true", ""]


def test_csv_probe_bound_is_the_constant(tmp_path):
    # the probe passes when its measured ratio stays above the HLP
    # constant; the bound column is that constant, not the ratio
    out = tmp_path / "r.csv"
    assert run(["hlp", "probe", "--p", "0.4", "--s", "2.6", "--N", "1000",
                "--format", "csv", "--out", str(out)]) == 0
    cells = out.read_text().splitlines()[1].split(",")
    assert cells[0] == "probe-primal" and cells[6] == "true"
    assert cells[9] == "0.850283000417194"


def test_csv_compare_rows(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["compare", "--methods", "cartlidge,ratio", "--p", "2",
                "--N", "64", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 50    # two methods x corpus size
    assert lines[1].startswith("cartlidge[")


def test_csv_hlp_pass_is_the_verdict(tmp_path):
    # hlp certify and hlp search report `certified` and `feasible`, not
    # `pass`; the CSV pass column carries that verdict, as the exit code
    out = tmp_path / "r.csv"
    for argv, code in [(["certify", "--p", "0.35"], 0),
                       (["certify", "--p", "0.355", "--nmax", "2000"], 1),
                       (["certify", "--p", "0.35", "--method", "dual-shift"],
                        0),
                       (["search", "--p", "0.345"], 0),
                       (["search", "--p", "0.45", "--nmax", "500"], 1)]:
        assert run(["hlp", *argv, "--format", "csv", "--out", str(out)]) == code
        cells = out.read_text().splitlines()[1].split(",")
        assert cells[6] == ("true" if code == 0 else "false"), argv
    # the JSON report is unchanged: no pass key
    assert run(["hlp", "search", "--p", "0.345", "--out", str(out)]) == 0
    assert "pass" not in json.loads(out.read_text())


@pytest.mark.parametrize("argv, message", [
    (["ratio,product", "--p", "2", "--L", "5"], "need 0 < L < p"),
    (["ratio,product", "--p", "2", "--L", "0"], "need 0 < L < p"),
    (["ratio,product", "--p", "0.5"], "need p > 1"),
    (["mu-dual,cartlidge", "--p", "1", "--L", "0.5"], "need p > 1"),
    (["stepwise-p2,ratio", "--p", "3"],
     "stepwise-p2 is the p = 2 specialization"),
    (["ratio,stepwise-p2", "--p", "2.5", "--L", "1"],
     "stepwise-p2 is the p = 2 specialization"),
])
def test_compare_usage_errors_exit_two(argv, message, capsys):
    # an error of p, L or a method alone is certify's usage error,
    # raised once before the corpus, not a row of failing sequences
    methods, *rest = argv
    assert run(["compare", "--methods", methods, "--N", "64", *rest]) == 2
    got = capsys.readouterr()
    assert got.err == f"error: {message}\n" and got.out == ""
    for method in methods.split(","):
        certify = ["certify", "--method", method, "--N", "64", *rest]
        if run(certify) == 2:
            assert capsys.readouterr().err == got.err


def test_compare_range_escapes_fail_their_own_sequence(tmp_path, capsys):
    # at p = 200 the mu-dual trace leaves the binary64 range on most
    # corpus members but not all: those rows are false, the rest stand
    out = tmp_path / "r.json"
    assert run(["compare", "--methods", "mu-dual,ratio", "--p", "200",
                "--L", "1", "--N", "1000", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert all(r["ratio"] for r in rows)
    failed = [r["label"] for r in rows if not r["mu-dual"]]
    assert failed and len(failed) < len(rows)
    assert failed[0] == "constant"
    assert run(["certify", "--method", "mu-dual", "--weights", "constant",
                "--p", "200", "--L", "1", "--N", "1000"]) == 2
    assert "binary64 range" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Weight specs and files


def test_weight_file_with_truncation(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("# increasing weights\n1.0\n2.0  # inline note\n"
                    "3.0\n4.0\n5.0\n")
    out = tmp_path / "r.json"
    assert run(["certify", "--method", "cartlidge", "--p", "2",
                "--weights", f"file:{path}", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["N"] == 5
    assert run(["certify", "--method", "cartlidge", "--p", "2",
                "--weights", f"file:{path}", "--N", "3",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["N"] == 3
    # asking for more entries than the file holds is a usage error
    assert run(["certify", "--method", "cartlidge", "--p", "2",
                "--weights", f"file:{path}", "--N", "99"]) == 2


def test_compare_truncates_weight_files_to_N(tmp_path, capsys):
    # a --weights-file is checked at --N, the N its JSON and CSV rows
    # print: its first 256 weights are constant (both methods pass at
    # L = 1), the rest drop to 1e-6 (both fail on the whole file)
    path = tmp_path / "w.txt"
    path.write_text("1.0\n" * 256 + "1e-6\n" * 4744)
    argv = ["compare", "--methods", "ratio,product", "--p", "2", "--L", "1",
            "--N", "256", "--weights-file", str(path)]
    out = tmp_path / "r.json"
    assert run([*argv, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["N"] == 256
    assert rep["rows"][-1] == {"label": f"file:{path}", "ratio": True,
                               "product": True}
    assert run([*argv, "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-2:] == [
        f"{m}[file:{path}],2.0,1.0,,,256,true,,," for m in ("ratio",
                                                           "product")]
    # a file shorter than --N is certify's usage error
    path.write_text("1.0\n" * 100)
    assert run(argv) == 2
    got = capsys.readouterr()
    assert got.err == "error: --N 256 exceeds file length 100\n"
    assert got.out == ""


def test_missing_weight_file_is_usage_error(tmp_path):
    assert run(["certify", "--method", "cartlidge", "--p", "2",
                "--weights", f"file:{tmp_path / 'nope.txt'}"]) == 2


def test_parse_weights_kinds():
    w = cli.parse_weights("constant", 12)
    assert w.N == 12 and w.kind == "constant"
    w2 = cli.parse_weights("power:1", 8)
    assert w2.values[3] == pytest.approx(4.0)
    w3 = cli.parse_weights("geometric:2", 6)
    assert w3.values[-1] == pytest.approx(2.0 ** 6)
    with pytest.raises(ValueError):
        cli.parse_weights("power", 8)


# ----------------------------------------------------------------------
# Report contents per subcommand


def test_norm_report_fields(tmp_path):
    out = tmp_path / "r.json"
    assert run(["norm", "--p", "2", "--N", "256", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["method"] == "norm-probe"
    assert rep["L"] == pytest.approx(1.0)
    assert rep["bound"] == pytest.approx(2.0)
    assert rep["lower_bound"] <= rep["bound"] + 1e-9


def test_search_L_finds_boundary(tmp_path):
    out = tmp_path / "r.json"
    assert run(["certify", "--method", "cartlidge", "--p", "2", "--N", "64",
                "--search-L", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    # constant weights have ratio-increment maximum exactly 1
    assert rep["L"] == pytest.approx(1.0, abs=1e-8)


def test_mu_primal_claim_below_the_norm_fails_on_the_closing_step(tmp_path):
    # the 2 x 2 Cesaro matrix has 2-norm 1.1441: the bound 1.005 must
    # fail, and the step mu_3 >= 0 of the last row n = 2 is where it does
    out = tmp_path / "r.json"
    assert run(["certify", "--method", "mu-primal", "--weights", "constant",
                "--N", "2", "--p", "2", "--L", "0.01",
                "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert rep["pass"] is False and rep["first_fail"] == 3


def _bisect_60_steps(method, w, p, verdicts=None):
    """search_smallest_L as a fixed 60-step bisection; each probed L and
    its verdict go into the dict verdicts, if given."""
    def passed(L):
        ok = cli.run_certificate(method, w, p, L).passed
        if verdicts is not None:
            verdicts[L] = ok
        return ok

    hi = p * (1.0 - 1e-9)
    if not passed(hi):
        return None
    lo = p * 1e-9
    if passed(lo):
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if passed(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("method", ["cartlidge", "ratio", "product",
                                    "mu-primal", "mu-dual"])
@pytest.mark.parametrize("weights", ["constant", "power:0.5", "power:-0.5",
                                     "geometric:1.01"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_search_L_stops_once_the_bisection_stalls(method, weights, p,
                                                  monkeypatch):
    w = cli.parse_weights(weights, 200)
    ref = _bisect_60_steps(method, w, p)
    probes = []
    certify = cli.run_certificate
    monkeypatch.setattr(cli, "run_certificate",
                        lambda m, w, p, L: probes.append(L) or certify(
                            m, w, p, L))
    got = cli.search_smallest_L(method, w, p)
    assert got == ref
    # no L is probed twice, and at most 2 + 60 are probed in all
    assert len(probes) == len(set(probes)) <= 62


@pytest.mark.parametrize("method", cli.CERTIFY_METHODS)
def test_search_L_emits_the_report_the_bisection_checked(method, capsys,
                                                         monkeypatch):
    argv = ["certify", "--method", method, "--weights", "power:0.5",
            "--N", "1500", "--p", "2", "--search-L"]
    events = []
    certify, search = cli.run_certificate, cli._smallest_passing

    def searched(*args):
        found = search(*args)
        events.append("end of search")
        return found

    monkeypatch.setattr(cli, "run_certificate",
                        lambda *args: events.append("check") or certify(*args))
    monkeypatch.setattr(cli, "_smallest_passing", searched)
    rc = run(argv)
    out = capsys.readouterr().out
    # the search checked the whole list; nothing runs after it
    assert events.count("end of search") == 1 and events[-1] == "end of search"
    assert events.count("check") > 2
    monkeypatch.undo()
    # the report is the one a fresh check at the found L gives
    w = cli.parse_weights("power:0.5", 1500)
    L = cli.search_smallest_L(method, w, 2.0)
    want = cli.run_certificate(method, w, 2.0, L).to_dict()
    want["note"] = "smallest passing L found by bisection"
    assert (rc, out) == (0, cli.render_json(want))


def _random_monotone(N, seed=3):
    """Corpus-style weights: 0.05 plus a running sum of U(0, 1)."""
    rng = np.random.default_rng(seed)
    return build_weights("explicit", N,
                         values=0.05 + np.cumsum(rng.uniform(size=N)))


@pytest.mark.parametrize("method", cli.CERTIFY_METHODS)
@pytest.mark.parametrize("weights", ["constant", "power:0.5", "power:-0.5",
                                     "geometric:1.001", "random-monotone"])
@pytest.mark.parametrize("N", [1500, 5000])
def test_search_L_probes_the_head_first(method, weights, N, monkeypatch):
    assert N > cli._HEAD
    w = (_random_monotone(N) if weights == "random-monotone"
         else cli.parse_weights(weights, N))
    head = w.head(cli._HEAD)
    certify = cli.run_certificate
    for p in ([2.0] if method == "stepwise-p2" else [1.5, 2.0, 3.0]):
        verdicts = {}
        ref = _bisect_60_steps(method, w, p, verdicts)
        # settling each probe on the head first checks the whole list at
        # every probe whose head passes: all that pass, and the failing
        # ones that fail past the head
        head_passes = sum(ok or certify(method, head, p, L).passed
                          for L, ok in verdicts.items())
        calls = []

        def counted(m, v, p, L):
            calls.append((v.N, L))
            return certify(m, v, p, L)

        monkeypatch.setattr(cli, "run_certificate", counted)
        assert cli.search_smallest_L(method, w, p) == ref
        monkeypatch.setattr(cli, "run_certificate", certify)
        # no check runs twice, and the whole list is checked at most
        # once more than when each probe is settled on the head first
        assert len(calls) == len(set(calls))
        assert {n for n, _ in calls} <= {cli._HEAD, N}
        whole = [L for n, L in calls if n == N]
        assert len(whole) <= head_passes + 1
        # a search that returns an L has checked the whole list there
        assert ref is None or ref in whole
        # the head decides the product condition on these weights
        if weights == "random-monotone" and method == "product":
            assert len(whole) == 1


def _plain_loop(method, w, p, hi=None):
    """_smallest_passing's report as the plain loop: the whole list is
    checked at every probe, from hi (p (1 - 1e-9) if None) down, and the
    bisection stops once it stalls.  If the first probe leaves the
    binary64 range (raises), every probe that does moves the bracket
    down, and with no pass the first error is raised."""
    def passing(L):
        rep = cli.run_certificate(method, w, p, L)
        return rep if rep.passed else None

    lo, hi = p * 1e-9, p * (1.0 - 1e-9) if hi is None else hi
    error = None
    try:
        best = passing(hi)
    except ValueError as exc:
        best, error = None, exc
    if best is None and error is None:
        return None
    low = passing(lo)
    if low is not None:
        return low
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        try:
            rep = passing(mid)
        except ValueError:
            if error is None:
                raise
            hi = mid
            continue
        if rep is not None:
            hi, best = mid, rep
        else:
            lo = mid
    if best is None:
        raise error
    return best


def _rendered(rep):
    return None if rep is None else cli.render_json(rep.to_dict())


@pytest.mark.parametrize("method", cli.CERTIFY_METHODS)
def test_search_L_report_is_the_plain_loops(method):
    # the corpus profiles past the head (geometric-2 overflows there)
    # and two of its random-monotone kind
    lists = [build_weights("constant", 1100),
             build_weights("power", 1100, exponent=0.5),
             build_weights("power", 1100, exponent=1.0),
             build_weights("power", 1100, exponent=2.0),
             build_weights("geometric", 1100, ratio=1.1),
             _random_monotone(1100, seed=7), _random_monotone(1100, seed=8)]
    for w in lists:
        got = cli._smallest_passing(method, w, 2.0)
        assert _rendered(got) == _rendered(_plain_loop(method, w, 2.0))


@pytest.mark.parametrize("method", ["ratio", "product"])
def test_search_L_report_is_the_plain_loops_at_N_1e5(method):
    w = _random_monotone(100_000, seed=11)
    got = cli._smallest_passing(method, w, 2.0)
    assert got.passed
    assert _rendered(got) == _rendered(_plain_loop(method, w, 2.0))


@pytest.mark.parametrize("p", [2.0, 35.0, 50.0, 100.0])
@pytest.mark.parametrize("method", cli.CERTIFY_METHODS)
def test_search_L_starts_where_lam_p_is_normal(method, p):
    # below p = 36, and for the methods that form no lam_p, the search
    # starts at p (1 - 1e-9) as before; the mu methods from p = 36 up,
    # where lam_p = 1e-9^p underflows to 0 there, start at the largest L
    # whose lam_p is a normal float
    hi = cli._top_probe(method, p)
    if p < 36.0 or method not in ("mu-dual", "mu-primal"):
        assert hi == p * (1.0 - 1e-9)
        return
    assert (1.0 - hi / p) ** p >= sys.float_info.min
    assert (1.0 - math.nextafter(hi, p) / p) ** p < sys.float_info.min


@pytest.mark.parametrize("p", [50.0, 100.0])
@pytest.mark.parametrize("method", ["mu-dual", "mu-primal"])
def test_large_p_search_L_is_the_plain_loop_from_its_top(method, p, capsys,
                                                         monkeypatch):
    w = cli.parse_weights("constant", 3000)
    try:
        want = _plain_loop(method, w, p, cli._top_probe(method, p))
    except ValueError as exc:
        want = exc
    certify, calls = cli.run_certificate, []

    def counted(m, v, p, L):
        calls.append((v.N, L))
        return certify(m, v, p, L)

    monkeypatch.setattr(cli, "run_certificate", counted)
    rc = run(["certify", "--method", method, "--weights", "constant",
              "--N", "3000", "--p", repr(p), "--search-L"])
    monkeypatch.setattr(cli, "run_certificate", certify)
    out, err = capsys.readouterr()
    # a check that raised is not run again either
    assert len(calls) == len(set(calls))
    if isinstance(want, ValueError):
        assert (rc, err) == (2, f"error: {want}\n")
    elif want is None:
        assert (rc, json.loads(out)["L"]) == (1, None)
    else:
        rep = want.to_dict()
        rep["note"] = "smallest passing L found by bisection"
        assert (rc, out) == (0, cli.render_json(rep))
    # at p = 50 --L 2 passes, and so does the search, below 2 (the dual
    # trace leaves the binary64 range at the top probe, at n = 5); at
    # p = 100 both traces leave the range at every L (at n = 1210 and
    # 1130 at --L 2), so neither search has a verdict
    if p == 50.0:
        assert run(["certify", "--method", method, "--weights", "constant",
                    "--N", "3000", "--p", "50", "--L", "2"]) == 0
        assert rc == 0 and json.loads(out)["L"] < 2.0
    else:
        assert rc == 2 and "leaves the binary64 range" in err


def _probes(verdicts):
    """passing(L) for _bisect from a list of (L_from, outcome): the last
    entry with L_from <= L decides; outcome "pass" returns L, "fail"
    None, and "out" raises."""
    def passing(L):
        outcome = [o for L0, o in verdicts if L0 <= L][-1]
        if outcome == "out":
            raise ValueError(f"out of range at {L}")
        return L if outcome == "pass" else None
    return passing


def test_bisect_moves_down_from_an_out_of_range_top():
    p, hi = 1.0, 1.0 - 1e-9
    # fail below 0.25, pass up to 0.75, out of range above
    got = cli._bisect(_probes([(0.0, "fail"), (0.25, "pass"),
                               (0.75, "out")]), p, hi)
    assert 0.25 <= got < 0.25 + 1e-12
    # in range at the top: the same search as before
    assert cli._bisect(_probes([(0.0, "fail"), (0.25, "pass")]), p,
                       hi) == got
    # no pass anywhere: the top's error, not "no L passes"
    with pytest.raises(ValueError, match=f"out of range at {hi}"):
        cli._bisect(_probes([(0.0, "fail"), (0.75, "out")]), p, hi)
    # a passing top fails as before, and a probe out of range below a
    # passing top is still an error
    assert cli._bisect(_probes([(0.0, "fail")]), p, hi) is None
    with pytest.raises(ValueError):
        cli._bisect(_probes([(0.0, "fail"), (0.25, "out"),
                             (0.75, "pass")]), p, hi)


def test_compare_report_fields(tmp_path):
    out = tmp_path / "r.json"
    assert run(["compare", "--methods", "cartlidge,ratio", "--p", "2",
                "--N", "64", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["rows"]) == 50
    assert rep["cartlidge_implies_ratio"] is True
    assert set(rep["rows"][0]) == {"label", "cartlidge", "ratio"}


def test_hlp_subcommands(tmp_path):
    out = tmp_path / "r.json"
    assert run(["hlp", "certify", "--p", "0.35", "--method", "dual-shift",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["certified"] is True and rep["n0"] == 5
    assert run(["hlp", "threshold", "--bracket", "--out", str(out)]) == 0
    rep2 = json.loads(out.read_text())
    assert rep2["width"] <= 1e-4
    assert run(["hlp", "probe", "--p", "0.35", "--s", "3.2",
                "--N", "500", "--out", str(out)]) == 0
    assert run(["hlp", "dual-probe", "--p", "0.35", "--N", "32",
                "--trials", "20", "--out", str(out)]) == 0
    # at p = 0.999 every ratio is inf/inf: a NaN maximum, and a failure
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(["hlp", "dual-probe", "--p", "0.999", "--N", "3000",
                    "--trials", "50", "--out", str(out)]) == 1
    rep = json.loads(out.read_text())
    assert math.isnan(rep["max_ratio"]) and rep["pass"] is False
    # infeasible search is a valid negative outcome: exit 1
    assert run(["hlp", "search", "--p", "0.45", "--nmax", "500",
                "--out", str(out)]) == 1


def test_strengthened_subcommands(tmp_path):
    out = tmp_path / "r.json"
    assert run(["strengthened", "check", "--which", "cartlidge", "--p", "2",
                "--N", "64", "--trials", "50", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] is True and rep["max_ratio"] <= 1.0 + 1e-10
    assert run(["strengthened", "mu", "--choice", "leindler", "--c", "0",
                "--p", "2", "--N", "64", "--out", str(out)]) == 0


def test_mu_trace_reports(tmp_path):
    out = tmp_path / "r.json"
    assert run(["copson", "mu", "--c", "2", "--p", "2", "--N", "128",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] is True
    assert rep["trace"][0] == [1, 0.25]
    assert run(["copson", "bge-mu", "--alpha", "1", "--route", "primal",
                "--p", "2", "--N", "128", "--out", str(out)]) == 0


def test_stdout_emission(capsys):
    assert run(["copson", "kernel", "--c", "2.23", "--p", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["pass"] is True


# ----------------------------------------------------------------------
# Trace decimation


def test_decimate_trace_shapes():
    vals = np.arange(1.0, 5001.0)
    pairs = cli.decimate_trace(vals)
    ns = [n for n, _ in pairs]
    assert ns[:1000] == list(range(1, 1001))
    assert ns[1000:] == [1024, 2048, 4096, 5000]
    assert all(v == float(n) for n, v in pairs)
    short = cli.decimate_trace(np.ones(10))
    assert [n for n, _ in short] == list(range(1, 11))
    exact = cli.decimate_trace(np.ones(1024))
    assert [n for n, _ in exact][-1] == 1024
