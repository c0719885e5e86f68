"""The command mix of the CLI workload.

``MIXES[workload](seed, k, workdir)`` returns the specs of mix cycle k:
every cycle runs the same commands in the same order, with parameters
drawn from the benchmark's seed (and k) inside ranges where each
command's outcome is known.  A spec is a dict:

    id         stable name: cycle, position and command
    argv       arguments after ``python -m lpcert.cli``
    expect_rc  the exit code the command must return
    gate       report field that the exit code must agree with, or None
    checks     invariant names (see verdicts.py)

Input-range limits the workloads stay inside (the program is not changed
here; a robustness workload can cross them later):

* ``compare`` exits 2 above N ~ 1023 because corpus member geometric-2
  overflows (at N = 1e5: "weights must be finite"), so compare runs at
  N = 256.
* ``geometric:0.5`` underflows at N = 2000 ("weights must be
  positive"), so the mix uses no geometric weights and the sweep uses
  ratios just above 1.
* ``strengthened_trials`` builds the whole trial matrix at once
  (1.7 GB at 300 x 1e5), so strengthened trials run only in the sweep, at
  rows x N near 6e6.
"""

from __future__ import annotations

import os
import random

N_LARGE = 1_000_000
N_FILE = 100_000


def _rng(seed: int, k: int) -> random.Random:
    return random.Random(seed * 1_000_003 + k)


def _spec(k: int, i: int, tag: str, argv: list[str], expect_rc: int,
          gate: str | None, checks: tuple[str, ...]) -> dict:
    return {"id": f"c{k}.{i:02d}.{tag}", "argv": argv,
            "expect_rc": expect_rc, "gate": gate, "checks": list(checks)}


def _f(x: float) -> str:
    return f"{x:.4f}"


def _write_random_monotone(path: str, r: random.Random, n: int) -> None:
    """Corpus-style weights: 0.05 plus a running sum of U(0, 1)."""
    total = 0.05
    lines = []
    for _ in range(n):
        total += r.random()
        lines.append(repr(total))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def large_n(seed: int, k: int, workdir: str) -> list[dict]:
    """Truncations at N = 1e6, where the recurrences all run, plus one
    seeded weight file at N = 1e5 and two small calls (the corpus
    ``compare`` pool, ``hlp dual-probe``)."""
    r = _rng(seed, k)
    N = str(N_LARGE)
    a, p = _f(r.uniform(0.8, 1.2)), _f(r.uniform(1.9, 2.1))
    s = str(r.randrange(1_000_000))
    path = os.path.join(workdir, f"random-monotone-c{k}.txt")
    _write_random_monotone(path, r, N_FILE)
    weights = f"file:{path}"
    cmds = [
        ("certify-mu-dual", ["certify", "--method", "mu-dual", "--weights",
                             f"power:{a}", "--N", N, "--p", p, "--L", "1.0"],
         0, "pass", ()),
        # L below the Cartlidge constant 0.5 of power:1: the trace dies
        # within a few steps, so this costs weight building alone
        ("certify-mu-dual-early-fail",
         ["certify", "--method", "mu-dual", "--weights", "power:1", "--N", N,
          "--p", "2", "--L", _f(r.uniform(0.2, 0.3))], 1, "pass", ()),
        ("copson-mu", ["copson", "mu", "--p", "2",
                       "--c", _f(r.uniform(1.5, 2.0)), "--N", N],
         0, "pass", ("full_trace",)),
        ("copson-bge-mu", ["copson", "bge-mu", "--p", "2",
                           "--alpha", _f(r.uniform(0.75, 0.9)), "--N", N],
         0, "pass", ("full_trace",)),
        ("hlp-certify", ["hlp", "certify", "--p", "0.35", "--nmax", N],
         0, "certified", ("hlp_n0_4",)),
        ("hlp-certify-dual-shift",
         ["hlp", "certify", "--p", _f(r.uniform(0.34, 0.35)),
          "--method", "dual-shift", "--nmax", N], 0, "certified", ()),
        # the file rather than N = 1e6 for the primal trace, the power
        # iteration and the ~62 bisection checks (7-9 s at N = 1e6), so
        # that three mix cycles fit in one run
        ("file-mu-primal", ["certify", "--method", "mu-primal", "--weights",
                            weights, "--p", "2", "--L", "1.0"],
         0, "pass", ()),
        ("file-product-search-L",
         ["certify", "--method", "product", "--weights", weights,
          "--p", "2", "--search-L"], 0, "pass", ()),
        # --tol 1e-6 stops the power iteration after about 30 of its 99
        # default steps
        ("file-norm", ["norm", "--weights", weights, "--p", "2",
                       "--tol", "1e-6"], 0, None, ("norm_sandwich",)),
        ("compare", ["compare", "--methods", "ratio,product",
                     "--p", _f(r.uniform(1.8, 2.5)), "--N", "256",
                     "--seed", s], 0, None, ("ratio_implies_product",)),
        ("hlp-dual-probe", ["hlp", "dual-probe",
                            "--p", _f(r.uniform(0.30, 0.34)),
                            "--trials", "1000", "--seed", s], 0, "pass",
         ("trial_ratio",)),
    ]
    return [_spec(k, i, tag, argv, rc, gate, checks)
            for i, (tag, argv, rc, gate, checks) in enumerate(cmds)]


MIXES = {"large-n": large_n}
