"""The ``sweep`` workload: one in-process client calling lpcert directly.

    python perfbench/sweep_client.py --seed S --cycles C --out RECORDS
        [--spans SPANS]

Each mix cycle builds three seeded weight sequences at N = 2e4 once
each and queries every one at p in {1.5, 2, 3} with the vectorized
checkers, the kernel and one-vector strengthened checks, the mu
recurrences, a smallest-L bisection, a 30-step power iteration and
300-row trial batches.  About half the verdicts are sub-millisecond
checks and the 30-step power iteration (13-15 ms, the same work for
every seed) comes next, so the median verdict time falls among the
power iterations rather than on the edge between two kinds of call.  Weights are built once and
queried many times, the opposite of the large-n workload.  Rows x N
stays at 6e6 because ``strengthened_trials`` is not chunked (it peaks
near 414 MB at 300 x 2e4 and 1.7 GB at 300 x 1e5).

The client runs C whole cycles, each with its own seeded sequences; one
verdict is one library call, timed from call to return.  The records go
to RECORDS as JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time

N_SWEEP = 20_000
P_VALUES = (1.5, 2.0, 3.0)
TRIALS = 300
POWER_ITERATIONS = 30     # tol=0 runs exactly this many, whatever the seed
# verdicts that pass on every admissible input: a returned call (rc 0)
# whose report says pass=False counts as failed
MUST_PASS = frozenset({"cartlidge", "kernel", "strengthened-vector",
                       "branch", "bge", "strengthened"})


def _sequences(seed: int, k: int):
    import numpy as np
    from lpcert import build_weights
    r = random.Random(seed * 1_000_003 + k)
    yield build_weights("power", N_SWEEP, exponent=r.uniform(0.3, 1.5),
                        label="power")
    yield build_weights("geometric", N_SWEEP, ratio=r.uniform(1.0005, 1.002),
                        label="geometric")
    rng = np.random.default_rng([seed, k])
    yield build_weights("explicit", N_SWEEP,
                        values=0.05 + np.cumsum(rng.uniform(0.0, 1.0,
                                                            N_SWEEP)),
                        label="random-monotone")


def _trace_dict(trace, N: int) -> dict:
    first = trace.first_violation
    return {"pass": trace.passed, "N": N, "n_evaluated": trace.n_evaluated,
            "first_fail": first if first is not None
            else trace.target_violation,
            "worst_margin": trace.worst_margin}


def _group(w, p: float, seed: int):
    """(name, call, to_dict, checks) for every verdict on (w, p)."""
    import numpy as np
    import lpcert as lp
    from lpcert.cli import search_smallest_L
    L = lp.cartlidge_constant(w)
    params = lp.BoundParams(p=p, L=L)
    c = 1.0 + 0.6 * (lp.copson_threshold(p) - 1.0)   # admissible
    alpha = 1.0 - 1.0 / (2.0 * p) + 0.1               # admissible
    cert = lp.CertificateReport.to_dict
    N = w.N
    near_extremal = np.arange(1, N + 1, dtype=np.float64) ** (-1.0 / p - 0.01)

    def power_dict(est):
        return dict(est.to_dict(), bound=params.bound)

    out = [("cartlidge", lambda: lp.check_cartlidge(w, p, L), cert, ()),
           ("ratio", lambda: lp.check_ratio_condition(w, p, L), cert, ()),
           ("product", lambda: lp.check_product_condition(w, p, L), cert, ()),
           ("factorable-product", lambda: lp.check_factorable_product(
               lp.weighted_mean(w), p, L), cert, ()),
           ("stepwise", lambda: lp.check_factorable_stepwise(
               lp.weighted_mean(w), p, L), cert, ())]
    if p == 2.0:
        out.append(("stepwise-p2", lambda: lp.check_stepwise_p2(w, L), cert,
                    ()))
    trace = (lambda t: _trace_dict(t, N))
    out += [
        ("kernel", lambda: lp.check_kernel_inequality(p, c),
         lambda rep: rep.to_dict(), ()),
        ("strengthened-vector", lambda: lp.check_strengthened(
            lp.StrengthenedCase(kind="dual", p=p), w, near_extremal),
         lambda rep: rep.to_dict(), ("trial_ratio",)),
        ("mu-primal", lambda: lp.mu_primal(lp.weighted_mean(w), p,
                                           params.lam_p), trace,
         ("full_trace",)),
        ("mu-dual", lambda: lp.mu_dual(lp.weighted_mean(w), p, params.U_p),
         trace, ("full_trace",)),
        ("mu-dual-copson", lambda: lp.mu_dual_copson(w, p, c), trace,
         ("full_trace",)),
        ("mu-bge", lambda: lp.mu_bge(w, p, alpha), trace, ("full_trace",)),
        ("search-L", lambda: search_smallest_L("product", w, p),
         lambda L_min: {"L": L_min, "pass": L_min is not None}, ()),
        ("power", lambda: lp.power_lower_bound(lp.weighted_mean(w), p,
                                               max_iter=POWER_ITERATIONS,
                                               tol=0.0),
         power_dict, ("norm_sandwich",)),
        ("branch", lambda: lp.check_copson_branch(
            w, p, c, "copson_prefix", trials=TRIALS, seed=seed),
         lambda rep: rep.to_dict(), ("trial_ratio",)),
        ("bge", lambda: lp.check_bge(w, p, alpha, trials=TRIALS, seed=seed),
         lambda rep: rep.to_dict(), ("trial_ratio",)),
        ("strengthened", lambda: lp.strengthened_trials(
            lp.StrengthenedCase(kind="dual", p=p), w, trials=TRIALS,
            seed=seed), lambda rep: rep.to_dict(),
         ("trial_ratio",)),
        ("verify-mu-choice", lambda: lp.verify_mu_choice("copson", w, p,
                                                         c=c),
         lambda rep: rep.to_dict(), ()),
    ]
    return out


def run_cycle(seed: int, k: int, records: list, tracer) -> None:
    if tracer is not None:
        tracer.verdict = f"c{k}.build"
    for w in list(_sequences(seed, k)):
        for p in P_VALUES:
            for name, call, to_dict, checks in _group(w, p, seed + k):
                vid = f"c{k}.{w.label}.p{p:g}.{name}"
                if tracer is not None:
                    tracer.verdict = vid
                t0 = time.perf_counter()
                try:
                    res = call()
                    rc = 0
                except ValueError as exc:
                    res, rc = exc, 2
                wall = time.perf_counter() - t0
                records.append({
                    "id": vid, "wall_s": wall, "rc": rc, "expect_rc": 0,
                    "gate": "pass" if name in MUST_PASS else None,
                    "checks": list(checks),
                    "report": to_dict(res) if rc == 0 else None,
                    "stderr": "" if rc == 0 else str(res)})


def _json_default(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--cycles", type=int, required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    t0 = time.perf_counter()
    import lpcert.cli  # noqa: F401  (start-up is paid once, before timing)
    import_s = time.perf_counter() - t0
    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    records: list[dict] = []
    t0 = time.perf_counter()
    for k in range(args.cycles):
        run_cycle(args.seed, k, records, tracer)
    loop_wall = time.perf_counter() - t0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"records": records, "cycles": args.cycles,
                   "import_s": import_s,
                   "loop_wall_s": loop_wall,
                   "maxrss_kb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss},
                  fh, default=_json_default)
    if tracer is not None:
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
