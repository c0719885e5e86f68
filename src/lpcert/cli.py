"""Command-line surface for the certificate toolkit.

Subcommands
    norm          power-iteration lower bound for a weighted-mean matrix
    certify       run one norm-bound certificate on a weight sequence
    copson        root/threshold, kernel check, branch trials, mu traces
    bge           blocked tail inequality trials
    strengthened  first-power family trials and closed-form mu checks
    hlp           reversed-inequality certificates and probes (0 < p < 1)
    compare       run two certificates across a weight corpus

Reports are deterministic given the seed: JSON is emitted with sorted
keys and no timestamps, CSV uses the fixed column set

    method,p,L,c,alpha,N,pass,first_fail,worst_margin,bound

and repeated runs with the same configuration produce byte-identical
output.  Exit codes: 0 pass/success, 1 certificate failure (a valid
negative outcome), 2 usage or domain error.  The THREADS environment
variable caps the worker threads that evaluate random-trial blocks.

Importing this module loads no lpcert module but the option lists the
parser needs (`_options`); each handler imports the modules its
subcommand runs, so a `certify` call never loads the Copson, strengthened
or hlp code, nor a `copson` call the hlp code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from ._options import BRANCHES, KINDS, MU_CHOICES, N_MAX_DEFAULT

if TYPE_CHECKING:
    from .certificates import CertificateReport
    from .sequences import WeightSequence

CSV_COLUMNS = ("method", "p", "L", "c", "alpha", "N", "pass", "first_fail",
               "worst_margin", "bound")
CERTIFY_METHODS = ("cartlidge", "ratio", "product", "factorable-product",
                   "stepwise", "stepwise-p2", "mu-primal", "mu-dual")
TRACE_DENSE = 1000
# leading weights on which _smallest_passing bisects before it checks the
# whole list at the answer (once, if the answer passes there)
_HEAD = 1024


# ----------------------------------------------------------------------
# Plumbing


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2,
                      default=_json_default) + "\n"


def render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def _csv_cell(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def csv_rows(report: dict) -> list[dict]:
    """Map any report dict onto the fixed CSV columns (best effort)."""
    if "rows" in report:                      # compare matrix
        return [{"method": f"{method}[{row['label']}]", "p": report.get("p"),
                 "L": report.get("L"), "c": report.get("c"),
                 "N": report.get("N"), "pass": row[method]}
                for row in report["rows"] for method in report["methods"]]
    row = {col: report.get(col) for col in CSV_COLUMNS}
    if row["pass"] is None:                   # hlp certify, hlp search
        row["pass"] = report.get("certified", report.get("feasible"))
    if row.get("method") is None:
        row["method"] = report.get("branch", report.get("which",
                                                        report.get("choice")))
    if "c_or_alpha" in report:
        key = "alpha" if report.get("branch") == "bge" else "c"
        row[key] = report["c_or_alpha"]
    if row.get("worst_margin") is None:
        row["worst_margin"] = report.get("min_margin",
                                         report.get("margin", ""))
    if row.get("bound") is None:
        # the value the report is tested against, never a measured ratio
        row["bound"] = report.get("lower_bound",
                                  report.get("threshold",
                                             report.get("constant", "")))
    return [row]


def emit(report: dict, args) -> None:
    if args.format == "csv":
        text = render_csv(csv_rows(report))
    else:
        text = render_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def decimate_trace(values) -> list[list[float]]:
    """[n, value] pairs: every index up to 1000, then powers of two."""
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    ns = list(range(1, min(TRACE_DENSE, vals.size) + 1))
    ns += [1 << k for k in range(10, vals.size.bit_length())]
    if vals.size > TRACE_DENSE and ns[-1] != vals.size:
        ns.append(vals.size)
    return [[int(n), float(vals[n - 1])] for n in ns]


def parse_weights(text: str, N: int | None) -> WeightSequence:
    from .sequences import build_weights, load_weight_file

    n = 1000 if N is None else N
    if text == "constant":
        return build_weights("constant", n)
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"bad weight spec {text!r}: expected constant, "
                         "power:A, geometric:R, or file:PATH")
    if head == "power":
        return build_weights("power", n, exponent=float(tail))
    if head == "geometric":
        return build_weights("geometric", n, ratio=float(tail))
    if head == "file":
        w = load_weight_file(tail)
        if N is not None and N != w.N:
            if N > w.N:
                raise ValueError(f"--N {N} exceeds file length {w.N}")
            return build_weights("explicit", N, values=w.values[:N],
                                 label=w.label)
        return w
    raise ValueError(f"unknown weight kind {head!r}")


def mu_trace_dict(trace, method: str, p: float, N: int, **params) -> dict:
    out = {"method": method, "p": p, "N": N, "pass": trace.passed,
           "constraint": trace.constraint,
           "first_fail": trace.first_fail, "worst_margin": trace.worst_margin,
           "n_evaluated": trace.n_evaluated,
           "trace": decimate_trace(trace.mu)}
    out.update(params)
    return out


# ----------------------------------------------------------------------
# Certificate dispatch (also used by compare)


def run_certificate(method: str, w: WeightSequence, p: float,
                    L: float) -> CertificateReport:
    from .certificates import (BoundParams, check_cartlidge,
                               check_factorable_product,
                               check_factorable_stepwise,
                               check_product_condition, check_ratio_condition,
                               check_stepwise_p2, mu_dual, mu_primal,
                               trace_report)
    from .factorable import weighted_mean

    _need_p2(method, p)
    if method == "cartlidge":
        return check_cartlidge(w, p, L)
    if method == "ratio":
        return check_ratio_condition(w, p, L)
    if method == "product":
        return check_product_condition(w, p, L)
    if method == "factorable-product":
        return check_factorable_product(weighted_mean(w), p, L)
    if method == "stepwise":
        return check_factorable_stepwise(weighted_mean(w), p, L)
    if method == "stepwise-p2":
        return check_stepwise_p2(w, L)
    if method == "mu-primal":
        params = BoundParams(p=p, L=L)
        trace = mu_primal(weighted_mean(w), p, params.lam_p)
        return trace_report(trace, "mu-primal", params, w.N)
    if method == "mu-dual":
        params = BoundParams(p=p, L=L)
        trace = mu_dual(weighted_mean(w), p, params.U_p)
        return trace_report(trace, "mu-dual", params, w.N)
    raise ValueError(f"unknown method {method!r}")


def _need_p2(method: str, p: float) -> None:
    if method == "stepwise-p2" and abs(p - 2.0) > 1e-12:
        raise ValueError("stepwise-p2 is the p = 2 specialization")


def search_smallest_L(method: str, w: WeightSequence,
                      p: float) -> float | None:
    """Bisect for the smallest L in (0, p) the certificate accepts, or
    None when even its first probe fails (see _smallest_passing)."""
    rep = _smallest_passing(method, w, p)
    return None if rep is None else rep.L


def _top_probe(method: str, p: float) -> float:
    """The first L a search probes: p(1 - 1e-9), just under p.

    For the mu methods from p = 36 up, lam_p = (1 - L/p)^p underflows to
    0 there (1e-9^p), a domain error; their searches start instead at
    the largest L whose lam_p is still a normal float, just under
    p(1 - 2^(-1022/p)).  lam_p falls as L grows, so stepping to the
    neighbouring floats settles the rounding.
    """
    hi = p * (1.0 - 1e-9)
    if method not in ("mu-primal", "mu-dual") or (1.0 - hi / p) ** p != 0.0:
        return hi

    def normal(L):
        return (1.0 - L / p) ** p >= sys.float_info.min

    hi = -p * math.expm1(-1022.0 * math.log(2.0) / p)
    while not normal(hi):
        hi = math.nextafter(hi, 0.0)
    while normal(math.nextafter(hi, p)):
        hi = math.nextafter(hi, p)
    return hi


def _bisect(passing, p: float, hi: float):
    """What passing returns at the smallest passing L of a 60-step
    bisection on (0, p), probing hi (see _top_probe) first, or None when
    even hi fails.

    passing(L) is None when L fails, and raises ValueError when the
    check leaves the binary64 range at L.  Only the first probe may do
    so (a large p puts mu traces out of range near L = p, where U_p is
    largest); the bisection then moves down from every probe that
    raises, as from a pass, and raises the first error if no probe
    passes.  Stops early once the midpoint rounds to lo or hi: every
    later step would re-run a known verdict and leave the bracket as it
    is.
    """
    lo = p * 1e-9
    try:
        best, error = passing(hi), None
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
            found = passing(mid)
        except ValueError:
            if error is None:
                raise
            hi = mid
            continue
        if found is not None:
            hi, best = mid, found
        else:
            lo = mid
    if best is None:
        raise error
    return best


def _smallest_passing(method: str, w: WeightSequence,
                      p: float) -> CertificateReport | None:
    """The whole-sequence report at the smallest passing L of a 60-step
    bisection, or None when even its first probe (see _top_probe) fails
    (see _bisect for probes that leave the binary64 range).

    Assumes pass is monotone in L: a larger L claims a weaker bound, so
    a check that passes at L passes at every larger L.  The result is
    that of the plain loop, which checks the whole sequence at every
    probe, and the identity rests on this premise.

    Every run_certificate method is prefix-causal: its margins at
    n <= m depend only on lam_1..lam_m, bit for bit (the partial sums,
    cumulative sums and mu steps all run forward), so a probe that fails
    on the first _HEAD weights fails on the whole sequence.  The search
    first bisects with every probe checked on the head alone, then
    checks the whole sequence once, at the head's answer L_h.  If that
    passes, so does every other probe whose head passed, since each of
    them is at least L_h (hi only falls): the plain loop takes the same
    path, and this is its report.  Otherwise the search replays the
    loop with each probe settled on the head before the whole sequence,
    reusing every verdict known so far: no check runs twice, and the
    whole checks are those of the head-first loop plus at most the one
    at L_h.  A check that leaves the binary64 range on the head does so
    on the whole sequence too, and one that does at L_h sends the search
    to the replay, where _bisect settles it as the plain loop would.
    """
    head = w.head(min(w.N, _HEAD))
    known = {}     # (N, L) -> the report if it passes, None, or the error

    def passing(v: WeightSequence, L: float):
        if (v.N, L) not in known:
            try:
                rep = run_certificate(method, v, p, L)
                known[v.N, L] = rep if rep.passed else None
            except ValueError as exc:
                known[v.N, L] = exc
        if isinstance(known[v.N, L], ValueError):
            raise known[v.N, L]
        return known[v.N, L]

    hi = _top_probe(method, p)
    L_h = _bisect(lambda L: L if passing(head, L) else None, p, hi)
    if L_h is None:
        return None
    try:
        found = passing(w, L_h)
    except ValueError:
        found = None      # the replay settles it
    if found is not None:
        return found
    return _bisect(lambda L: passing(head, L) and passing(w, L), p, hi)


# ----------------------------------------------------------------------
# Subcommand handlers: each returns (report dict, passed-or-None)


def _need_p(args) -> float:
    if getattr(args, "p", None) is None:
        raise ValueError("--p is required")
    return args.p


def cmd_norm(args) -> tuple[dict, bool | None]:
    from .certificates import cartlidge_constant
    from .factorable import weighted_mean
    from .norm_probe import power_lower_bound

    _need_p(args)
    w = parse_weights(args.weights, args.N)
    est = power_lower_bound(weighted_mean(w), args.p, tol=args.tol)
    report = est.to_dict()
    report["method"] = "norm-probe"
    report["pass"] = est.converged
    L = cartlidge_constant(w)
    report["L"] = L
    if L < args.p:
        report["bound"] = args.p / (args.p - L)
    return report, None


def cmd_certify(args) -> tuple[dict, bool | None]:
    from .certificates import cartlidge_constant

    p = args.p if args.p is not None else (2.0 if args.method == "stepwise-p2"
                                           else None)
    if p is None:
        raise ValueError("--p is required")
    w = parse_weights(args.weights, args.N)
    if args.search_L:
        found = _smallest_passing(args.method, w, p)
        if found is None:
            report = {"method": args.method, "p": p, "L": None, "N": w.N,
                      "pass": False, "note": "no L in (0, p) passes"}
            return report, False
        rep = found.to_dict()
        rep["note"] = "smallest passing L found by bisection"
        return rep, rep["pass"]
    L = args.L if args.L is not None else cartlidge_constant(w)
    rep = run_certificate(args.method, w, p, L)
    out = rep.to_dict()
    if args.L is None:
        out["note"] = (out.get("note") or
                       "L defaulted to the observed ratio-increment maximum")
    return out, rep.passed


def cmd_copson(args) -> tuple[dict, bool | None]:
    from . import copson as cop

    _need_p(args)
    if args.copson_cmd == "cp-root":
        res = cop.copson_root(args.p)
        report = {"method": "cp-root", "p": args.p, "c": res.root,
                  "residual": res.residual, "iterations": res.iterations,
                  "threshold": cop.copson_threshold(args.p)}
        return report, None
    if args.copson_cmd == "kernel":
        rep = cop.check_kernel_inequality(args.p, args.c)
        return rep.to_dict(), rep.passed
    w = parse_weights(args.weights, args.N)   # branch, mu and bge-mu
    if args.copson_cmd == "branch":
        rep = cop.check_copson_branch(w, args.p, args.c, args.branch,
                                      trials=args.trials, seed=args.seed)
        return rep.to_dict(), rep.passed
    if args.copson_cmd == "mu":
        trace = cop.mu_dual_copson(w, args.p, args.c)
        return (mu_trace_dict(trace, "copson-mu", args.p, w.N, c=args.c),
                trace.passed)
    if args.copson_cmd == "bge-mu":
        trace = cop.mu_bge(w, args.p, args.alpha, route=args.route)
        return (mu_trace_dict(trace, f"bge-mu-{args.route}", args.p, w.N,
                              alpha=args.alpha), trace.passed)
    raise ValueError(f"unknown copson subcommand {args.copson_cmd!r}")


def cmd_bge(args) -> tuple[dict, bool | None]:
    from .copson import check_bge

    _need_p(args)
    w = parse_weights(args.weights, args.N)
    rep = check_bge(w, args.p, args.alpha, trials=args.trials,
                    seed=args.seed)
    return rep.to_dict(), rep.passed


def cmd_strengthened(args) -> tuple[dict, bool | None]:
    from .strengthened import (StrengthenedCase, strengthened_trials,
                               verify_mu_choice)

    _need_p(args)
    w = parse_weights(args.weights, args.N)
    if args.str_cmd == "check":
        case = StrengthenedCase(kind=args.which, p=args.p, c=args.c,
                                L=args.L)
        rep = strengthened_trials(case, w, trials=args.trials,
                                  seed=args.seed)
        return rep.to_dict(), rep.passed
    if args.str_cmd == "mu":
        rep = verify_mu_choice(args.choice, w, args.p, c=args.c, L=args.L)
        return rep.to_dict(), rep.passed
    raise ValueError(f"unknown strengthened subcommand {args.str_cmd!r}")


def cmd_hlp(args) -> tuple[dict, bool | None]:
    from . import hlp
    from ._num import ratio_ok

    if args.hlp_cmd == "threshold" and args.bracket:
        lo, hi = hlp.bracket_threshold()
        return {"method": "threshold-bracket", "lo": lo, "hi": hi,
                "width": hi - lo}, None
    _need_p(args)
    if args.hlp_cmd == "certify":
        report = hlp.certify_report(args.p, method=args.method,
                                    n0_max=args.nmax)
        return report, report["certified"]
    if args.hlp_cmd == "threshold":
        margin = hlp.threshold_margin(args.p)
        return ({"method": "threshold", "p": args.p, "margin": margin,
                 "pass": margin >= 0.0}, margin >= 0.0)
    if args.hlp_cmd == "probe":
        ratio = hlp.probe_primal(args.p, args.s, args.N)
        floor = hlp.hlp_constant(args.p)
        ok = ratio >= floor - hlp.PROBE_SLACK
        return ({"method": "probe-primal", "p": args.p, "s": args.s,
                 "N": args.N, "ratio": ratio, "constant": floor,
                 "pass": ok}, ok)
    if args.hlp_cmd == "dual-probe":
        worst = hlp.probe_dual_trials(args.p, args.N, args.trials, args.seed)
        ok = ratio_ok(worst)
        return ({"method": "probe-dual", "p": args.p, "N": args.N,
                 "trials": args.trials, "max_ratio": worst, "pass": ok}, ok)
    if args.hlp_cmd == "search":
        found = hlp.search_c(args.p, n0_max=args.nmax)
        report = {"method": "dual-shift-search", "p": args.p,
                  "feasible": found.feasible, "n0": found.n0, "c": found.c,
                  "c_min": found.c_min, "c_max": found.c_max,
                  "margins": list(found.margins) if found.margins else None}
        return report, found.feasible
    raise ValueError(f"unknown hlp subcommand {args.hlp_cmd!r}")


def cmd_compare(args) -> tuple[dict, bool | None]:
    from .certificates import BoundParams, cartlidge_constant
    from .corpus import builtin_corpus

    _need_p(args)
    methods = [m.strip() for m in args.methods.split(",")]
    if len(methods) != 2:
        raise ValueError("--methods needs exactly two comma-separated names")
    for m in methods:
        if m not in CERTIFY_METHODS:
            raise ValueError(f"unknown method {m!r}")
    # certify's usage errors, raised once before the corpus (any p > 1
    # admits L = 1); a range escape fails only its own sequence
    for m in methods:
        _need_p2(m, args.p)
    BoundParams(args.p, 1.0 if args.L is None else args.L)
    corpus = builtin_corpus(N=args.N, seed=args.seed)
    for path in args.weights_file or []:
        # the rule of `certify --weights file:PATH --N`: truncated to N
        corpus.append(parse_weights(f"file:{path}", args.N))
    p = args.p

    def one(w: WeightSequence) -> dict:
        row = {"label": w.label or w.kind}
        L = args.L if args.L is not None else cartlidge_constant(w)
        for m in methods:
            try:
                row[m] = bool(run_certificate(m, w, p, L).passed)
            except ValueError:
                row[m] = False
        return row

    rows = [one(w) for w in corpus]
    a, b = methods
    differs = [r["label"] for r in rows if r[a] != r[b]]
    report = {"method": "compare", "methods": methods, "p": p, "L": args.L,
              "N": args.N, "rows": rows, "differs": differs,
              f"{a}_implies_{b}": all(r[b] for r in rows if r[a]),
              f"{b}_implies_{a}": all(r[a] for r in rows if r[b])}
    return report, None


# ----------------------------------------------------------------------
# Parser


def _add_common(sub, weights=True, p=True, trials=False):
    if weights:
        sub.add_argument("--weights", default="constant",
                         help="constant | power:A | geometric:R | file:PATH")
        sub.add_argument("--N", type=int, default=None,
                         help="sequence length (default 1000; for file "
                              "weights, a truncation)")
    if p:
        sub.add_argument("--p", type=float, required=False, default=None)
    if trials:
        sub.add_argument("--trials", type=int, default=1000)
        sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None, help="write the report here")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lpcert",
        description="Certificates and probes for weighted-mean averaging "
                    "inequalities on l^p.")
    subs = ap.add_subparsers(dest="command", required=True)

    norm = subs.add_parser("norm", help="power-iteration norm lower bound")
    norm.add_argument("--tol", type=float, default=1e-10,
                      help="override the power-iteration tolerance")
    _add_common(norm)

    certify = subs.add_parser("certify", help="run one norm-bound "
                                              "certificate")
    certify.add_argument("--method", choices=CERTIFY_METHODS, required=True)
    certify.add_argument("--L", type=float, default=None,
                         help="claimed constant (default: measured)")
    certify.add_argument("--search-L", action="store_true", dest="search_L",
                         help="bisect for the smallest passing L")
    _add_common(certify)

    copson = subs.add_parser("copson", help="prefix/tail mean inequalities")
    csubs = copson.add_subparsers(dest="copson_cmd", required=True)
    cp_root = csubs.add_parser("cp-root", help="negative root c_p and the "
                                               "admissibility threshold")
    _add_common(cp_root, weights=False)
    kernel = csubs.add_parser("kernel", help="pointwise kernel inequality "
                                             "on [0, 1]")
    kernel.add_argument("--c", type=float, required=True)
    _add_common(kernel, weights=False)
    branch = csubs.add_parser("branch", help="random trials of one branch")
    branch.add_argument("--branch", choices=BRANCHES, required=True)
    branch.add_argument("--c", type=float, required=True)
    _add_common(branch, trials=True)
    cmu = csubs.add_parser("mu", help="dual mu recurrence for the prefix "
                                      "branch")
    cmu.add_argument("--c", type=float, required=True)
    _add_common(cmu)
    bmu = csubs.add_parser("bge-mu", help="mu recurrences for the blocked "
                                          "tail inequality")
    bmu.add_argument("--alpha", type=float, required=True)
    bmu.add_argument("--route", choices=("primal", "dual"), default="dual")
    _add_common(bmu)

    bge = subs.add_parser("bge", help="blocked tail inequality trials")
    bge.add_argument("--alpha", type=float, required=True)
    _add_common(bge, trials=True)

    stren = subs.add_parser("strengthened", help="first-power inequality "
                                                 "family")
    ssubs = stren.add_subparsers(dest="str_cmd", required=True)
    scheck = ssubs.add_parser("check", help="trials of one case")
    scheck.add_argument("--which", choices=KINDS, required=True)
    scheck.add_argument("--c", type=float, default=None)
    scheck.add_argument("--L", type=float, default=None)
    _add_common(scheck, trials=True)
    smu = ssubs.add_parser("mu", help="closed-form mu choice verification")
    smu.add_argument("--choice", choices=MU_CHOICES, required=True)
    smu.add_argument("--c", type=float, default=None)
    smu.add_argument("--L", type=float, default=None)
    _add_common(smu)

    hlpp = subs.add_parser("hlp", help="reversed inequality for 0 < p < 1")
    hsubs = hlpp.add_subparsers(dest="hlp_cmd", required=True)
    hcert = hsubs.add_parser("certify", help="find a certifying n0")
    hcert.add_argument("--method", choices=("direct", "dual-shift"),
                       default="direct")
    hcert.add_argument("--nmax", type=int, default=N_MAX_DEFAULT)
    _add_common(hcert, weights=False)
    hthr = hsubs.add_parser("threshold", help="closed-form n0 = 2 margin")
    hthr.add_argument("--bracket", action="store_true",
                      help="bisect the sign change instead")
    _add_common(hthr, weights=False)
    hprobe = hsubs.add_parser("probe", help="primal ratio on x_k = k^-s")
    hprobe.add_argument("--s", type=float, required=True)
    hprobe.add_argument("--N", type=int, default=10_000)
    _add_common(hprobe, weights=False)
    hdual = hsubs.add_parser("dual-probe", help="dual ratio on random "
                                                "positive vectors")
    hdual.add_argument("--N", type=int, default=256)
    hdual.add_argument("--trials", type=int, default=1000)
    hdual.add_argument("--seed", type=int, default=0)
    _add_common(hdual, weights=False)
    hsearch = hsubs.add_parser("search", help="feasible (n0, c) for the "
                                              "dual shift condition")
    hsearch.add_argument("--nmax", type=int, default=10_000)
    _add_common(hsearch, weights=False)

    comp = subs.add_parser("compare", help="two certificates across a "
                                           "weight corpus")
    comp.add_argument("--methods", required=True,
                      help="two comma-separated certify method names")
    comp.add_argument("--L", type=float, default=None)
    comp.add_argument("--weights-file", action="append", default=None,
                      help="extra weight file to include, truncated to "
                           "--N (repeatable)")
    comp.add_argument("--seed", type=int, default=7)
    _add_common(comp, weights=False)
    comp.add_argument("--N", type=int, default=256)

    return ap


HANDLERS = {"norm": cmd_norm, "certify": cmd_certify, "copson": cmd_copson,
            "bge": cmd_bge, "strengthened": cmd_strengthened,
            "hlp": cmd_hlp, "compare": cmd_compare}


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handler = HANDLERS[args.command]
    try:
        report, passed = handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(report, args)
    return 0 if passed is None or passed else 1


if __name__ == "__main__":
    sys.exit(main())
