"""Correctness gate behind ``failed``: exit codes, invariants, reference.

A verdict fails when

* its exit code is not the one the spec expects, or disagrees with the
  report's ``pass`` (or ``certified``) field, or the report is missing;
* an invariant named in the spec is violated (any seed);
* for the reference seed, a discrete field differs from the committed
  reference verdict, or a float field differs by more than ``REL_TOL``
  relative (relative to at least 1, as lpcert's own margin tests are).

Library verdicts (the sweep) carry ``rc = 0`` for a call that returned
and ``rc = 2`` for one that raised, so the same rules apply.
"""

from __future__ import annotations

import csv
import io
import json
import math

REFERENCE_SEED = 0
REL_TOL = 1e-6
RATIO_TOL = 1e-10        # lpcert's trial-ratio tolerance
DISCRETE = ("rc", "pass", "first_fail", "n_evaluated", "n0", "certified")
FLOATS = ("L", "bound", "worst_margin", "lower_bound", "max_ratio",
          "min_margin", "corollary_max_ratio", "c", "margin", "ratio", "lo",
          "hi", "min_value", "target", "threshold")


def parse_report(text: str) -> dict | None:
    """The JSON report, or the first CSV row as typed values."""
    text = text.strip()
    if not text:
        return None
    if text.startswith("{"):
        return json.loads(text)
    row = next(csv.DictReader(io.StringIO(text)))
    out: dict = {}
    for key, val in row.items():
        if val == "":
            out[key] = None
        elif val in ("true", "false"):
            out[key] = val == "true"
        elif key in ("N", "first_fail"):
            out[key] = int(val)
        elif key == "method":
            out[key] = val
        else:
            out[key] = float(val)
    return out


def _invariant(name: str, rep: dict) -> str | None:
    """Problem text if invariant ``name`` fails on report ``rep``."""
    if name == "norm_sandwich":
        if rep.get("bound") is not None and \
                not rep["lower_bound"] <= rep["bound"] * (1 + 1e-12):
            return f"lower bound {rep['lower_bound']} > bound {rep['bound']}"
    elif name == "ratio_implies_product":
        if rep.get("ratio_implies_product") is not True:
            return "a passing ratio condition with a failing product one"
    elif name == "full_trace":
        if rep.get("pass") and rep.get("n_evaluated") != rep.get("N"):
            return f"passing trace stops at {rep.get('n_evaluated')}"
    elif name == "trial_ratio":
        if not rep["max_ratio"] <= 1.0 + RATIO_TOL:
            return f"trial max_ratio {rep['max_ratio']} > 1 + {RATIO_TOL}"
    elif name == "hlp_n0_4":
        if rep.get("n0") != 4:
            return f"hlp certify --p 0.35 gives n0 = {rep.get('n0')}, not 4"
    else:
        raise ValueError(f"unknown invariant {name!r}")
    return None


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def reference_entry(record: dict) -> dict:
    """The fields of a verdict that the reference pins."""
    rep = dict(record.get("report") or {})
    rep["rc"] = record["rc"]
    return {k: rep[k] for k in DISCRETE + FLOATS
            if k in rep and (k in DISCRETE or isinstance(rep[k], (int, float))
                             or rep[k] is None)}


def problems(record: dict, reference: dict | None) -> list[str]:
    """Every reason the verdict ``record`` counts as failed."""
    out = []
    rc, rep = record["rc"], record.get("report")
    if rc != record["expect_rc"]:
        said = (record.get("stderr") or "").strip()
        out.append(f"exit code {rc}, expected {record['expect_rc']}"
                   + (f" ({said})" if said else ""))
    if rep is None:
        out.append("no report")
        return out
    gate = record.get("gate")
    if gate is not None and rc in (0, 1):
        if not isinstance(rep.get(gate), bool):
            out.append(f"report has no boolean {gate!r}")
        elif (rc == 0) != rep[gate]:
            out.append(f"exit code {rc} disagrees with {gate}={rep[gate]}")
    for name in record.get("checks", ()):
        try:
            msg = _invariant(name, rep)
        except (KeyError, TypeError) as exc:
            msg = f"invariant {name} unreadable: {exc!r}"
        if msg:
            out.append(msg)
    if reference is not None:
        ref = reference.get(record["id"])
        if ref is not None:
            got = reference_entry(record)
            for key, want in ref.items():
                have = got.get(key)
                same = (have == want if key in DISCRETE
                        else _close(have, want))
                if not same:
                    out.append(f"{key}={have!r}, reference {want!r}")
    return out


def pair_problems(records: list[dict]) -> dict[str, list[str]]:
    """Cross-verdict invariant of the sweep: within one (weights, p,
    L) group, a passing ratio condition implies a passing product one."""
    by_id = {r["id"]: r for r in records}
    out: dict[str, list[str]] = {}
    for rid, rec in by_id.items():
        if not rid.endswith(".ratio"):
            continue
        prod = by_id.get(rid[:-len("ratio")] + "product")
        if prod is None or not (rec.get("report") or {}).get("pass"):
            continue
        if not (prod.get("report") or {}).get("pass"):
            out.setdefault(prod["id"], []).append(
                "ratio condition passes but product condition fails")
    return out


def count_failed(records: list[dict], reference: dict | None
                 ) -> tuple[int, dict[str, list[str]]]:
    """(number of failed verdicts, problems by verdict id)."""
    found = pair_problems(records)
    for rec in records:
        msgs = problems(rec, reference)
        if msgs:
            found.setdefault(rec["id"], []).extend(msgs)
    return len(found), found
