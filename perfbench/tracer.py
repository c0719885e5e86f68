"""Spans around the calls into lpcert's public functions.

The tracer wraps each target function from outside the package: the
wrapper replaces the function in its defining module and in every
``lpcert`` module that imported it by name (``lpcert.cli.build_weights``,
``lpcert.copson.mu_primal`` and so on), so calls made inside the package
are seen too.  Nothing in ``lpcert`` itself is edited.

A span is ``[name, start, end, parent, thread, verdict, count]``; spans
stay in memory and are written out once, at the end of the process.
``aggregate`` turns the spans of one run into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time


# A count maps (args, result) of a call to the work it did.
def _elems(args, res):
    return len(args[0])


def _steps(args, res):
    return res.n_evaluated


def _trial_elems(args, res):
    return res.trials * res.N


def _lines(args, res):
    return res.N


def _iterations(args, res):
    return res.iterations


# (module, attribute, count or None)
TARGETS = [
    ("lpcert.cli", "main", None),
    ("lpcert.cli", "run_certificate", None),
    ("lpcert.cli", "search_smallest_L", None),
    ("lpcert._num", "comp_cumsum", _elems),
    ("lpcert.sequences", "build_weights", None),
    ("lpcert.sequences", "load_weight_file", _lines),
    ("lpcert.factorable", "weighted_mean", None),
    ("lpcert.factorable", "copson_matrix", None),
    ("lpcert.factorable", "bge_matrix", None),
    ("lpcert.factorable", "FactorableSpec.apply", None),
    ("lpcert.factorable", "FactorableSpec.adjoint_apply", None),
    ("lpcert.norm_probe", "power_lower_bound", _iterations),
    ("lpcert.certificates", "cartlidge_constant", None),
    ("lpcert.certificates", "check_cartlidge", None),
    ("lpcert.certificates", "check_ratio_condition", None),
    ("lpcert.certificates", "check_product_condition", None),
    ("lpcert.certificates", "check_factorable_product", None),
    ("lpcert.certificates", "check_factorable_stepwise", None),
    ("lpcert.certificates", "check_stepwise_p2", None),
    ("lpcert.certificates", "mu_primal", _steps),
    ("lpcert.certificates", "mu_dual", _steps),
    ("lpcert.copson", "copson_root", None),
    ("lpcert.copson", "check_kernel_inequality", None),
    ("lpcert.copson", "check_copson_branch", _trial_elems),
    ("lpcert.copson", "check_bge", _trial_elems),
    ("lpcert.copson", "mu_dual_copson", _steps),
    ("lpcert.copson", "mu_bge", _steps),
    ("lpcert.strengthened", "strengthened_trials", _trial_elems),
    ("lpcert.strengthened", "verify_mu_choice", None),
    ("lpcert.hlp", "mu_direct", _steps),
    ("lpcert.hlp", "mu_dual", _steps),
    ("lpcert.hlp", "probe_dual", None),
    ("lpcert.hlp", "probe_primal", None),
    ("lpcert.hlp", "threshold_margin", None),
    ("lpcert.corpus", "builtin_corpus", None),
]

LAYERS = ("cli", "_num", "sequences", "factorable", "norm_probe",
          "certificates", "copson", "strengthened", "hlp", "corpus")

_CHECKERS = ("check_cartlidge", "check_ratio_condition",
             "check_product_condition", "check_factorable_product",
             "check_factorable_stepwise", "check_stepwise_p2")


def metric_prefix(layer: str) -> str:
    """Metric names start with a letter: ``_num`` reports as ``num``."""
    return layer.lstrip("_")


class Tracer:
    """Holds the spans of one process; ``install`` wraps the targets."""

    def __init__(self):
        self.spans: list[list] = []
        self.verdict = ""
        self._stacks: dict[int, list] = {}
        self._main = threading.get_ident()

    def _wrap(self, name: str, fn, count):
        tracer = self

        def wrapper(*args, **kwargs):
            ident = threading.get_ident()
            stack = tracer._stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                # a pool thread's first span hangs under the span the
                # main thread has open while it waits on the pool
                main = tracer._stacks.get(tracer._main)
                parent = main[-1] if main and ident != tracer._main else None
            span = [name, time.perf_counter(), None, parent, ident,
                    tracer.verdict, None]
            stack.append(span)
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if count is not None:
                span[6] = count(args, res)
            return res

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Import lpcert and replace every target wherever it is bound."""
        for modname, attr, count in TARGETS:
            mod = importlib.import_module(modname)
            layer = modname.split(".", 1)[1]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(f"{layer}.{meth}",
                                              getattr(cls, meth), count))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(f"{layer}.{attr}", orig, count)
            for name, other in list(sys.modules.items()):
                if other is None or not (name == "lpcert"
                                         or name.startswith("lpcert.")):
                    continue
                for key, val in list(vars(other).items()):
                    if val is orig:
                        setattr(other, key, wrapped)

    def dump(self, path: str, **meta) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s[0], s[1], s[2], index.get(id(s[3])) if s[3] else None,
                 0 if s[4] == self._main else 1, s[5], s[6]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": rows}, fh)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[3] is not None:
            kids.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for i, s in enumerate(spans):
        inside = [(max(a, s[1]), min(b, s[2])) for a, b in kids.get(i, ())]
        out.append((s[2] - s[1]) - _covered([iv for iv in inside
                                             if iv[1] > iv[0]]))
    return out


def per_layer_metrics() -> dict[str, str]:
    """Per-layer metric names and units, in report order."""
    names = {
        "cli.import_s": "s", "cli.import_scipy_s": "s",
        "cli.main_self_s": "s", "cli.emit_bytes": "B",
        "cli.search_L_steps": "count", "cli.compare_busy_ratio": "ratio",
        "num.comp_cumsum_s": "s", "num.comp_cumsum_elems": "count",
        "sequences.build_weights_self_s": "s",
        "sequences.build_weights_calls": "count",
        "sequences.load_weight_file_s": "s",
        "sequences.load_weight_file_lines": "count",
        "factorable.spec_s": "s", "factorable.apply_s": "s",
        "factorable.apply_calls": "count",
        "factorable.adjoint_apply_s": "s",
        "factorable.adjoint_apply_calls": "count",
        "norm_probe.power_lower_bound_self_s": "s",
        "norm_probe.iterations": "count",
        "certificates.checks_s": "s", "certificates.checks_calls": "count",
        "certificates.cartlidge_constant_s": "s",
        "certificates.mu_primal_s": "s",
        "certificates.mu_primal_steps": "count",
        "certificates.mu_dual_s": "s", "certificates.mu_dual_steps": "count",
        "copson.mu_dual_copson_s": "s", "copson.mu_dual_copson_steps": "count",
        "copson.mu_bge_s": "s", "copson.mu_bge_steps": "count",
        "copson.trials_s": "s", "copson.trial_elems": "count",
        "copson.copson_root_s": "s",
        "strengthened.trials_s": "s", "strengthened.trial_elems": "count",
        "strengthened.verify_mu_choice_s": "s",
        "hlp.mu_direct_s": "s", "hlp.mu_direct_steps": "count",
        "hlp.mu_dual_s": "s", "hlp.mu_dual_steps": "count",
        "hlp.probe_dual_s": "s", "hlp.probe_dual_calls": "count",
        "corpus.builtin_corpus_s": "s",
    }
    for layer in LAYERS:
        names[f"{metric_prefix(layer)}.self_s"] = "s"
    names.update({"trace.startup_share": "ratio",
                  "trace.library_share": "ratio",
                  "trace.overhead_frac": "ratio",
                  "trace.spans": "count"})
    return names


# span name -> (time metric, count metric); time is self time
_SPAN_METRICS = {
    "_num.comp_cumsum": ("num.comp_cumsum_s", "num.comp_cumsum_elems"),
    "sequences.build_weights": ("sequences.build_weights_self_s", None),
    "sequences.load_weight_file": ("sequences.load_weight_file_s",
                                   "sequences.load_weight_file_lines"),
    "factorable.weighted_mean": ("factorable.spec_s", None),
    "factorable.copson_matrix": ("factorable.spec_s", None),
    "factorable.bge_matrix": ("factorable.spec_s", None),
    "factorable.apply": ("factorable.apply_s", None),
    "factorable.adjoint_apply": ("factorable.adjoint_apply_s", None),
    "norm_probe.power_lower_bound": ("norm_probe.power_lower_bound_self_s",
                                     "norm_probe.iterations"),
    "certificates.cartlidge_constant": ("certificates.cartlidge_constant_s",
                                        None),
    "certificates.mu_primal": ("certificates.mu_primal_s",
                               "certificates.mu_primal_steps"),
    "certificates.mu_dual": ("certificates.mu_dual_s",
                             "certificates.mu_dual_steps"),
    "copson.mu_dual_copson": ("copson.mu_dual_copson_s",
                              "copson.mu_dual_copson_steps"),
    "copson.mu_bge": ("copson.mu_bge_s", "copson.mu_bge_steps"),
    "copson.check_copson_branch": ("copson.trials_s", "copson.trial_elems"),
    "copson.check_bge": ("copson.trials_s", "copson.trial_elems"),
    "copson.copson_root": ("copson.copson_root_s", None),
    "strengthened.strengthened_trials": ("strengthened.trials_s",
                                         "strengthened.trial_elems"),
    "strengthened.verify_mu_choice": ("strengthened.verify_mu_choice_s",
                                      None),
    "hlp.mu_direct": ("hlp.mu_direct_s", "hlp.mu_direct_steps"),
    "hlp.mu_dual": ("hlp.mu_dual_s", "hlp.mu_dual_steps"),
    "hlp.probe_dual": ("hlp.probe_dual_s", None),
    "corpus.builtin_corpus": ("corpus.builtin_corpus_s", None),
}
_CALL_COUNTS = {
    "sequences.build_weights": "sequences.build_weights_calls",
    "factorable.apply": "factorable.apply_calls",
    "factorable.adjoint_apply": "factorable.adjoint_apply_calls",
    "hlp.probe_dual": "hlp.probe_dual_calls",
}


def aggregate(span_sets: list[list[list]], threads: int,
              cycles: int) -> dict[str, float]:
    """The layer metrics of span sets (one set per process) that cover
    ``cycles`` mix cycles: times and counts per cycle, except
    ``cli.search_L_steps``, which is per bisection.

    The caller fills in the metrics that need wall-clock context (import
    times, emitted bytes, shares, overhead).
    """
    out = {name: 0.0 for name in per_layer_metrics()}
    busy = pool_wall = 0.0
    bisections = 0
    for spans in span_sets:
        selfs = self_times(spans)
        out["trace.spans"] += len(spans)
        pool = [s for s in spans if s[4] == 1 and s[3] is not None
                and spans[s[3]][4] == 0]
        if pool:
            busy += sum(s[2] - s[1] for s in pool)
            pool_wall += (max(s[2] for s in pool)
                          - min(s[1] for s in pool)) * threads
        for i, s in enumerate(spans):
            name, layer = s[0], s[0].split(".", 1)[0]
            out[f"{metric_prefix(layer)}.self_s"] += selfs[i]
            if name == "cli.main":
                out["cli.main_self_s"] += selfs[i]
            elif name == "cli.search_smallest_L":
                bisections += 1
            elif name == "cli.run_certificate" and s[3] is not None \
                    and spans[s[3]][0] == "cli.search_smallest_L":
                out["cli.search_L_steps"] += 1
            elif name.split(".", 1)[1] in _CHECKERS:
                out["certificates.checks_s"] += selfs[i]
                out["certificates.checks_calls"] += 1
            if name in _SPAN_METRICS:
                t_key, c_key = _SPAN_METRICS[name]
                out[t_key] += selfs[i]
                if c_key is not None:
                    out[c_key] += s[6] or 0
            if name in _CALL_COUNTS:
                out[_CALL_COUNTS[name]] += 1
    units = per_layer_metrics()
    for key, unit in units.items():
        if unit in ("s", "count") and key != "cli.search_L_steps":
            out[key] /= cycles
    if bisections:
        out["cli.search_L_steps"] /= bisections
    out["cli.compare_busy_ratio"] = busy / pool_wall if pool_wall else 0.0
    return out
