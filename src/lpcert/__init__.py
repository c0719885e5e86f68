"""Certificates and probes for weighted-mean averaging inequalities on l^p.

The package verifies, at finite truncations and with explicit numeric
margins, a family of inequalities built around factorable lower
triangular matrices M[n, k] = b_k / a_n:

* norm bounds p/(p - L) for weighted-mean matrices under ratio,
  product, and stepwise conditions on the weights;
* prefix/tail mean inequalities with constants (p/(c-1))^p and
  (p/(1-c))^p, their crossed variants, and the blocked tail form;
* strengthened first-power inequalities and their closed-form
  mu-recurrence certificates;
* the reversed inequality for 0 < p < 1 with direct and dual-shift
  certificates.

Every checker either evaluates an exact finite instance of its
inequality (ratios must stay below 1 + 1e-10) or runs a recurrence
certificate whose per-index constraints imply the bound at that
truncation.

The package namespace is lazy (PEP 562): `import lpcert` loads none of
the modules above, and a name in __all__ imports its module on first
access, so a process loads only what it uses.  `import lpcert.cli`
loads the parser and its option lists; each subcommand then imports
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule defining it ("module.attr" where the
# export is renamed), in __all__ order
_EXPORTS = {
    "PASS_RTOL": "_num", "RATIO_TOL": "_num", "comp_cumsum": "_num",
    "margin_ok": "_num", "suffix_sums": "_num",
    "WeightSequence": "sequences", "build_weights": "sequences",
    "load_weight_file": "sequences",
    "FactorableSpec": "factorable", "weighted_mean": "factorable",
    "copson_matrix": "factorable", "bge_matrix": "factorable",
    "cesaro": "factorable",
    "NormEstimate": "norm_probe", "power_lower_bound": "norm_probe",
    "ratio_at": "norm_probe",
    "BoundParams": "certificates", "MuTrace": "_num",
    "CertificateReport": "certificates",
    "cartlidge_constant": "certificates", "check_cartlidge": "certificates",
    "check_ratio_condition": "certificates",
    "check_product_condition": "certificates",
    "check_factorable_product": "certificates",
    "check_factorable_stepwise": "certificates",
    "check_stepwise_p2": "certificates", "mu_primal": "certificates",
    "mu_dual": "certificates", "trace_report": "certificates",
    "BRANCHES": "_options", "RootResult": "copson", "KernelReport": "copson",
    "BranchReport": "copson", "copson_root": "copson",
    "copson_threshold": "copson", "admissible_c": "copson",
    "check_kernel_inequality": "copson", "branch_constant": "copson",
    "check_copson_branch": "copson", "near_extremal_schedule": "copson",
    "admissible_alpha": "copson",
    "check_bge": "copson", "mu_dual_copson": "copson", "mu_bge": "copson",
    "KINDS": "_options", "MU_CHOICES": "_options",
    "StrengthenedCase": "strengthened", "StrengthenedReport": "strengthened",
    "MuChoiceReport": "strengthened",
    "tail_cartlidge_constant": "strengthened",
    "check_strengthened": "strengthened",
    "strengthened_trials": "strengthened", "verify_mu_choice": "strengthened",
    "hlp_constant": "hlp", "direct_floor": "hlp", "mu_direct": "hlp",
    "DirectCertificate": "hlp", "certify_direct": "hlp",
    "direct_floor_margin": "hlp", "threshold_margin": "hlp",
    "bracket_threshold": "hlp", "mu_dual_hlp": "hlp.mu_dual",
    "shift_gap": "hlp", "DualFeasibility": "hlp", "dual_feasible": "hlp",
    "ShiftSearch": "hlp", "search_c": "hlp", "probe_primal": "hlp",
    "probe_dual": "hlp", "probe_dual_trials": "hlp", "certify_report": "hlp",
    "builtin_corpus": "corpus", "comparability_pair": "corpus",
    "weights_from_ratios": "corpus",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    """Import the submodule behind an exported name on first access and
    keep the value in the package namespace."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, _, attr = _EXPORTS[name].partition(".")
    value = getattr(importlib.import_module(f".{module}", __name__),
                    attr or name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
