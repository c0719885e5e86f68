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
"""

from ._num import PASS_RTOL, comp_cumsum, margin_ok, suffix_sums
from .certificates import (BoundParams, CertificateReport, MuTrace,
                           cartlidge_constant, check_cartlidge,
                           check_factorable_product,
                           check_factorable_stepwise, check_product_condition,
                           check_ratio_condition, check_stepwise_p2, mu_dual,
                           mu_primal, trace_report)
from .copson import (BRANCHES, RATIO_TOL, BranchReport, KernelReport,
                     RootResult, admissible_alpha, admissible_c,
                     branch_constant, check_bge, check_copson_branch,
                     check_kernel_inequality, copson_root, copson_threshold,
                     mu_bge, mu_dual_copson, near_extremal_ratio,
                     near_extremal_schedule)
from .corpus import builtin_corpus, comparability_pair, weights_from_ratios
from .factorable import (FactorableSpec, bge_matrix, cesaro, copson_matrix,
                         hlp_dual_matrix, weighted_mean)
from .hlp import (DirectCertificate, DualFeasibility, ShiftSearch,
                  bracket_threshold, certify_direct, certify_report,
                  direct_floor, direct_floor_margin, dual_feasible,
                  hlp_constant, mu_direct, probe_dual, probe_dual_trials,
                  probe_primal, search_c, shift_gap, threshold_margin)
from .hlp import mu_dual as mu_dual_hlp
from .norm_probe import NormEstimate, power_lower_bound, ratio_at
from .sequences import (AveragesBundle, WeightSequence, averages,
                        build_weights, load_weight_file)
from .strengthened import (KINDS, MU_CHOICES, MuChoiceReport,
                           StrengthenedCase, StrengthenedReport,
                           check_strengthened, strengthened_trials,
                           tail_cartlidge_constant, verify_mu_choice)

__version__ = "0.1.0"

__all__ = [
    "PASS_RTOL", "RATIO_TOL", "comp_cumsum", "margin_ok", "suffix_sums",
    "WeightSequence", "AveragesBundle", "build_weights", "load_weight_file",
    "averages",
    "FactorableSpec", "weighted_mean", "copson_matrix", "bge_matrix",
    "hlp_dual_matrix", "cesaro",
    "NormEstimate", "power_lower_bound", "ratio_at",
    "BoundParams", "MuTrace", "CertificateReport", "cartlidge_constant",
    "check_cartlidge", "check_ratio_condition",
    "check_product_condition", "check_factorable_product",
    "check_factorable_stepwise", "check_stepwise_p2", "mu_primal", "mu_dual",
    "trace_report",
    "BRANCHES", "RootResult", "KernelReport", "BranchReport", "copson_root",
    "copson_threshold", "admissible_c", "check_kernel_inequality",
    "branch_constant", "check_copson_branch", "near_extremal_ratio",
    "near_extremal_schedule", "admissible_alpha", "check_bge",
    "mu_dual_copson", "mu_bge",
    "KINDS", "MU_CHOICES", "StrengthenedCase", "StrengthenedReport",
    "MuChoiceReport", "tail_cartlidge_constant", "check_strengthened",
    "strengthened_trials", "verify_mu_choice",
    "hlp_constant", "direct_floor", "mu_direct", "DirectCertificate",
    "certify_direct", "direct_floor_margin", "threshold_margin",
    "bracket_threshold", "mu_dual_hlp", "shift_gap", "DualFeasibility",
    "dual_feasible", "ShiftSearch", "search_c", "probe_primal", "probe_dual",
    "probe_dual_trials", "certify_report",
    "builtin_corpus", "comparability_pair", "weights_from_ratios",
    "__version__",
]
