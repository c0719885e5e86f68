"""The report keys of every record: to_dict gives a record's fields by
name (_num.record_dict), so a field added to a record enters every JSON
report; these sets pin the keys the reports carry."""

import pytest

from lpcert.certificates import check_cartlidge
from lpcert.copson import check_copson_branch, check_kernel_inequality
from lpcert.factorable import weighted_mean
from lpcert.hlp import dual_feasible
from lpcert.norm_probe import power_lower_bound
from lpcert.sequences import build_weights
from lpcert.strengthened import (StrengthenedCase, strengthened_trials,
                                 verify_mu_choice)

W = build_weights("power", 64, exponent=0.5)

RECORDS = {
    "CertificateReport": (
        lambda: check_cartlidge(W, 2.0, 1.0),
        {"method", "p", "L", "c", "alpha", "N", "pass", "first_fail",
         "worst_margin", "bound", "note"}),
    "KernelReport": (
        lambda: check_kernel_inequality(2.0, 1.5),
        {"p", "c", "grid", "pass", "min_margin", "argmin"}),
    "BranchReport": (
        lambda: check_copson_branch(W, 2.0, 1.5, "copson_prefix", trials=5),
        {"branch", "p", "c_or_alpha", "N", "trials", "max_ratio",
         "min_margin", "argmin", "pass", "note"}),
    "StrengthenedReport": (
        lambda: strengthened_trials(StrengthenedCase("copson_prefix", 2.0,
                                                     c=1.5), W, trials=10),
        {"which", "p", "c", "L", "N", "trials", "max_ratio", "min_margin",
         "corollary_max_ratio", "argmax", "pass", "note"}),
    "MuChoiceReport": (
        lambda: verify_mu_choice("cartlidge", W, 2.0),
        {"choice", "p", "c", "L", "N", "target", "min_value", "min_margin",
         "argmin", "feasible", "infeasible_at", "identity_residual", "pass",
         "note"}),
    "DualFeasibility": (
        lambda: dual_feasible(0.35, 5, -1.33542621),
        {"p", "n0", "c", "mu_n0", "margins", "pass", "note"}),
    "NormEstimate": (
        lambda: power_lower_bound(weighted_mean(W), 2.0),
        {"p", "N", "lower_bound", "iterations", "residual", "converged"}),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_report_keys_are_pinned(name):
    make, keys = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    got = record.to_dict()
    assert set(got) == keys
    assert "passed" not in got
    if hasattr(record, "passed"):
        # every verdict is written under one key
        assert got["pass"] is record.passed
    else:
        assert "pass" not in got
    if name == "CertificateReport":
        assert got["c"] is None and got["alpha"] is None
