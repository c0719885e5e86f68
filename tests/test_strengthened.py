"""First-power inequality family and closed-form mu choices."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcert import (KINDS, MU_CHOICES, StrengthenedCase, build_weights,
                    cartlidge_constant, check_strengthened, cli,
                    strengthened_trials, tail_cartlidge_constant,
                    verify_mu_choice)


def test_tail_constant_hand_values():
    # constant weights: tail ratios N-n+1 fall by exactly one per step
    assert tail_cartlidge_constant(build_weights("constant", 30)) == 1.0
    # lam_n = 2^n: tail ratios 2^{N+1-n} - 1 collapse fast; the first
    # decrement dominates at 2^{N-1}
    w = build_weights("geometric", 10, ratio=2.0)
    assert tail_cartlidge_constant(w) == pytest.approx(2.0 ** 9, rel=1e-12)
    # lam_n = 2^-n: tail ratios approach 2 from below, decrements tiny
    w_half = build_weights("geometric", 10, ratio=0.5)
    assert tail_cartlidge_constant(w_half) < 1.0


def test_cartlidge_case_matches_fraction_oracle():
    # constant weights, p = 2, L = 1, x = 1..4: prefix means are exact
    # rationals, so both ratios have closed forms
    x = [Fraction(k) for k in range(1, 5)]
    means = [sum(x[: k + 1]) / (k + 1) for k in range(4)]
    lhs = sum(a ** 2 for a in means)
    first_rhs = Fraction(2) * sum(xi * a for xi, a in zip(x, means))
    coroll_rhs = Fraction(4) * sum(xi ** 2 for xi in x)
    w = build_weights("constant", 4)
    case = StrengthenedCase(kind="cartlidge", p=2.0)
    rep = check_strengthened(case, w, np.arange(1.0, 5.0))
    assert rep.max_ratio == pytest.approx(float(lhs / first_rhs), rel=1e-13)
    assert rep.corollary_max_ratio == pytest.approx(
        float(lhs / coroll_rhs), rel=1e-13)
    assert rep.passed


@pytest.mark.parametrize("kind", KINDS)
def test_all_cases_pass_seeded_trials(kind):
    # the tail-constant kinds need slowly varying weights (growing
    # weights make the truncated tail constant exceed p); the others
    # run on genuinely non-constant weights
    if kind in ("cartlidge_tail", "dual_tail"):
        w = build_weights("constant", 96)
    else:
        w = build_weights("power", 96, exponent=1.0)
    if kind in ("copson_prefix", "leindler_tail"):
        case = StrengthenedCase(kind=kind, p=2.5, c=2.0)
    elif kind in ("copson_tail", "leindler_prefix"):
        case = StrengthenedCase(kind=kind, p=2.5, c=0.25)
    else:
        case = StrengthenedCase(kind=kind, p=2.5)
    rep = strengthened_trials(case, w, trials=100, seed=3)
    assert rep.passed, f"{kind}: max ratio {rep.max_ratio}"
    assert rep.max_ratio <= 1.0 + 1e-10
    assert rep.corollary_max_ratio <= 1.0 + 1e-10


def test_dual_case_needs_small_L():
    # the transposed-mean case requires L < p/(p-1); decaying geometric
    # weights have huge ratio increments (2^(N-1) at ratio 1/2) and must
    # be rejected at p = 2
    w = build_weights("geometric", 16, ratio=0.5)
    case = StrengthenedCase(kind="dual", p=2.0)
    with pytest.raises(ValueError):
        check_strengthened(case, w, np.ones(16))


def test_case_validation():
    with pytest.raises(ValueError):
        StrengthenedCase(kind="unknown", p=2.0)
    with pytest.raises(ValueError):
        StrengthenedCase(kind="copson_prefix", p=2.0)          # missing c
    with pytest.raises(ValueError):
        StrengthenedCase(kind="copson_prefix", p=2.0, c=2.5)   # c > p
    with pytest.raises(ValueError):
        StrengthenedCase(kind="leindler_prefix", p=2.0, c=1.0)
    with pytest.raises(ValueError):
        StrengthenedCase(kind="cartlidge", p=1.0)


def test_out_of_range_constant_power_is_a_domain_error():
    # K^p = (100/0.0001)^100 leaves binary64: a domain error, not an
    # OverflowError
    case = StrengthenedCase(kind="copson_prefix", p=100.0, c=1.0001)
    with pytest.raises(ValueError, match=r"K\^p leaves the binary64 range"):
        strengthened_trials(case, build_weights("constant", 100), trials=5)


@pytest.mark.parametrize("kind, p, c", [
    # K^p times the corollary's power sum overflows: its ratio read
    # 2.7e-95 and passed
    ("copson_prefix", 80.0, 2.0),
    # the corollary's left sum underflows: it read 3.8e-111 and passed
    ("leindler_prefix", 60.0, 0.5),
    # the first-power sums overflow: a NaN ratio that failed
    ("cartlidge", 300.0, None),
])
def test_out_of_range_power_sums_are_domain_errors(kind, p, c):
    # the range rule of the branch trials, not a NaN or a ratio that
    # lost its range and reads as a pass
    case = StrengthenedCase(kind=kind, p=p, c=c)
    with pytest.raises(ValueError, match=f"^{kind} power sums leave the "
                       f"binary64 range at p = {p:g}; lower p$"):
        strengthened_trials(case, build_weights("constant", 2000), trials=50)


def test_first_power_implies_power_corollary_on_same_data():
    # whenever the first-power ratio is <= 1 the p-th power ratio is
    # too; both are reported from the same batch
    w = build_weights("constant", 64)
    for kind, kw in [("cartlidge", {}), ("copson_prefix", {"c": 1.5}),
                     ("leindler_prefix", {"c": 0.5})]:
        case = StrengthenedCase(kind=kind, p=2.0, **kw)
        rep = strengthened_trials(case, w, trials=60, seed=11)
        assert rep.max_ratio <= 1.0 + 1e-10
        assert rep.corollary_max_ratio <= 1.0 + 1e-10


def test_check_strengthened_rejects_bad_vectors():
    w = build_weights("constant", 8)
    case = StrengthenedCase(kind="cartlidge", p=2.0)
    with pytest.raises(ValueError):
        check_strengthened(case, w, np.ones(7))
    with pytest.raises(ValueError):
        check_strengthened(case, w, np.zeros(8))


@pytest.mark.parametrize("choice,kw", [
    ("cartlidge", {}),
    ("copson", {"c": 2.0}),
    ("leindler", {"c": 0.0}),
    ("dual", {}),
])
def test_mu_choice_identity_residuals(choice, kw):
    w = build_weights("constant", 128)
    rep = verify_mu_choice(choice, w, 2.0, **kw)
    assert rep.passed
    assert rep.feasible
    if rep.identity_residual is not None:
        assert rep.identity_residual <= 1e-12


def test_mu_choice_exact_margins_on_constant_weights():
    w = build_weights("constant", 64)
    # leindler at c = 0 reduces to value = 1 = target at every index
    rep = verify_mu_choice("leindler", w, 2.0, c=0.0)
    assert rep.min_margin == pytest.approx(0.0, abs=1e-13)
    assert rep.target == pytest.approx(1.0)
    # dual on constant weights gives value = target = p - (p-1) L exactly
    rep2 = verify_mu_choice("dual", w, 2.0)
    assert rep2.min_margin == pytest.approx(0.0, abs=1e-13)
    # cartlidge on constant weights: margin 0 up to rounding
    rep3 = verify_mu_choice("cartlidge", w, 2.0)
    assert abs(rep3.min_margin) <= 1e-12


def test_mu_choice_margins_positive_off_constant():
    wg = build_weights("geometric", 48, ratio=1.2)
    rep = verify_mu_choice("copson", wg, 2.5, c=1.7)
    assert rep.passed
    assert rep.min_margin > 0.0
    rep2 = verify_mu_choice("leindler", wg, 2.5, c=0.3)
    assert rep2.passed
    assert rep2.min_margin > 0.0


def test_mu_choice_dual_infeasible_for_decreasing_weights():
    # lam_n/lam_{n+1} = 2 at p = 2 drives mu to 0: not a valid choice.
    # L is pinned because the measured ratio-increment maximum of these
    # weights would itself be rejected first.
    w = build_weights("geometric", 16, ratio=0.5)
    rep = verify_mu_choice("dual", w, 2.0, L=1.0)
    assert not rep.feasible
    assert rep.infeasible_at == 1
    assert not rep.passed
    # without a pinned L the measured constant 2^(N-1) exceeds p/(p-1)
    with pytest.raises(ValueError):
        verify_mu_choice("dual", w, 2.0)


def test_mu_choice_validation():
    w = build_weights("constant", 8)
    with pytest.raises(ValueError):
        verify_mu_choice("unknown", w, 2.0)
    with pytest.raises(ValueError):
        verify_mu_choice("copson", w, 2.0)            # missing c
    with pytest.raises(ValueError):
        verify_mu_choice("leindler", w, 2.0, c=1.5)   # out of range
    assert set(MU_CHOICES) == {"cartlidge", "copson", "leindler", "dual"}


@given(st.integers(min_value=4, max_value=64), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_cartlidge_case_random_weights_and_data(n, seed):
    # random weights can have any ratio-increment maximum, so p is set
    # above the measured constant to keep the case in its proven range
    rng = np.random.default_rng(seed)
    w = build_weights("explicit", n, values=rng.uniform(0.5, 2.0, size=n))
    L = cartlidge_constant(w)
    case = StrengthenedCase(kind="cartlidge", p=L + 1.5)
    x = 10.0 ** rng.uniform(-2.0, 2.0, size=n)
    rep = check_strengthened(case, w, x)
    assert rep.max_ratio <= 1.0 + 1e-10


@pytest.mark.parametrize("x, message", [
    (np.ones(7), "x has length 7, weights have 8"),
    (np.zeros(8), "trial vectors must be positive and finite"),
    (np.r_[np.ones(7), np.inf], "trial vectors must be positive and finite"),
    (np.r_[np.nan, np.ones(7)], "trial vectors must be positive and finite"),
])
def test_check_strengthened_messages(x, message):
    # the one user vector is checked once, before its ratios; the trial
    # rows, positive and finite by construction, are not re-checked
    case = StrengthenedCase(kind="dual", p=2.0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_strengthened(case, build_weights("constant", 8), x)


@pytest.mark.parametrize("argv, message", [
    (["check", "--which", "copson_prefix", "--c", "1.5", "--L", "0.3",
      "--trials", "5"], "kind copson_prefix takes no L"),
    (["check", "--which", "dual", "--c", "1.5", "--trials", "5"],
     "kind dual takes no c"),
    (["mu", "--choice", "copson", "--c", "1.5", "--L", "0.3"],
     "copson choice takes no L"),
    (["mu", "--choice", "leindler", "--c", "0.5", "--L", "0.3"],
     "leindler choice takes no L"),
    (["mu", "--choice", "cartlidge", "--c", "1.5"],
     "cartlidge choice takes no c"),
    (["mu", "--choice", "dual", "--c", "1.5"], "dual choice takes no c"),
])
def test_an_input_a_case_does_not_take_is_rejected(argv, message, capsys):
    # c or L given to a kind or mu choice that takes none is a usage
    # error, not silently dropped from the report
    assert cli.main(["strengthened", *argv, "--p", "2", "--N", "64"]) == 2
    got = capsys.readouterr()
    assert got.err == f"error: {message}\n" and got.out == ""
