"""Self-test of the benchmark's correctness gate.

    python3 perfbench/test_verdicts.py      (or: python3 -m pytest perfbench)

Plants wrong reports among good ones and checks that exactly the
planted ones are counted as failed.  It is not part of the package's
test suite (pytest's testpaths there is ``tests``).
"""

import verdicts


def _norm(vid, lower, bound, rc=0):
    return {"id": vid, "rc": rc, "expect_rc": 0, "gate": None,
            "checks": ["norm_sandwich"],
            "report": {"lower_bound": lower, "bound": bound, "pass": True}}


def _certify(vid, passed, rc, first_fail=None, L=0.5):
    return {"id": vid, "rc": rc, "expect_rc": 0, "gate": "pass",
            "checks": [], "report": {"pass": passed, "first_fail": first_fail,
                                     "L": L, "worst_margin": 0.25}}


def test_planted_wrong_report_is_counted_as_failed():
    good = [_norm("c0.00.norm", 1.32, 1.3333), _certify("c0.01.cert", True, 0)]
    planted = _norm("c0.02.norm", 1.34, 1.3333)     # lower bound > bound
    failed, found = verdicts.count_failed(good + [planted], None)
    assert failed == 1
    assert list(found) == ["c0.02.norm"]


def test_exit_code_must_agree_with_pass():
    failed, found = verdicts.count_failed(
        [_certify("a", True, 0), _certify("b", False, 0)], None)
    assert (failed, list(found)) == (1, ["b"])


def test_reference_mismatch_is_a_failure():
    ref = {"a": verdicts.reference_entry(_certify("a", True, 0)),
           "b": verdicts.reference_entry(_certify("b", True, 0, L=0.5))}
    close = _certify("a", True, 0, L=0.5 * (1 + 1e-9))
    far = _certify("b", True, 0, L=0.5 * (1 + 1e-3))
    failed, found = verdicts.count_failed([close, far], ref)
    assert (failed, list(found)) == (1, ["b"])
    moved = _certify("a", True, 0, first_fail=7)
    assert verdicts.count_failed([moved], ref)[0] == 1


def test_ratio_pass_with_product_fail_is_a_failure():
    def rec(vid, passed):
        return {"id": vid, "rc": 0, "expect_rc": 0, "gate": None,
                "checks": [], "report": {"pass": passed}}
    records = [rec("c0.power.p2.ratio", True),
               rec("c0.power.p2.product", False),
               rec("c0.power.p3.ratio", False),
               rec("c0.power.p3.product", False)]
    failed, found = verdicts.count_failed(records, None)
    assert (failed, list(found)) == (1, ["c0.power.p2.product"])


def test_csv_report_is_parsed():
    text = ("method,p,L,c,alpha,N,pass,first_fail,worst_margin,bound\n"
            "ratio,2.0,0.9,,,1000,false,3,-0.0998,1.818\n")
    rep = verdicts.parse_report(text)
    assert rep["pass"] is False and rep["first_fail"] == 3
    assert rep["c"] is None and rep["L"] == 0.9


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
