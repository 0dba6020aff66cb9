"""The verify suites can fail: each one catches a wrong closed formula."""

import pytest

from dyckposet import verify

# suite -> a closed formula it checks, looked up in the verify namespace
FORMULA_UNDER_TEST = {
    "table1": "staircase_rank_count",
    "sizes": "staircase_interval_size",
    "twopeak": "two_peak_interval_size",
    "delta": "delta_class",
    "s1": "s1_two_peak_h0",
    "mobius-closed": "mobius_two_peak",
    "bijections": "phi0",
    "covercount": "cover_count_formula",
}


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_suite_reports_a_wrong_formula(suite, monkeypatch):
    name = FORMULA_UNDER_TEST[suite]  # a new suite needs an entry here
    right = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: right(*args) + 1)
    failing = [c.name for c in verify.run_suite(suite) if not c.ok]
    assert failing, f"suite {suite} passed with {name} off by one"
