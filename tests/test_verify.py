"""The verify suites catch a wrong closed formula and share their engine work."""

import gc
import weakref

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


def test_verify_all_builds_each_interval_once_and_keeps_no_model(monkeypatch):
    # The suites share their per-interval facts; the models themselves are
    # dropped as soon as the facts are read.
    built, alive = [], []

    def counting_build(bottom, top, limit=None):
        model = right_build(bottom, top, limit)
        built.append((bottom.text, top.text))
        alive.append(weakref.ref(model))
        return model

    right_build = verify.build_interval
    monkeypatch.setattr(verify, "build_interval", counting_build)
    verify._facts.cache_clear()
    try:
        assert all(check.ok for check in verify.run_suite("all"))
    finally:
        verify._facts.cache_clear()
    assert built and len(built) == len(set(built))
    gc.collect()
    assert not [ref for ref in alive if ref() is not None]
