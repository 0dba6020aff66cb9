"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion compares closed formulas against the brute-force poset
engine at zero tolerance (these are exact integer identities), within the
stated runtime budget.  Run with `pytest -v tests/test_acceptance.py`.
"""

import functools
import time

from dyckposet import (
    build_interval,
    contains,
    mobius,
    parse_word,
    scan_alternating,
    scan_rank2_max,
    scan_rank3_max,
    staircase,
    two_peak,
)
from dyckposet.verify import SIZE_SEQUENCE, SUITES, TABLE1

UD = staircase(1)


@functools.cache
def _suite_checks(name):
    """Checks and wall time of one verify suite, run once per module."""
    start = time.perf_counter()
    checks = SUITES[name]()
    return checks, time.perf_counter() - start


def _run_suite(label, name, budget_s):
    checks, elapsed = _suite_checks(name)
    failures = [c for c in checks if not c.ok]
    status = "PASS" if not failures else "FAIL"
    print(f"{status} {label} ({elapsed:.2f}s)")
    for c in failures:
        print(f"     {c.name}: {c.detail}")
    assert not failures, failures
    assert elapsed < budget_s, f"{label} took {elapsed:.1f}s, budget {budget_s}s"
    return checks


def test_criterion_01_table1_reproduction():
    # 45 rank counts, engine and closed form, zero tolerance, < 30 s.
    assert sum(len(row) for row in TABLE1.values()) == 45
    _run_suite("criterion 1: staircase rank-count triangle", "table1", 30)


def test_criterion_02_size_sequence():
    assert SIZE_SEQUENCE == (1, 2, 4, 8, 16, 33, 70, 152, 337)
    _run_suite("criterion 2: staircase interval sizes", "sizes", 30)


def test_criterion_03_motzkin_identity():
    _run_suite("criterion 3: Motzkin identity, roundtrips and grid", "bijections", 30)


def test_criterion_04_two_peak_sweep():
    _run_suite("criterion 4: two-peak formula sweep", "twopeak", 180)


def test_criterion_05_h0_rank_simplification():
    # One check of the two-peak suite, read from its run in criterion 4.
    checks = _run_suite("criterion 5: two-peak suite", "twopeak", 180)
    flat = [c for c in checks if c.name.startswith("flat-case rank simplification")]
    assert len(flat) == 1 and flat[0].ok, flat
    print("PASS criterion 5: flat-case rank simplification")


def test_criterion_06_delta_classification():
    _run_suite("criterion 6a: cover-class formula", "delta", 120)
    _run_suite("criterion 6b: edge-count identities", "s1", 120)


def test_criterion_07_mobius_closed_forms():
    _run_suite("criterion 7: closed Möbius forms", "mobius-closed", 120)


def test_criterion_08_cover_count_formula():
    _run_suite("criterion 8: cover-count suite", "covercount", 120)


def test_criterion_09_rank2_maximum():
    start = time.perf_counter()
    for n in range(1, 5):
        report = scan_rank2_max(n)
        assert report.consistent, (n, report.summary, report.witnesses[:3])
        assert report.summary["observed_max"] == n * n
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 9: rank-2 maximum scan n <= 4 ({elapsed:.2f}s)")


def test_criterion_10_conjecture_scans():
    # Report-level: a violation would be a finding to surface, not a test
    # failure; the scans must complete and their verdicts are printed.
    start = time.perf_counter()
    alternating = scan_alternating(6)
    print(f"criterion 10: alternating scan verdict = {alternating.verdict} "
          f"({alternating.summary})")
    if not alternating.consistent:
        print("     witnesses:", alternating.witnesses[:5])
    rank3_verdicts = []
    for n in range(1, 4):
        report = scan_rank3_max(n)
        rank3_verdicts.append(report.verdict)
        print(f"criterion 10: rank-3 scan n={n} verdict = {report.verdict} "
              f"({report.summary})")
        if not report.consistent:
            print("     witnesses:", report.witnesses[:5])
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 10: conjecture scans completed ({elapsed:.2f}s)")
    assert elapsed < 600
    assert alternating.verdict in ("consistent", "violated")
    assert all(v in ("consistent", "violated") for v in rank3_verdicts)


def test_criterion_11_property_suites():
    start = time.perf_counter()

    # Möbius column sums vanish on materialized intervals
    for bottom, top in [
        (UD, staircase(6)),
        (UD, two_peak(3, 3, 1)),
        (parse_word("UUDD"), parse_word("UUDUDUDD")),
        (parse_word("UDUD"), staircase(6)),
    ]:
        model = build_interval(bottom, top)
        table = model.mobius_table()
        elements = list(model.elements())
        for x in elements:
            if x != bottom:
                assert sum(table[z] for z in elements if contains(z, x)) == 0

    elapsed = time.perf_counter() - start
    print(f"PASS criterion 11: property suites ({elapsed:.2f}s)")


def test_acceptance_spot_values():
    # A single-value anchor, frozen from the oracle runs.
    assert mobius(parse_word("UUDD"), parse_word("UUDUDUDD")) == 4
