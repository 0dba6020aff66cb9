"""Conjecture-lab scans: verdicts, witnesses, ceilings, determinism."""

import oracle
import pytest

from dyckposet import (
    ArgumentOutOfRangeError,
    LimitExceededError,
    build_interval,
    elevated_staircase,
    generate_all,
    mobius,
    scan_alternating,
    scan_rank2_max,
    scan_rank3_max,
    staircase,
    sweep_cover_count,
)
from dyckposet import scans
from dyckposet.scans import RANK2_SCAN_CEILING, mobius_to_top
from dyckposet.words import lex_text

# The quantity each scan's bound limits, as its refusal messages name it.
SCAN_BOUND = {
    "alternating": "top semilength",
    "rank2max": "bottom semilength",
    "rank3max": "bottom semilength",
    "covercount": "semilength",
}


def test_scan_alternating_small():
    report = scan_alternating(4)
    assert report.consistent
    assert report.verdict == "consistent"
    assert report.witnesses == ()
    assert report.scope == {"max_top_semilength": 4}
    assert report.summary["violations"] == 0
    assert report.summary["pairs_checked"] > 0


def test_scan_alternating_ceiling():
    with pytest.raises(LimitExceededError):
        scan_alternating(7)
    # explicit override is accepted (kept tiny here)
    assert scan_alternating(2, limit=7).consistent


def test_scan_rank2_max_values_and_witnesses():
    report = scan_rank2_max(2)
    assert report.consistent
    assert report.summary["observed_max"] == 4
    assert {"bottom": "UUDD", "top": "UUDUDUDD", "mu": 4} in report.witnesses
    report3 = scan_rank2_max(3)
    assert report3.consistent
    assert report3.summary["observed_max"] == 9


@pytest.mark.parametrize(
    "scan, name",
    [
        (scan_rank2_max, "rank2max"),
        (scan_rank3_max, "rank3max"),
        (scan_alternating, "alternating"),
        (sweep_cover_count, "covercount"),
    ],
)
@pytest.mark.parametrize("n", [0, -1])
def test_rank_scans_refuse_a_bottom_below_semilength_1(scan, name, n):
    with pytest.raises(ArgumentOutOfRangeError) as refused:
        scan(n)
    what = f"{name} scan {SCAN_BOUND[name]}"
    assert str(refused.value) == f"{what} must be >= 1, got {n}"


def test_scan_rank2_records_staircase_pair_value():
    # mu between consecutive-odd staircases shows up in the scanned range
    assert mobius(staircase(2), staircase(4)) == 3


def test_scan_rank2_max_holds_to_ceiling():
    for n in range(1, RANK2_SCAN_CEILING + 1):
        report = scan_rank2_max(n)
        assert report.consistent
        assert report.summary["observed_max"] == n * n


def test_scan_rank3_max_small():
    for n, expected in [(1, 3), (2, 20)]:
        report = scan_rank3_max(n)
        assert report.consistent
        assert report.summary["conjectured_max"] == expected
        assert report.summary["observed_max"] == expected


def test_scan_rank3_max_at_n5_is_attained_by_the_elevated_staircases():
    report = scan_rank3_max(5)
    assert report.consistent
    assert report.summary["pairs_checked"] == 39175
    assert report.summary["observed_max"] == 275
    canonical = (elevated_staircase(5).text, elevated_staircase(8).text)
    assert canonical in [(w["bottom"], w["top"]) for w in report.witnesses]


def test_scan_ceilings():
    with pytest.raises(LimitExceededError):
        scan_rank2_max(8)
    with pytest.raises(LimitExceededError):
        scan_rank3_max(7)
    with pytest.raises(LimitExceededError):
        sweep_cover_count(8)


def test_sweep_cover_count_small():
    report = sweep_cover_count(5)
    assert report.consistent
    assert report.summary["words_checked"] == sum(
        len(generate_all(n)) for n in range(1, 6)
    )


def test_scan_reports_are_deterministic_up_to_elapsed():
    first = scan_rank2_max(3).to_json_dict()
    second = scan_rank2_max(3).to_json_dict()
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert first == second


def test_dual_recursion_agrees_with_engine_mobius():
    # Spot check: the top-anchored sweep used by the scans gives the same
    # values as the bottom-anchored defining recursion.
    ud = staircase(1)
    for top in generate_all(5):
        model = build_interval(ud, top)
        column = mobius_to_top(model)
        for bottom in list(model.elements())[::7]:
            assert column[bottom] == mobius(bottom, top)


def test_scan_report_json_schema():
    payload = scan_alternating(3).to_json_dict()
    assert payload["schema"] == "dyckposet/scan-report/1"
    assert set(payload) == {
        "schema", "scan", "scope", "verdict", "summary", "witnesses", "elapsed_ms",
    }


def payload(report):
    result = report.to_json_dict()
    result.pop("elapsed_ms")
    return result


@pytest.mark.parametrize("n", range(1, 6))
def test_scan_rank2_max_equals_the_full_interval_oracle(n):
    assert payload(scan_rank2_max(n)) == oracle.scan_rank_max(2, n)


@pytest.mark.parametrize("n", range(1, 5))
def test_scan_rank3_max_equals_the_full_interval_oracle(n):
    assert payload(scan_rank3_max(n)) == oracle.scan_rank_max(3, n)


@pytest.mark.parametrize("max_top", range(1, 7))
def test_scan_alternating_equals_the_full_interval_oracle(max_top):
    assert payload(scan_alternating(max_top)) == oracle.scan_alternating(max_top)


def mirrored(tops, top):
    """Whether the mirror image of `top` comes before it in `tops`."""
    return tops.index(oracle.mirror_text(top)) < tops.index(top)


def tied_windows(real):
    """The real windows with every value set to -1.

    The level order is the rank walk's own, which the walk's oracle entry in
    test_oracles.py checks; only the column is tied here.
    """

    def windows(tops, lowest):
        for top, levels, column in real(tops, lowest):
            yield top, levels, dict.fromkeys(column, -1)

    return windows


@pytest.mark.parametrize("scan, n, k", [(scan_rank2_max, 3, 2), (scan_rank3_max, 2, 3)])
def test_rank_scans_iterate_bottoms_lexicographically(monkeypatch, scan, n, k):
    # At the scanned n no top has two witnesses, so the order the scan walks
    # each top's bottoms in is observed here on windows where every pair
    # ties for the maximum.
    monkeypatch.setattr(scans, "_top_windows", tied_windows(scans._top_windows))
    report = scan(n)
    tops = [w.text for w in generate_all(n + k)]
    order = [(tops.index(w["top"]), lex_text(w["bottom"])) for w in report.witnesses]
    assert len(order) == report.summary["pairs_checked"] > len(tops)
    assert order == sorted(order)
    assert any(mirrored(tops, w["top"]) for w in report.witnesses)


def test_alternating_scan_iterates_ranks_then_bottoms_lexicographically(monkeypatch):
    # Every value -1 is a violation on each even rank difference; the
    # violations come out tops in generation order, ranks ascending, then
    # bottoms lexicographic (U < D).
    monkeypatch.setattr(scans, "_top_windows", tied_windows(scans._top_windows))
    report = scan_alternating(5)
    tops = [w.text for s in range(1, 6) for w in generate_all(s)]
    order = [
        (tops.index(w["top"]), len(w["bottom"]), lex_text(w["bottom"]))
        for w in report.witnesses
    ]
    assert len(order) == report.summary["violations"] > len(tops)
    assert order == sorted(order)
    assert any(mirrored(tops, w["top"]) for w in report.witnesses)


@pytest.mark.parametrize(
    "scan, bound, semilengths, walked_count",
    [(scan_rank2_max, 5, [7], 232), (scan_alternating, 6, range(1, 7), 119)],
)
def test_scans_walk_one_top_of_each_reversal_pair(
    monkeypatch, scan, bound, semilengths, walked_count
):
    # 232 of the 429 tops of semilength 7: the 35 symmetric ones and one of
    # each of the 197 mirror pairs; 119 of the 196 tops up to semilength 6.
    walked = []
    real = scans._top_windows

    def windows(tops, lowest):
        for window in real(tops, lowest):
            walked.append(window[0])
            yield window

    monkeypatch.setattr(scans, "_top_windows", windows)
    scan(bound)
    tops = [w.text for s in semilengths for w in generate_all(s)]
    assert walked == [t for t in tops if not mirrored(tops, t)]
    assert len(walked) == walked_count
