"""Closed formulas against frozen oracle values and the live engine."""

import pytest

from dyckposet import (
    ArgumentOutOfRangeError,
    build_interval,
    contains,
    cover_count_formula,
    covered_by,
    covers_of,
    delta_class,
    delta_histogram_closed,
    elevated_staircase,
    embeddable_in_staircase,
    generate_all,
    mobius,
    mobius_elevated_staircase_rank2,
    mobius_pyramid,
    mobius_staircase_rank2,
    mobius_two_peak,
    narayana,
    parse_word,
    phi0,
    phih,
    pyramid,
    runs,
    s1_two_peak_h0,
    staircase,
    staircase_interval_size,
    staircase_rank_count,
    statistics,
    two_peak,
    two_peak_interval_size,
    two_peak_rank_count,
    two_peak_rank_count_h0,
)

UD = staircase(1)


def test_narayana_values():
    assert narayana(0, 0) == 1
    assert narayana(4, 2) == 6
    assert narayana(5, 6) == 0
    assert narayana(3, 0) == 0
    assert narayana(-1, 1) == 0


def test_narayana_matches_peak_histogram():
    for n in range(8):
        histogram = {}
        for word in generate_all(n):
            peaks = statistics(word).peaks
            histogram[peaks] = histogram.get(peaks, 0) + 1
        for k in range(n + 2):
            assert narayana(n, k) == histogram.get(k, 0)


def test_staircase_rank_count_values():
    assert staircase_rank_count(9, 7) == 127
    assert staircase_rank_count(6, 4) == 13
    for n in range(1, 10):
        assert staircase_rank_count(n, 1) == 1
    with pytest.raises(ArgumentOutOfRangeError):
        staircase_rank_count(3, 4)
    with pytest.raises(ArgumentOutOfRangeError):
        staircase_rank_count(3, 0)


def test_staircase_interval_size_values():
    assert [staircase_interval_size(n) for n in range(1, 10)] == [
        1, 2, 4, 8, 16, 33, 70, 152, 337,
    ]
    with pytest.raises(ArgumentOutOfRangeError):
        staircase_interval_size(0)


def test_embeddable_in_staircase():
    assert embeddable_in_staircase(runs(parse_word("UUDD")), 3)
    assert not embeddable_in_staircase(runs(parse_word("UUDD")), 2)
    for n in range(1, 7):
        assert embeddable_in_staircase(runs(staircase(n)), n)


def test_embeddable_matches_containment_exhaustively():
    # alpha + beta - n <= m <= n versus an actual containment test
    for k in range(1, 8):
        for word in generate_all(k):
            rf = runs(word)
            for n in range(1, 10):
                assert embeddable_in_staircase(rf, n) == contains(word, staircase(n))


def test_phi_values():
    assert phi0(1, 1) == 1
    assert phi0(2, 3) == 8
    assert phi0(4, 6) == 50
    assert phih(2, 3, 1) == 14
    assert phih(1, 1, 2) == 3
    for a in range(1, 5):
        for b in range(a, 5):
            assert phih(a, b, 0) == phi0(a, b)
    with pytest.raises(ArgumentOutOfRangeError):
        phi0(3, 2)
    with pytest.raises(ArgumentOutOfRangeError):
        phih(1, 1, -1)


def test_two_peak_interval_size_values():
    assert two_peak_interval_size(2, 3, 1) == 18
    assert two_peak_interval_size(1, 1, 0) == 2
    assert two_peak_interval_size(4, 6, 0) == 56


def test_two_peak_rank_count_values():
    assert two_peak_rank_count(2, 3, 1, 4) == 6
    assert two_peak_rank_count(2, 3, 1, 6) == 1
    assert [two_peak_rank_count(2, 3, 1, r) for r in range(1, 7)] == [1, 2, 4, 6, 4, 1]
    for a, b, h in [(1, 1, 0), (2, 2, 1), (3, 5, 2)]:
        assert two_peak_rank_count(a, b, h, a + b + h) == 1
        assert two_peak_rank_count(a, b, h, a + b + h + 1) == 0
    assert two_peak_rank_count(2, 3, 1, 1) == 1
    with pytest.raises(ArgumentOutOfRangeError):
        two_peak_rank_count(2, 3, 1, 0)


def test_two_peak_rank_count_summands_never_need_the_clamp():
    # The implementation clamps negative summands defensively; inside the
    # supported sweep the clamp must never fire.
    for a in range(1, 7):
        for b in range(a, 7):
            for h in range(4):
                for r in range(1, a + b + h + 1):
                    for i in range(max(1, r - b - h), min(a, r - 1) + 1):
                        term = min(b, r - i) - max(1, r - a - h) + 1
                        assert term >= 0, (a, b, h, r, i)


def test_two_peak_rank_count_h0_values():
    assert two_peak_rank_count_h0(2, 3, 2) == 2
    assert two_peak_rank_count_h0(4, 6, 10) == 1
    assert two_peak_rank_count_h0(3, 5, 4) == 7
    with pytest.raises(ArgumentOutOfRangeError):
        two_peak_rank_count_h0(2, 3, 1)
    with pytest.raises(ArgumentOutOfRangeError):
        two_peak_rank_count_h0(2, 3, 6)


def test_rank_counts_sum_to_interval_size():
    for a in range(1, 7):
        for b in range(a, 7):
            for h in range(4):
                total = sum(
                    two_peak_rank_count(a, b, h, r) for r in range(1, a + b + h + 1)
                )
                assert total == two_peak_interval_size(a, b, h)


def test_delta_class_values():
    assert delta_class(1, 1, 0) == 1
    assert delta_class(2, 3, 0) == 3
    assert delta_class(2, 2, 1) == 4
    assert delta_class(5, 1, 0) == 2
    assert delta_class(1, 4, 2) == 3
    with pytest.raises(ArgumentOutOfRangeError):
        delta_class(0, 1, 0)


def test_delta_class_matches_brute_force():
    for i in range(1, 6):
        for j in range(1, 6):
            for k in range(4):
                word = two_peak(i, j, k)
                if word.semilength <= 9:
                    assert delta_class(i, j, k) == len(covered_by(word))


def test_delta_histogram_closed_values():
    # Frozen from the brute-force engine.
    assert delta_histogram_closed(2, 3) == {1: 3, 2: 4, 3: 3, 4: 0}
    assert delta_histogram_closed(1, 1) == {1: 1, 2: 0, 3: 0, 4: 0}
    assert delta_histogram_closed(3, 3) == {1: 3, 2: 6, 3: 6, 4: 1}


def test_delta_histogram_closed_matches_engine():
    for a in range(1, 6):
        for b in range(a, 6):
            model = build_interval(UD, two_peak(a, b, 0))
            hist = model.delta_histogram()
            assert delta_histogram_closed(a, b) == {
                t: hist.get(t, 0) for t in (1, 2, 3, 4)
            }


def test_s1_two_peak_values():
    # Frozen from the brute-force engine; (3, 3) weighs 3+12+18+4.
    assert s1_two_peak_h0(1, 1) == 1
    assert s1_two_peak_h0(2, 3) == 20
    assert s1_two_peak_h0(3, 3) == 37
    assert s1_two_peak_h0(3, 3) == sum(
        t * c for t, c in delta_histogram_closed(3, 3).items()
    )


def test_s1_two_peak_matches_engine():
    for a in range(1, 6):
        for b in range(a, 6):
            assert s1_two_peak_h0(a, b) == build_interval(UD, two_peak(a, b, 0)).s1()


def test_mobius_pyramid():
    assert mobius_pyramid(1) == 1
    assert mobius_pyramid(2) == -1
    assert mobius_pyramid(7) == 0
    for n in range(1, 9):
        assert mobius_pyramid(n) == mobius(UD, pyramid(n))
    with pytest.raises(ArgumentOutOfRangeError):
        mobius_pyramid(0)


def test_mobius_two_peak_cases():
    assert mobius_two_peak(1, 3, 0) == 0
    assert mobius_two_peak(2, 3, 1) == -1
    assert mobius_two_peak(3, 3, 0) == -2
    assert mobius_two_peak(1, 1, 0) == -1
    assert mobius_two_peak(2, 2, 1) == 2
    assert mobius_two_peak(1, 1, 1) == 1
    assert mobius_two_peak(4, 5, 0) == 1
    assert mobius_two_peak(1, 1, 2) == 0
    # normalization: reversal maps (a, b, h) to (b, a, h)
    assert mobius_two_peak(3, 2, 1) == mobius_two_peak(2, 3, 1)
    with pytest.raises(ArgumentOutOfRangeError):
        mobius_two_peak(0, 1, 0)


def test_mobius_two_peak_matches_engine_including_swapped_parameters():
    for a in range(1, 5):
        for b in range(1, 5):
            for h in range(3):
                assert mobius_two_peak(a, b, h) == mobius(UD, two_peak(a, b, h))


def test_mobius_rank2_families():
    assert mobius_staircase_rank2(2) == 1
    assert mobius_staircase_rank2(3) == 3
    assert mobius_staircase_rank2(5) == 10
    assert mobius_elevated_staircase_rank2(2) == 4
    for n in range(2, 7):
        assert mobius_staircase_rank2(n) == mobius(staircase(n - 1), staircase(n + 1))
    for n in range(1, 6):
        assert mobius_elevated_staircase_rank2(n) == mobius(
            elevated_staircase(n), elevated_staircase(n + 2)
        )
    with pytest.raises(ArgumentOutOfRangeError):
        mobius_staircase_rank2(1)
    with pytest.raises(ArgumentOutOfRangeError):
        mobius_elevated_staircase_rank2(0)


def test_cover_count_formula_values():
    assert cover_count_formula(parse_word("UUDD")) == 5
    assert cover_count_formula(parse_word("UDUD")) == 4
    for n in range(1, 7):
        for word in generate_all(n):
            assert cover_count_formula(word) == len(covers_of(word))
