"""Motzkin contraction and triple/square encodings."""

import pytest

from dyckposet import (
    ArgumentOutOfRangeError,
    DyckWord,
    GridSquare,
    InvalidMotzkinError,
    LimitExceededError,
    MotzkinWord,
    NotTwoPeakError,
    OutOfGridError,
    Triple,
    UnbalancedError,
    contains,
    count_peakless_motzkin,
    dyck_to_motzkin,
    generate_all,
    generate_peakless_motzkin,
    motzkin_to_dyck,
    parse_motzkin,
    parse_word,
    path_to_triple,
    phi0,
    pyramid,
    square_leq,
    square_to_triple,
    squares_in_grid,
    staircase,
    staircase_interval_size,
    triple_leq,
    triple_to_path,
    triple_to_square,
    triples_in_grid,
    two_peak,
)

# Counts of peak-less Motzkin words by length, frozen from the enumerator
# (cumulative sums from length 1 give the staircase interval sizes).
PEAKLESS_COUNTS = (1, 1, 1, 2, 4, 8, 17, 37, 82, 185, 423, 978, 2283)


def test_motzkin_validation():
    assert parse_motzkin("ulld").text == "ULLD"
    assert repr(parse_motzkin("ulld")) == "MotzkinWord('ULLD')"
    # same text, different alphabet: never equal
    assert MotzkinWord("UD") != DyckWord("UD")
    assert DyckWord("UD") != MotzkinWord("UD")
    assert MotzkinWord("ULLD").is_peakless
    assert not MotzkinWord("UDLL").is_peakless
    with pytest.raises(InvalidMotzkinError):
        MotzkinWord("UL")
    with pytest.raises(InvalidMotzkinError):
        MotzkinWord("DLU")
    with pytest.raises(InvalidMotzkinError):
        parse_motzkin("UXD")
    with pytest.raises(InvalidMotzkinError):
        parse_motzkin("")


def test_motzkin_to_dyck_examples():
    assert motzkin_to_dyck(MotzkinWord("LLL")) == staircase(3)
    assert motzkin_to_dyck(MotzkinWord("ULD")) == parse_word("UUDD")
    # the map is total: Motzkin words with peaks still expand
    assert motzkin_to_dyck(MotzkinWord("UD")) == parse_word("UD")


def test_dyck_to_motzkin_examples():
    assert dyck_to_motzkin(staircase(5)).text == "LLLLL"
    assert dyck_to_motzkin(parse_word("UUDD")).text == "ULD"
    assert dyck_to_motzkin(pyramid(3)).text == "UULDD"


def test_image_length_is_twice_semilength_minus_peaks():
    from dyckposet import statistics

    for n in range(1, 8):
        for word in generate_all(n):
            image = dyck_to_motzkin(word)
            stats = statistics(word)
            assert image.is_peakless
            assert image.length == 2 * stats.semilength - stats.peaks


def test_roundtrip_dyck_to_motzkin_to_dyck():
    for n in range(9):
        for word in generate_all(n):
            assert motzkin_to_dyck(dyck_to_motzkin(word)) == word


def test_roundtrip_motzkin_to_dyck_to_motzkin():
    for length in range(13):
        for m in generate_peakless_motzkin(length):
            assert dyck_to_motzkin(motzkin_to_dyck(m)) == m


def test_peakless_counts_and_ceiling():
    assert [count_peakless_motzkin(n) for n in range(13)] == list(PEAKLESS_COUNTS)
    with pytest.raises(LimitExceededError):
        count_peakless_motzkin(21)
    with pytest.raises(ArgumentOutOfRangeError):
        count_peakless_motzkin(-1)


def test_cumulative_counts_match_staircase_sizes():
    running = 0
    for n in range(1, 10):
        running += count_peakless_motzkin(n)
        assert running == staircase_interval_size(n)


def test_membership_transport():
    for k in range(1, 8):
        for word in generate_all(k):
            image_length = dyck_to_motzkin(word).length
            for n in range(1, 10):
                assert contains(word, staircase(n)) == (image_length <= n)


def test_triple_roundtrip_and_examples():
    assert path_to_triple(parse_word("UUUUDDUUUDDDDD")) == Triple(2, 3, 2)
    assert path_to_triple(parse_word("UDUD")) == Triple(1, 1, 0)
    assert triple_to_path(Triple(2, 3, 2)) == parse_word("UUUUDDUUUDDDDD")
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(4):
                t = Triple(i, j, k)
                assert path_to_triple(triple_to_path(t)) == t
    with pytest.raises(NotTwoPeakError):
        path_to_triple(pyramid(3))
    with pytest.raises(NotTwoPeakError):
        path_to_triple(staircase(3))
    with pytest.raises(ArgumentOutOfRangeError):
        Triple(0, 1, 0)


def test_path_to_triple_checks_run_balance_explicitly():
    # The check is a real error, not an assert that `python -O` would strip;
    # an unvalidated two-peak step string exercises it.
    with pytest.raises(UnbalancedError):
        path_to_triple(DyckWord._wrap("UUDUD"))


def test_triple_leq_examples():
    everything = triples_in_grid(4, 4)
    minimum = Triple(1, 1, 0)
    for t in everything:
        assert triple_leq(minimum, t)
    assert triple_leq(Triple(2, 3, 2), Triple(4, 6, 0))


def test_triple_order_transports_containment():
    for t in triples_in_grid(5, 5):
        for s in triples_in_grid(5, 5):
            assert triple_leq(s, t) == contains(triple_to_path(s), triple_to_path(t))


def test_square_encoding():
    square = triple_to_square(Triple(2, 3, 2), 4, 6)
    assert (square.row, square.col, square.side) == (2, 3, 3)
    assert square_to_triple(square) == Triple(2, 3, 2)
    assert triple_to_square(Triple(1, 1, 0), 1, 1) == GridSquare(1, 1, 1)
    with pytest.raises(OutOfGridError):
        triple_to_square(Triple(2, 3, 2), 3, 6)


def test_square_counts_match_phi0():
    for a in range(1, 8):
        for b in range(a, 8):
            assert len(squares_in_grid(a, b)) == phi0(a, b)


def test_square_order_is_a_partial_order():
    for rows, cols in [(3, 3), (4, 4), (2, 4)]:
        squares = squares_in_grid(rows, cols)
        leq = {
            (s, t): square_leq(s, t, rows, cols) for s in squares for t in squares
        }
        for s in squares:
            assert leq[(s, s)]
        for s in squares:
            for t in squares:
                if leq[(s, t)] and leq[(t, s)]:
                    assert s == t
        for s in squares:
            for t in squares:
                if not leq[(s, t)]:
                    continue
                for u in squares:
                    if leq[(t, u)]:
                        assert leq[(s, u)]


def test_square_order_matches_triple_order():
    squares = squares_in_grid(4, 5)
    for s in squares:
        for t in squares:
            assert square_leq(s, t, 4, 5) == triple_leq(
                square_to_triple(s), square_to_triple(t)
            )


def test_square_leq_rejects_out_of_grid():
    with pytest.raises(OutOfGridError):
        square_leq(GridSquare(1, 1, 3), GridSquare(1, 1, 1), 2, 2)


def test_two_peak_correspondence_with_triples():
    # Triples fitting an (a, b) grid are exactly the two-peak words below the
    # flat two-peak word with those parameters.
    from dyckposet import build_interval, statistics

    for a, b in [(2, 3), (3, 3), (2, 4)]:
        model = build_interval(staircase(1), two_peak(a, b, 0))
        two_peaked = sorted(
            w.text for w in model.elements() if statistics(w).peaks == 2
        )
        decoded = sorted(triple_to_path(t).text for t in triples_in_grid(a, b))
        assert two_peaked == decoded
