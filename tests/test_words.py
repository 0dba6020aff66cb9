"""Dyck word parsing, statistics, containment and generation."""

import itertools
import random

import pytest

from dyckposet import (
    ArgumentOutOfRangeError,
    DyckWord,
    InvalidCharacterError,
    InvalidShapeParametersError,
    LimitExceededError,
    PrefixViolationError,
    RunForm,
    UnbalancedError,
    catalan,
    contains,
    elevated_staircase,
    factors,
    generate_all,
    lex_key,
    parse_word,
    pyramid,
    runs,
    staircase,
    statistics,
    two_peak,
)
from dyckposet.words import _lex_sorted, lex_text

CATALAN_PREFIX = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012)


def test_parse_accepts_canonical_and_aliases():
    assert parse_word("UUDD").text == "UUDD"
    assert parse_word("uudd").text == "UUDD"
    assert parse_word("(())").text == "UUDD"
    assert parse_word("UDUDUD").semilength == 3


def test_parse_rejects_bad_input():
    with pytest.raises(InvalidCharacterError):
        parse_word("UXDD")
    with pytest.raises(InvalidCharacterError):
        parse_word("")
    with pytest.raises(UnbalancedError):
        parse_word("UDD")
    with pytest.raises(PrefixViolationError):
        parse_word("DU")
    with pytest.raises(PrefixViolationError):
        parse_word("UDDU")
    # Mixed faults, through the parser and straight to the validator: a bad
    # step wins, at its first position, then balance, then the prefix.
    for make in (parse_word, DyckWord):
        with pytest.raises(InvalidCharacterError, match="'X' at position 3$"):
            make("DDUX")
        with pytest.raises(InvalidCharacterError, match="'X' at position 1$"):
            make("DXDX")
        with pytest.raises(UnbalancedError, match="2 U steps vs 1 D steps$"):
            make("DUU")
        with pytest.raises(PrefixViolationError, match="position 0 has"):
            make("DUDUUD")
    with pytest.raises(InvalidCharacterError, match="'u' at position 2$"):
        DyckWord("UDuD")


def test_word_identity_and_json():
    w = parse_word("UUDUDD")
    assert w == DyckWord("UUDUDD")
    assert hash(w) == hash(DyckWord("UUDUDD"))
    assert str(w) == "UUDUDD"
    assert repr(w) == "DyckWord('UUDUDD')"
    assert w.to_json_dict() == {"word": "UUDUDD", "semilength": 3}


def test_parse_render_roundtrip_exhaustive():
    for n in range(1, 9):
        for word in generate_all(n):
            assert parse_word(word.text) == word


def test_contains_basic_cases():
    assert contains(parse_word("UUDD"), parse_word("UDUDUD"))
    a, b = parse_word("UUDDUD"), parse_word("UUDUUUDDDD")
    assert not contains(a, b)
    assert not contains(b, a)
    for text in ("UD", "UUDD", "UDUDUD", "UUUDDD"):
        w = parse_word(text)
        assert contains(w, w)


def test_contains_matches_exhaustive_occurrence_search():
    # Independent oracle: try every position subset of the host word.
    def exhaustive(p, q):
        return any(
            "".join(q.text[i] for i in comb) == p.text
            for comb in itertools.combinations(range(len(q.text)), len(p.text))
        )

    words = [w for n in range(1, 5) for w in generate_all(n)]
    for p in words:
        for q in words:
            assert contains(p, q) == exhaustive(p, q), (p, q)


def test_containment_is_a_partial_order_up_to_semilength_6():
    words = [w for n in range(1, 7) for w in generate_all(n)]
    up = {w: frozenset(v for v in words if contains(w, v)) for w in words}
    for w in words:
        assert w in up[w]  # reflexive
    for p in words:
        for q in words:
            if p.semilength == q.semilength and p != q:
                assert not contains(p, q)  # antisymmetric within a rank
    for p in words:
        for q in up[p]:
            assert up[q] <= up[p]  # transitive


def test_runs_examples():
    rf = runs(parse_word("UUUUDDUUUDDDDD"))
    assert rf.runs == ((4, 2), (3, 5))
    assert (rf.m, rf.alpha, rf.beta) == (2, 7, 7)
    assert runs(staircase(3)).runs == ((1, 1), (1, 1), (1, 1))
    assert runs(pyramid(3)).runs == ((3, 3),)


def test_runs_roundtrip_and_peak_agreement():
    for n in range(1, 8):
        for word in generate_all(n):
            rf = runs(word)
            assert rf.to_word() == word
            assert rf.m == statistics(word).peaks == statistics(word).ascents


def test_runform_rejects_nonpositive_runs():
    with pytest.raises(ArgumentOutOfRangeError):
        RunForm(((1, 0),))


def test_statistics_examples():
    assert tuple(statistics(parse_word("UUDD"))) == (2, 1, 1, 2)
    assert tuple(statistics(parse_word("UDUDUD"))) == (3, 3, 3, 1)
    # two_peak(2, 3, 1) has height b + h = 4
    assert tuple(statistics(two_peak(2, 3, 1))) == (6, 2, 2, 4)


def test_factors_examples():
    assert factors(parse_word("UUDD")) == (2,)
    assert factors(parse_word("UDUD")) == (1, 1)
    assert factors(parse_word("UUDDUDUUUDDD")) == (2, 1, 3)
    for n in range(1, 8):
        for word in generate_all(n):
            assert sum(factors(word)) == word.semilength


def test_generate_all_counts_and_uniqueness():
    for n in range(13):
        words = generate_all(n)
        assert len(words) == catalan(n) == CATALAN_PREFIX[n]
        assert len(set(words)) == len(words)


def test_generate_all_is_lexicographic():
    for n in range(2, 8):
        keys = [lex_key(w) for w in generate_all(n)]
        assert keys == sorted(keys)


def test_lex_sorted_equals_the_lex_text_key_on_every_rank_up_to_9():
    rng = random.Random(5)
    for n in range(10):
        texts = [w.text for w in generate_all(n)]
        for sample in (texts, rng.sample(texts, len(texts) // 2)):
            shuffled = rng.sample(sample, len(sample))
            assert _lex_sorted(shuffled) == sorted(shuffled, key=lex_text)
        assert _lex_sorted(reversed(texts)) == texts


def test_lex_sorted_needs_equal_lengths():
    # The documented precondition: a proper prefix sorts after its extension.
    assert sorted(["UDUD", "UD"], key=lex_text) == ["UD", "UDUD"]
    assert _lex_sorted(["UD", "UDUD"]) == ["UDUD", "UD"]


def test_generate_all_caches_only_small_semilengths():
    assert generate_all(10) is generate_all(10)
    fresh = generate_all(11)
    again = generate_all(11)
    assert fresh == again and fresh is not again


def test_generate_all_limits():
    with pytest.raises(LimitExceededError):
        generate_all(15)
    with pytest.raises(ArgumentOutOfRangeError):
        generate_all(-1)


def test_shapes():
    assert staircase(2).text == "UDUD"
    assert pyramid(3).text == "UUUDDD"
    assert two_peak(2, 3, 1).text == "UUUDDUUUDDDD"
    assert elevated_staircase(1).text == "UD"
    assert elevated_staircase(2).text == "UUDD"
    assert elevated_staircase(3).text == "UUDUDD"
    for bad in (staircase, pyramid, elevated_staircase):
        with pytest.raises(InvalidShapeParametersError):
            bad(0)
    with pytest.raises(InvalidShapeParametersError):
        two_peak(1, 0, 2)
    with pytest.raises(InvalidShapeParametersError):
        two_peak(1, 1, -1)
