"""Property tests on random words past the exhaustive range (semilength 10-30)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dyckposet import (
    build_interval,
    contains,
    cover_count_formula,
    covers_of,
    deletion_children,
    parse_word,
    staircase,
)
from dyckposet.poset import _deletion_texts, _insertion_texts
from dyckposet.scans import _top_windows, mobius_to_top
from dyckposet.words import lex_key, lex_text


@st.composite
def dyck_words(draw, min_semilength=10, max_semilength=30):
    """A Dyck word steered by a list of coin flips (True asks for a U step)."""
    n = draw(st.integers(min_semilength, max_semilength))
    flips = draw(st.lists(st.booleans(), min_size=2 * n, max_size=2 * n))
    steps = []
    ups = downs = 0
    for want_up in flips:
        if ups < n and (want_up or downs == ups):
            steps.append("U")
            ups += 1
        else:
            steps.append("D")
            downs += 1
    return parse_word("".join(steps))


def slow_deletion_children(word):
    """Delete one U and one D at every pair of positions; keep the Dyck words."""
    text = word.text
    found = set()
    for i, a in enumerate(text):
        for j, b in enumerate(text):
            if a != "U" or b != "D":
                continue
            rest = "".join(step for pos, step in enumerate(text) if pos not in (i, j))
            height = 0
            for step in rest:
                height += 1 if step == "U" else -1
                if height < 0:
                    break
            else:
                if rest:
                    found.add(parse_word(rest))
    return tuple(sorted(found, key=lex_key))


@settings(max_examples=40, deadline=None)
@given(dyck_words())
def test_deletion_children_matches_pairwise_deletion(word):
    expected = slow_deletion_children(word)
    assert deletion_children(word) == expected
    # The raw kernel lists the same children, each once, in any order.
    children = _deletion_texts(word.text)
    assert len(set(children)) == len(children)
    assert set(children) == {c.text for c in expected}


def slow_covers_of(word):
    """Insert one U and one D at every pair of positions; keep the Dyck words."""
    text = word.text
    found = set()
    for i in range(len(text) + 1):
        with_up = text[:i] + "U" + text[i:]
        for j in range(len(with_up) + 1):
            candidate = with_up[:j] + "D" + with_up[j:]
            height = 0
            for step in candidate:
                height += 1 if step == "U" else -1
                if height < 0:
                    break
            else:
                found.add(parse_word(candidate))
    return tuple(sorted(found, key=lex_key))


@settings(max_examples=40, deadline=None)
@given(dyck_words())
def test_covers_of_matches_pairwise_insertion(word):
    expected = slow_covers_of(word)
    assert covers_of(word) == expected
    # The raw kernel lists the same covers, each once, in any order.
    covers = _insertion_texts(word.text)
    assert len(set(covers)) == len(covers)
    assert set(covers) == {c.text for c in expected}


@settings(max_examples=40, deadline=None)
@given(dyck_words())
def test_cover_count_formula_counts_covers_of(word):
    assert len(covers_of(word)) == cover_count_formula(word)


@settings(max_examples=20, deadline=None)
@given(dyck_words())
def test_insertion_and_deletion_kernels_are_mutually_inverse(word):
    for cover in covers_of(word):
        assert word in deletion_children(cover)
    for child in deletion_children(word):
        assert word in covers_of(child)


@settings(max_examples=20, deadline=None)
@given(dyck_words(max_semilength=14), st.sampled_from([2, 3]), st.data())
def test_windowed_column_matches_bottom_anchored_mobius(top, k, data):
    # The scans' window holds mu(p, top) anchored at the top; each sampled
    # value must equal mu(p, top) anchored at the bottom of the materialized
    # [p, top].  A window can hold thousands of words, so each rank is sampled.
    ((_, levels, column),) = _top_windows([top], top.semilength - k)
    assert len(levels) == k + 1
    assert {len(p) for p in levels[-1]} == {2 * (top.semilength - k)}
    for level in levels:
        sample = st.lists(st.sampled_from(sorted(level)), min_size=1, max_size=4)
        for p in data.draw(sample):
            assert column[p] == build_interval(parse_word(p), top).mobius()


def reversal(word):
    """The mirror image: the steps in reverse order with U and D swapped."""
    return parse_word(word.text[::-1].translate(str.maketrans("UD", "DU")))


@settings(max_examples=10, deadline=None)
@given(dyck_words(max_semilength=12))
def test_reversal_preserves_interval_size_rank_counts_and_mobius(top):
    # Reversal is an automorphism of the pattern order that fixes UD.
    model = build_interval(staircase(1), top)
    mirror = build_interval(staircase(1), reversal(top))
    assert mirror.s0() == model.s0()
    assert [len(mirror.text_ranks[r]) for r in mirror.rank_span] == [
        len(model.text_ranks[r]) for r in model.rank_span
    ]
    assert mirror.mobius() == model.mobius()


@settings(max_examples=20, deadline=None)
@given(dyck_words(min_semilength=1, max_semilength=10))
def test_reversal_maps_ranks_and_top_anchored_column_of_the_mirror_top(top):
    # The scans mirror a walked top's digest onto its reversal; here both
    # intervals are built whole, and each table of one is the other's mirrored.
    model = build_interval(staircase(1), top)
    mirror = build_interval(staircase(1), reversal(top))
    for r in model.rank_span:
        mirrored = (reversal(parse_word(x)).text for x in model.text_ranks[r])
        assert mirror.text_ranks[r] == tuple(sorted(mirrored, key=lex_text))
    column = mobius_to_top(model)
    assert mobius_to_top(mirror) == {reversal(x): value for x, value in column.items()}


def is_subsequence(p, q):
    """Longest common subsequence by dynamic programming, compared with len(p)."""
    row = [0] * (len(q) + 1)
    for a in p:
        diagonal = 0
        for j, b in enumerate(q, start=1):
            diagonal, row[j] = row[j], diagonal + 1 if a == b else max(row[j], row[j - 1])
    return row[-1] == len(p)


@settings(max_examples=60, deadline=None)
@given(dyck_words(min_semilength=1, max_semilength=16), dyck_words(min_semilength=1))
def test_contains_matches_a_brute_subsequence_search(pattern, word):
    assert contains(pattern, word) == is_subsequence(pattern.text, word.text)
