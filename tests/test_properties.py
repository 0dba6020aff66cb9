"""Property tests on random words past the exhaustive range (semilength 10-30)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dyckposet import deletion_children, parse_word
from dyckposet.words import lex_key


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
    assert deletion_children(word) == slow_deletion_children(word)
