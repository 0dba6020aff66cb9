"""Interval engine: construction, chains, covers, Möbius recursion."""

import itertools
import json
import time
from collections import Counter

import oracle
import pytest

from dyckposet import (
    ArgumentOutOfRangeError,
    ElementNotInIntervalError,
    LimitExceededError,
    NotComparableError,
    RankOutOfRangeError,
    build_interval,
    contains,
    covered_by,
    covers_of,
    deletion_children,
    elevated_staircase,
    generate_all,
    interval_to_dot,
    interval_to_json_dict,
    mobius,
    parse_word,
    pyramid,
    staircase,
    two_peak,
)
from dyckposet.poset import _deletion_texts, _insertion_texts, _mobius_sweep, _walk_down
from dyckposet.scans import mobius_to_top
from dyckposet.words import _lex_sorted
from test_oracles import MOBIUS_INTERVALS

UD = staircase(1)

# [UD, staircase(n)] for n <= 6, the larger bottoms, and a one-element interval.
RENDERED_INTERVALS = (
    [(UD, staircase(n)) for n in range(1, 7)]
    + [(bottom, top) for bottom, top in MOBIUS_INTERVALS if bottom != UD]
    + [(parse_word("UUDD"), parse_word("UUDD"))]
)

# The separators `interval --json` prints with.
CLI_SEPARATORS = (", ", ": ")


def reference_elements(bottom, top):
    """Independent route: generate every word of every rank and double-filter."""
    return {
        r: tuple(
            w
            for w in generate_all(r)
            if contains(bottom, w) and contains(w, top)
        )
        for r in range(bottom.semilength, top.semilength + 1)
    }


def texts_by_rank(reference):
    return {r: tuple(w.text for w in level) for r, level in reference.items()}


@pytest.mark.parametrize(
    "bottom_text, top_text",
    [
        ("UD", "UDUDUDUDUD"),
        ("UD", "UDUDUDUDUDUD"),
        ("UD", "UUUDDUUUDDDD"),
        ("UD", "UUUUUDDDDD"),
        ("UD", "UUDDUUDD"),
        ("UUDD", "UUDUDUDD"),
        ("UDUD", "UDUDUDUDUDUD"),
        ("UUDD", "UUUUUDDDUUUUDDDDDD"),
        ("UDUDUD", "UDUDUDUDUDUDUD"),
    ],
)
def test_build_interval_matches_generate_and_filter(bottom_text, top_text):
    bottom, top = parse_word(bottom_text), parse_word(top_text)
    model = build_interval(bottom, top)
    reference = reference_elements(bottom, top)
    assert model.text_ranks == texts_by_rank(reference)
    assert list(model.elements()) == [w for r in reference for w in reference[r]]
    reference_edges = [
        (lo.text, up.text)
        for r in list(reference)[:-1]
        for lo in reference[r]
        for up in reference[r + 1]
        if contains(lo, up)
    ]
    assert list(model.text_edges()) == reference_edges


def test_build_interval_validations():
    with pytest.raises(NotComparableError):
        build_interval(parse_word("UUDDUD"), parse_word("UUDUUUDDDD"))
    with pytest.raises(LimitExceededError):
        build_interval(UD, pyramid(15))
    assert build_interval(UD, pyramid(15), limit=15).s0() == 15


def test_trivial_interval():
    model = build_interval(UD, UD)
    assert model.s0() == 1
    assert model.s1() == 0
    assert list(model.text_edges()) == []
    assert list(model.elements()) == [UD]
    assert model.mobius() == 1


def test_hasse_edges_join_consecutive_ranks():
    model = build_interval(UD, two_peak(2, 3, 1))
    edges = list(model.text_edges())
    assert len(edges) == model.s1()
    for lower, upper in edges:
        assert len(upper) == len(lower) + 2
        assert contains(parse_word(lower), parse_word(upper))


def test_rank_query_bounds():
    model = build_interval(UD, staircase(4))
    assert model.s0_by_rank(1) == 1
    with pytest.raises(RankOutOfRangeError):
        model.s0_by_rank(5)
    with pytest.raises(RankOutOfRangeError):
        model.s0_by_rank(0)
    # Chains by top rank look up the rank the same way.
    assert model.s_ell_by_top_rank(0, 1) == 1
    for k in (0, 5, 9):
        with pytest.raises(RankOutOfRangeError):
            model.s_ell_by_top_rank(1, k)


def test_chain_counts():
    model = build_interval(UD, staircase(4))
    assert model.s_ell(0) == model.s0() == 8
    assert model.s_ell(1) == model.s1() == 14
    # chains of length ell, split by top rank, sum to the total
    for ell in range(4):
        assert model.s_ell(ell) == sum(
            model.s_ell_by_top_rank(ell, k) for k in model.rank_span
        )
    # one saturated chain per rank pair in a pyramid interval (a single chain)
    chain = build_interval(UD, pyramid(5))
    assert chain.s0() == 5
    for ell in range(5):
        assert chain.s_ell(ell) == 5 - ell
    with pytest.raises(ArgumentOutOfRangeError):
        model.s_ell(-1)


def test_covers_of_examples():
    assert len(covers_of(parse_word("UUDD"))) == 5
    ups = covers_of(parse_word("UDUD"))
    assert len(ups) == 4
    assert parse_word("UUUDDD") not in ups
    assert covered_by(UD) == ()
    assert covers_of(UD) == (parse_word("UUDD"), parse_word("UDUD"))


def test_deletion_children_equals_covered_by():
    for n in range(1, 9):
        for word in generate_all(n):
            expected = oracle.covered_by(word)
            assert deletion_children(word) == expected
            assert covered_by(word) == expected


def test_covers_of_equals_generate_and_filter():
    for n in range(1, 9):
        for word in generate_all(n):
            assert covers_of(word) == oracle.covers_of(word)


def test_covers_of_at_semilength_30_is_fast_and_needs_no_generation():
    from dyckposet import cover_count_formula

    # generate_all(31) would raise LimitExceededError, so a kernel that
    # enumerated the rank above could not answer at all.
    top = staircase(30)
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        ups = covers_of(top)
        timings.append(time.perf_counter() - start)
    assert len(ups) == len(set(ups)) == cover_count_formula(top) == 466
    assert min(timings) < 0.010


def test_cover_count_formula_holds_up_to_semilength_8():
    from dyckposet import cover_count_formula

    # count covers from above: each semilength-9 word is a cover of each of
    # its deletion children, so the tallies are exactly |covers_of(q)|
    counts = {}
    for w in generate_all(9):
        for child in deletion_children(w):
            counts[child] = counts.get(child, 0) + 1
    for q in generate_all(8):
        assert counts.get(q, 0) == cover_count_formula(q) == len(covers_of(q))


@pytest.mark.parametrize(
    "bottom_text, top_text",
    [
        ("UD", staircase(9).text),
        ("UD", elevated_staircase(9).text),
        ("UUDD", "UUDUUDDUDUDD"),
        ("UDUD", "UUUDDUDUUDDD"),
    ],
)
def test_walk_down_does_not_depend_on_the_order_of_children(bottom_text, top_text):
    # The kernels list covers in no particular order; the walk must give the
    # same levels and up-covers, in the same order, whatever order it reads.
    orders = [
        _deletion_texts,
        lambda text: _deletion_texts(text)[::-1],
        lambda text: _lex_sorted(_deletion_texts(text)),
    ]
    lowest = len(bottom_text) // 2
    walks = [_walk_down(bottom_text, top_text, lowest, order) for order in orders]
    assert walks[1] == walks[0] and walks[2] == walks[0]


def test_raw_kernels_list_each_cover_once_up_to_semilength_10():
    # Past the oracle's range: neither raw kernel repeats a word, the
    # deletion kernel gives as many children as deletion_children and the
    # insertion kernel as many covers as the factor formula.  Each word of
    # rank n - 1 is then a child of exactly its covers, so the tallies of
    # the children of rank n equal the formula too.
    from dyckposet import cover_count_formula

    below = {}
    for n in range(1, 11):
        tallies, formula = Counter(), {}
        for w in generate_all(n):
            children = _deletion_texts(w.text)
            covers = _insertion_texts(w.text)
            formula[w.text] = cover_count_formula(w)
            assert len(set(children)) == len(children) == len(deletion_children(w)), w
            assert len(set(covers)) == len(covers) == formula[w.text], w
            tallies.update(children)
        assert tallies == below, n
        below = formula


def test_poset_operations_reject_the_empty_word():
    empty = generate_all(0)[0]
    assert covered_by is deletion_children
    with pytest.raises(ArgumentOutOfRangeError):
        covers_of(empty)
    with pytest.raises(ArgumentOutOfRangeError):
        deletion_children(empty)
    with pytest.raises(ArgumentOutOfRangeError):
        build_interval(empty, UD)


def test_interval_covering_matches_global_covering_for_initial_intervals():
    model = build_interval(UD, two_peak(2, 3, 1))
    for word in model.elements():
        expected = oracle.covered_by(word)
        assert model.text_covers_down[word.text] == tuple(w.text for w in expected)
        assert model.delta(word) == len(covered_by(word))


def test_delta_queries():
    model = build_interval(UD, two_peak(2, 3, 0))
    assert model.delta(UD) == 0
    for i in range(2, 4):
        assert model.delta(pyramid(i)) == 1
    assert model.delta_histogram() == {0: 1, 1: 3, 2: 4, 3: 3}
    assert model.s1() == 20
    with pytest.raises(ElementNotInIntervalError):
        model.delta(parse_word("UUUUDDDD"))


def test_delta_histogram_weighted_sum_is_edge_count_for_all_small_tops():
    for n in range(1, 8):
        for top in generate_all(n):
            model = build_interval(UD, top)
            hist = model.delta_histogram()
            assert model.s1() == sum(t * count for t, count in hist.items())


def test_mobius_recursion_column_sums_vanish():
    # The defining property, checked with containment tests that are
    # independent of the closure bookkeeping inside mobius_table.
    cases = [
        (UD, staircase(5)),
        (UD, two_peak(2, 3, 1)),
        (UD, two_peak(3, 3, 0)),
        (parse_word("UUDD"), parse_word("UUDUDUDD")),
        (parse_word("UDUD"), staircase(6)),
    ]
    for bottom, top in cases:
        model = build_interval(bottom, top)
        table = model.mobius_table()
        assert table[bottom] == 1
        elements = list(model.elements())
        for x in elements:
            if x == bottom:
                continue
            total = sum(table[z] for z in elements if contains(z, x))
            assert total == 0, (bottom, top, x)


def assert_both_anchors_match_oracle(bottom, top):
    from_bottom, to_top = oracle.mobius_columns(bottom, top)
    model = build_interval(bottom, top)
    assert model.mobius_table() == from_bottom, (bottom, top)
    assert mobius_to_top(model) == to_top, (bottom, top)


def test_both_mobius_anchors_match_oracle_for_every_top_up_to_semilength_7():
    for n in range(1, 8):
        for top in generate_all(n):
            assert_both_anchors_match_oracle(UD, top)


@pytest.mark.parametrize(
    "bottom_text, top_text",
    [
        ("UD", "UDUDUDUDUDUDUDUD"),
        ("UUDD", "UUUUUDDDUUUUDDDDDD"),
        ("UDUD", "UDUDUDUDUDUDUD"),
        ("UUDD", "UUDUDUDD"),
    ],
)
def test_both_mobius_anchors_match_oracle_beyond(bottom_text, top_text):
    assert_both_anchors_match_oracle(parse_word(bottom_text), parse_word(top_text))


def test_mobius_examples():
    assert mobius(UD, UD) == 1
    assert mobius(UD, parse_word("UUUDUDDD")) == 0
    assert mobius(UD, parse_word("UDUUUDDD")) == 0
    assert mobius(parse_word("UUDD"), parse_word("UUDUDUDD")) == 4
    assert mobius(UD, two_peak(2, 3, 1)) == -1
    with pytest.raises(NotComparableError):
        mobius(parse_word("UUDDUD"), parse_word("UUDUUUDDDD"))


def test_staircase_rank_profiles():
    model = build_interval(UD, staircase(5))
    assert [model.s0_by_rank(k) for k in range(1, 6)] == [1, 2, 5, 7, 1]
    assert model.s0() == 16
    assert model.s1() == 45
    model9 = build_interval(UD, staircase(9))
    assert model9.s0_by_rank(7) == 127
    assert build_interval(UD, staircase(8)).s0() == 152


def test_json_export_shape():
    model = build_interval(UD, staircase(3))
    payload = interval_to_json_dict(model)
    assert payload["bottom"] == "UD"
    assert payload["top"] == "UDUDUD"
    assert [row["count"] for row in payload["ranks"]] == [1, 2, 1]
    assert payload["ranks"][1]["elements"] == ["UUDD", "UDUD"]
    assert ["UD", "UUDD"] in payload["edges"]
    assert payload["mobius"]["UD"] == 1
    assert payload["mobius"]["UDUDUD"] == 1


def test_dot_export_contains_rank_groups_and_edges():
    model = build_interval(UD, staircase(3))
    dot = interval_to_dot(model)
    assert dot.startswith("digraph interval {")
    assert dot.count("rank=same") == 3
    assert '"UD" -> "UUDD";' in dot
    assert dot.endswith("}\n")


@pytest.mark.parametrize("bottom, top", RENDERED_INTERVALS, ids=lambda w: w.text)
def test_renderings_equal_the_oracle_byte_for_byte(bottom, top):
    model = build_interval(bottom, top)
    assert interval_to_dot(model) == oracle.interval_dot(bottom, top)
    rendered = json.dumps(interval_to_json_dict(model), separators=CLI_SEPARATORS)
    expected = json.dumps(oracle.interval_json_dict(bottom, top), separators=CLI_SEPARATORS)
    assert rendered == expected


def naive_column(levels, toward_origin, origin):
    """The Möbius column from frozenset closed sets, with no bitmasks."""
    closed = {}
    column = {}
    for level in levels:
        for x in level:
            closed[x] = frozenset({x}).union(*(closed[z] for z in toward_origin[x]))
            column[x] = 1 if x == origin else -sum(
                column[z] for z in closed[x] if z != x
            )
    return column


@pytest.mark.parametrize("top", [staircase(10), elevated_staircase(10)])
def test_mobius_sweep_equals_a_naive_down_set_sum(top):
    model = build_interval(UD, top)
    upward = [model.text_ranks[r] for r in model.rank_span]
    for levels, covers, origin in [
        (upward, model.text_covers_down, UD.text),
        (upward[::-1], model.text_covers_up, top.text),
    ]:
        expected = naive_column(levels, covers, origin)
        assert _mobius_sweep(levels, covers, origin) == expected
    # Values of both signs, some of several bits, occur in the columns.
    values = set(naive_column(upward, model.text_covers_down, UD.text).values())
    assert min(values) < -1000 and max(values) > 1000


def test_north_star_mobius_values_cross_32_bits():
    # |mu| passes 2^30 and 2^32: both need bit planes past a machine word's
    # sign bit, and the columns hold values of both signs below them.
    assert mobius(UD, staircase(12)) == -1_967_611_099
    assert mobius(UD, elevated_staircase(12)) == -4_357_790_783


@pytest.mark.parametrize("k", range(0, 9))
def test_mobius_sweep_on_a_boolean_lattice(k):
    # mu(S, T) = (-1)^|T - S| on the subsets of a k-set, from either end.
    full = frozenset(range(k))
    subsets = [
        [frozenset(c) for c in itertools.combinations(range(k), r)]
        for r in range(k + 1)
    ]
    down = {s: [s - {i} for i in s] for level in subsets for s in level}
    up = {s: [s | {i} for i in full - s] for level in subsets for s in level}
    from_bottom = _mobius_sweep(subsets, down, frozenset())
    to_top = _mobius_sweep(subsets[::-1], up, full)
    for level in subsets:
        for s in level:
            assert from_bottom[s] == (-1) ** len(s)
            assert to_top[s] == (-1) ** (k - len(s))


def assert_one_str_per_element(model):
    # Every key, level entry and cover entry of the three text tables is
    # the same str object, so an interval holds each element's text once.
    one = {w: w for level in model.text_ranks.values() for w in level}
    assert len(one) == model.s0()
    shared = [
        *(w for level in model.text_ranks.values() for w in level),
        *model.text_covers_down,
        *model.text_covers_up,
        *(w for covers in model.text_covers_down.values() for w in covers),
        *(w for covers in model.text_covers_up.values() for w in covers),
    ]
    assert all(w is one[w] for w in shared)


@pytest.mark.parametrize(
    "bottom_text, top_text",
    [("UD", "UDUDUDUDUD"), ("UD", "UUUDDUUUDDDD"), ("UUDD", "UUDUDUDD"), ("UD", "UD")],
)
def test_views_equal_generate_and_filter_and_share_one_word_per_element(
    bottom_text, top_text
):
    bottom, top = parse_word(bottom_text), parse_word(top_text)
    model = build_interval(bottom, top)
    reference = reference_elements(bottom, top)
    elements = [w for r in reference for w in reference[r]]
    below = {
        w.text: tuple(
            v.text for v in reference.get(w.semilength - 1, ()) if contains(v, w)
        )
        for w in elements
    }
    above = {
        w.text: tuple(
            v.text for v in reference.get(w.semilength + 1, ()) if contains(w, v)
        )
        for w in elements
    }
    assert model.text_ranks == texts_by_rank(reference)
    assert model.text_covers_down == below
    assert model.text_covers_up == above
    assert list(model.elements()) == elements
    assert model.mobius_table() == oracle.mobius_columns(bottom, top)[0]
    assert_one_str_per_element(model)


@pytest.mark.parametrize(
    "bottom_text, top_text", [("UD", "UUDUDUDUDUDUDD"), ("UUDD", "UUDUDUDUDUDUDD")]
)
def test_text_tables_share_one_str_per_element(bottom_text, top_text):
    model = build_interval(parse_word(bottom_text), parse_word(top_text))
    assert model.s0() > 80
    assert_one_str_per_element(model)
