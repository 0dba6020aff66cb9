"""Verification suites: every closed formula against the brute-force engine.

The only embedded reference data are the constants this library exists to
reproduce: the staircase rank-count triangle, the nine-term size sequence,
and one worked triple/square example.  Everything else is recomputed on both
routes at verification time.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

from .errors import ArgumentOutOfRangeError
from .bijections import (
    Triple,
    count_peakless_motzkin,
    dyck_to_motzkin,
    generate_peakless_motzkin,
    motzkin_to_dyck,
    squares_in_grid,
    triple_leq,
    triple_to_path,
    triple_to_square,
)
from .formulas import (
    cover_count_formula,
    delta_class,
    delta_histogram_closed,
    mobius_elevated_staircase_rank2,
    mobius_pyramid,
    mobius_staircase_rank2,
    mobius_two_peak,
    narayana,
    phi0,
    phih,
    s1_two_peak_h0,
    staircase_interval_size,
    staircase_rank_count,
    two_peak_interval_size,
    two_peak_rank_count,
    two_peak_rank_count_h0,
)
from .poset import build_interval, covers_of, deletion_children
from .scans import COVER_SCAN_CEILING, sweep_cover_count
from .words import (
    DyckWord,
    contains,
    elevated_staircase,
    generate_all,
    parse_word,
    pyramid,
    staircase,
    two_peak,
)

# Rank counts of the staircase intervals, rows n = 1..9 (columns k = 1..n).
TABLE1 = {
    1: (1,),
    2: (1, 1),
    3: (1, 2, 1),
    4: (1, 2, 4, 1),
    5: (1, 2, 5, 7, 1),
    6: (1, 2, 5, 13, 11, 1),
    7: (1, 2, 5, 14, 31, 16, 1),
    8: (1, 2, 5, 14, 41, 66, 22, 1),
    9: (1, 2, 5, 14, 42, 116, 127, 29, 1),
}

# Sizes of the staircase intervals for n = 1..9.
SIZE_SEQUENCE = (1, 2, 4, 8, 16, 33, 70, 152, 337)

# Worked example: the triple (2, 3; 2) is the word below, and its square sits
# at row 2, column 3 with side 3 inside a 4 x 6 grid.
GRID_ANCHOR_TRIPLE = (2, 3, 2)
GRID_ANCHOR_WORD = "UUUUDDUUUDDDDD"
GRID_ANCHOR_GRID = (4, 6)
GRID_ANCHOR_SQUARE = (2, 3, 3)

_TWO_PEAK_SWEEP = [
    (a, b, h) for a in range(1, 7) for b in range(a, 7) for h in range(4)
]
_UD = staircase(1)
# The largest top any suite builds: two_peak(6, 6, 3), above the default ceiling.
_FACTS_LIMIT = max(a + b + h for a, b, h in _TWO_PEAK_SWEEP)


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def _check(name: str, mismatches: list) -> Check:
    if not mismatches:
        return Check(name, True, "")
    shown = "; ".join(str(m) for m in mismatches[:5])
    more = f" (+{len(mismatches) - 5} more)" if len(mismatches) > 5 else ""
    return Check(name, False, shown + more)


class _Facts(NamedTuple):
    """What the suites read from the engine's interval [bottom, top]."""

    size: int
    ranks: tuple[int, ...]  # element counts, rank semilength(bottom) first
    two_peaked: int  # elements with exactly two peaks
    s1: int
    delta_histogram: tuple[tuple[int, int], ...]  # (t, count) pairs, t ascending
    mu: int  # mu(bottom, top)


@functools.lru_cache(maxsize=None)
def _facts(bottom: DyckWord, top: DyckWord) -> _Facts:
    """The facts of [bottom, top], computed once per process.

    Several suites read the same intervals (staircase(2) is also
    two_peak(1, 1, 0), and every two-peak interval is read by up to four
    suites), so each one is built once.  Only these small tuples are kept,
    never the models, and they hold engine values only: every formula is
    still applied by the suite that checks it.
    """
    model = build_interval(bottom, top, limit=_FACTS_LIMIT)
    return _Facts(
        size=model.s0(),
        ranks=tuple(len(model.text_ranks[r]) for r in model.rank_span),
        two_peaked=sum(1 for w in model.text_covers_down if w.count("UD") == 2),
        s1=model.s1(),
        delta_histogram=tuple(model.delta_histogram().items()),
        mu=model.mobius(),
    )


def suite_table1() -> list[Check]:
    """Staircase rank counts: engine vs embedded triangle vs closed form."""
    engine_bad, closed_bad = [], []
    for n, row in TABLE1.items():
        brute = _facts(_UD, staircase(n)).ranks
        if brute != row:
            engine_bad.append((n, brute, row))
        closed = tuple(staircase_rank_count(n, k) for k in range(1, n + 1))
        if closed != row:
            closed_bad.append((n, closed, row))
    return [
        _check("table1 engine rank counts (n <= 9)", engine_bad),
        _check("table1 closed-form rank counts (n <= 9)", closed_bad),
    ]


def suite_sizes() -> list[Check]:
    """Staircase interval sizes: closed form vs embedded sequence vs engine."""
    closed_bad, engine_bad, sum_bad = [], [], []
    for n, expected in enumerate(SIZE_SEQUENCE, start=1):
        value = staircase_interval_size(n)
        if value != expected:
            closed_bad.append((n, value, expected))
        brute = _facts(_UD, staircase(n)).size
        if brute != expected:
            engine_bad.append((n, brute, expected))
    for n in range(1, 13):
        by_rank = sum(staircase_rank_count(n, k) for k in range(1, n + 1))
        if by_rank != staircase_interval_size(n):
            sum_bad.append(n)
    return [
        _check("size sequence closed form (n <= 9)", closed_bad),
        _check("size sequence engine (n <= 9)", engine_bad),
        _check("rank counts sum to sizes (n <= 12)", sum_bad),
    ]


def suite_bijections() -> list[Check]:
    """Motzkin contraction and the triple/square encodings."""
    checks = []

    cumulative_bad = []
    running = 0
    for n in range(1, 10):
        running += count_peakless_motzkin(n)
        if running != SIZE_SEQUENCE[n - 1]:
            cumulative_bad.append((n, running, SIZE_SEQUENCE[n - 1]))
    checks.append(_check("cumulative peak-less Motzkin counts (n <= 9)", cumulative_bad))

    contract_bad = []
    for n in range(1, 9):
        for word in generate_all(n):
            if motzkin_to_dyck(dyck_to_motzkin(word)) != word:
                contract_bad.append(word.text)
    checks.append(_check("contract/expand roundtrip (semilength <= 8)", contract_bad))

    expand_bad = []
    for length in range(13):
        for m in generate_peakless_motzkin(length):
            if dyck_to_motzkin(motzkin_to_dyck(m)) != m:
                expand_bad.append(m.text)
    checks.append(_check("expand/contract roundtrip (length <= 12)", expand_bad))

    transport_bad = []
    for k in range(1, 8):
        for word in generate_all(k):
            image_length = dyck_to_motzkin(word).length
            for n in range(1, 10):
                if contains(word, staircase(n)) != (image_length <= n):
                    transport_bad.append((word.text, n))
    checks.append(_check("membership transport to staircases", transport_bad))

    square_bad = []
    for a in range(1, 8):
        for b in range(a, 8):
            if len(squares_in_grid(a, b)) != phi0(a, b):
                square_bad.append((a, b))
    checks.append(_check("square count equals phi0 (a <= b <= 7)", square_bad))

    anchor_bad = []
    triple = Triple(*GRID_ANCHOR_TRIPLE)
    if triple_to_path(triple) != parse_word(GRID_ANCHOR_WORD):
        anchor_bad.append("triple decode")
    square = triple_to_square(triple, *GRID_ANCHOR_GRID)
    if (square.row, square.col, square.side) != GRID_ANCHOR_SQUARE:
        anchor_bad.append("square position")
    top_triple = Triple(GRID_ANCHOR_GRID[0], GRID_ANCHOR_GRID[1], 0)
    if not triple_leq(triple, top_triple):
        anchor_bad.append("triple order vs grid top")
    checks.append(_check("worked triple/square example", anchor_bad))

    return checks


def suite_twopeak() -> list[Check]:
    """Two-peak interval sizes and rank counts against the engine."""
    size_bad, count2_bad, rank_bad, h0_bad = [], [], [], []
    for a, b, h in _TWO_PEAK_SWEEP:
        facts = _facts(_UD, two_peak(a, b, h))
        if two_peak_interval_size(a, b, h) != facts.size:
            size_bad.append((a, b, h))
        if phih(a, b, h) != facts.two_peaked:
            count2_bad.append((a, b, h))
        for r, count in enumerate(facts.ranks, start=1):
            if two_peak_rank_count(a, b, h, r) != count:
                rank_bad.append((a, b, h, r))
        if h == 0:
            for r in range(2, a + b + 1):
                if two_peak_rank_count_h0(a, b, r) != two_peak_rank_count(a, b, 0, r):
                    h0_bad.append((a, b, r))

    anchor_bad = []
    if phi0(4, 6) != 50:
        anchor_bad.append("phi0(4,6)")
    fig = _facts(_UD, two_peak(2, 3, 1))
    profile = fig.ranks
    if profile != (1, 2, 4, 6, 4, 1) or fig.size != 18:
        anchor_bad.append(f"(2,3,1) profile {profile}")

    return [
        _check("interval sizes (sweep a <= b <= 6, h <= 3)", size_bad),
        _check("two-peak element counts (sweep)", count2_bad),
        _check("rank counts (sweep, every rank)", rank_bad),
        _check("flat-case rank simplification (sweep)", h0_bad),
        _check("two-peak anchors", anchor_bad),
    ]


def suite_delta() -> list[Check]:
    """Cover-class formula and histogram against brute-force cover counts."""
    class_bad = []
    for i in range(1, 6):
        for j in range(1, 6):
            for k in range(4):
                brute = len(deletion_children(two_peak(i, j, k)))
                if delta_class(i, j, k) != brute:
                    class_bad.append((i, j, k))

    hist_bad, identity_bad = [], []
    for a in range(1, 7):
        for b in range(a, 7):
            facts = _facts(_UD, two_peak(a, b, 0))
            brute_hist = dict(facts.delta_histogram)
            closed = delta_histogram_closed(a, b)
            observed = {t: brute_hist.get(t, 0) for t in (1, 2, 3, 4)}
            if observed != closed or brute_hist.get(0, 0) != 1:
                hist_bad.append((a, b, observed, closed))
            if facts.s1 != sum(t * c for t, c in brute_hist.items()):
                identity_bad.append((a, b))
    return [
        _check("cover-class formula vs brute force (i, j <= 5, k <= 3)", class_bad),
        _check("cover-class histogram closed form (a <= b <= 6)", hist_bad),
        _check("edge count equals weighted histogram sum", identity_bad),
    ]


def suite_s1() -> list[Check]:
    """Edge-count cubic for flat two-peak intervals against the engine."""
    cubic_bad, hist_sum_bad = [], []
    for a in range(1, 7):
        for b in range(a, 7):
            engine = _facts(_UD, two_peak(a, b, 0)).s1
            value = s1_two_peak_h0(a, b)
            if value != engine:
                cubic_bad.append((a, b, value, engine))
            closed = delta_histogram_closed(a, b)
            if value != sum(t * c for t, c in closed.items()):
                hist_sum_bad.append((a, b))
    return [
        _check("edge-count cubic vs engine (a <= b <= 6)", cubic_bad),
        _check("cubic equals weighted closed histogram", hist_sum_bad),
    ]


def suite_mobius_closed() -> list[Check]:
    """Closed Möbius values against the recursive engine."""
    pyramid_bad = []
    for n in range(1, 10):
        if mobius_pyramid(n) != _facts(_UD, pyramid(n)).mu:
            pyramid_bad.append(n)

    two_peak_bad = []
    for a, b, h in _TWO_PEAK_SWEEP:
        if mobius_two_peak(a, b, h) != _facts(_UD, two_peak(a, b, h)).mu:
            two_peak_bad.append((a, b, h))

    anchor_bad = []
    for text in ("UUUDUDDD", "UDUUUDDD"):
        if _facts(_UD, parse_word(text)).mu != 0:
            anchor_bad.append(text)

    staircase_bad = []
    for n in range(2, 7):
        value = _facts(staircase(n - 1), staircase(n + 1)).mu
        if mobius_staircase_rank2(n) != value:
            staircase_bad.append((n, value))

    elevated_bad = []
    for n in range(1, 6):
        value = _facts(elevated_staircase(n), elevated_staircase(n + 2)).mu
        if mobius_elevated_staircase_rank2(n) != value:
            elevated_bad.append((n, value))

    return [
        _check("pyramid Möbius values (n <= 9)", pyramid_bad),
        _check("two-peak Möbius values (sweep)", two_peak_bad),
        _check("semilength-4 zero anchors", anchor_bad),
        _check("staircase rank-2 Möbius values (n <= 6)", staircase_bad),
        _check("elevated-staircase rank-2 Möbius values (n <= 5)", elevated_bad),
    ]


def suite_covercount() -> list[Check]:
    """Cover-count formula sweep plus the two worked examples."""
    report = sweep_cover_count(COVER_SCAN_CEILING)
    checks = [
        _check(
            f"cover-count sweep (semilength <= {COVER_SCAN_CEILING})",
            list(report.witnesses) if not report.consistent else [],
        )
    ]
    spot_bad = []
    for text, expected in (("UUDD", 5), ("UDUD", 4)):
        word = parse_word(text)
        if len(covers_of(word)) != expected or cover_count_formula(word) != expected:
            spot_bad.append(text)
    checks.append(_check("cover-count worked examples", spot_bad))
    narayana_bad = []
    for n in range(11):
        histogram: dict[int, int] = {}
        for word in generate_all(n):
            peaks = word.text.count("UD")
            histogram[peaks] = histogram.get(peaks, 0) + 1
        for k in range(n + 2):
            if narayana(n, k) != histogram.get(k, 0):
                narayana_bad.append((n, k))
    checks.append(_check("peak-count histogram vs Narayana (n <= 10)", narayana_bad))
    return checks


SUITES: dict[str, Callable[[], list[Check]]] = {
    "table1": suite_table1,
    "sizes": suite_sizes,
    "twopeak": suite_twopeak,
    "delta": suite_delta,
    "s1": suite_s1,
    "mobius-closed": suite_mobius_closed,
    "bijections": suite_bijections,
    "covercount": suite_covercount,
}


def run_suite(name: str) -> list[Check]:
    if name == "all":
        out: list[Check] = []
        for suite_name, suite in SUITES.items():
            out.extend(
                Check(f"{suite_name}: {c.name}", c.ok, c.detail) for c in suite()
            )
        return out
    suite = SUITES.get(name)
    if suite is None:
        known = ", ".join([*SUITES, "all"])
        raise ArgumentOutOfRangeError(
            f"unknown suite {name!r}; expected one of: {known}"
        )
    return suite()
