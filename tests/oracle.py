"""Slow routes that the fast kernels and scans are checked against.

Generate-and-filter cover relation: the oracle for the cover kernels.  It
shares no code with `poset.covers_of` or `poset.deletion_children`: for each
pair of consecutive semilengths it generates every word of the upper one,
lists all of that word's subsequences two steps shorter with
`itertools.combinations`, keeps the Dyck ones, and inverts the relation.
Each relation is computed once and kept.  Its cost grows with a Catalan
number, so it is used on small semilengths only.

Containment-only Möbius columns: the oracle for the Möbius recursion.  The
elements come from generate-and-filter, and each value is minus the sum over
the elements that a containment test places strictly between.

Full-interval Möbius scans: the oracle for the windowed scans.  They build
each whole interval [UD, top] with `build_interval`, whose rank walk tests
containment, and read the Möbius column of the materialized model.

Generate-and-filter down-set: the oracle for the downward rank walk.  Each
level is every Dyck word of its semilength, from the product filter, that
contains the bottom and is contained in the top; the up-covers are the
generate-and-filter covers that stay inside the levels.

Generate-and-filter renderings: the oracle for `interval_to_dot` and
`interval_to_json_dict`.  They lay out the generate-and-filter down-set and
the containment-only Möbius column in the documented formats, line by line
and edge by edge, with no code of the engine's renderers.

Positional mirror: the oracle for the scans' reversal map.  Step i of the
mirror is the swap of step 2n - 1 - i, looked up in a dict, with no slicing
and no translation table.

Product filter: the oracle for `generate_all`.  It lists every U/D string of
the length in `itertools.product` order, which is lexicographic (U < D), and
keeps the Dyck ones.  Over {U, L, D} in reverse ASCII order, which is U < L
< D, the same filter with no UD peak is the oracle for the peak-less Motzkin
words.
"""

import functools
from itertools import combinations, product

from dyckposet import (
    DyckWord,
    build_interval,
    contains,
    elevated_staircase,
    generate_all,
    staircase,
)
from dyckposet.scans import mobius_to_top


def _is_dyck(steps):
    height = 0
    for step in steps:
        height += 1 if step == "U" else -1
        if height < 0:
            return False
    return height == 0


@functools.lru_cache(maxsize=None)
def _containment(n):
    """The containment relation between semilengths n and n + 1.

    Returns (up, down): up maps the text of each word of semilength n to the
    words of semilength n + 1 that contain it, down maps the text of each
    word of semilength n + 1 to the words of semilength n it contains; both
    lists are in generation order, which is lexicographic (U < D).
    """
    lower = generate_all(n)
    upper = generate_all(n + 1)
    up = {w.text: [] for w in lower}
    for w in upper:
        for sub in {"".join(c) for c in combinations(w.text, 2 * n)}:
            if _is_dyck(sub):
                up[sub].append(w)
    down = {w.text: [] for w in upper}
    for w in lower:
        for u in up[w.text]:
            down[u.text].append(w)
    return up, down


def covers_of(word):
    """All words one rank up that contain `word`."""
    return tuple(_containment(word.semilength)[0][word.text])


def covered_by(word):
    """All words one rank down, of semilength >= 1, that `word` contains."""
    if word.semilength <= 1:
        return ()
    return tuple(_containment(word.semilength - 1)[1][word.text])


def mobius_columns(bottom, top):
    """mu(bottom, x) and mu(x, top) over [bottom, top] from `contains` alone.

    Shares no code with the engine's rank walk or Möbius recursion: both
    columns are keyed by DyckWord, in generation order.
    """
    elements = [
        w
        for r in range(bottom.semilength, top.semilength + 1)
        for w in generate_all(r)
        if contains(bottom, w) and contains(w, top)
    ]
    from_bottom = {}
    for x in elements:
        from_bottom[x] = 1 if x == bottom else -sum(
            value for z, value in from_bottom.items() if contains(z, x)
        )
    to_top = {}
    for x in reversed(elements):
        to_top[x] = 1 if x == top else -sum(
            value for z, value in to_top.items() if contains(x, z)
        )
    return from_bottom, to_top


def mirror_text(text):
    """Reversal by position: step i is the swap of step len - 1 - i."""
    swap = {"U": "D", "D": "U"}
    return "".join(swap[text[len(text) - 1 - i]] for i in range(len(text)))


@functools.lru_cache(maxsize=None)
def dyck_texts(n):
    """The Dyck step strings of semilength n, lexicographic (U < D)."""
    texts = ("".join(steps) for steps in product("UD", repeat=2 * n))
    return tuple(t for t in texts if _is_dyck(t))


def peakless_texts(length):
    """The peak-less Motzkin strings of this length, lexicographic (U < L < D)."""
    texts = ("".join(steps) for steps in product("ULD", repeat=length))
    return tuple(t for t in texts if _is_dyck(t.replace("L", "")) and "UD" not in t)


@functools.lru_cache(maxsize=None)
def _dyck_words(n):
    return tuple(map(DyckWord, dyck_texts(n)))


@functools.lru_cache(maxsize=None)
def _interval_levels(bottom, top):
    """The ranks of [bottom, top] as step texts, top-first and lexicographic."""
    levels = []
    for r in range(top.semilength, bottom.semilength - 1, -1):
        words = _dyck_words(r)
        levels.append(
            tuple(w.text for w in words if contains(bottom, w) and contains(w, top))
        )
    return levels


def down_set(bottom, top, lowest):
    """Levels from `top` down to semilength `lowest` of [bottom, top], and up-covers.

    Returns (levels, covers_up) over step texts, as the rank walk does:
    levels top-first and lexicographic, covers_up mapping each element to
    its covers one rank up inside the levels, lexicographic.
    """
    levels = _interval_levels(bottom, top)[: top.semilength - lowest + 1]
    members = {t for level in levels for t in level}
    covers_up = {top.text: []}
    for level in levels[1:]:
        for t in level:
            covers_up[t] = [u.text for u in covers_of(DyckWord(t)) if u.text in members]
    return levels, covers_up


def interval_dot(bottom, top):
    """The DOT text of [bottom, top]: rank groups ascending, then every edge."""
    levels, covers_up = down_set(bottom, top, bottom.semilength)
    ascending = levels[::-1]
    lines = ["digraph interval {", "  rankdir=BT;", "  node [shape=box];"]
    for level in ascending:
        lines.append("  { rank=same; %s }" % " ".join('"%s";' % t for t in level))
    for level in ascending:
        for lower in level:
            lines.extend('  "%s" -> "%s";' % (lower, upper) for upper in covers_up[lower])
    lines.append("}")
    return "".join(line + "\n" for line in lines)


def interval_json_dict(bottom, top):
    """The JSON payload of [bottom, top]: ranks, [lower, upper] edges, mu(bottom, x).

    Ranks ascend and everything within a rank is lexicographic (U < D).
    """
    levels, covers_up = down_set(bottom, top, bottom.semilength)
    from_bottom, _ = mobius_columns(bottom, top)
    ascending = levels[::-1]
    return {
        "bottom": bottom.text,
        "top": top.text,
        "ranks": [
            {"r": bottom.semilength + i, "count": len(level), "elements": list(level)}
            for i, level in enumerate(ascending)
        ],
        "edges": [
            [lower, upper]
            for level in ascending
            for lower in level
            for upper in covers_up[lower]
        ],
        "mobius": {w.text: value for w, value in from_bottom.items()},
    }


def _scan_payload(scan, scope, consistent, summary, witnesses):
    """A scan-report/1 payload without its elapsed_ms entry."""
    return {
        "schema": "dyckposet/scan-report/1",
        "scan": scan,
        "scope": scope,
        "verdict": "consistent" if consistent else "violated",
        "summary": summary,
        "witnesses": witnesses,
    }


def _witness(bottom, top, value):
    return {"bottom": bottom.text, "top": top.text, "mu": value}


def scan_rank_max(k, n):
    """The rank-k maximum scan by materializing the whole interval [UD, top].

    Walks every top of semilength n + k through build_interval and reads
    the top-anchored Möbius column of the whole model, not a window of k
    ranks.  Rank 2 compares mu, rank 3 compares |mu|.
    """
    signed = k == 2
    expected = n * n if signed else (2 * n + 1) * n * n
    canonical = (elevated_staircase(n).text, elevated_staircase(n + k).text)
    best = None
    attaining = []
    pairs = 0
    for top in generate_all(n + k):
        model = build_interval(staircase(1), top)
        column = mobius_to_top(model)
        for p in model.elements():
            if p.semilength != n:
                continue
            value = column[p]
            size = value if signed else abs(value)
            pairs += 1
            if best is None or size > best:
                best = size
                attaining = [_witness(p, top, value)]
            elif size == best:
                attaining.append(_witness(p, top, value))
    canonical_attains = any((w["bottom"], w["top"]) == canonical for w in attaining)
    return _scan_payload(
        f"rank{k}max",
        {"n": n},
        best == expected and canonical_attains,
        {
            "pairs_checked": pairs,
            "expected_max" if signed else "conjectured_max": expected,
            "observed_max": best if best is not None else 0,
            "attaining": len(attaining),
        },
        attaining,
    )


def scan_alternating(max_top_semilength):
    """The Möbius sign scan by materializing every interval [UD, top]."""
    pairs = 0
    violations = []
    for s in range(1, max_top_semilength + 1):
        for top in generate_all(s):
            model = build_interval(staircase(1), top)
            column = mobius_to_top(model)
            for x in model.elements():
                value = column[x]
                pairs += 1
                even_rank = (s - x.semilength) % 2 == 0
                if value < 0 if even_rank else value > 0:
                    violations.append(_witness(x, top, value))
    return _scan_payload(
        "alternating",
        {"max_top_semilength": max_top_semilength},
        not violations,
        {"pairs_checked": pairs, "violations": len(violations)},
        violations,
    )
