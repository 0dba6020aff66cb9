"""Brute-force ground truth for intervals of the Dyck pattern poset.

An interval [bottom, top] is materialized rank by rank (rank = semilength),
after which element counts, saturated chains, cover statistics and the Möbius
function are all computed directly from their definitions.  This engine is
the independent oracle that every closed formula in the library is tested
against.

The hot path works on step texts (plain str, hashed and sorted in C): the
deletion kernel, the rank walk, the interval's tables, the Möbius sweep and
the renderings.  DyckWord objects are made only at the public boundary, one
per element and never one per edge.  One rank walk, _walk_down, steps down
from a top: to the bottom for build_interval, as far as a scan reads for it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from .errors import (
    ArgumentOutOfRangeError,
    ElementNotInIntervalError,
    NotComparableError,
    RankOutOfRangeError,
    check_limit,
)
from .words import (
    DEFAULT_GENERATION_CEILING,
    DyckWord,
    _contains_text,
    _lex_sorted,
    contains,
)


def covers_of(word: DyckWord) -> tuple[DyckWord, ...]:
    """Words covering `word`, sorted lex (U < D): see _insertion_texts."""
    if word.semilength < 1:
        raise ArgumentOutOfRangeError("poset elements have semilength >= 1")
    return tuple(map(DyckWord._wrap, _lex_sorted(_insertion_texts(word.text))))


def _insertion_texts(text: str) -> list[str]:
    """Step texts covering `text`, each exactly once, in no particular order.

    The twin of _deletion_texts: `text` is a child of each cover, and its
    leftmost embedding in the cover skips the inserted U and D.  So the U
    goes only before a D of `text` or at the end, the D only before a U of
    `text` or at the end, and the two share a slot only as a trailing UD.
    Inserting the U at slot i and the D at slot j > i always gives a Dyck
    word (the heights in between rise by one); for j < i it does iff every
    prefix height from j to i is at least 1 (they drop by one), i.e. the U
    at j lies after the first U of the factor (ground-to-ground block) that
    holds slot i.  Every cover comes from exactly one such pair, so no set
    removes repeats; each is a few slices of the text.  The cost is bounded
    by the semilength, not by a Catalan number.
    """
    ups = [j for j, step in enumerate(text) if step == "U"]
    covers = [text + "UD"]
    below = 0  # ups[:below] lie before slot i
    first = 0  # ups[first] opens the factor that holds slot i
    for i, step in enumerate(text):
        if step == "U":
            below += 1
            continue
        with_up = text[:i] + "U" + text[i:]
        # U first: the D goes before a later U, or at the end.
        covers.append(with_up + "D")
        for j in ups[below:]:
            covers.append(with_up[: j + 1] + "D" + text[j:])
        # D first: the D goes before a U of the same factor, not its first.
        for j in ups[first + 1 : below]:
            covers.append(text[:j] + "D" + with_up[j:])
        if 2 * below == i + 1:  # back at ground: the next U opens a factor
            first = below
    return covers


def deletion_children(word: DyckWord) -> tuple[DyckWord, ...]:
    """Words covered by `word`, sorted lex (U < D): see _deletion_texts."""
    if word.semilength < 1:
        raise ArgumentOutOfRangeError("poset elements have semilength >= 1")
    return tuple(map(DyckWord._wrap, _lex_sorted(_deletion_texts(word.text))))


#: The down-cover query is the deletion kernel itself, under its poset name.
covered_by = deletion_children


#: The height change of each step.
_STEP_HEIGHT = {"U": 1, "D": -1}


def _deletion_texts(text: str) -> list[str]:
    """Step texts covered by `text`, each exactly once, in no particular order.

    Covering in this poset is the removal of one U and one D.  A child has
    exactly one leftmost (greedy) embedding in `text`, and it skips one U at
    a and one D at b, each of which differs from the next step kept, if any.
    So a is the last U of a U-run (the U of a peak), b is the last D of a
    D-run (a D before a U, or the final D), and the two are not adjacent: the
    step kept after a valley DU or a peak UD repeats one of its letters,
    unless the UD ends the text.  Each such pair gives a different child,
    which is a Dyck word iff b < a (the heights in between rise by one) or b
    lies in the factor (ground-to-ground block) that holds a.  So every child
    comes from exactly one pair, and no set removes repeats.  The text
    without the U at a is made once per peak, and each candidate is one
    concat of two of its slices.  The tests check it against
    generate-and-filter; its cost is bounded by the peak count, not by a
    Catalan number.
    """
    last = len(text) - 1
    peaks: list[int] = []  # the U of each peak
    at = text.find("UD")
    while at >= 0:
        peaks.append(at)
        at = text.find("UD", at + 2)
    ends: list[int] = []  # the last D of each D-run
    at = text.find("DU")
    while at >= 0:
        ends.append(at)
        at = text.find("DU", at + 2)
    ends.append(last)
    heights = list(accumulate(map(_STEP_HEIGHT.__getitem__, text)))
    children: list[str] = []
    for a in peaks:
        rest = text[:a] + text[a + 1 :]
        factor_end = heights.index(0, a)  # the first return to ground after a
        for b in ends:
            if b < a - 1:
                children.append(rest[:b] + rest[b + 1 :])
            elif b > factor_end:
                break
            elif b > a + 1:  # b is one step further left in `rest`
                children.append(rest[: b - 1] + rest[b:])
    if last > 1 and peaks[-1] == last - 1:
        children.append(text[:-2])  # the trailing UD
    return children


@dataclass
class IntervalModel:
    """A materialized interval: elements by rank plus the Hasse covers.

    Ranks run from semilength(bottom) to semilength(top) inclusive.  The model
    holds three tables of step texts, fixed at construction: `text_ranks`
    maps each rank to its elements, and `text_covers_down`/`text_covers_up`
    map each element to its covers one rank down/up inside the interval, all
    sorted lexicographically (U < D) so that every derived output is
    deterministic.  Each element is one str object shared by the three.
    Counts, chains, deltas, membership, the Möbius function and the
    renderings read these tables, which never change; the Möbius column is
    cached.  DyckWords are made only at the query edge: by `elements()` and
    `mobius_table()`, one per element.
    """

    bottom: DyckWord
    top: DyckWord
    text_ranks: dict[int, tuple[str, ...]]
    text_covers_down: dict[str, tuple[str, ...]]
    text_covers_up: dict[str, tuple[str, ...]]

    @property
    def rank_span(self) -> range:
        return range(self.bottom.semilength, self.top.semilength + 1)

    def elements(self) -> Iterator[DyckWord]:
        """All elements, rank by rank, lexicographic within each rank."""
        for r in self.rank_span:
            yield from map(DyckWord._wrap, self.text_ranks[r])

    def __contains__(self, word: object) -> bool:
        return isinstance(word, DyckWord) and word.text in self.text_covers_down

    def text_edges(self) -> Iterator[tuple[str, str]]:
        """Hasse edges (lower, upper), rank by rank, lexicographic within each."""
        for r in self.rank_span[:-1]:
            for lower in self.text_ranks[r]:
                for upper in self.text_covers_up[lower]:
                    yield lower, upper

    def s0(self) -> int:
        """Number of elements (saturated chains of length 0)."""
        return len(self.text_covers_down)

    def _rank(self, k: int) -> tuple[str, ...]:
        """The elements of rank `k`; a rank outside rank_span raises."""
        if k not in self.rank_span:
            raise RankOutOfRangeError(
                f"rank {k} outside [{self.rank_span.start}, {self.rank_span.stop - 1}]"
            )
        return self.text_ranks[k]

    def s0_by_rank(self, k: int) -> int:
        return len(self._rank(k))

    def s1(self) -> int:
        """Number of Hasse edges (saturated chains of length 1)."""
        return sum(map(len, self.text_covers_down.values()))

    def _chain_counts(self, ell: int) -> dict[str, int]:
        # counts[w] = saturated chains of length ell whose top element is w
        down = self.text_covers_down
        counts = dict.fromkeys(down, 1)
        for _ in range(ell):
            counts = {w: sum(counts[c] for c in covers) for w, covers in down.items()}
        return counts

    def s_ell(self, ell: int) -> int:
        """Number of saturated chains of length `ell`."""
        if ell < 0:
            raise ArgumentOutOfRangeError("chain length must be nonnegative")
        return sum(self._chain_counts(ell).values())

    def s_ell_by_top_rank(self, ell: int, k: int) -> int:
        """Saturated chains of length `ell` whose top element has rank `k`."""
        if ell < 0:
            raise ArgumentOutOfRangeError("chain length must be nonnegative")
        level = self._rank(k)
        counts = self._chain_counts(ell)
        return sum(counts[w] for w in level)

    def delta(self, word: DyckWord) -> int:
        """Number of interval elements covered by `word` (inside the interval)."""
        if word not in self:
            raise ElementNotInIntervalError(
                f"{word} is not an element of [{self.bottom}, {self.top}]"
            )
        return len(self.text_covers_down[word.text])

    def delta_histogram(self) -> dict[int, int]:
        """Map t -> number of elements covering exactly t interval elements."""
        hist = Counter(map(len, self.text_covers_down.values()))
        return dict(sorted(hist.items()))

    @cached_property
    def _mobius_column(self) -> dict[str, int]:
        """mu(bottom, x) keyed by the step text of x, in elements() order."""
        levels = (self.text_ranks[r] for r in self.rank_span)
        return _mobius_sweep(levels, self.text_covers_down, self.bottom.text)

    def mobius_table(self) -> dict[DyckWord, int]:
        """mu(bottom, x) for every element x, anchored at the bottom.

        A new dict over the cached column of the one Möbius recursion,
        _mobius_sweep, swept upward; its top-anchored twin is
        scans.mobius_to_top.
        """
        return {DyckWord._wrap(w): value for w, value in self._mobius_column.items()}

    def mobius(self) -> int:
        """mu(bottom, top)."""
        return self._mobius_column[self.top.text]


def _mobius_sweep(
    levels: Iterable[Iterable[Hashable]],
    toward_origin: Mapping[Hashable, Iterable[Hashable]],
    origin: Hashable,
) -> dict:
    """One column of the Möbius function, anchored at `origin`.

    `levels` are the ranks in sweep order, starting with the rank of `origin`,
    and `toward_origin` maps each element to its covers in the previous
    level.  Swept upward from the bottom through the down-covers, the column
    is mu(bottom, x); swept downward from the top through the up-covers, it is
    mu(x, top).  mu(origin, origin) = 1, and every other value is minus the sum
    of the values strictly between x and the origin.  Any hashable element
    type works; the interval model and the scans pass step texts.

    Elements are numbered in sweep order, so every element on the origin's
    side of x has a smaller index.  The closed set between the origin and x is
    an int bitmask: the bit of x or-ed with the masks of x's covers toward the
    origin.  Only the previous rank's masks are kept, since covers join
    consecutive ranks.

    The values computed so far are held as bit planes: bit i of planes[b][0]
    (planes[b][1]) is set iff value i is positive (negative) and bit b of its
    absolute value is 1.  The strict sum over a mask is then the sum over b
    of 2^b times the popcount of mask & planes[b][0] minus that of
    mask & planes[b][1]: exact, in Python ints, one pair of popcounts per bit
    of the largest value.  No element lies strictly between the origin and
    another element of its own level, so the planes take in a level's values
    once the level is done, visiting only the set bits of each.
    """
    column: dict[Hashable, int] = {}
    planes: list[list[int]] = []
    previous: dict[Hashable, int] = {}
    index = 0
    for level in levels:
        current: dict[Hashable, int] = {}
        nonzero: list[tuple[int, int]] = []  # (bit of x, mu) for this level
        for w in level:
            mask = 0
            for z in toward_origin[w]:
                mask |= previous[z]
            if w == origin:
                value = 1
            else:
                total = 0
                for b, (positive, negative) in enumerate(planes):
                    gain = (mask & positive).bit_count() - (mask & negative).bit_count()
                    total += gain << b
                value = -total
            bit = 1 << index
            index += 1
            current[w] = mask | bit
            column[w] = value
            if value:
                nonzero.append((bit, value))
        for bit, value in nonzero:
            sign = value < 0
            size = -value if sign else value
            while size:
                low = size & -size
                b = low.bit_length() - 1
                while len(planes) <= b:
                    planes.append([0, 0])
                planes[b][sign] |= bit
                size ^= low
        previous = current
    return column


def _walk_down(
    bottom: str, top: str, lowest: int, children: Callable[[str], Iterable[str]]
) -> tuple[list[tuple[str, ...]], dict[str, list[str]]]:
    """The elements of [bottom, top] from `top` down to semilength `lowest`.

    Returns (levels, covers_up): levels[i] holds the elements i ranks below
    `top` and covers_up maps each element to its covers one rank up, both
    lexicographic (U < D), as each level is walked in order.  A level is the
    set of `children` of the one above that contain `bottom`: their Hasse
    covers inside the interval.  The order in which `children` lists a
    word's covers does not matter, only that it lists each once: each level
    is sorted here, once, and the up-covers follow the level above.  Each
    rejected candidate is tested once, and with `bottom` = UD none is, as
    every nonempty Dyck word contains UD.
    Each element is one str object, shared by the levels and covers_up.
    """
    levels = [(top,)]
    covers_up: dict[str, list[str]] = {top: []}
    test = bottom != "UD"
    for _ in range(len(top) // 2 - lowest):
        reached: dict[str, list[str]] = {}
        rejected: set[str] = set()
        for w in levels[-1]:
            for c in children(w):
                parents = reached.get(c)
                if parents is not None:
                    parents.append(w)
                elif not test or (c not in rejected and _contains_text(bottom, c)):
                    reached[c] = [w]
                else:
                    rejected.add(c)
        covers_up.update(reached)
        levels.append(tuple(_lex_sorted(reached)))
    return levels, covers_up


def build_interval(
    bottom: DyckWord, top: DyckWord, limit: int | None = None
) -> IntervalModel:
    """Materialize [bottom, top] = {W : bottom <= W <= top}, rank by rank.

    The rank walk, _walk_down, runs from `top` to the bottom through the
    deletion kernel and gives the ranks and the up-covers; the down-covers
    are their inversion, so the three tables share one str per element.
    Gradedness of the poset guarantees the walk reaches the whole interval,
    and at the bottom rank the only word containing `bottom` is `bottom`
    itself.  The tests check this construction against the
    generate-everything-and-filter one on small intervals.

    A top above `limit`, or above DEFAULT_GENERATION_CEILING when no limit is
    given, raises LimitExceededError before any work is done.
    """
    if bottom.semilength < 1:
        raise ArgumentOutOfRangeError("interval bottom must have semilength >= 1")
    check_limit(
        "interval top semilength", top.semilength, DEFAULT_GENERATION_CEILING, limit
    )
    if not contains(bottom, top):
        raise NotComparableError(f"{bottom} is not a pattern of {top}")

    levels, covers_up = _walk_down(
        bottom.text, top.text, bottom.semilength, _deletion_texts
    )
    # Inverted and frozen one rank at a time, so that few lists are alive at
    # once; a freed list leaves memory that the tuples cannot all reuse.
    covers_down: dict[str, tuple[str, ...]] = {}
    covers_up[top.text] = ()
    for upper, lower in zip(levels, [*levels[1:], ()]):
        down: dict[str, list[str]] = {w: [] for w in upper}
        for w in lower:
            parents = covers_up[w] = tuple(covers_up[w])
            for parent in parents:
                down[parent].append(w)
        covers_down.update((w, tuple(v)) for w, v in down.items())
    ranks = dict(zip(range(top.semilength, -1, -1), levels))
    return IntervalModel(bottom, top, ranks, covers_down, covers_up)


def mobius(bottom: DyckWord, top: DyckWord, limit: int | None = None) -> int:
    """mu(bottom, top) over the materialized interval; `limit` as in build_interval."""
    return build_interval(bottom, top, limit).mobius()


def interval_to_json_dict(model: IntervalModel) -> dict:
    """JSON rendering: bottom, top, ranks, edges and the Möbius table.

    The edges are [lower, upper] lists, rank by rank, lexicographic within
    each; the Möbius column is already in elements() order.
    """
    ranks = model.text_ranks
    covers_up = model.text_covers_up
    return {
        "bottom": model.bottom.text,
        "top": model.top.text,
        "ranks": [
            {"r": r, "count": len(ranks[r]), "elements": list(ranks[r])}
            for r in model.rank_span
        ],
        "edges": [
            [lo, up] for r in model.rank_span for lo in ranks[r] for up in covers_up[lo]
        ],
        "mobius": dict(model._mobius_column),
    }


def interval_to_dot(model: IntervalModel) -> str:
    """Hasse diagram in DOT form, one same-rank group per semilength."""
    ranks = model.text_ranks
    covers_up = model.text_covers_up
    parts = ["digraph interval {\n  rankdir=BT;\n  node [shape=box];\n"]
    for r in model.rank_span:
        parts.append('  { rank=same; "' + '"; "'.join(ranks[r]) + '"; }\n')
    for r in model.rank_span:
        for lo in ranks[r]:
            ups = covers_up[lo]
            if ups:
                head = '  "' + lo + '" -> "'
                parts.append(head + ('";\n' + head).join(ups) + '";\n')
    parts.append("}\n")
    return "".join(parts)
