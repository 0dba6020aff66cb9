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
    """Words covering `word`, lexicographic (U < D): see _insertion_texts."""
    if word.semilength < 1:
        raise ArgumentOutOfRangeError("poset elements have semilength >= 1")
    return tuple(map(DyckWord._wrap, _insertion_texts(word.text)))


def _insertion_texts(text: str) -> list[str]:
    """Step texts covering `text`, lexicographic (U < D), by one pass of insertion.

    A cover adds one U and one D.  Inserting the U at text position i and the
    D at position j gives a Dyck word whenever j >= i (the heights in between
    rise by one), and for j < i iff every prefix height h[k], j <= k <= i, is
    at least 1 (they drop by one).  Inserting a letter anywhere in a run of
    the same letter gives the same word, so the U goes only where it does not
    follow a U, and the D only where it does not follow a D; what remains is
    O(n^2) candidates, each one slice of the text.  The cost is bounded by the
    semilength, not by a Catalan number.  It is the twin of _deletion_texts.
    """
    heights = [0]
    for step in text:
        heights.append(heights[-1] + (1 if step == "U" else -1))
    seen: set[str] = set()
    for i in range(len(text) + 1):
        if i and text[i - 1] == "U":
            continue
        head, tail = text[:i] + "U", text[i:]
        # U first: the D goes right after the new U or after any later U.
        seen.add(head + "D" + tail)
        for j in range(i + 1, len(text) + 1):
            if text[j - 1] == "U":
                seen.add(head + text[i:j] + "D" + text[j:])
        # D first: walk j down from i while the heights it lowers stay >= 1.
        for j in range(i, 0, -1):
            if heights[j] < 1:
                break
            if text[j - 1] == "U":
                seen.add(text[:j] + "D" + text[j:i] + "U" + tail)
    return _lex_sorted(seen)


def deletion_children(word: DyckWord) -> tuple[DyckWord, ...]:
    """Words covered by `word`, lexicographic (U < D): see _deletion_texts."""
    if word.semilength < 1:
        raise ArgumentOutOfRangeError("poset elements have semilength >= 1")
    return tuple(map(DyckWord._wrap, _deletion_texts(word.text)))


#: The down-cover query is the deletion kernel itself, under its poset name.
covered_by = deletion_children


def _deletion_texts(text: str) -> list[str]:
    """Step texts covered by `text`, lexicographic (U < D), by one pass of slicing.

    Covering in this poset is the removal of one U and one D.  Removing any
    step of a run gives the same word, so it suffices to drop the last U of
    one U-run and the first D of one D-run, and these are the two steps of
    each peak.  Dropping the U of peak i and the D of peak j leaves a Dyck
    word iff j < i (the heights in between rise by one) or no prefix height
    between the two steps is 0, i.e. both peaks lie in the same factor.  The
    text without the U of peak i is made once per peak, and each candidate is
    one pair of its slices, accepted without a rescan.
    The tests check it against generate-and-filter; its cost is bounded by
    the peak count, not by a Catalan number.
    """
    peaks: list[int] = []  # position of the U of each peak
    factor_of: list[int] = []  # factor (ground-to-ground block) of each peak
    height = 0
    factor = 0
    previous = ""
    for pos, step in enumerate(text):
        if step == "U":
            height += 1
        else:
            if previous == "U":
                peaks.append(pos - 1)
                factor_of.append(factor)
            height -= 1
            if height == 0:
                factor += 1
        previous = step
    seen: set[str] = set()
    for i, up in enumerate(peaks):
        # The D of peak j sits at peak + 1 in `text`, one less in `rest` if
        # it follows the dropped U.
        rest = text[:up] + text[up + 1 :]
        for j, peak in enumerate(peaks):
            if j < i:
                seen.add(rest[: peak + 1] + rest[peak + 2 :])
            elif factor_of[j] == factor_of[i]:
                seen.add(rest[:peak] + rest[peak + 1 :])
    seen.discard("")
    return _lex_sorted(seen)


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
    covers inside the interval.  Each rejected candidate is tested once, and
    with `bottom` = UD none is, as every nonempty Dyck word contains UD.
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
