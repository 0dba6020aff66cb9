"""Brute-force ground truth for intervals of the Dyck pattern poset.

An interval [bottom, top] is materialized rank by rank (rank = semilength),
after which element counts, saturated chains, cover statistics and the Möbius
function are all computed directly from their definitions.  This engine is
the independent oracle that every closed formula in the library is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Hashable, Iterable, Iterator, Mapping

from .errors import (
    ArgumentOutOfRangeError,
    ElementNotInIntervalError,
    LimitExceededError,
    NotComparableError,
    RankOutOfRangeError,
)
from .words import (
    DEFAULT_GENERATION_CEILING,
    DyckWord,
    contains,
    lex_key,
    lex_text,
)


def covers_of(word: DyckWord) -> tuple[DyckWord, ...]:
    """Words covering `word`, lexicographic (U < D), by one pass of insertion.

    A cover adds one U and one D.  Inserting the U at text position i and the
    D at position j gives a Dyck word whenever j >= i (the heights in between
    rise by one), and for j < i iff every prefix height h[k], j <= k <= i, is
    at least 1 (they drop by one).  Inserting a letter anywhere in a run of
    the same letter gives the same word, so the U goes only where it does not
    follow a U, and the D only where it does not follow a D; what remains is
    O(n^2) candidates, each one slice of the text.  The cost is bounded by the
    semilength, not by a Catalan number.
    """
    if word.semilength < 1:
        raise ArgumentOutOfRangeError("poset elements have semilength >= 1")
    text = word.text
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
    return tuple(DyckWord._wrap(t) for t in sorted(seen, key=lex_text))


def covered_by(word: DyckWord) -> tuple[DyckWord, ...]:
    """Words covered by `word`, lexicographic (U < D): the deletion kernel."""
    if word.semilength < 1:
        raise ArgumentOutOfRangeError("poset elements have semilength >= 1")
    return deletion_children(word)


def deletion_children(word: DyckWord) -> tuple[DyckWord, ...]:
    """Words covered by `word`, lexicographic (U < D), by one pass of slicing.

    Covering in this poset is the removal of one U and one D.  Removing any
    step of a run gives the same word, so it suffices to drop the last U of
    one U-run and the first D of one D-run, and these are the two steps of
    each peak.  Dropping the U of peak i and the D of peak j leaves a Dyck
    word iff j < i (the heights in between rise by one) or no prefix height
    between the two steps is 0, i.e. both peaks lie in the same factor.  Each
    candidate is therefore one slice of the text, accepted without a rescan.
    The tests check it against generate-and-filter; its cost is bounded by
    the peak count, not by a Catalan number.
    """
    text = word.text
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
        for j, peak in enumerate(peaks):
            down = peak + 1
            if j < i:
                seen.add(text[:down] + text[down + 1 : up] + text[up + 1 :])
            elif factor_of[j] == factor_of[i]:
                seen.add(text[:up] + text[up + 1 : down] + text[down + 1 :])
    seen.discard("")
    return tuple(DyckWord._wrap(t) for t in sorted(seen, key=lex_text))


@dataclass
class IntervalModel:
    """A materialized interval: elements by rank plus the Hasse covers.

    Ranks run from semilength(bottom) to semilength(top) inclusive; rank sets
    are sorted lexicographically (U < D) so that all derived output is
    deterministic.  Instances are not mutated after construction apart from
    the lazily cached Möbius table.
    """

    bottom: DyckWord
    top: DyckWord
    elements_by_rank: dict[int, tuple[DyckWord, ...]]
    covers_down: dict[DyckWord, tuple[DyckWord, ...]]
    covers_up: dict[DyckWord, tuple[DyckWord, ...]]
    members: frozenset[DyckWord]
    _mobius_from_bottom: dict[DyckWord, int] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def rank_span(self) -> range:
        return range(self.bottom.semilength, self.top.semilength + 1)

    def elements(self) -> Iterator[DyckWord]:
        """All elements, rank by rank, lexicographic within each rank."""
        for r in self.rank_span:
            yield from self.elements_by_rank[r]

    def __contains__(self, word: DyckWord) -> bool:
        return word in self.members

    def _edges(self) -> Iterator[tuple[DyckWord, DyckWord]]:
        """Hasse edges (lower, upper), rank by rank, lexicographic within each."""
        for r in self.rank_span[:-1]:
            for lower in self.elements_by_rank[r]:
                for upper in self.covers_up[lower]:
                    yield lower, upper

    @property
    def hasse_edges(self) -> tuple[tuple[DyckWord, DyckWord], ...]:
        return tuple(self._edges())

    def s0(self) -> int:
        """Number of elements (saturated chains of length 0)."""
        return len(self.members)

    def s0_by_rank(self, k: int) -> int:
        if k not in self.rank_span:
            raise RankOutOfRangeError(
                f"rank {k} outside [{self.rank_span.start}, {self.rank_span.stop - 1}]"
            )
        return len(self.elements_by_rank[k])

    def s1(self) -> int:
        """Number of Hasse edges (saturated chains of length 1)."""
        return sum(len(v) for v in self.covers_down.values())

    def _chain_counts(self, ell: int) -> dict[DyckWord, int]:
        # counts[w] = saturated chains of length ell whose top element is w
        counts = {w: 1 for w in self.members}
        for _ in range(ell):
            counts = {
                w: sum(counts[c] for c in self.covers_down[w]) for w in self.members
            }
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
        counts = self._chain_counts(ell)
        return sum(counts[w] for w in self.elements_by_rank.get(k, ()))

    def delta(self, word: DyckWord) -> int:
        """Number of interval elements covered by `word` (inside the interval)."""
        if word not in self.members:
            raise ElementNotInIntervalError(
                f"{word} is not an element of [{self.bottom}, {self.top}]"
            )
        return len(self.covers_down[word])

    def delta_histogram(self) -> dict[int, int]:
        """Map t -> number of elements covering exactly t interval elements."""
        hist: dict[int, int] = {}
        for covered in self.covers_down.values():
            t = len(covered)
            hist[t] = hist.get(t, 0) + 1
        return dict(sorted(hist.items()))

    def mobius_table(self) -> dict[DyckWord, int]:
        """mu(bottom, x) for every element x, anchored at the bottom.

        A cached thin wrapper around the one Möbius recursion, _mobius_sweep,
        swept upward; its top-anchored twin is scans.mobius_to_top.
        """
        if self._mobius_from_bottom is None:
            levels = (self.elements_by_rank[r] for r in self.rank_span)
            self._mobius_from_bottom = _mobius_sweep(
                levels, self.covers_down, self.bottom
            )
        return self._mobius_from_bottom

    def mobius(self) -> int:
        """mu(bottom, top)."""
        return self.mobius_table()[self.top]


# Maps the ASCII digits of bin() to the 0/1 selector bytes itertools.compress reads.
_BIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")


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
    type works: the interval model passes DyckWords, the scans step texts.

    Elements are numbered in sweep order, so every element on the origin's
    side of x has a smaller index.  The closed set between the origin and x is
    an int bitmask: the bit of x or-ed with the masks of x's covers toward the
    origin.  Only the previous rank's masks are kept, since covers join
    consecutive ranks.  The sum over the strict part of the set runs in C:
    the reversed binary digits of the mask select from the values computed so
    far, and the bit of x itself lies past their end.
    """
    values: list[int] = []
    order: list[Hashable] = []
    previous: dict[Hashable, int] = {}
    for level in levels:
        current: dict[Hashable, int] = {}
        for w in level:
            mask = 1 << len(values)
            for z in toward_origin[w]:
                mask |= previous[z]
            current[w] = mask
            if w == origin:
                values.append(1)
            else:
                selectors = bin(mask)[:1:-1].encode().translate(_BIT_SELECTORS)
                values.append(-sum(compress(values, selectors)))
            order.append(w)
        previous = current
    return dict(zip(order, values))


def build_interval(
    bottom: DyckWord, top: DyckWord, limit: int | None = None
) -> IntervalModel:
    """Materialize [bottom, top] = {W : bottom <= W <= top}, rank by rank.

    One walk runs downward from `top`: each element's deletion_children are
    computed once, and the children that contain `bottom` are kept.  They
    are exactly the element's Hasse covers inside the interval, since a child
    lies below an element below `top`, and together they form the next rank.
    Containment in `bottom` is tested at most once per candidate per rank.
    Gradedness of the poset guarantees the walk reaches the whole interval,
    and at the bottom rank the only word containing `bottom` is `bottom`
    itself.  The tests check this construction against the
    generate-everything-and-filter one on small intervals.
    """
    if bottom.semilength < 1:
        raise ArgumentOutOfRangeError("interval bottom must have semilength >= 1")
    ceiling = DEFAULT_GENERATION_CEILING if limit is None else limit
    if top.semilength > ceiling:
        raise LimitExceededError(
            f"top semilength {top.semilength} exceeds the ceiling {ceiling}; "
            "pass an explicit limit to override"
        )
    if not contains(bottom, top):
        raise NotComparableError(f"{bottom} is not a pattern of {top}")

    lo = bottom.semilength
    hi = top.semilength
    ranks: dict[int, tuple[DyckWord, ...]] = {hi: (top,)}
    covers_down: dict[DyckWord, tuple[DyckWord, ...]] = {}
    covers_up: dict[DyckWord, list[DyckWord]] = {top: []}
    level: tuple[DyckWord, ...] = (top,)
    for r in range(hi - 1, lo - 1, -1):
        # kept maps each accepted child to its first instance, so that every
        # table of the model shares one object per element.
        kept: dict[DyckWord, DyckWord] = {}
        rejected: set[DyckWord] = set()
        for w in level:
            kids = []
            for child in deletion_children(w):
                element = kept.get(child)
                if element is None:
                    if child in rejected:
                        continue
                    if not contains(bottom, child):
                        rejected.add(child)
                        continue
                    element = kept[child] = child
                    covers_up[child] = []
                kids.append(element)
                covers_up[element].append(w)
            covers_down[w] = tuple(kids)
        level = tuple(sorted(kept, key=lex_key))
        ranks[r] = level
    for w in level:
        covers_down[w] = ()

    members = frozenset(covers_down)
    # Each rank is walked in lexicographic order, so every up-cover list is
    # already sorted.
    frozen_up = {w: tuple(v) for w, v in covers_up.items()}
    return IntervalModel(bottom, top, ranks, covers_down, frozen_up, members)


def mobius(bottom: DyckWord, top: DyckWord, limit: int | None = None) -> int:
    """mu(bottom, top) over the materialized interval."""
    return build_interval(bottom, top, limit).mobius()


def interval_to_json_dict(model: IntervalModel) -> dict:
    """JSON rendering: bottom, top, ranks, edges and the Möbius table."""
    table = model.mobius_table()
    return {
        "bottom": model.bottom.text,
        "top": model.top.text,
        "ranks": [
            {
                "r": r,
                "count": len(model.elements_by_rank[r]),
                "elements": [w.text for w in model.elements_by_rank[r]],
            }
            for r in model.rank_span
        ],
        "edges": [[lo.text, up.text] for lo, up in model._edges()],
        "mobius": {w.text: table[w] for w in model.elements()},
    }


def interval_to_dot(model: IntervalModel) -> str:
    """Hasse diagram in DOT form, one same-rank group per semilength."""
    lines = ["digraph interval {", "  rankdir=BT;", "  node [shape=box];"]
    for r in model.rank_span:
        row = " ".join(f'"{w.text}";' for w in model.elements_by_rank[r])
        lines.append("  { rank=same; " + row + " }")
    for lo, up in model._edges():
        lines.append(f'  "{lo.text}" -> "{up.text}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
