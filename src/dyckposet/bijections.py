"""Structural bijections: peak-less Motzkin contraction and triple/square encodings.

Two independent pictures of the library's intervals live here.  Contracting
every peak of a Dyck word to a level step gives a peak-less Motzkin word, and
the image length says exactly which staircase intervals contain the original
word.  Two-peak words are encoded as triples (i, j; k), which are also the
squares of side k+1 at cell (i, j) of a grid; the pattern order transports to
a coordinatewise order on triples and to nested-rectangle conditions on
squares.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import (
    ArgumentOutOfRangeError,
    InvalidMotzkinError,
    NotTwoPeakError,
    OutOfGridError,
    UnbalancedError,
    check_limit,
)
from .words import DyckWord, _lex_sorted, _parse_steps, _StepWord, runs, two_peak

#: Largest Motzkin word length the brute-force enumerator accepts.
DEFAULT_MOTZKIN_CEILING = 20

_MOTZKIN_ALIASES = {
    "U": "U",
    "u": "U",
    "D": "D",
    "d": "D",
    "L": "L",
    "l": "L",
}


def _check_motzkin(text: str) -> None:
    ups = downs = 0
    for pos, step in enumerate(text):
        if step == "U":
            ups += 1
        elif step == "D":
            downs += 1
        elif step != "L":
            raise InvalidMotzkinError(f"invalid step {step!r} at position {pos}")
        if downs > ups:
            raise InvalidMotzkinError(
                f"prefix ending at position {pos} has more D than U"
            )
    if ups != downs:
        raise InvalidMotzkinError(f"unbalanced word: {ups} U steps vs {downs} D steps")


class MotzkinWord(_StepWord):
    """Immutable word over {U, D, L} with balanced, prefix-nonnegative U/D."""

    __slots__ = ()
    _validate = staticmethod(_check_motzkin)

    @property
    def length(self) -> int:
        return len(self._text)

    @property
    def is_peakless(self) -> bool:
        """True when no U step is immediately followed by a D step."""
        return "UD" not in self._text


def parse_motzkin(text: str) -> MotzkinWord:
    """Parse case-insensitive U/D/L input into a MotzkinWord."""
    return MotzkinWord(_parse_steps(text, _MOTZKIN_ALIASES, InvalidMotzkinError))


def motzkin_to_dyck(word: MotzkinWord) -> DyckWord:
    """Expand every level step into a peak: L -> UD, U and D copied.

    Total on all Motzkin words; the image has semilength (#U + #L) and is
    validated as a Dyck word.
    """
    return DyckWord(word.text.replace("L", "UD"))


def dyck_to_motzkin(word: DyckWord) -> MotzkinWord:
    """Contract every peak (adjacent UD pair) to a level step.

    Peak occurrences are disjoint, so one left-to-right `str.replace` of UD
    by L contracts them all.  A contraction never brings a U next to a D
    (the survivor to the left of a new L is always a U, to the right always
    a D), so the image is peak-less; that is checked, not assumed.  Image
    length equals 2*semilength - peaks, and the image roundtrips through
    motzkin_to_dyck.
    """
    result = MotzkinWord._wrap(word.text.replace("UD", "L"))
    if not result.is_peakless:
        raise InvalidMotzkinError(f"image {result.text} of {word} is not peakless")
    return result


# Longest Motzkin length whose peak-less words stay cached for the life of the
# process.  The verify suites reuse lengths <= 12 over and over; length 16 has
# 72 832 words, while caching length 20 would pin 2.5M strings.
_CACHED_LENGTH = 16


@functools.lru_cache(maxsize=None)
def _cached_peakless_texts(length: int) -> tuple[str, ...]:
    lower = [_cached_peakless_texts(k) for k in range(length)]
    return tuple(_peakless_level(length, lower))


@functools.lru_cache(maxsize=None)
def _cached_peakless_words(length: int) -> tuple[MotzkinWord, ...]:
    return tuple(map(MotzkinWord._wrap, _cached_peakless_texts(length)))


def _peakless_level(length: int, lower: list[tuple[str, ...]]) -> list[str]:
    """The peak-less Motzkin texts of one length, lexicographic (U < L < D).

    `lower[k]` holds the texts of length k, for every k < length.  Each
    nonempty word is L b, or U a D b with a nonempty (so no peak at the U
    or the D) for exactly one pair: the U returns to its level first at the
    D.  Since 'D' < 'L' < 'U' in ASCII, the one sort is reverse string order.
    """
    if length == 0:
        return [""]
    texts = list(map("L".__add__, lower[length - 1]))
    for k in range(1, length - 1):
        tails = lower[length - 2 - k]
        for a in lower[k]:
            texts += map(("U" + a + "D").__add__, tails)
    return _lex_sorted(texts)


def _peakless_texts(length: int) -> tuple[str, ...]:
    """Texts of generate_peakless_motzkin, built level by level above 16."""
    if length < 0:
        raise ArgumentOutOfRangeError("length must be nonnegative")
    check_limit("Motzkin length", length, DEFAULT_MOTZKIN_CEILING)
    if length <= _CACHED_LENGTH:
        return _cached_peakless_texts(length)
    levels = [_cached_peakless_texts(k) for k in range(_CACHED_LENGTH + 1)]
    for n in range(_CACHED_LENGTH + 1, length):
        levels.append(tuple(_peakless_level(n, levels)))
    return tuple(_peakless_level(length, levels))


def generate_peakless_motzkin(length: int) -> tuple[MotzkinWord, ...]:
    """All peak-less Motzkin words of exactly the given length, U < L < D.

    Lengths above DEFAULT_MOTZKIN_CEILING raise LimitExceededError; that
    ceiling is fixed.  Lengths up to 16 are cached; longer ones are built
    afresh on every call.
    """
    texts = _peakless_texts(length)
    if length <= _CACHED_LENGTH:
        return _cached_peakless_words(length)
    return tuple(map(MotzkinWord._wrap, texts))


def count_peakless_motzkin(length: int) -> int:
    """Brute-force count of peak-less Motzkin words of exactly this length.

    Cumulative sums over lengths 1..n reproduce the staircase interval sizes.
    """
    return len(_peakless_texts(length))


@dataclass(frozen=True)
class Triple:
    """Encoding (i, j; k) of the two-peak word with valley depth i, second
    peak width j and elevation k."""

    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        if self.i < 1 or self.j < 1 or self.k < 0:
            raise ArgumentOutOfRangeError(
                f"triple needs i, j >= 1 and k >= 0, got ({self.i}, {self.j}, {self.k})"
            )

    def fits_grid(self, grid_rows: int, grid_cols: int) -> bool:
        return self.i + self.k <= grid_rows and self.j + self.k <= grid_cols


def triple_to_path(t: Triple) -> DyckWord:
    """The two-peak word U^(k+i) D^i U^j D^(j+k)."""
    return two_peak(t.i, t.j, t.k)


def path_to_triple(word: DyckWord) -> Triple:
    """Inverse encoding; rejects words whose peak count is not two."""
    rf = runs(word)
    if rf.m != 2:
        raise NotTwoPeakError(f"{word} has {rf.m} peaks, need exactly 2")
    (up1, down1), (up2, down2) = rf.runs
    if up1 - down1 != down2 - up2:
        raise UnbalancedError(f"{word.text} has unbalanced runs {rf.runs}")
    return Triple(down1, up2, up1 - down1)


def triple_leq(s: Triple, t: Triple) -> bool:
    """Transported pattern order on triples.

    (a, b; g) below (i, j; k) iff (a, b, g) <= (i, j, min(i+k-a, j+k-b))
    coordinatewise; equivalent to containment of the decoded words.
    """
    return (
        s.i <= t.i
        and s.j <= t.j
        and s.k <= min(t.i + t.k - s.i, t.j + t.k - s.j)
    )


@dataclass(frozen=True)
class GridSquare:
    """Square of unit cells: topmost row, leftmost column (both 1-based,
    rows numbered top to bottom) and side length."""

    row: int
    col: int
    side: int

    def __post_init__(self) -> None:
        if self.row < 1 or self.col < 1 or self.side < 1:
            raise ArgumentOutOfRangeError(
                f"square needs row, col, side >= 1, got "
                f"({self.row}, {self.col}, {self.side})"
            )

    def fits_grid(self, grid_rows: int, grid_cols: int) -> bool:
        return (
            self.row + self.side - 1 <= grid_rows
            and self.col + self.side - 1 <= grid_cols
        )


def triple_to_square(t: Triple, grid_rows: int, grid_cols: int) -> GridSquare:
    """The square of side k+1 whose topmost-leftmost cell sits at (i, j)."""
    if not t.fits_grid(grid_rows, grid_cols):
        raise OutOfGridError(
            f"triple ({t.i}, {t.j}; {t.k}) does not fit a "
            f"{grid_rows}x{grid_cols} grid"
        )
    return GridSquare(t.i, t.j, t.k + 1)


def square_to_triple(square: GridSquare) -> Triple:
    return Triple(square.row, square.col, square.side - 1)


def square_leq(
    s: GridSquare, t: GridSquare, grid_rows: int, grid_cols: int
) -> bool:
    """Transported order on squares of one grid.

    s below t iff the topmost-leftmost cell of s lies in the rectangle
    spanned by (1,1)-(row_t, col_t) and its opposite cell lies in the
    rectangle spanned by (1,1)-(row_t+side_t-1, col_t+side_t-1).
    """
    for square in (s, t):
        if not square.fits_grid(grid_rows, grid_cols):
            raise OutOfGridError(
                f"square ({square.row}, {square.col}, side {square.side}) does "
                f"not fit a {grid_rows}x{grid_cols} grid"
            )
    return (
        s.row <= t.row
        and s.col <= t.col
        and s.row + s.side <= t.row + t.side
        and s.col + s.side <= t.col + t.side
    )


def triples_in_grid(grid_rows: int, grid_cols: int) -> tuple[Triple, ...]:
    """All triples fitting the grid, ordered by (k, i, j)."""
    if grid_rows < 1 or grid_cols < 1:
        raise ArgumentOutOfRangeError("grid dimensions must be positive")
    out = []
    for k in range(min(grid_rows, grid_cols)):
        for i in range(1, grid_rows - k + 1):
            for j in range(1, grid_cols - k + 1):
                out.append(Triple(i, j, k))
    return tuple(out)


def squares_in_grid(grid_rows: int, grid_cols: int) -> tuple[GridSquare, ...]:
    """All squares of unit cells inside the grid, ordered by (side, row, col)."""
    if grid_rows < 1 or grid_cols < 1:
        raise ArgumentOutOfRangeError("grid dimensions must be positive")
    out = []
    for side in range(1, min(grid_rows, grid_cols) + 1):
        for row in range(1, grid_rows - side + 2):
            for col in range(1, grid_cols - side + 2):
                out.append(GridSquare(row, col, side))
    return tuple(out)
