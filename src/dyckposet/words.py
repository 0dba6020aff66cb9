"""Dyck words: parsing, statistics, pattern containment, generation, named shapes.

A Dyck word is a balanced string over the step alphabet {U, D} in which every
prefix has at least as many U steps as D steps.  Words are kept in canonical
uppercase text form; every value in this module is immutable and every
operation is a pure function, so everything is safe to share across workers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import (
    ArgumentOutOfRangeError,
    InvalidCharacterError,
    InvalidShapeParametersError,
    PrefixViolationError,
    UnbalancedError,
    check_limit,
)

#: Largest semilength that generate_all accepts (Catalan(14) is about 2.7M
#: words), and the default ceiling of build_interval.
DEFAULT_GENERATION_CEILING = 14

_STEP_ALIASES = {
    "U": "U",
    "u": "U",
    "(": "U",
    "D": "D",
    "d": "D",
    ")": "D",
}

# 'D' < 'U' in ASCII, so raw string comparison would order D first.  Translating
# U -> '0', D -> '1' makes ordinary string comparison lexicographic with U < D.
_LEX_TRANSLATION = str.maketrans("UD", "01")


def lex_text(text: str) -> str:
    """Translate a step string into a form whose natural order is U < D."""
    return text.translate(_LEX_TRANSLATION)


def _lex_sorted(texts: Iterable[str]) -> list[str]:
    """Step strings sorted lexicographically with U < D; all must have one length.

    Since 'D' < 'U' in ASCII, for equal lengths this order is exactly reverse
    string order, so the sort runs in C with no key function.  Strings of
    different lengths would come out wrong: a proper prefix sorts after its
    extensions here but before them under lex_text.
    """
    return sorted(texts, reverse=True)


def _check_steps(text: str) -> None:
    ups = text.count("U")
    downs = text.count("D")
    if ups + downs != len(text):
        pos, step = next((p, s) for p, s in enumerate(text) if s not in "UD")
        raise InvalidCharacterError(f"invalid step {step!r} at position {pos}")
    if ups != downs:
        raise UnbalancedError(f"unbalanced word: {ups} U steps vs {downs} D steps")
    height = 0
    for pos, step in enumerate(text):
        height += 1 if step == "U" else -1
        if height < 0:
            raise PrefixViolationError(
                f"prefix ending at position {pos} has more D than U"
            )


class _StepWord:
    """Immutable word kept as its canonical step text.

    Two words are equal iff they have the same class and the same text.
    Subclasses supply `_validate`, which raises on a malformed text.
    """

    __slots__ = ("_text",)

    def __init__(self, text: str) -> None:
        self._validate(text)
        self._text = text

    @classmethod
    def _wrap(cls, text: str):
        # Fast path for step strings that are valid by construction.
        word = object.__new__(cls)
        word._text = text
        return word

    @property
    def text(self) -> str:
        return self._text

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._text == other._text

    def __hash__(self) -> int:
        return hash(self._text)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._text!r})"

    def __str__(self) -> str:
        return self._text


def _parse_steps(text: str, aliases: dict[str, str], error: type[Exception]) -> str:
    """Canonical step text of user input, each symbol mapped through `aliases`.

    Raises `error` on empty input or on a symbol the table does not know;
    the parsers of both step alphabets share this loop.
    """
    if not text:
        alphabet = "/".join(dict.fromkeys(aliases.values()))
        raise error(f"empty input: expected a nonempty {alphabet} step string")
    steps = []
    for pos, raw in enumerate(text):
        step = aliases.get(raw)
        if step is None:
            raise error(f"invalid step {raw!r} at position {pos}")
        steps.append(step)
    return "".join(steps)


class DyckWord(_StepWord):
    """Immutable canonical Dyck word; equality and hashing are by step text.

    The empty word is representable (generators need it) but is not a poset
    element: the pattern poset's minimum is UD, and the poset operations
    reject semilength-zero input.
    """

    __slots__ = ()
    _validate = staticmethod(_check_steps)

    @property
    def semilength(self) -> int:
        return len(self._text) // 2

    def to_json_dict(self) -> dict:
        return {"word": self._text, "semilength": self.semilength}


def parse_word(text: str) -> DyckWord:
    """Parse user input into a DyckWord.

    Input is case-insensitive and the parenthesis aliases "(" / ")" are
    accepted for U / D; output is always canonical uppercase UD.  The empty
    string is rejected because parsed words are meant for the poset, whose
    minimum is UD.
    """
    return DyckWord(_parse_steps(text, _STEP_ALIASES, InvalidCharacterError))


def lex_key(word: DyckWord) -> tuple[int, str]:
    """Sort key ordering words by semilength, then lexicographically (U < D)."""
    return (len(word.text), lex_text(word.text))


def contains(pattern: DyckWord, word: DyckWord) -> bool:
    """True iff `pattern` occurs in `word` as a (scattered) subsequence.

    Greedy leftmost matching: scan `word` once and consume the next unmatched
    step of `pattern` whenever it appears.  For subsequence containment the
    greedy scan succeeds exactly when some occurrence exists.
    """
    return _contains_text(pattern.text, word.text)


def _contains_text(p: str, q: str) -> bool:
    """contains() on step strings."""
    if len(p) > len(q):
        return False
    if not p:
        return True
    i = 0
    last = len(p) - 1
    for step in q:
        if step == p[i]:
            if i == last:
                return True
            i += 1
    return False


@dataclass(frozen=True)
class RunForm:
    """Alternating run decomposition U^a1 D^b1 ... U^am D^bm of a step string."""

    runs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for up, down in self.runs:
            if up < 1 or down < 1:
                raise ArgumentOutOfRangeError("run lengths must be positive")

    @property
    def m(self) -> int:
        """Number of (ascent, descent) pairs; the peak count for Dyck words."""
        return len(self.runs)

    @property
    def alpha(self) -> int:
        """Total number of U steps."""
        return sum(up for up, _ in self.runs)

    @property
    def beta(self) -> int:
        """Total number of D steps."""
        return sum(down for _, down in self.runs)

    def to_text(self) -> str:
        return "".join("U" * up + "D" * down for up, down in self.runs)

    def to_word(self) -> DyckWord:
        """Reconstruct the word; raises if the runs do not form a Dyck word."""
        return DyckWord(self.to_text())


def runs(word: DyckWord) -> RunForm:
    """Decompose a word into maximal alternating U-runs and D-runs."""
    text = word.text
    pairs = []
    i = 0
    n = len(text)
    while i < n:
        j = i
        while j < n and text[j] == "U":
            j += 1
        k = j
        while k < n and text[k] == "D":
            k += 1
        pairs.append((j - i, k - j))
        i = k
    return RunForm(tuple(pairs))


class WordStats(NamedTuple):
    semilength: int
    peaks: int
    ascents: int
    height: int


def statistics(word: DyckWord) -> WordStats:
    """Semilength, peak count, ascent count and height (max prefix U-surplus).

    A Dyck word cannot end in U, so every maximal U-run ends at a peak, and
    the ascent count is the peak count.
    """
    text = word.text
    height = 0
    best = 0
    for step in text:
        height += 1 if step == "U" else -1
        best = max(best, height)
    peaks = text.count("UD")
    return WordStats(len(text) // 2, peaks, peaks, best)


def factors(word: DyckWord) -> tuple[int, ...]:
    """Semilengths of the maximal blocks between consecutive returns to the axis."""
    out = []
    height = 0
    start = 0
    for pos, step in enumerate(word.text):
        height += 1 if step == "U" else -1
        if height == 0:
            out.append((pos + 1 - start) // 2)
            start = pos + 1
    return tuple(out)


def catalan(n: int) -> int:
    if n < 0:
        raise ArgumentOutOfRangeError("catalan index must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


# Largest semilength whose generated words and their texts stay cached for
# the life of the process.  Scans and the verify suites reuse the small ranks
# over and over; Catalan(10) = 16 796, while caching semilength 14 would pin
# 2.7M words.
_CACHED_SEMILENGTH = 10


@functools.lru_cache(maxsize=None)
def _cached_texts(semilength: int) -> tuple[str, ...]:
    if semilength == 0:
        return ("",)
    lower = [_cached_texts(k) for k in range(semilength)]
    return tuple(_level_texts(semilength, lower))


@functools.lru_cache(maxsize=None)
def _cached_words(semilength: int) -> tuple[DyckWord, ...]:
    return tuple(map(DyckWord._wrap, _cached_texts(semilength)))


def _level_texts(semilength: int, lower: list[tuple[str, ...]]) -> list[str]:
    """All Dyck texts of one semilength, lexicographic (U < D), from the lower ones.

    `lower[k]` holds the texts of semilength k, for every k < semilength.
    Each word is U a D b for exactly one pair (a, b): the U returns to the
    axis first at the D, so a and b are Dyck words whose semilengths add up
    to semilength - 1.  Concatenation and the one sort run in C.
    """
    texts: list[str] = []
    for k in range(semilength):
        tails = lower[semilength - 1 - k]
        for a in lower[k]:
            texts += map(("U" + a + "D").__add__, tails)
    return _lex_sorted(texts)


def generate_all(semilength: int) -> tuple[DyckWord, ...]:
    """All Dyck words of the given semilength, in lexicographic order (U < D).

    The result has exactly Catalan(semilength) entries.  Each semilength is
    built from the step texts of all lower ones by the first-return
    decomposition U a D b, then sorted once.  Semilengths above
    DEFAULT_GENERATION_CEILING raise LimitExceededError; that ceiling is
    fixed.  Semilengths up to 10 are cached; for a larger one, the levels
    above 10 are built afresh, once each, on every call and not kept.
    """
    if semilength < 0:
        raise ArgumentOutOfRangeError("semilength must be nonnegative")
    check_limit("generation semilength", semilength, DEFAULT_GENERATION_CEILING)
    if semilength <= _CACHED_SEMILENGTH:
        return _cached_words(semilength)
    levels = [_cached_texts(k) for k in range(_CACHED_SEMILENGTH + 1)]
    for n in range(_CACHED_SEMILENGTH + 1, semilength):
        levels.append(tuple(_level_texts(n, levels)))
    texts = _level_texts(semilength, levels)
    del levels  # the uncached lower levels are not needed while wrapping
    return tuple(map(DyckWord._wrap, texts))


def staircase(n: int) -> DyckWord:
    """(UD)^n, the n-peak sawtooth.  The poset minimum is staircase(1) = UD."""
    if n < 1:
        raise InvalidShapeParametersError("staircase needs n >= 1")
    return DyckWord._wrap("UD" * n)


def pyramid(n: int) -> DyckWord:
    """U^n D^n, the single-peak word."""
    if n < 1:
        raise InvalidShapeParametersError("pyramid needs n >= 1")
    return DyckWord._wrap("U" * n + "D" * n)


def two_peak(a: int, b: int, h: int = 0) -> DyckWord:
    """U^(a+h) D^a U^b D^(b+h), the generic two-peak word with elevation h."""
    if a < 1 or b < 1 or h < 0:
        raise InvalidShapeParametersError("two_peak needs a >= 1, b >= 1 and h >= 0")
    return DyckWord._wrap("U" * (a + h) + "D" * a + "U" * b + "D" * (b + h))


def elevated_staircase(n: int) -> DyckWord:
    """U (UD)^(n-1) D, the staircase raised one level; semilength n."""
    if n < 1:
        raise InvalidShapeParametersError("elevated_staircase needs n >= 1")
    return DyckWord._wrap("U" + "UD" * (n - 1) + "D")
