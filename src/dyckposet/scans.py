"""Desk-scale scans over Möbius values and cover counts.

The three Möbius scans run on one windowed walk over step texts: for each top
word the poset engine's one downward rank walk steps through the deletion
kernel to the lowest rank the scan reads, with each rank in lexicographic
order, then the engine's one Möbius recursion is swept back down from the
top, which gives mu(x, top) for every x in that window.  DyckWords are made
only for the tops; witnesses are reported as texts.  A rank-k scan reads only
the k ranks below each top; the alternation scan walks down to UD, i.e. the
whole initial interval.  Reversal (the steps read backwards, U and D swapped)
is an automorphism of the pattern order that fixes UD, so mu(x, t) = mu(rev
x, rev t): each pair {t, rev t} is walked once and its second top is mirrored
from the first; the cross-check is the unquotiented oracle scans in
`tests/oracle.py`.  `SCANS` catalogues the four scans with their ceilings,
default bounds and levels.  Proposition-level facts (the rank-2 maximum, the
cover-count formula) are expected to hold and their violation is a
build-breaking bug; conjecture-level scans (sign alternation, the rank-3
maximum) report what they see, because a counterexample would be a finding to
surface, not an error to suppress.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ArgumentOutOfRangeError, check_limit
from .formulas import cover_count_formula
from .poset import (
    IntervalModel,
    _deletion_texts,
    _insertion_texts,
    _mobius_sweep,
    _walk_down,
)
from .words import DyckWord, elevated_staircase, generate_all, lex_text

#: Scan-specific ceilings, sized to finish in seconds on a laptop.  A scan's
#: `limit=` argument, when given, replaces its ceiling.
ALTERNATING_SCAN_CEILING = 6
RANK2_SCAN_CEILING = 7
RANK3_SCAN_CEILING = 6
COVER_SCAN_CEILING = 7


@dataclass(frozen=True, eq=False)
class ScanReport:
    """Outcome of one scan: exact scope, verdict, witnesses and timing.

    Everything except elapsed_ms is reproducible from the scope alone.
    Witnesses are the extremal or violating intervals, each rendered as a
    dict with bottom, top and mu entries.
    """

    scan: str
    scope: dict
    verdict: str
    summary: dict
    witnesses: tuple[dict, ...]
    elapsed_ms: int

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"

    def to_json_dict(self) -> dict:
        return {
            "schema": "dyckposet/scan-report/1",
            "scan": self.scan,
            "scope": dict(self.scope),
            "verdict": self.verdict,
            "summary": dict(self.summary),
            "witnesses": [dict(w) for w in self.witnesses],
            "elapsed_ms": self.elapsed_ms,
        }


def mobius_to_top(model: IntervalModel) -> dict[DyckWord, int]:
    """mu(x, top) for every interval element x, anchored at the top.

    A thin wrapper around the poset engine's one Möbius recursion, swept
    downward from the top through the model's text tables; it computes a
    whole column of Möbius values in one pass and wraps only its keys.
    """
    levels = (model.text_ranks[r] for r in reversed(model.rank_span))
    column = _mobius_sweep(levels, model.text_covers_up, model.top.text)
    return {DyckWord._wrap(w): value for w, value in column.items()}


def _top_windows(
    tops: Iterable[DyckWord], lowest: int
) -> Iterator[tuple[str, list[tuple[str, ...]], dict[str, int]]]:
    """For each top, the ranks from it down to semilength `lowest`, and mu(x, top).

    Yields (top, levels, column): levels[i] holds the step texts of the words
    i ranks below the top, lexicographic (U < D), and column maps each of
    them to mu(x, top).  Each window is the rank walk with bottom UD, so with
    lowest = 1 it is exactly the interval [UD, top], and for larger `lowest`
    it is the top part of that interval, which holds every element between
    a low-rank x and the top.  The tops share most of their descendants, so
    each word's deletion children are computed once per call.  The scans
    walk one top of each reversal pair here and mirror the other (see
    `_reversal_digests`); the unquotiented oracle scans are the cross-check.
    """
    children = functools.lru_cache(maxsize=None)(_deletion_texts)
    for top in tops:
        levels, covers_up = _walk_down("UD", top.text, lowest, children)
        yield top.text, levels, _mobius_sweep(levels, covers_up, top.text)


def _reversal(text: str) -> str:
    """The mirror image of a step text: read backwards, with U and D swapped."""
    return text[::-1].translate(str.maketrans("UD", "DU"))


def _reversal_digests(tops: Sequence, lowest: int, digest: Callable) -> Iterator:
    """(top, pairs, candidates) for each top, walking one top of each reversal pair.

    `digest` maps a window to its pair count and witness candidates (x, mu),
    ranks ascending, then lexicographic.  Within a semilength tops come in
    reverse str order, so t is walked unless rev t > t came first; then t is
    mirrored: it gets the digest of rev t under reversal, re-sorted, which is
    held only until then.  The cross-check is the unquotiented oracle scans.
    """
    windows = _top_windows((t for t in tops if _reversal(t.text) <= t.text), lowest)
    pending: dict[str, tuple[int, list[tuple[str, int]]]] = {}
    for top in tops:
        text, mirror = top.text, _reversal(top.text)
        if mirror > text:
            pairs, found = pending.pop(text)
            found = [(_reversal(x), value) for x, value in found]
            found.sort(key=lambda c: (len(c[0]), lex_text(c[0])))
        else:
            _, levels, column = next(windows)
            pairs, found = digest(levels, column)
            if mirror != text:
                pending[mirror] = pairs, found
        yield text, pairs, found


def _witness(bottom: str, top: str, value: int) -> dict:
    return {"bottom": bottom, "top": top, "mu": value}


def _check_bound(what: str, value: int, ceiling: int, limit: int | None) -> None:
    """Refuse a scan bound above `limit` (else `ceiling`), then one below 1."""
    check_limit(what, value, ceiling, limit)
    if value < 1:
        raise ArgumentOutOfRangeError(f"{what} must be >= 1, got {value}")


def _sign_violations(levels: list[tuple[str, ...]], column: dict[str, int]):
    """A window's pair count, and its x of wrong-signed mu(x, top), ranks ascending."""
    ranked = ((i, x) for i in range(len(levels) - 1, -1, -1) for x in levels[i])
    return len(column), [(x, column[x]) for i, x in ranked if (-1) ** i * column[x] < 0]


def scan_alternating(max_top_semilength: int, limit: int | None = None) -> ScanReport:
    """Check the sign of mu over every comparable pair with bounded top.

    Expected: mu >= 0 on even rank differences and mu <= 0 on odd ones.
    """
    _check_bound(
        "alternating scan top semilength",
        max_top_semilength,
        ALTERNATING_SCAN_CEILING,
        limit,
    )
    start = time.perf_counter()
    pairs = 0
    violations: list[dict] = []
    tops = [top for s in range(1, max_top_semilength + 1) for top in generate_all(s)]
    for top, count, found in _reversal_digests(tops, 1, _sign_violations):
        pairs += count
        violations.extend(_witness(x, top, value) for x, value in found)
    elapsed = int((time.perf_counter() - start) * 1000)
    return ScanReport(
        scan="alternating",
        scope={"max_top_semilength": max_top_semilength},
        verdict="violated" if violations else "consistent",
        summary={"pairs_checked": pairs, "violations": len(violations)},
        witnesses=tuple(violations),
        elapsed_ms=elapsed,
    )


def _bottoms_at_max(levels: list[tuple[str, ...]], column: dict, signed: bool):
    """A window's pair count over its lowest level, and the bottoms p there at
    its maximum of mu(p, top), or of |mu| if not `signed`."""
    sizes = [column[p] if signed else abs(column[p]) for p in levels[-1]]
    best = max(sizes)
    return len(sizes), [(p, column[p]) for p, z in zip(levels[-1], sizes) if z == best]


def _scan_rank_max(
    scan: str, k: int, n: int, expected: int, expected_key: str, signed: bool
) -> ScanReport:
    """Maximum of mu, or of |mu| if not `signed`, over rank-k intervals [p, top].

    p ranges over semilength n, tops over semilength n + k in generation
    order.  Every pair attaining the maximum is a witness: tops in generation
    order, then bottoms lexicographic.  The verdict is consistent iff the
    maximum is `expected` and the elevated-staircase pair attains it.
    """
    start = time.perf_counter()
    canonical = (elevated_staircase(n).text, elevated_staircase(n + k).text)
    best: int | None = None
    attaining: list[dict] = []
    pairs = 0
    digest = functools.partial(_bottoms_at_max, signed=signed)
    for top, count, found in _reversal_digests(generate_all(n + k), n, digest):
        pairs += count
        size = found[0][1] if signed else abs(found[0][1])
        if best is None or size > best:
            best, attaining = size, []
        if size == best:
            attaining.extend(_witness(p, top, value) for p, value in found)
    elapsed = int((time.perf_counter() - start) * 1000)
    canonical_attains = any((w["bottom"], w["top"]) == canonical for w in attaining)
    return ScanReport(
        scan=scan,
        scope={"n": n},
        verdict="consistent" if best == expected and canonical_attains else "violated",
        summary={
            "pairs_checked": pairs,
            expected_key: expected,
            "observed_max": best if best is not None else 0,
            "attaining": len(attaining),
        },
        witnesses=tuple(attaining),
        elapsed_ms=elapsed,
    )


def scan_rank2_max(n: int, limit: int | None = None) -> ScanReport:
    """Maximum of mu over rank-2 intervals with bottom semilength n.

    Expected maximum n^2, attained by the elevated-staircase pair; all
    attaining intervals are recorded as witnesses (the proof does not say the
    attaining interval is unique, and the scan makes no such claim).
    """
    _check_bound("rank2max scan bottom semilength", n, RANK2_SCAN_CEILING, limit)
    return _scan_rank_max("rank2max", 2, n, n * n, "expected_max", signed=True)


def scan_rank3_max(n: int, limit: int | None = None) -> ScanReport:
    """Maximum of |mu| over rank-3 intervals with bottom semilength n.

    Conjectured maximum (2n+1) * n^2, attained by the elevated-staircase
    pair; the verdict reflects the scanned range only.
    """
    _check_bound("rank3max scan bottom semilength", n, RANK3_SCAN_CEILING, limit)
    expected = (2 * n + 1) * n * n
    return _scan_rank_max("rank3max", 3, n, expected, "conjectured_max", signed=False)


def sweep_cover_count(max_semilength: int, limit: int | None = None) -> ScanReport:
    """Check |covers_of(Q)| against the factor formula for every word.

    The covers are counted on the step text by the insertion kernel, with
    no DyckWord made per cover.  Also confirms, rank by rank, that the
    maximum n^2 + 1 is attained exactly by the one-factor words.
    """
    _check_bound("covercount scan semilength", max_semilength, COVER_SCAN_CEILING, limit)
    start = time.perf_counter()
    words_checked = 0
    violations: list[dict] = []
    for s in range(1, max_semilength + 1):
        max_count = s * s + 1
        attaining: list[str] = []
        for q in generate_all(s):
            brute = len(_insertion_texts(q.text))
            expected = cover_count_formula(q)
            words_checked += 1
            if brute != expected:
                violations.append(
                    {"word": q.text, "covers": brute, "formula": expected}
                )
            if brute == max_count:
                attaining.append(q.text)
        # The one-factor words are U w D (first return at the end), in
        # generation order because w is.
        one_factor = ["U" + w.text + "D" for w in generate_all(s - 1)]
        if attaining != one_factor:
            violations.append(
                {"semilength": s, "attaining_max": attaining, "one_factor": one_factor}
            )
    elapsed = int((time.perf_counter() - start) * 1000)
    return ScanReport(
        scan="covercount",
        scope={"max_semilength": max_semilength},
        verdict="violated" if violations else "consistent",
        summary={"words_checked": words_checked, "violations": len(violations)},
        witnesses=tuple(violations),
        elapsed_ms=elapsed,
    )


#: The scan catalogue: CLI id -> (scan, ceiling, default bound,
#: conjecture_level).  The default bound is what `dyckposet conjecture ID`
#: runs with when no --max is given; the rank-2/rank-3 defaults sit below
#: their ceilings so that the default run is quick.  A conjecture-level scan
#: exits 0 on a violation, which is a finding; a proposition-level scan exits
#: 1.  Plain tuples, unpacked by position, so that call tracing can rebuild an
#: entry around a wrapped scan.
SCANS = {
    "alternating": (scan_alternating, ALTERNATING_SCAN_CEILING, 6, True),
    "rank2max": (scan_rank2_max, RANK2_SCAN_CEILING, 4, False),
    "rank3max": (scan_rank3_max, RANK3_SCAN_CEILING, 3, True),
    "covercount": (sweep_cover_count, COVER_SCAN_CEILING, 7, False),
}
