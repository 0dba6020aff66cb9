"""Desk-scale scans over Möbius values and cover counts.

Each scan enumerates top words first, then walks bottoms inside the top's
initial interval, and returns a ScanReport.  Proposition-level facts (the
rank-2 maximum, the cover-count formula) are expected to hold and their
violation is a build-breaking bug; conjecture-level scans (sign alternation,
the rank-3 maximum) report what they see, because a counterexample would be a
finding to surface, not an error to suppress.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import LimitExceededError
from .formulas import cover_count_formula
from .poset import IntervalModel, _mobius_sweep, build_interval, covers_of
from .words import DyckWord, elevated_staircase, factors, generate_all, staircase

#: Scan-specific ceilings, sized to finish in minutes on a laptop.
ALTERNATING_SCAN_CEILING = 6
RANK2_SCAN_CEILING = 5
RANK3_SCAN_CEILING = 4
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


def _check_scan_limit(value: int, ceiling: int, limit: int | None, what: str) -> None:
    active = ceiling if limit is None else limit
    if value > active:
        raise LimitExceededError(
            f"{what} {value} exceeds the scan ceiling {active}; "
            "pass an explicit limit to override"
        )


def mobius_to_top(model: IntervalModel) -> dict[DyckWord, int]:
    """mu(x, top) for every interval element x, anchored at the top.

    A thin wrapper around the poset engine's one Möbius recursion, swept
    downward from the top through the up-covers; it computes a whole column
    of Möbius values in one pass.
    """
    return _mobius_sweep(model, "top")


def _witness(bottom: DyckWord, top: DyckWord, value: int) -> dict:
    return {"bottom": bottom.text, "top": top.text, "mu": value}


def scan_alternating(max_top_semilength: int, limit: int | None = None) -> ScanReport:
    """Check the sign of mu over every comparable pair with bounded top.

    Expected: mu >= 0 on even rank differences and mu <= 0 on odd ones.
    """
    _check_scan_limit(
        max_top_semilength, ALTERNATING_SCAN_CEILING, limit, "top semilength"
    )
    start = time.perf_counter()
    bottom_anchor = staircase(1)
    pairs = 0
    violations: list[dict] = []
    for s in range(1, max_top_semilength + 1):
        for top in generate_all(s):
            model = build_interval(bottom_anchor, top)
            column = mobius_to_top(model)
            for x in model.elements():
                value = column[x]
                pairs += 1
                even_rank = (s - x.semilength) % 2 == 0
                if value < 0 if even_rank else value > 0:
                    violations.append(_witness(x, top, value))
    elapsed = int((time.perf_counter() - start) * 1000)
    return ScanReport(
        scan="alternating",
        scope={"max_top_semilength": max_top_semilength},
        verdict="violated" if violations else "consistent",
        summary={"pairs_checked": pairs, "violations": len(violations)},
        witnesses=tuple(violations),
        elapsed_ms=elapsed,
    )


def scan_rank2_max(n: int, limit: int | None = None) -> ScanReport:
    """Maximum of mu over rank-2 intervals with bottom semilength n.

    Expected maximum n^2, attained by the elevated-staircase pair; all
    attaining intervals are recorded as witnesses (the proof does not say the
    attaining interval is unique, and the scan makes no such claim).
    """
    _check_scan_limit(n, RANK2_SCAN_CEILING, limit, "bottom semilength n =")
    start = time.perf_counter()
    expected = n * n
    canonical = _witness(elevated_staircase(n), elevated_staircase(n + 2), expected)
    bottom_anchor = staircase(1)
    best: int | None = None
    attaining: list[dict] = []
    pairs = 0
    for top in generate_all(n + 2):
        model = build_interval(bottom_anchor, top)
        bottoms = model.elements_by_rank.get(n, ())
        if not bottoms:
            continue
        column = mobius_to_top(model)
        for p in bottoms:
            value = column[p]
            pairs += 1
            if best is None or value > best:
                best = value
                attaining = [_witness(p, top, value)]
            elif value == best:
                attaining.append(_witness(p, top, value))
    elapsed = int((time.perf_counter() - start) * 1000)
    consistent = best == expected and canonical in attaining
    return ScanReport(
        scan="rank2max",
        scope={"n": n},
        verdict="consistent" if consistent else "violated",
        summary={
            "pairs_checked": pairs,
            "expected_max": expected,
            "observed_max": best if best is not None else 0,
            "attaining": len(attaining),
        },
        witnesses=tuple(attaining),
        elapsed_ms=elapsed,
    )


def scan_rank3_max(n: int, limit: int | None = None) -> ScanReport:
    """Maximum of |mu| over rank-3 intervals with bottom semilength n.

    Conjectured maximum (2n+1) * n^2, attained by the elevated-staircase
    pair; the verdict reflects the scanned range only.
    """
    _check_scan_limit(n, RANK3_SCAN_CEILING, limit, "bottom semilength n =")
    start = time.perf_counter()
    expected = (2 * n + 1) * n * n
    canonical_bottom = elevated_staircase(n)
    canonical_top = elevated_staircase(n + 3)
    bottom_anchor = staircase(1)
    best: int | None = None
    attaining: list[dict] = []
    pairs = 0
    for top in generate_all(n + 3):
        model = build_interval(bottom_anchor, top)
        bottoms = model.elements_by_rank.get(n, ())
        if not bottoms:
            continue
        column = mobius_to_top(model)
        for p in bottoms:
            value = column[p]
            pairs += 1
            if best is None or abs(value) > best:
                best = abs(value)
                attaining = [_witness(p, top, value)]
            elif abs(value) == best:
                attaining.append(_witness(p, top, value))
    elapsed = int((time.perf_counter() - start) * 1000)
    canonical_attains = any(
        w["bottom"] == canonical_bottom.text and w["top"] == canonical_top.text
        for w in attaining
    )
    consistent = best == expected and canonical_attains
    return ScanReport(
        scan="rank3max",
        scope={"n": n},
        verdict="consistent" if consistent else "violated",
        summary={
            "pairs_checked": pairs,
            "conjectured_max": expected,
            "observed_max": best if best is not None else 0,
            "attaining": len(attaining),
        },
        witnesses=tuple(attaining),
        elapsed_ms=elapsed,
    )


def sweep_cover_count(max_semilength: int, limit: int | None = None) -> ScanReport:
    """Check |covers_of(Q)| against the factor formula for every word.

    Also confirms, rank by rank, that the maximum n^2 + 1 is attained exactly
    by the one-factor words.
    """
    _check_scan_limit(max_semilength, COVER_SCAN_CEILING, limit, "max semilength")
    start = time.perf_counter()
    words_checked = 0
    violations: list[dict] = []
    for s in range(1, max_semilength + 1):
        max_count = s * s + 1
        attaining: list[DyckWord] = []
        for q in generate_all(s):
            brute = len(covers_of(q))
            expected = cover_count_formula(q)
            words_checked += 1
            if brute != expected:
                violations.append(
                    {"word": q.text, "covers": brute, "formula": expected}
                )
            if brute == max_count:
                attaining.append(q)
        one_factor = [q for q in generate_all(s) if len(factors(q)) == 1]
        if attaining != one_factor:
            violations.append(
                {
                    "semilength": s,
                    "attaining_max": [q.text for q in attaining],
                    "one_factor": [q.text for q in one_factor],
                }
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
