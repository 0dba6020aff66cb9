"""The three benchmark workloads: their rounds of ops, output checks and metrics.

Every workload is a closed loop with one caller: the next op starts only when
the previous one has returned, as a researcher waits for each answer.  A
round is the unit the loop stops on; each op in it is timed on its own, and
its output is checked after its clock has stopped.  `cheap_kind` names the
workload's cheapest kind of op, whose own median the round time would dilute.

interval-big  A round is one query on a fresh model, as two ops: first
              build_interval(UD, top), the full mobius_table and rank counts,
              then JSON and DOT rendering of that model.  The tops are
              staircase(12), elevated_staircase(12), then seeded
              semilength-12 tops, all distinct.
scan-lab      A round is scan_rank2_max(5), scan_rank3_max(4) and
              scan_alternating(6), the library's ceilings, in seeded order.
cli-verify    A round is five `python -m dyckposet` runs, one at a time, each
              in a fresh interpreter: contains, stats and formula (cold
              start), the staircase(10) interval as JSON, and `verify all`.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from dyckposet import formulas, poset, scans, words

import inputs
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    """One call into the program, with the check of its output."""

    kind: str
    run: Callable[[spans.Tracer | None, str], object]
    check: Callable[[object], list[str]]  # problems found; empty when correct
    items: Callable[[object], int]  # checked results the op produced


def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def child_env() -> dict[str, str]:
    """The environment of every child: the checkout's src first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# --------------------------------------------------------------------------
# interval-big

BOTTOM = words.staircase(1)
# Element count, Hasse-edge count and mu(UD, top) of the north-star tops.
NORTH_STAR = {
    words.staircase(12): (4021, 79404, -1967611099),
    words.elevated_staircase(12): (5383, 111671, -4357790783),
}


@dataclass
class Query:
    top: words.DyckWord
    model: poset.IntervalModel
    mu: int
    ranks: list[int]


@dataclass
class Rendered:
    query: Query
    json: str
    dot: str


def interval_query(top: words.DyckWord) -> Query:
    model = poset.build_interval(BOTTOM, top)
    mu = model.mobius_table()[top]
    return Query(top, model, mu, [model.s0_by_rank(r) for r in model.rank_span])


def render(q: Query) -> Rendered:
    rendered_json = json.dumps(
        poset.interval_to_json_dict(q.model), separators=spans.JSON_SEPARATORS
    )
    return Rendered(q, rendered_json, poset.interval_to_dot(q.model))


def check_query(q: Query) -> list[str]:
    model, text = q.model, q.top.text
    elements, edges = model.s0(), model.s1()
    problems = []
    expected = NORTH_STAR.get(q.top)
    if expected is not None and (elements, edges, q.mu) != expected:
        problems.append(f"{text}: (elements, edges, mu) {(elements, edges, q.mu)} != {expected}")
    if q.top == words.staircase(12):
        closed = [formulas.staircase_rank_count(12, k) for k in range(1, 13)]
        if q.ranks != closed:
            problems.append(f"{text}: rank counts {q.ranks} != staircase_rank_count {closed}")
    if expected is None:
        top_anchored = scans.mobius_to_top(model)[BOTTOM]
        if top_anchored != q.mu:
            problems.append(f"{text}: mobius_table gives {q.mu}, mobius_to_top {top_anchored}")
    if elements != inputs.dyck_subword_count(text) or sum(q.ranks) != elements:
        problems.append(f"{text}: {elements} elements, ranks {q.ranks}")
    return problems


def check_render(r: Rendered) -> list[str]:
    text, mu = r.query.top.text, r.query.mu
    problems = []
    if not r.json.endswith(f'"{text}": {mu}}}}}'):
        problems.append(f"{text}: JSON does not end with mu(UD, top)")
    if r.dot.count(" -> ") != r.query.model.s1():
        problems.append(f"{text}: DOT edge count differs from {r.query.model.s1()}")
    return problems


class IntervalBig:
    name = "interval-big"
    in_process = True
    cheap_kind = "render"

    def __init__(self, generated: dict) -> None:
        self.tops = list(NORTH_STAR) + [words.DyckWord(t) for t in generated["seeded_tops"]]

    def _round(self, top: words.DyckWord) -> list[Op]:
        """The query, then the rendering of the model it built, as two timed ops."""
        built: dict[str, Query] = {}

        def query(tracer, op_id):
            built["query"] = interval_query(top)
            return built["query"]

        return [
            Op("query", query, check_query, lambda q: q.model.s0()),
            Op("render", lambda tracer, op_id: render(built["query"]), check_render, lambda r: 0),
        ]

    def rounds(self) -> Iterable[list[Op]]:
        return (self._round(top) for top in self.tops)

    def traced_rounds(self) -> list[list[Op]]:
        return [self._round(top) for top in self.tops[:3]]

    def report(self, samples: list, rounds: list[float]) -> list[str]:
        elements = sum(s.items for s in samples)
        renders = [s.seconds for s in samples if s.kind == "render"]
        return [
            f"interval_query_s_p50 {p50(rounds):.4f} s (n={len(rounds)})",
            f"interval_elements_per_s {elements / sum(rounds):.1f} 1/s ({elements} elements)",
            f"render_s_p50 {p50(renders):.4f} s (n={len(renders)})",
        ]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --------------------------------------------------------------------------
# scan-lab

# scan name -> (function name, argument, expected summary entries)
SCANS = {
    "rank2max": ("scan_rank2_max", 5, {"pairs_checked": 7481, "observed_max": 25}),
    "rank3max": ("scan_rank3_max", 4, {"pairs_checked": 4972, "observed_max": 144}),
    "alternating": ("scan_alternating", 6, {"pairs_checked": 3919, "violations": 0}),
}


def check_scan(report) -> list[str]:
    expected = SCANS[report.scan][2]
    got = {key: report.summary.get(key) for key in expected}
    if report.verdict != "consistent" or got != expected:
        return [f"{report.scan}: verdict {report.verdict}, {got} != {expected}"]
    return []


class ScanLab:
    name = "scan-lab"
    in_process = True
    cheap_kind = "alternating"

    def __init__(self, generated: dict) -> None:
        self.orders = generated["orders"]

    def _op(self, scan: str) -> Op:
        function, argument, _ = SCANS[scan]
        return Op(
            scan,
            lambda tracer, op_id: getattr(scans, function)(argument),
            check_scan,
            lambda report: report.summary["pairs_checked"],
        )

    def rounds(self) -> Iterable[list[Op]]:
        return ([self._op(s) for s in order] for order in itertools.cycle(self.orders))

    def traced_rounds(self) -> list[list[Op]]:
        return [[self._op(s) for s in self.orders[0]]]

    def report(self, samples: list, rounds: list[float]) -> list[str]:
        pairs = sum(s.items for s in samples)
        return [
            f"scan_pairs_per_s {pairs / sum(rounds):.1f} 1/s ({pairs} pairs)",
        ] + [
            f"scan_{scan}_s_p50 {p50([s.seconds for s in samples if s.kind == scan]):.4f} s"
            for scan in SCANS
        ]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --------------------------------------------------------------------------
# cli-verify

VERIFY_CHECKS = 29


@dataclass
class CliRun:
    argv: list[str]
    returncode: int
    stdout: bytes
    stderr: bytes


def run_cli(argv: list[str], tracer: spans.Tracer | None, op_id: str) -> CliRun:
    """One CLI command in a fresh interpreter; traced through cli_child.py if asked."""
    if tracer is None:
        command = [sys.executable, "-m", "dyckposet", *argv]
    else:
        trace_file = ROOT / ".bench_out" / f"{op_id}.json"
        trace_file.parent.mkdir(exist_ok=True)
        parent = tracer.stack[-1].record_id if tracer.stack else ""
        command = [
            sys.executable, str(BENCH_DIR / "cli_child.py"),
            str(trace_file), op_id, parent or "", *argv,
        ]
    proc = subprocess.run(
        command, cwd=ROOT, env=child_env(), capture_output=True, timeout=CLI_TIMEOUT_S
    )
    if tracer is not None:
        child = json.loads(trace_file.read_text())
        trace_file.unlink()
        tracer.merge(child)
        # The child's cli.main ran inside this op's span: not the op's self time.
        tracer.stack[-1].child += child["totals"].get("cli.main", [0, 0.0])[1]
    return CliRun(argv, proc.returncode, proc.stdout, proc.stderr)


def expected_query_stdout() -> tuple[bytes, list[str]]:
    """The `interval UD (UD)^10 --json` stdout, rendered in-process, and its checks.

    The rendering uses the library; the checks compare it with the closed
    rank counts and the benchmark's own element count.
    """
    top = words.staircase(10)
    model = poset.build_interval(BOTTOM, top)
    payload = {"schema": "dyckposet/interval/1", **poset.interval_to_json_dict(model)}
    ranks = [row["count"] for row in payload["ranks"]]
    problems = []
    if ranks != [formulas.staircase_rank_count(10, k) for k in range(1, 11)]:
        problems.append(f"(UD)^10 rank counts {ranks}")
    if sum(ranks) != inputs.dyck_subword_count(top.text):
        problems.append("(UD)^10 element count")
    if payload["mobius"][top.text] != scans.mobius_to_top(model)[BOTTOM]:
        problems.append("(UD)^10 mu(UD, top) differs between the two anchors")
    rendered = json.dumps(payload, separators=spans.JSON_SEPARATORS) + "\n"
    return rendered.encode(), problems


class CliVerify:
    name = "cli-verify"
    in_process = False
    cheap_kind = "cold"

    def __init__(self, generated: dict) -> None:
        self.generated_rounds = generated["rounds"]
        self._query_stdout: tuple[bytes, list[str]] | None = None
        self._verify_stdout: bytes | None = None

    def _check(self, run: CliRun, kind: str, expected: bytes | None) -> list[str]:
        label = " ".join(run.argv)
        if run.returncode != 0:
            return [f"{label}: exit {run.returncode}: {run.stderr.decode(errors='replace')}"]
        if kind == "query":
            if self._query_stdout is None:
                self._query_stdout = expected_query_stdout()
            expected, problems = self._query_stdout
            if problems:
                return problems
        if kind == "verify":
            lines = run.stdout.decode().splitlines()
            summary = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"
            if lines[-1:] != [summary] or len(lines) != VERIFY_CHECKS + 1 or not all(
                line.startswith("ok   ") for line in lines[:-1]
            ):
                return [f"{label}: expected {VERIFY_CHECKS} ok lines and '{summary}'"]
            if self._verify_stdout is None:
                self._verify_stdout = run.stdout
            expected = self._verify_stdout
        if run.stdout != expected:
            return [f"{label}: stdout differs from the expected {len(expected)} bytes"]
        return []

    def _op(self, kind: str, argv: list[str], expected: bytes | None) -> Op:
        return Op(
            kind,
            lambda tracer, op_id: run_cli(argv, tracer, op_id),
            lambda run: self._check(run, kind, expected),
            lambda run: 1,
        )

    def rounds(self) -> Iterable[list[Op]]:
        return (
            [self._op(*command) for command in round_]
            for round_ in itertools.cycle(self.generated_rounds)
        )

    def traced_rounds(self) -> list[list[Op]]:
        return [[self._op(*command) for command in self.generated_rounds[0]]]

    def report(self, samples: list, rounds: list[float]) -> list[str]:
        by_kind = {k: [s.seconds for s in samples if s.kind == k] for k in ("cold", "query", "verify")}
        return [
            f"cli_cold_ms_p50 {p50(by_kind['cold']) * 1000:.2f} ms (n={len(by_kind['cold'])})",
            f"cli_query_s_p50 {p50(by_kind['query']):.4f} s (n={len(by_kind['query'])})",
            f"verify_all_s {p50(by_kind['verify']):.4f} s (p50, n={len(by_kind['verify'])})",
            f"cli_runs_per_s {sum(s.items for s in samples) / sum(rounds):.3f} 1/s",
        ]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (IntervalBig, ScanLab, CliVerify)}
