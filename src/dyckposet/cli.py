"""Command-line surface: queries, formulas, interval export, verification, scans.

Exit codes: 0 success, 1 domain or usage errors, 2 resource-limit errors.
All stdout is deterministic for a given argv; timing information goes to
stderr.
"""

from __future__ import annotations

import json
from typing import Sequence

import click

from .bijections import (
    dyck_to_motzkin,
    motzkin_to_dyck,
    parse_motzkin,
    path_to_triple,
    square_to_triple,
    triple_to_path,
    triple_to_square,
    Triple,
)
from .errors import ArgumentOutOfRangeError, DyckPatternError, LimitExceededError
from .formulas import (
    cover_count_formula,
    delta_class,
    delta_histogram_closed,
    embeddable_in_staircase,
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
from .poset import build_interval, interval_to_dot, interval_to_json_dict, mobius
from .scans import SCANS
from .verify import SUITES, run_suite
from .words import contains, factors, parse_word, runs, statistics


def _echo_json(payload: dict) -> None:
    click.echo(json.dumps(payload, separators=(", ", ": ")))


@click.group()
@click.option(
    "--limit",
    type=int,
    default=None,
    help="Override the interval and scan ceilings (use with care).",
)
@click.pass_context
def cli(ctx: click.Context, limit: int | None) -> None:
    """Exact combinatorics of intervals in the Dyck pattern poset."""
    ctx.obj = {"limit": limit}


@cli.command(name="contains")
@click.argument("pattern")
@click.argument("word")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def contains_command(pattern: str, word: str, as_json: bool) -> None:
    """Decide whether PATTERN occurs in WORD as a subsequence."""
    p = parse_word(pattern)
    w = parse_word(word)
    answer = contains(p, w)
    if as_json:
        _echo_json(
            {
                "schema": "dyckposet/contains/1",
                "pattern": p.text,
                "word": w.text,
                "contains": answer,
            }
        )
    else:
        click.echo("true" if answer else "false")


@cli.command(name="stats")
@click.argument("word")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def stats_command(word: str, as_json: bool) -> None:
    """Print semilength, peaks, ascents, height, runs and factors of WORD."""
    w = parse_word(word)
    st = statistics(w)
    rf = runs(w)
    fs = factors(w)
    if as_json:
        _echo_json(
            {
                "schema": "dyckposet/stats/1",
                "word": w.text,
                "semilength": st.semilength,
                "peaks": st.peaks,
                "ascents": st.ascents,
                "height": st.height,
                "runs": [list(pair) for pair in rf.runs],
                "factors": list(fs),
            }
        )
        return
    click.echo(f"word {w.text}")
    click.echo(f"semilength {st.semilength}")
    click.echo(f"peaks {st.peaks}")
    click.echo(f"ascents {st.ascents}")
    click.echo(f"height {st.height}")
    click.echo("runs " + "".join(f"({up},{down})" for up, down in rf.runs))
    click.echo("factors " + " ".join(str(f) for f in fs))


@cli.command(name="interval")
@click.argument("bottom")
@click.argument("top")
@click.option("--ranks", "view", flag_value="ranks", default=True, help="Rank counts.")
@click.option("--elements", "view", flag_value="elements", help="Elements per rank.")
@click.option("--edges", "view", flag_value="edges", help="Hasse edges.")
@click.option("--dot", "view", flag_value="dot", help="DOT rendering.")
@click.option("--json", "view", flag_value="json", help="Full JSON rendering.")
@click.pass_context
def interval_command(ctx: click.Context, bottom: str, top: str, view: str) -> None:
    """Materialize the interval [BOTTOM, TOP] and print the chosen view."""
    model = build_interval(parse_word(bottom), parse_word(top), ctx.obj["limit"])
    if view == "json":
        payload = interval_to_json_dict(model)
        _echo_json({"schema": "dyckposet/interval/1", **payload})
    elif view == "dot":
        click.echo(interval_to_dot(model), nl=False)
    elif view == "edges":
        # One string per lower element: its up-covers joined behind its text.
        ranks, covers_up = model.text_ranks, model.text_covers_up
        lines = "".join(
            lo + " " + f"\n{lo} ".join(covers_up[lo]) + "\n"
            for r in model.rank_span
            for lo in ranks[r]
            if covers_up[lo]
        )
        click.echo(lines, nl=False)
    elif view == "elements":
        for r in model.rank_span:
            row = " ".join(model.text_ranks[r])
            click.echo(f"rank {r}: {row}")
    else:
        for r in model.rank_span:
            click.echo(f"rank {r}: {model.s0_by_rank(r)}")
        click.echo(f"elements {model.s0()}")
        click.echo(f"edges {model.s1()}")


@cli.command(name="mobius")
@click.argument("bottom")
@click.argument("top")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@click.pass_context
def mobius_command(ctx: click.Context, bottom: str, top: str, as_json: bool) -> None:
    """Print mu(BOTTOM, TOP), computed by the defining recursion."""
    b = parse_word(bottom)
    t = parse_word(top)
    value = mobius(b, t, ctx.obj["limit"])
    if as_json:
        _echo_json(
            {
                "schema": "dyckposet/mobius/1",
                "bottom": b.text,
                "top": t.text,
                "value": value,
            }
        )
    else:
        click.echo(str(value))


def _formula_int(raw: str) -> object:
    try:
        return int(raw)
    except ValueError:
        raise ArgumentOutOfRangeError(f"expected an integer argument, got {raw!r}")


# name -> (callable, argument parsers)
_FORMULAS = {
    "narayana": (narayana, (_formula_int, _formula_int)),
    "staircase_rank": (staircase_rank_count, (_formula_int, _formula_int)),
    "staircase_size": (staircase_interval_size, (_formula_int,)),
    "embeddable_staircase": (
        lambda word, n: embeddable_in_staircase(runs(word), n),
        (parse_word, _formula_int),
    ),
    "phi0": (phi0, (_formula_int, _formula_int)),
    "phih": (phih, (_formula_int, _formula_int, _formula_int)),
    "twopeak_size": (two_peak_interval_size, (_formula_int, _formula_int, _formula_int)),
    "twopeak_rank": (
        two_peak_rank_count,
        (_formula_int, _formula_int, _formula_int, _formula_int),
    ),
    "twopeak_rank_h0": (
        two_peak_rank_count_h0,
        (_formula_int, _formula_int, _formula_int),
    ),
    "delta_class": (delta_class, (_formula_int, _formula_int, _formula_int)),
    "delta_histogram": (delta_histogram_closed, (_formula_int, _formula_int)),
    "s1_twopeak": (s1_two_peak_h0, (_formula_int, _formula_int)),
    "mobius_pyramid": (mobius_pyramid, (_formula_int,)),
    "mobius_twopeak": (mobius_two_peak, (_formula_int, _formula_int, _formula_int)),
    "mobius_staircase_rank2": (mobius_staircase_rank2, (_formula_int,)),
    "mobius_elevated_rank2": (mobius_elevated_staircase_rank2, (_formula_int,)),
    "cover_count": (cover_count_formula, (parse_word,)),
}


@cli.command(name="formula")
@click.argument("name")
@click.argument("args", nargs=-1)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def formula_command(name: str, args: tuple[str, ...], as_json: bool) -> None:
    """Evaluate the named closed formula on ARGS (exact integers).

    Run with an unknown NAME to list the available formulas.
    """
    if name not in _FORMULAS:
        known = ", ".join(sorted(_FORMULAS))
        raise ArgumentOutOfRangeError(f"unknown formula {name!r}; expected one of: {known}")
    func, parsers = _FORMULAS[name]
    if len(args) != len(parsers):
        raise ArgumentOutOfRangeError(
            f"formula {name} takes {len(parsers)} argument(s), got {len(args)}"
        )
    parsed = [parse(raw) for parse, raw in zip(parsers, args)]
    if name == "mobius_twopeak" and parsed[0] > parsed[1]:
        click.echo(
            f"note: normalizing (a, b) = ({parsed[0]}, {parsed[1]}) to "
            f"({parsed[1]}, {parsed[0]}); the reversal automorphism makes the "
            "two intervals isomorphic",
            err=True,
        )
    value = func(*parsed)
    if as_json:
        if isinstance(value, dict):
            rendered: object = {str(k): v for k, v in value.items()}
        elif isinstance(value, bool):
            rendered = value
        else:
            rendered = int(value)
        _echo_json(
            {
                "schema": "dyckposet/formula/1",
                "formula": name,
                "args": list(args),
                "value": rendered,
            }
        )
        return
    if isinstance(value, dict):
        click.echo(" ".join(f"{k}:{v}" for k, v in sorted(value.items())))
    elif isinstance(value, bool):
        click.echo("true" if value else "false")
    else:
        click.echo(str(value))


@cli.command(
    name="verify",
    help="Run a verification suite (or `all`) and fail on any oracle mismatch.\n\n"
    f"Suites: {', '.join([*SUITES, 'all'])}.",
)
@click.argument("suite")
def verify_command(suite: str) -> None:
    checks = run_suite(suite)
    failures = 0
    for check in checks:
        if check.ok:
            click.echo(f"ok   {check.name}")
        else:
            failures += 1
            click.echo(f"FAIL {check.name}: {check.detail}")
    click.echo(f"{len(checks) - failures}/{len(checks)} checks passed")
    if failures:
        raise SystemExit(1)


def _levels(conjecture_level: bool) -> str:
    return ", ".join(k for k, scan in SCANS.items() if scan[3] == conjecture_level)


@cli.command(
    name="conjecture",
    help=f"Run a Möbius/cover scan: {', '.join([*SCANS][:-1])} or {[*SCANS][-1]}."
    f"\n\nConjecture-level scans ({_levels(True)}) exit 0 even when they find a "
    "violation: a counterexample is a finding, reported in the witnesses. "
    f"Proposition-level scans ({_levels(False)}) exit 1 on violation.",
)
@click.argument("scan_id", metavar="ID")
@click.option("--max", "max_value", type=int, default=None, help="Scan bound.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@click.pass_context
def conjecture_command(
    ctx: click.Context, scan_id: str, max_value: int | None, as_json: bool
) -> None:
    if scan_id not in SCANS:
        known = ", ".join(sorted(SCANS))
        raise ArgumentOutOfRangeError(f"unknown scan {scan_id!r}; expected one of: {known}")
    scan, _, default_bound, conjecture_level = SCANS[scan_id]
    bound = default_bound if max_value is None else max_value
    report = scan(bound, limit=ctx.obj["limit"])
    if as_json:
        _echo_json(report.to_json_dict())
    else:
        click.echo(f"scan {report.scan}")
        click.echo("scope " + " ".join(f"{k}={v}" for k, v in report.scope.items()))
        click.echo(f"verdict {report.verdict}")
        for key, value in report.summary.items():
            click.echo(f"{key} {value}")
        for witness in report.witnesses:
            rendered = " ".join(f"{k}={v}" for k, v in witness.items())
            click.echo(f"witness {rendered}")
    click.echo(f"elapsed {report.elapsed_ms}ms", err=True)
    if not report.consistent and not conjecture_level:
        raise SystemExit(1)


@cli.group(name="bijection")
def bijection_group() -> None:
    """Apply the structural bijections."""


@bijection_group.command(name="motzkin")
@click.argument("word")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def bijection_motzkin_command(word: str, as_json: bool) -> None:
    """Convert WORD between Dyck and peak-less Motzkin form.

    Input containing an L step is expanded (L -> UD); plain U/D input is
    contracted (each peak -> L).
    """
    if "L" in word.upper():
        motzkin = parse_motzkin(word)
        dyck = motzkin_to_dyck(motzkin)
    else:
        dyck = parse_word(word)
        motzkin = dyck_to_motzkin(dyck)
    if as_json:
        _echo_json(
            {
                "schema": "dyckposet/bijection-motzkin/1",
                "dyck": dyck.text,
                "semilength": dyck.semilength,
                "motzkin": motzkin.text,
                "length": motzkin.length,
                "peakless": motzkin.is_peakless,
            }
        )
    else:
        click.echo(f"dyck {dyck.text}")
        click.echo(f"motzkin {motzkin.text}")
        click.echo(f"length {motzkin.length}")


@bijection_group.command(name="square")
@click.argument("i", type=int)
@click.argument("j", type=int)
@click.argument("k", type=int)
@click.option(
    "--grid",
    nargs=2,
    type=int,
    required=True,
    metavar="A B",
    help="Grid dimensions (rows, columns).",
)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def bijection_square_command(
    i: int, j: int, k: int, grid: tuple[int, int], as_json: bool
) -> None:
    """Decode the triple (I, J; K) as a two-peak word and a square in the grid."""
    triple = Triple(i, j, k)
    word = triple_to_path(triple)
    square = triple_to_square(triple, grid[0], grid[1])
    if square_to_triple(square) != triple or path_to_triple(word) != triple:
        raise click.ClickException(f"bijection roundtrip failed for triple ({i}, {j}; {k})")
    if as_json:
        _echo_json(
            {
                "schema": "dyckposet/bijection-square/1",
                "triple": [i, j, k],
                "word": word.text,
                "semilength": word.semilength,
                "grid": [grid[0], grid[1]],
                "square": {"row": square.row, "col": square.col, "side": square.side},
            }
        )
    else:
        click.echo(f"word {word.text}")
        click.echo(f"square row={square.row} col={square.col} side={square.side}")


@cli.group(name="export")
def export_group() -> None:
    """Write interval renderings to files."""


@export_group.command(name="dot")
@click.argument("bottom")
@click.argument("top")
@click.argument("path", type=click.Path(dir_okay=False, writable=True))
@click.pass_context
def export_dot_command(ctx: click.Context, bottom: str, top: str, path: str) -> None:
    """Write the Hasse diagram of [BOTTOM, TOP] to PATH in DOT form."""
    model = build_interval(parse_word(bottom), parse_word(top), ctx.obj["limit"])
    try:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(interval_to_dot(model))
    except OSError as exc:
        raise click.FileError(path, exc.strerror) from exc
    click.echo(f"wrote {path}", err=True)


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except LimitExceededError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except DyckPatternError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    return 0


def entry() -> None:
    raise SystemExit(main())
