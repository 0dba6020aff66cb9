"""Command-line behavior: payloads, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyckposet
import oracle
from test_poset import CLI_SEPARATORS, RENDERED_INTERVALS
from test_scans import SCAN_BOUND

from dyckposet import parse_word
from dyckposet.cli import main
from dyckposet.scans import SCANS
from dyckposet.verify import SUITES

# `verify all` stdout, byte for byte: every check of every suite passing.
VERIFY_ALL_GOLDEN = (Path(__file__).parent / "golden" / "verify_all.stdout").read_bytes()


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_contains_command():
    code, out, _ = run("contains", "UUDD", "UDUDUD")
    assert (code, out) == (0, "true\n")
    code, out, _ = run("contains", "UUDDUD", "UUDUUUDDDD")
    assert (code, out) == (0, "false\n")


def test_contains_json():
    code, out, _ = run("contains", "uudd", "ududud", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "schema": "dyckposet/contains/1",
        "pattern": "UUDD",
        "word": "UDUDUD",
        "contains": True,
    }


def test_stats_command():
    code, out, _ = run("stats", "UUDD")
    assert code == 0
    assert "semilength 2" in out
    assert "peaks 1" in out
    assert "height 2" in out


def test_formula_command():
    assert run("formula", "staircase_size", "5") == (0, "16\n", "")
    assert run("formula", "narayana", "4", "2")[1] == "6\n"
    assert run("formula", "cover_count", "UUDD")[1] == "5\n"
    assert run("formula", "embeddable_staircase", "UUDD", "2")[1] == "false\n"
    code, out, _ = run("formula", "delta_histogram", "2", "3")
    assert (code, out) == (0, "1:3 2:4 3:3 4:0\n")


def test_formula_json():
    code, out, _ = run("formula", "phih", "2", "3", "1", "--json")
    payload = json.loads(out)
    assert payload["formula"] == "phih"
    assert payload["args"] == ["2", "3", "1"]
    assert payload["value"] == 14


def test_formula_error_paths():
    code, _, err = run("formula", "nonsense", "1")
    assert code == 1
    assert "unknown formula" in err
    code, _, err = run("formula", "phi0", "1")
    assert code == 1
    code, _, err = run("formula", "phi0", "3", "2")
    assert code == 1


def test_formula_mobius_twopeak_warns_on_swap():
    code, out, err = run("formula", "mobius_twopeak", "3", "2", "1")
    assert (code, out) == (0, "-1\n")
    assert "normalizing" in err
    code, _, err = run("formula", "mobius_twopeak", "2", "3", "1")
    assert code == 0 and err == ""


def test_interval_views():
    code, out, _ = run("interval", "UD", "UDUDUDUDUD")
    assert code == 0
    assert "rank 3: 5" in out
    assert "elements 16" in out
    assert "edges 45" in out
    code, out, _ = run("interval", "UD", "UDUDUD", "--elements")
    assert "rank 2: UUDD UDUD" in out
    code, out, _ = run("interval", "UD", "UDUDUD", "--edges")
    assert "UD UUDD" in out
    for bottom, top in [("UD", "UDUDUD"), ("UUDD", "UUDUDUDD"), ("UD", "UD")]:
        code, out, _ = run("interval", bottom, top, "--edges")
        b = parse_word(bottom)
        levels, covers_up = oracle.down_set(b, parse_word(top), b.semilength)
        # Ranks ascending, without the top rank, which has no cover above.
        expected = "".join(
            f"{lo} {up}\n" for level in levels[:0:-1] for lo in level for up in covers_up[lo]
        )
        assert (code, out) == (0, expected)
    code, out, _ = run("interval", "UD", "UDUDUD", "--dot")
    assert out.startswith("digraph interval {")


@pytest.mark.parametrize("bottom, top", RENDERED_INTERVALS, ids=lambda w: w.text)
def test_interval_dot_and_json_equal_the_oracle_byte_for_byte(bottom, top):
    code, out, _ = run("interval", bottom.text, top.text, "--dot")
    assert (code, out) == (0, oracle.interval_dot(bottom, top))
    payload = {"schema": "dyckposet/interval/1", **oracle.interval_json_dict(bottom, top)}
    code, out, _ = run("interval", bottom.text, top.text, "--json")
    assert (code, out) == (0, json.dumps(payload, separators=CLI_SEPARATORS) + "\n")


def test_interval_json():
    code, out, _ = run("interval", "UD", "UDUDUD", "--json")
    payload = json.loads(out)
    assert payload["schema"] == "dyckposet/interval/1"
    assert payload["bottom"] == "UD"
    assert [row["count"] for row in payload["ranks"]] == [1, 2, 1]
    assert payload["mobius"]["UDUDUD"] == 1


def test_mobius_command():
    assert run("mobius", "UUDD", "UUDUDUDD") == (0, "4\n", "")
    code, _, err = run("mobius", "UUDDUD", "UUDUUUDDDD")
    assert code == 1
    assert "not a pattern" in err


def test_exit_codes_for_domain_usage_and_limit_errors():
    assert run("contains", "UXDD", "UDUDUD")[0] == 1
    assert run("contains", "UUDD")[0] == 1  # missing argument
    assert run("interval", "UD", "UD" * 15)[0] == 2  # above the ceiling
    assert run("interval", "UD", "UD" * 15, "--ranks")[0] == 2


def test_limit_override_flag():
    tall_pyramid = "U" * 15 + "D" * 15
    assert run("interval", "UD", tall_pyramid)[0] == 2
    code, out, _ = run("--limit", "15", "interval", "UD", tall_pyramid)
    assert code == 0
    assert "elements 15" in out


def test_verify_command():
    code, out, _ = run("verify", "table1")
    assert code == 0
    assert out.count("ok   ") == 2
    assert out.strip().endswith("2/2 checks passed")
    code, _, err = run("verify", "nonsense")
    assert code == 1


def test_conjecture_command():
    code, out, err = run("conjecture", "rank2max", "--max", "2")
    assert code == 0
    assert "verdict consistent" in out
    assert "witness bottom=UUDD top=UUDUDUDD mu=4" in out
    assert "elapsed" in err and "elapsed" not in out
    code, out, _ = run("conjecture", "alternating", "--max", "3", "--json")
    payload = json.loads(out)
    assert payload["verdict"] == "consistent"
    assert run("conjecture", "nonsense")[0] == 1


@pytest.mark.parametrize("scan", ["rank2max", "rank3max", "alternating", "covercount"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_conjecture_rank_scans_refuse_a_bottom_below_semilength_1(scan, n):
    code, out, err = run("conjecture", scan, "--max", n)
    assert (code, out) == (1, "")
    assert err == f"error: {scan} scan {SCAN_BOUND[scan]} must be >= 1, got {n}\n"


def test_conjecture_covercount_stops_at_its_ceiling():
    assert run("conjecture", "covercount", "--max", "8")[0] == 2
    code, out, _ = run("conjecture", "covercount", "--max", "7")
    assert code == 0
    assert "verdict consistent" in out
    assert run("conjecture", "covercount")[1] == out


@pytest.mark.parametrize(
    "scan, scope",
    [
        ("alternating", "max_top_semilength=6"),
        ("rank2max", "n=4"),
        ("rank3max", "n=3"),
        ("covercount", "max_semilength=7"),
    ],
)
def test_conjecture_runs_each_scan_at_its_default_bound_without_max(scan, scope):
    code, out, _ = run("conjecture", scan)
    assert code == 0
    assert out.splitlines()[:3] == [f"scan {scan}", f"scope {scope}", "verdict consistent"]


def test_bijection_motzkin_command():
    code, out, _ = run("bijection", "motzkin", "UUDD")
    assert (code, out) == (0, "dyck UUDD\nmotzkin ULD\nlength 3\n")
    code, out, _ = run("bijection", "motzkin", "ULD")
    assert (code, out) == (0, "dyck UUDD\nmotzkin ULD\nlength 3\n")


def test_bijection_square_command():
    code, out, _ = run("bijection", "square", "2", "3", "2", "--grid", "4", "6")
    assert code == 0
    assert "word UUUUDDUUUDDDDD" in out
    assert "square row=2 col=3 side=3" in out
    code, _, err = run("bijection", "square", "2", "3", "2", "--grid", "3", "6")
    assert code == 1


def test_export_dot(tmp_path):
    target = tmp_path / "interval.dot"
    code, out, err = run("export", "dot", "UD", "UDUDUD", str(target))
    assert code == 0
    assert out == ""
    assert "wrote" in err
    content = target.read_text()
    assert content.startswith("digraph interval {")
    assert '"UD" -> "UDUD";' in content


def test_export_dot_to_an_unwritable_path_is_one_error_line(tmp_path):
    target = tmp_path / "missing" / "interval.dot"
    code, out, err = run("export", "dot", "UD", "UDUD", str(target))
    assert (code, out) == (1, "")
    assert err == (
        f"error: Could not open file {str(target)!r}: No such file or directory\n"
    )
    assert not target.parent.exists()


def test_stdout_is_deterministic():
    for argv in (
        ("interval", "UD", "UDUDUDUD", "--json"),
        ("formula", "delta_histogram", "3", "4"),
        ("verify", "sizes"),
        ("conjecture", "rank2max", "--max", "2"),
    ):
        assert run(*argv)[1] == run(*argv)[1]


def test_verify_all_stdout_matches_the_golden_file():
    code, out, _ = run("verify", "all")
    assert code == 0
    assert out.encode("utf-8") == VERIFY_ALL_GOLDEN


def test_help_exits_zero():
    code, out, _ = run("--help")
    assert code == 0


def test_help_lists_every_suite_and_scan_from_their_tables():
    out = " ".join(run("verify", "--help")[1].split())
    assert f"Suites: {', '.join([*SUITES, 'all'])}." in out
    out = " ".join(run("conjecture", "--help")[1].split())
    assert all(name in out for name in SCANS)
    for level, conjecture_level in [("Conjecture", True), ("Proposition", False)]:
        names = ", ".join(k for k, scan in SCANS.items() if scan[3] == conjecture_level)
        assert f"{level}-level scans ({names}) exit" in out


def test_verify_all_runs_under_optimize_flag():
    # `python -O` strips assert statements, so every runtime check must be an
    # explicit one for the suites to keep passing.
    env = dict(os.environ)
    src = str(Path(dyckposet.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-m", "dyckposet", "verify", "all"],
        capture_output=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().endswith(b"29/29 checks passed")
    assert result.stdout == VERIFY_ALL_GOLDEN
