"""The README against the code: its quick tour runs, and its lists match the tables."""

import doctest
import re
from pathlib import Path

from dyckposet.cli import _FORMULAS
from dyckposet.scans import SCANS
from dyckposet.verify import SUITES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# Whitespace-normalized, so that a sentence may wrap anywhere.
FLAT = " ".join(README.split())


def _quick_tour() -> str:
    # The python block only: the closing fence would read as expected output.
    section = README.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _ticked(names) -> str:
    return ", ".join(f"`{name}`" for name in names)


def _listed(label: str) -> list[str]:
    match = re.search(rf"{label}: (.*?)\.(?: |$)", FLAT)
    assert match, label
    return re.findall(r"`([^`]+)`", match.group(1))


def test_readme_quick_tour_examples_pass():
    text = _quick_tour()
    parser = doctest.DocTestParser()
    test = parser.get_doctest(text, {}, "README quick tour", "README.md", 0)
    report: list[str] = []
    failed, attempted = doctest.DocTestRunner().run(test, out=report.append)
    assert (failed, attempted) == (0, text.count(">>> ")), "".join(report)


def test_readme_scan_ceilings_defaults_and_levels_match_the_catalogue():
    assert f"Scans: {_ticked(SCANS)} with `--max N`." in FLAT
    for level, conjecture_level in [("conjecture", True), ("Proposition", False)]:
        names = _ticked(k for k, entry in SCANS.items() if entry[3] == conjecture_level)
        assert f"{level}-level scans ({names})" in FLAT
    ceilings = ", ".join(f"{k} {entry[1]}" for k, entry in SCANS.items())
    assert f"refuses a bound above its own ceiling ({ceilings})" in FLAT
    defaults = ", ".join(f"{k} {entry[2]}" for k, entry in SCANS.items())
    assert f"runs each scan at its default bound ({defaults})" in FLAT
    for scan, claim in [("rank2max", "rank-2 maximum"), ("rank3max", "rank-3 conjecture")]:
        assert re.search(rf"{claim} `[^`]+` holds up to n = {SCANS[scan][1]}(?!\d)", FLAT), scan


def test_readme_formula_names_and_verify_suites_match_their_tables():
    assert _listed("Formula names") == list(_FORMULAS)
    assert _listed("Verify suites") == [*SUITES, "all"]
