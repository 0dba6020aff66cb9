"""Tests of the benchmark itself: exact traced counts, the guards, the tracer.

    python3 -m pytest bench/test_bench.py

The traced-count test runs every workload's traced rounds twice, so it takes
a couple of minutes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import spans  # noqa: E402

TIMED_UNITS = {"ms"}


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def traced_metrics(workload: str) -> dict:
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", ["interval-big", "scan-lab", "cli-verify"])
def test_traced_counts_repeat_exactly(workload):
    first, second = traced_metrics(workload), traced_metrics(workload)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(first) == {m["name"] for m in spec["per_layer"]}
    counts = {
        name for name, metric in first.items()
        if metric["unit"] not in TIMED_UNITS and name != "trace_overhead_ratio"
    }
    assert "poset.build_interval.calls" in counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_refuses_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "scan-lab", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "refusing to run" in proc.stderr


def _bindings(namespaces: list[dict]) -> list:
    return [
        (id(ns), name, id(value), [id(e) for e in spans._heads(value)] if isinstance(value, dict) else None)
        for ns in namespaces
        for name, value in ns.items()
        if name != "__builtins__"
    ]


def test_tracer_restores_every_name():
    from dyckposet import cli, poset, words  # noqa: F401  (cli loads verify too)

    namespaces = [vars(sys.modules["dyckposet"])] + [vars(m) for m in spans.loaded_modules().values()]
    before = _bindings(namespaces)
    mobius_table = poset.IntervalModel.mobius_table
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert spans._is_trace_wrapper(poset.build_interval)
        poset.build_interval(words.staircase(1), words.staircase(5)).mobius()
    assert _bindings(namespaces) == before
    assert poset.IntervalModel.mobius_table is mobius_table
    assert tracer.totals["poset.build_interval"][0] == 1
    assert tracer.counters["poset.build_interval.elements"] == 16


def test_input_oracles_agree_with_the_engine():
    from dyckposet import generate_all, poset, staircase

    for n in range(1, 7):
        for word in generate_all(n):
            model = poset.build_interval(staircase(1), word)
            assert inputs.dyck_subword_count(word.text) == model.s0()
    rng = random.Random(0)
    for _ in range(2000):
        k = rng.randint(1, 7)
        for text in inputs.random_dyck(rng, 7), inputs.random_dyck_with_peaks(rng, 7, k):
            heights = [text[: i + 1].count("U") * 2 - (i + 1) for i in range(len(text))]
            assert min(heights) >= 0 and heights[-1] == 0
        assert inputs.peaks(text) == k
