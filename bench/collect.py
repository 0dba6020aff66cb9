"""Run the benchmark over several seeds and summarize it as one BENCH file.

    python3 bench/collect.py --seeds 1-10 --out bench/results/BENCH_baseline.json

For every workload in BENCHMARK.json and every seed, runs the benchmark's
command with --trace 0 for run_seconds, one run at a time, and reports each
end-to-end metric's median and quartiles; its spread is the interquartile
distance as a share of the median, shown against the metric's bound.  One
traced run per workload on the first seed adds the per-layer metrics.  With
--out, the summary is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stderr, file=sys.stderr)
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "median": median, "q1": q1, "q3": q3, "spread": spread,
        "bound": bound, "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    summary = {
        "machine": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "seeds": seeds,
        "run_seconds": seconds,
        "workloads": {},
    }
    for name in [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in seeds:
            results.append(run_once(spec, name, seed, seconds, 0))
            metrics = results[-1]["metrics"]
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in metrics.items()), flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            stats = summarize(values, metric["bound"])
            entry["end_to_end"][metric["name"]] = {"unit": metric["unit"], **stats}
            print(
                f"  {metric['name']}: median {stats['median']:.4g} {metric['unit']}, "
                f"spread {stats['spread']:.3f} (bound {metric['bound']}, "
                f"steady below {metric['bound'] / 3:.3f})",
                flush=True,
            )
        traced = run_once(spec, name, seeds[0], seconds, 1)
        entry["per_layer"] = traced["metrics"]
        entry["attempted"] += traced["attempted"]
        entry["failed"] += traced["failed"]
        print(f"  ops: {entry['attempted']} attempted, {entry['failed']} failed", flush=True)
        summary["workloads"][name] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
