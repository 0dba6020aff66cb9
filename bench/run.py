"""Benchmark of dyckposet: one workload, one run.

    python3 bench/run.py --workload interval-big --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it imports the package from the
checkout's own `src` and refuses to run if `dyckposet` would come from
anywhere else.  Workloads (see workloads.py): interval-big, scan-lab,
cli-verify.

--trace 0 times the workload's closed loop for --seconds seconds of busy
time with no tracing installed, and reports the end-to-end metrics:

  setup_s           median over fresh interpreters of importing dyckposet
                    (dyckposet.cli for cli-verify) plus generating the
                    inputs, each divided by the reference time measured in
                    the same interpreter and given in seconds of a host on
                    which reference.reference_work() takes NOMINAL_S
  round_p50_ref     median over rounds of the round's busy time divided by
                    the mean of the reference times measured before its ops
  cheap_op_p50_ref  median op time over reference time of the workload's
                    cheapest kind of op: rendering on interval-big,
                    scan_alternating(6) on scan-lab, a cold CLI command on
                    cli-verify
  peak_rss_mb       peak resident memory of the process that did the work

--trace 1 runs the workload's fixed traced rounds once plainly and once with
spans.py's wrappers installed, and reports the per-layer metrics; the counts
among them repeat exactly for a given seed.  The span records are written to
.bench_out/trace-<workload>-seed<seed>.json.

Every op's output is checked after its clock stops.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import inputs
import reference
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PROBES = 15  # fresh interpreters per set-up or import measurement
SETUP_PROBE = """\
import sys, time
sys.path.insert(0, {bench!r})
import inputs, reference
ref = reference.timed_reference()
start = time.perf_counter()
import {module}
inputs.make({workload!r}, {seed})
print(time.perf_counter() - start, ref)
"""


def import_checked() -> None:
    """Import dyckposet from this checkout's src, or refuse to run."""
    if not (SRC / "dyckposet" / "__init__.py").is_file():
        raise SystemExit(f"refusing to run: no dyckposet package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dyckposet

    origin = Path(dyckposet.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"refusing to run: dyckposet was imported from {origin}, not {SRC}")


@dataclass
class Sample:
    kind: str
    seconds: float
    reference: float  # seconds of reference_work() just before the op; 0 if not run
    ok: bool
    items: int


def run_op(workload, op, op_id: str, tracer) -> Sample:
    """Time one op, then check its output with the clock stopped."""
    ref = reference.timed_reference() if tracer is None else 0.0
    gc.collect()  # every op starts from the same collector state
    start = time.perf_counter()
    try:
        with contextlib.ExitStack() as tracing:
            if tracer is not None:
                if workload.in_process:
                    tracing.enter_context(spans.installed(tracer))
                tracing.enter_context(tracer.op_span(op_id, op.kind))
            start = time.perf_counter()
            out = op.run(tracer, op_id)
            seconds = time.perf_counter() - start
        problems = op.check(out)
        items = op.items(out)
    except Exception:
        print(f"{op_id} {op.kind}: failed", file=sys.stderr)
        traceback.print_exc()
        return Sample(op.kind, time.perf_counter() - start, ref, False, 0)
    for problem in problems:
        print(f"{op_id} {op.kind}: wrong result: {problem}", file=sys.stderr)
    return Sample(op.kind, seconds, ref, not problems, 0 if problems else items)


def measure(workload, rounds, seconds: float, tracer=None) -> list[list[Sample]]:
    """Run rounds until `seconds` of busy time have passed; never stop mid-round."""
    done: list[list[Sample]] = []
    busy = 0.0
    for index, ops in enumerate(rounds):
        if busy >= seconds:
            break
        done.append(
            [run_op(workload, op, f"{workload.name}-{index}.{j}", tracer) for j, op in enumerate(ops)]
        )
        busy += sum(s.seconds for s in done[-1])
    return done


def child_seconds(command: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(command, cwd=ROOT, env=workloads.child_env(), check=True, capture_output=True)
    return time.perf_counter() - start


def setup_seconds(workload: str, seed: int) -> float:
    module = "dyckposet.cli" if workload == "cli-verify" else "dyckposet"
    code = SETUP_PROBE.format(bench=str(BENCH_DIR), module=module, workload=workload, seed=seed)
    values = []
    for _ in range(PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env=workloads.child_env(), check=True, capture_output=True, text=True,
        )
        seconds, ref = map(float, out.stdout.split())
        values.append(seconds / ref * reference.NOMINAL_S)
    return statistics.median(values)


def cli_import_ms() -> float:
    """`import dyckposet.cli` minus a bare interpreter start, medians of PROBES each."""
    bare = [child_seconds([sys.executable, "-c", "pass"]) for _ in range(PROBES)]
    cli = [child_seconds([sys.executable, "-c", "import dyckposet.cli"]) for _ in range(PROBES)]
    return (statistics.median(cli) - statistics.median(bare)) * 1000


def end_to_end(workload, args) -> tuple[list[Sample], dict, list[str]]:
    setup = setup_seconds(args.workload, args.seed)
    rounds = measure(workload, workload.rounds(), args.seconds)
    samples = [s for r in rounds for s in r]
    round_seconds = [sum(s.seconds for s in r) for r in rounds]
    round_refs = [
        sum(s.seconds for s in r) / statistics.fmean(s.reference for s in r) for r in rounds
    ]
    cheap_refs = [s.seconds / s.reference for s in samples if s.kind == workload.cheap_kind]
    metrics = {
        "setup_s": (setup, "s"),
        "round_p50_ref": (statistics.median(round_refs), "ref"),
        "cheap_op_p50_ref": (statistics.median(cheap_refs), "ref"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    lines = [f"setup_s {setup:.4f} s (median of {PROBES}, at the nominal reference speed)"]
    lines += workload.report(samples, round_seconds)
    lines += [
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB",
        f"round_s_p50 {statistics.median(round_seconds):.4f} s (n={len(rounds)})",
        f"reference_s_p50 {statistics.median(s.reference for s in samples):.4f} s "
        f"(n={len(samples)})",
        f"round_p50_ref {metrics['round_p50_ref'][0]:.4f} ref (n={len(rounds)})",
        f"cheap_op_p50_ref {metrics['cheap_op_p50_ref'][0]:.4f} ref "
        f"({workload.cheap_kind}, n={len(cheap_refs)})",
    ]
    return samples, metrics, lines


def per_layer(workload, args) -> tuple[list[Sample], dict, list[str]]:
    rounds = workload.traced_rounds()
    plain = [s for r in measure(workload, rounds, math.inf) for s in r]
    tracer = spans.Tracer()
    traced = [s for r in measure(workload, rounds, math.inf, tracer) for s in r]
    metrics = spans.layer_metrics(tracer)
    metrics["cli.import_ms"] = (cli_import_ms(), "ms")
    overhead = sum(s.seconds for s in traced) / sum(s.seconds for s in plain)
    metrics["trace_overhead_ratio"] = (overhead, "ratio")
    out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                **tracer.to_json_dict(),
            }
        )
    )
    lines = [
        f"{name} {value if isinstance(value, int) else format(value, '.6g')} {unit}"
        for name, (value, unit) in metrics.items()
    ]
    lines.append(f"spans written to {out.relative_to(ROOT)} ({len(tracer.spans)} records)")
    return plain + traced, metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("interval-big", "scan-lab", "cli-verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    import_checked()
    global workloads  # imports dyckposet, so only after the check
    import workloads

    workload = workloads.WORKLOADS[args.workload](inputs.make(args.workload, args.seed))

    measure_run = per_layer if args.trace else end_to_end
    samples, metrics, lines = measure_run(workload, args)
    failed = sum(not s.ok for s in samples)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    print(f"fail_ratio {failed / len(samples):.4f} ({failed}/{len(samples)} ops)")
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
