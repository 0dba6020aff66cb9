"""Call tracing for the benchmark, installed from outside the package.

`installed(tracer)` rebinds the traced functions in every loaded dyckposet
module namespace, in the module-level dispatch tables that captured them at
import time (`verify.SUITES`, `cli._FORMULAS`, `cli._SCANS`) and, for
`mobius_table`, on `IntervalModel`; on exit it puts every original back and
checks that none of its wrappers is left behind.  The library is not edited.

Each wrapped call pushes a frame.  When it returns, its duration is added to
its parent's child time, so a layer's self time is its duration minus the
time of the traced calls it made.  Hot leaves (`contains`, `deletion_children`,
the formulas and bijections, the cached `mobius_table` lookups) are only
aggregated as calls plus summed time; the other calls are also kept as span
records with an op id and the id of the nearest recorded ancestor.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
import sys
import time
from typing import Callable, Iterator

perf_counter = time.perf_counter

PACKAGE = "dyckposet"
MODULES = ("words", "poset", "scans", "formulas", "bijections", "verify", "cli")
SCAN_DRIVERS = ("scan_alternating", "scan_rank2_max", "scan_rank3_max", "sweep_cover_count")

# The serialization the CLI uses for --json, so rendered bytes match its output.
JSON_SEPARATORS = (", ", ": ")


class Frame:
    __slots__ = ("name", "record_id", "parent_id", "start", "child")

    def __init__(self, name: str, record_id: str | None, parent_id: str | None) -> None:
        self.name = name
        self.record_id = record_id  # own id if recorded, else the nearest recorded ancestor's
        self.parent_id = parent_id
        self.start = 0.0
        self.child = 0.0


class Tracer:
    """Spans and counters of one process; merged across CLI children by `merge`."""

    def __init__(self, id_prefix: str = "") -> None:
        self.id_prefix = id_prefix
        self.op = ""
        self.stack: list[Frame] = []
        self.totals: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.spans: list[dict] = []
        self._ids = 0

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def inside(self, name: str) -> bool:
        return any(frame.name == name for frame in self.stack)

    def parent_name(self) -> str | None:
        return self.stack[-1].name if self.stack else None

    def _push(self, name: str, record: bool, parent_id: str | None = None) -> Frame:
        if parent_id is None and self.stack:
            parent_id = self.stack[-1].record_id
        record_id = parent_id
        if record:
            self._ids += 1
            record_id = f"{self.id_prefix}{self._ids}"
        frame = Frame(name, record_id, parent_id)
        self.stack.append(frame)
        return frame

    def _pop(self, frame: Frame, end: float, record: bool) -> None:
        self.stack.pop()
        duration = end - frame.start
        total = self.totals.setdefault(frame.name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame.child
        if self.stack:
            self.stack[-1].child += duration
        if record:
            self.spans.append(
                {
                    "op": self.op,
                    "id": frame.record_id,
                    "parent": frame.parent_id,
                    "name": frame.name,
                    "start": frame.start,
                    "end": end,
                    "self_ms": (duration - frame.child) * 1000,
                }
            )

    def _excluded(self, started: float) -> None:
        # Time spent by the tracer itself inside a parent's span, such as a
        # counter hook, is not the parent's work.
        if self.stack:
            self.stack[-1].child += perf_counter() - started

    def wrap(
        self,
        name: str,
        fn: Callable,
        hook: Callable | None = None,
        record: bool = False,
        parent_id: str | None = None,
    ) -> Callable:
        """`fn` with a frame around each call; `hook(tracer, args, result)` adds counters."""

        def traced(*args, **kwargs):
            frame = self._push(name, record, parent_id)
            frame.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(frame, perf_counter(), record)
            if hook is not None:
                started = perf_counter()
                hook(self, args, result)
                self._excluded(started)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextlib.contextmanager
    def op_span(self, op: str, kind: str) -> Iterator[Frame]:
        """Root span of one benchmark op; traced calls inside carry its op id."""
        self.op = op
        frame = self._push(f"op:{kind}", True)
        frame.start = perf_counter()
        try:
            yield frame
        finally:
            self._pop(frame, perf_counter(), True)
            self.op = ""

    def to_json_dict(self) -> dict:
        return {"totals": self.totals, "counters": self.counters, "spans": self.spans}

    def merge(self, other: dict) -> None:
        """Fold in a child process's `to_json_dict()`."""
        for name, (calls, total, own) in other["totals"].items():
            mine = self.totals.setdefault(name, [0, 0.0, 0.0])
            mine[0] += calls
            mine[1] += total
            mine[2] += own
        for key, amount in other["counters"].items():
            self.count(key, amount)
        self.spans.extend(other["spans"])


# Counter hooks: each runs after the call's clock has stopped.

def _children_hook(tracer: Tracer, args: tuple, result: tuple) -> None:
    tracer.count("poset.deletion_children.children_out", len(result))
    if tracer.parent_name() == "poset.build_interval":
        tracer.count("poset.build_interval.children", len(result))


def _build_hook(tracer: Tracer, args: tuple, model) -> None:
    elements = model.s0()
    tracer.count("poset.build_interval.elements", elements)
    tracer.count("poset.build_interval.edges", model.s1())
    if tracer.inside("scans.driver"):
        tracer.count("scans.elements", elements)


def _covers_hook(tracer: Tracer, args: tuple, result: tuple) -> None:
    n = args[0].semilength + 1
    tracer.count("poset.covers_of.found", len(result))
    tracer.count("poset.covers_of.candidates", math.comb(2 * n, n) // (n + 1))


def _render_hook(tracer: Tracer, args: tuple, result) -> None:
    if isinstance(result, dict):
        result = json.dumps(result, separators=JSON_SEPARATORS)
    tracer.count("poset.render.bytes", len(result))


def _scan_hook(tracer: Tracer, args: tuple, report) -> None:
    tracer.count("scans.pairs", report.summary.get("pairs_checked", 0))


def _public_functions(module) -> list[Callable]:
    return [
        value
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    ]


def _targets(tracer: Tracer, modules: dict) -> dict[int, tuple[Callable, Callable]]:
    """id(original) -> (original, wrapper) for every traced function."""
    words, poset, scans = modules["words"], modules["poset"], modules["scans"]
    plan: list[tuple[Callable, str, Callable | None, bool]] = [
        (words.contains, "words.contains", None, False),
        (words.generate_all, "words.generate_all", None, False),
        (poset.deletion_children, "poset.deletion_children", _children_hook, False),
        (poset.build_interval, "poset.build_interval", _build_hook, True),
        (poset.covers_of, "poset.covers_of", _covers_hook, True),
        (poset.interval_to_json_dict, "poset.render", _render_hook, True),
        (poset.interval_to_dot, "poset.render", _render_hook, True),
        (scans.mobius_to_top, "scans.mobius_to_top", None, True),
    ]
    plan += [(getattr(scans, name), "scans.driver", _scan_hook, True) for name in SCAN_DRIVERS]
    for layer in ("formulas", "bijections"):
        plan += [(fn, layer, None, False) for fn in _public_functions(modules[layer])]
    if "verify" in modules:
        plan += [
            (fn, f"verify.{suite}", None, True)
            for suite, fn in modules["verify"].SUITES.items()
        ]
    return {
        id(fn): (fn, tracer.wrap(name, fn, hook, record))
        for fn, name, hook, record in plan
    }


def loaded_modules() -> dict:
    return {
        name: sys.modules[f"{PACKAGE}.{name}"]
        for name in MODULES
        if f"{PACKAGE}.{name}" in sys.modules
    }


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Trace the package's public calls for the duration of the block."""
    modules = loaded_modules()
    targets = _targets(tracer, modules)
    undo: list[Callable[[], None]] = []

    def patch(namespace: dict, key, value) -> None:
        undo.append(lambda: namespace.__setitem__(key, value))

    namespaces = [vars(sys.modules[PACKAGE])] + [vars(m) for m in modules.values()]
    for namespace in namespaces:
        for name, value in list(namespace.items()):
            if name == "__builtins__":
                continue
            if id(value) in targets:
                patch(namespace, name, value)
                namespace[name] = targets[id(value)][1]
            elif isinstance(value, dict):
                # Dispatch tables: name -> function, or name -> (function, ...).
                for (key, entry), head in zip(list(value.items()), _heads(value)):
                    if id(head) in targets:
                        patch(value, key, entry)
                        wrapped = targets[id(head)][1]
                        value[key] = (wrapped, *entry[1:]) if head is not entry else wrapped

    model_class = modules["poset"].IntervalModel
    original_mobius = model_class.mobius_table
    model_class.mobius_table = tracer.wrap("poset.mobius_table", original_mobius)
    undo.append(lambda: setattr(model_class, "mobius_table", original_mobius))
    try:
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()
        leftovers = [
            f"{namespace.get('__name__', '?')}.{name}"
            for namespace in namespaces
            for name, value in namespace.items()
            if _is_trace_wrapper(value)
            or (isinstance(value, dict) and any(map(_is_trace_wrapper, _heads(value))))
        ]
        if _is_trace_wrapper(model_class.__dict__["mobius_table"]):
            leftovers.append("IntervalModel.mobius_table")
        if leftovers:
            raise RuntimeError(f"tracer wrappers left installed: {leftovers}")


def _heads(table: dict) -> list:
    return [entry[0] if isinstance(entry, tuple) and entry else entry for entry in table.values()]


def _is_trace_wrapper(value) -> bool:
    code = getattr(value, "__code__", None)
    return code is not None and code.co_name == "traced" and code.co_filename == __file__


# Layers whose calls and self time are reported, and the verify suites.
TIMED = (
    "words.contains",
    "words.generate_all",
    "poset.deletion_children",
    "poset.build_interval",
    "poset.mobius_table",
    "poset.covers_of",
    "scans.mobius_to_top",
)
SUITES = ("table1", "sizes", "twopeak", "delta", "s1", "mobius-closed", "bijections", "covercount")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run as name -> (value, unit)."""
    idle = [0, 0.0, 0.0]

    def calls(name: str) -> int:
        return tracer.totals.get(name, idle)[0]

    def total_ms(name: str) -> float:
        return tracer.totals.get(name, idle)[1] * 1000

    def self_ms(name: str) -> float:
        return tracer.totals.get(name, idle)[2] * 1000

    def counter(key: str) -> int:
        return tracer.counters.get(key, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for name in TIMED:
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_ms"] = (self_ms(name), "ms")
    elements = counter("poset.build_interval.elements")
    edges = counter("poset.build_interval.edges")
    metrics.update(
        {
            "poset.deletion_children.children_out": (
                counter("poset.deletion_children.children_out"), "count"),
            "poset.deletion_children.calls_per_element": (
                ratio(calls("poset.deletion_children"), elements), "calls/element"),
            "poset.build_interval.elements": (elements, "count"),
            "poset.build_interval.edges": (edges, "count"),
            "poset.build_interval.useful_ratio": (
                ratio(edges, counter("poset.build_interval.children")), "ratio"),
            "poset.covers_of.useful_ratio": (
                ratio(counter("poset.covers_of.found"), counter("poset.covers_of.candidates")),
                "ratio"),
            "poset.render.self_ms": (self_ms("poset.render"), "ms"),
            "poset.render.bytes": (counter("poset.render.bytes"), "bytes"),
            "scans.driver.self_ms": (self_ms("scans.driver"), "ms"),
            "scans.elements_per_pair": (
                ratio(counter("scans.elements"), counter("scans.pairs")), "elements/pair"),
        }
    )
    for suite in SUITES:
        metrics[f"verify.{suite}.ms"] = (total_ms(f"verify.{suite}"), "ms")
    for layer in ("formulas", "bijections"):
        metrics[f"{layer}.calls"] = (calls(layer), "count")
        metrics[f"{layer}.self_ms"] = (self_ms(layer), "ms")
    metrics["cli.main.self_ms"] = (self_ms("cli.main"), "ms")
    return metrics
