"""The reference computation that the benchmark's timings are divided by.

Standard library only, so a set-up probe can time it in a fresh interpreter
before it imports dyckposet.
"""

from __future__ import annotations

import gc
import time

REFERENCE_STEPS = 80000
#: setup_s is reported in seconds of a host on which reference_work() takes this long.
NOMINAL_S = 0.1


def reference_work() -> int:
    """A fixed computation that shares no code with the package.

    It builds strings, sets, frozensets and a dict, as the engine's rank walk
    and Möbius recursion do, in about a tenth of a second, and keeps at most
    a thousand small sets alive so that it does not move the peak memory.
    Timed next to every op, it tracks the speed the shared host gives this
    process at that moment; the end-to-end times are reported in units of it.
    """
    below: dict[str, frozenset[str]] = {}
    previous: frozenset[str] = frozenset()
    for i in range(REFERENCE_STEPS):
        key = str(i)
        closure = {key}
        if len(previous) < 20:
            closure |= previous
        previous = frozenset(closure)
        below[key[-3:]] = previous
    return len(below)


def timed_reference() -> float:
    gc.collect()
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
