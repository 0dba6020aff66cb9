"""Seeded inputs for the benchmark workloads, built with the standard library only.

Nothing here imports dyckposet: the set-up probe times `import dyckposet`
plus `make(workload, seed)`, and the generated words reach the library only
as inputs.  The word helpers, `random_dyck`, `random_dyck_with_peaks` and
`dyck_subword_count`, are the benchmark's own and share no code with the
package, so they also serve as independent oracles in the output checks.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

#: Semilength of every interval-big top; within DEFAULT_GENERATION_CEILING.
TOP_SEMILENGTH = 12
#: Seeded tops have at least this many peaks (the ROADMAP north-star tops
#: have 12 and 11).
MIN_PEAKS = 9
#: Seeded tops are drawn uniformly from the words above whose initial
#: interval has a size in this band.  The band is around the mode of the
#: size distribution; fixing it keeps the per-query cost from depending on
#: which tops a seed happens to draw, so runs on different seeds agree.
SIZE_BAND = (2900, 3100)
#: About as many seeded tops as a 20-second run queries on a 2-vCPU host; a
#: run that has queried them all stops early rather than repeat one.
SEEDED_TOPS = 12

#: Rounds generated for scan-lab and cli-verify; a longer run cycles them.
ROUNDS = 64
SCAN_NAMES = ("rank2max", "rank3max", "alternating")
#: The cli-verify interval query: the staircase of semilength 10, as JSON.
CLI_QUERY = ("interval", "UD", "UD" * 10, "--json")

#: Word sizes for the trivial CLI commands of cli-verify.
CONTAINS_PATTERN_SEMILENGTH = 3
CONTAINS_WORD_SEMILENGTH = 8
STATS_WORD_SEMILENGTH = 10
NARAYANA_MAX_N = 12


def random_dyck(rng: random.Random, n: int) -> str:
    """A uniformly random Dyck word of semilength n, by the cycle lemma."""
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    return cycle_lemma(steps)


def random_dyck_with_peaks(rng: random.Random, n: int, k: int) -> str:
    """A uniformly random Dyck word of semilength n with k peaks.

    A peak of the word is a cyclic `UD` of its step sequence (the sequence
    ends `DD`, so cutting it open loses none).  Two uniform compositions, of
    n up steps and of n+1 down steps into k runs each, laid out alternately
    on a cycle and cut at a uniform point, give every step sequence with k
    cyclic up-runs exactly k times; the cycle lemma then gives every word
    with k peaks from 2n+1 of them.
    """
    steps: list[int] = []
    for ups, downs in zip(random_composition(rng, n, k), random_composition(rng, n + 1, k)):
        steps += [1] * ups + [-1] * downs
    cut = rng.randrange(len(steps))
    return cycle_lemma(steps[cut:] + steps[:cut])


def random_composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = [0, *sorted(rng.sample(range(1, total), parts - 1)), total]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def cycle_lemma(steps: list[int]) -> str:
    """The Dyck word among the rotations of n up and n+1 down steps.

    Exactly one rotation keeps every proper prefix nonnegative: the one
    starting just after the first minimum of the prefix sums.  Dropping its
    final down step leaves a Dyck word, and every Dyck word arises from
    2n+1 sequences.
    """
    height, low, cut = 0, 0, 0
    for i, step in enumerate(steps):
        height += step
        if height < low:
            low, cut = height, i + 1
    rotated = steps[cut:] + steps[:cut]
    return "".join("U" if step > 0 else "D" for step in rotated[:-1])


def dyck_subword_count(text: str) -> int:
    """Number of distinct nonempty Dyck words occurring in `text` as subsequences.

    That is the size of the initial interval [UD, text].  Distinct
    subsequences correspond to paths in the subsequence automaton that always
    jump to the next occurrence of a step; the count keeps the path height
    nonnegative and ends it at height 0.
    """
    n = len(text)
    next_at: list[tuple[int | None, int | None]] = [(None, None)] * (n + 1)
    up = down = None
    for i in range(n - 1, -1, -1):
        if text[i] == "U":
            up = i
        else:
            down = i
        next_at[i] = (up, down)

    @functools.lru_cache(maxsize=None)
    def count(i: int, height: int) -> int:
        total = 1 if height == 0 else 0
        up, down = next_at[i]
        if up is not None:
            total += count(up + 1, height + 1)
        if down is not None and height > 0:
            total += count(down + 1, height - 1)
        return total

    return count(0, 0) - 1


def peaks(text: str) -> int:
    return text.count("UD")


def seeded_tops(rng: random.Random) -> list[str]:
    """SEEDED_TOPS distinct tops of semilength 12 with >= 9 peaks, sizes in SIZE_BAND."""
    peak_counts = range(MIN_PEAKS, TOP_SEMILENGTH + 1)
    # Words with k peaks number narayana(n, k): weighting k so keeps the draw
    # uniform over all words with at least MIN_PEAKS peaks.
    weights = [narayana(TOP_SEMILENGTH, k) for k in peak_counts]
    tops: list[str] = []
    while len(tops) < SEEDED_TOPS:
        (k,) = rng.choices(peak_counts, weights)
        text = random_dyck_with_peaks(rng, TOP_SEMILENGTH, k)
        if text not in tops and SIZE_BAND[0] <= dyck_subword_count(text) < SIZE_BAND[1]:
            tops.append(text)
    return tops


def word_stats_lines(text: str) -> str:
    """The stdout of `dyckposet stats WORD`, derived here from the word alone."""
    heights = list(itertools.accumulate(1 if s == "U" else -1 for s in text))
    groups = [(step, len(list(run))) for step, run in itertools.groupby(text)]
    run_pairs = [(groups[i][1], groups[i + 1][1]) for i in range(0, len(groups), 2)]
    returns = [i + 1 for i, h in enumerate(heights) if h == 0]
    factor_sizes = [(b - a) // 2 for a, b in zip([0] + returns, returns)]
    lines = [
        f"word {text}",
        f"semilength {len(text) // 2}",
        f"peaks {peaks(text)}",
        f"ascents {len(run_pairs)}",
        f"height {max(heights)}",
        "runs " + "".join(f"({u},{d})" for u, d in run_pairs),
        "factors " + " ".join(str(f) for f in factor_sizes),
    ]
    return "\n".join(lines) + "\n"


def is_subsequence(pattern: str, word: str) -> bool:
    rest = iter(word)
    return all(step in rest for step in pattern)


def narayana(n: int, k: int) -> int:
    return math.comb(n, k) * math.comb(n, k - 1) // n


def cli_round(rng: random.Random) -> list[tuple[str, list[str], bytes | None]]:
    """One cli-verify round as (kind, argv, expected stdout) in seeded order.

    The trivial commands carry their expected stdout; the interval query and
    `verify all` are checked by the workload, which has the library at hand.
    """
    pattern = random_dyck(rng, CONTAINS_PATTERN_SEMILENGTH)
    word = random_dyck(rng, CONTAINS_WORD_SEMILENGTH)
    stats_word = random_dyck(rng, STATS_WORD_SEMILENGTH)
    n = rng.randint(1, NARAYANA_MAX_N)
    k = rng.randint(1, n)
    commands = [
        ("cold", ["contains", pattern, word],
         b"true\n" if is_subsequence(pattern, word) else b"false\n"),
        ("cold", ["stats", stats_word], word_stats_lines(stats_word).encode()),
        ("cold", ["formula", "narayana", str(n), str(k)], f"{narayana(n, k)}\n".encode()),
        ("query", list(CLI_QUERY), None),
        ("verify", ["verify", "all"], None),
    ]
    rng.shuffle(commands)
    return commands


def make(workload: str, seed: int) -> dict:
    """The inputs of one run: everything the workload hands to the library."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "interval-big":
        return {"seeded_tops": seeded_tops(rng)}
    if workload == "scan-lab":
        # The scans take only their ceilings; the seed orders them per round.
        return {"orders": [rng.sample(SCAN_NAMES, len(SCAN_NAMES)) for _ in range(ROUNDS)]}
    if workload == "cli-verify":
        return {"rounds": [cli_round(rng) for _ in range(ROUNDS)]}
    raise ValueError(f"unknown workload {workload!r}")
