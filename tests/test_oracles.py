"""Every fast kernel against an oracle that shares no code with it.

ORACLES maps each kernel to the check that pits it against its slow route in
`oracle.py`.  Every private function of `poset.py` and `scans.py` needs an
entry: `test_every_private_kernel_has_an_oracle` fails on one without, so a
new kernel cannot land unchecked.
"""

import functools
import inspect

import oracle
import pytest

from dyckposet import (
    ArgumentOutOfRangeError,
    LimitExceededError,
    bijections,
    build_interval,
    contains,
    generate_all,
    parse_word,
    poset,
    scans,
    words,
)
from dyckposet.scans import mobius_to_top

UD = parse_word("UD")

# Tops of every shape up to semilength 6, and intervals with a larger bottom.
MOBIUS_INTERVALS = [(UD, top) for n in range(1, 7) for top in generate_all(n)] + [
    (parse_word(b), parse_word(t))
    for b, t in [("UUDD", "UUDUDUDD"), ("UDUD", "UDUDUDUDUD"), ("UUDD", "UUUDDUUDDD")]
]


def check_deletion_texts():
    # The kernel promises each child once, in no particular order.
    for n in range(1, 8):
        for w in generate_all(n):
            expected = [c.text for c in oracle.covered_by(w)]
            out = poset._deletion_texts(w.text)
            assert len(set(out)) == len(out), w
            assert words._lex_sorted(out) == expected, w


def check_insertion_texts():
    # The kernel promises each cover once, in no particular order.
    for n in range(1, 8):
        for w in generate_all(n):
            expected = [c.text for c in oracle.covers_of(w)]
            out = poset._insertion_texts(w.text)
            assert len(set(out)) == len(out), w
            assert words._lex_sorted(out) == expected, w


def check_mobius_sweep():
    # The sweep is fed the oracle's own elements and covers, so only the
    # recursion itself is under test, from either anchor.
    for bottom, top in MOBIUS_INTERVALS:
        from_bottom, to_top = oracle.mobius_columns(bottom, top)
        members = {w.text for w in from_bottom}
        levels = [[] for _ in range(bottom.semilength, top.semilength + 1)]
        down, up = {}, {}
        for w in from_bottom:
            levels[w.semilength - bottom.semilength].append(w.text)
            down[w.text] = [c.text for c in oracle.covered_by(w) if c.text in members]
            up[w.text] = [c.text for c in oracle.covers_of(w) if c.text in members]
        swept_up = poset._mobius_sweep(levels, down, bottom.text)
        swept_down = poset._mobius_sweep(levels[::-1], up, top.text)
        assert swept_up == {w.text: v for w, v in from_bottom.items()}, (bottom, top)
        assert swept_down == {w.text: v for w, v in to_top.items()}, (bottom, top)


def check_walk_down():
    # Order included: levels top-first and lexicographic, up-covers
    # lexicographic, for bottoms UD (no containment test) and larger.
    bottoms = [UD] + [w for n in (2, 3) for w in generate_all(n)]
    for top in [w for n in range(1, 7) for w in generate_all(n)]:
        for bottom in bottoms:
            if not contains(bottom, top):
                continue
            for lowest in range(bottom.semilength, top.semilength + 1):
                expected = oracle.down_set(bottom, top, lowest)
                walked = poset._walk_down(
                    bottom.text, top.text, lowest, poset._deletion_texts
                )
                assert walked == expected, (bottom, top, lowest)


def check_top_windows():
    # Each window is the top part of the whole interval [UD, top], built by
    # the rank walk, with its top-anchored column.
    for lowest in range(1, 7):
        tops = [top for n in range(lowest, 7) for top in generate_all(n)]
        windows = scans._top_windows(tops, lowest)
        for top, (text, levels, column) in zip(tops, windows):
            model = build_interval(UD, top)
            full = {w.text: v for w, v in mobius_to_top(model).items()}
            ranks = range(top.semilength, lowest - 1, -1)
            assert text == top.text
            assert levels == [model.text_ranks[r] for r in ranks]
            assert column == {w: full[w] for r in ranks for w in model.text_ranks[r]}


def check_reversal():
    for n in range(9):
        for text in oracle.dyck_texts(n):
            assert scans._reversal(text) == oracle.mirror_text(text), text


def every_pair(levels, column):
    """A digest that keeps every pair of the window, ranks ascending."""
    return len(column), [(x, column[x]) for level in reversed(levels) for x in level]


def check_reversal_digests():
    # Walked or mirrored, each top's digest is the one its own window gives:
    # the scans' digests, and one that keeps every pair, so that the re-sort
    # of mirrored candidates is checked on whole windows.
    digests = [
        scans._sign_violations,
        functools.partial(scans._bottoms_at_max, signed=True),
        functools.partial(scans._bottoms_at_max, signed=False),
        every_pair,
    ]
    for s in range(1, 8):
        tops = generate_all(s)
        for lowest in range(1, s + 1):
            paired = [list(scans._reversal_digests(tops, lowest, d)) for d in digests]
            for i, top in enumerate(tops):
                ((text, levels, column),) = scans._top_windows([top], lowest)
                for digest, digested in zip(digests, paired):
                    assert digested[i] == (text, *digest(levels, column)), (top, lowest)


def without_elapsed(report):
    payload = report.to_json_dict()
    del payload["elapsed_ms"]
    return payload


def check_scans():
    # The whole scan drivers, witnesses included, against scans that walk
    # each full interval.
    for n in range(1, 4):
        assert without_elapsed(scans.scan_rank2_max(n)) == oracle.scan_rank_max(2, n)
        assert without_elapsed(scans.scan_rank3_max(n)) == oracle.scan_rank_max(3, n)
    assert without_elapsed(scans.scan_alternating(5)) == oracle.scan_alternating(5)


def check_scan_bound():
    # Above the active bound (`limit` if given, else the ceiling) is refused
    # as a limit, and below 1 as out of range, whatever the bound.
    for limit in (None, -2, 0, 2, 6):
        bound, kind = (4, "ceiling") if limit is None else (limit, "limit")
        for value in range(-3, 8):
            if value > bound:
                expected = LimitExceededError, f"scan n {value} exceeds the {kind} {bound}"
            elif value < 1:
                expected = ArgumentOutOfRangeError, f"scan n must be >= 1, got {value}"
            else:
                expected = None
            try:
                scans._check_bound("scan n", value, 4, limit)
                outcome = None
            except (LimitExceededError, ArgumentOutOfRangeError) as refused:
                outcome = type(refused), str(refused)
            assert outcome == expected, (value, limit)


def check_generate_all():
    for n in range(9):
        assert tuple(w.text for w in generate_all(n)) == oracle.dyck_texts(n), n


def check_generate_peakless_motzkin():
    for n in range(11):
        texts = tuple(w.text for w in bijections.generate_peakless_motzkin(n))
        assert texts == oracle.peakless_texts(n), n


# fast kernel -> the check that compares it with its oracle
ORACLES = {
    poset._deletion_texts: check_deletion_texts,
    poset._insertion_texts: check_insertion_texts,
    poset._mobius_sweep: check_mobius_sweep,
    poset._walk_down: check_walk_down,
    scans._top_windows: check_top_windows,
    scans._reversal: check_reversal,
    scans._reversal_digests: check_reversal_digests,
    scans._sign_violations: check_scans,
    scans._bottoms_at_max: check_scans,
    scans._scan_rank_max: check_scans,
    scans._witness: check_scans,
    scans._check_bound: check_scan_bound,
    words.generate_all: check_generate_all,
    bijections.generate_peakless_motzkin: check_generate_peakless_motzkin,
}


@pytest.mark.parametrize(
    "check", list(dict.fromkeys(ORACLES.values())), ids=lambda check: check.__name__
)
def test_kernel_matches_its_oracle(check):
    check()


def test_every_private_kernel_has_an_oracle():
    missing = [
        f"{module.__name__}.{name}"
        for module in (poset, scans)
        for name, value in vars(module).items()
        if name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
        and value not in ORACLES
    ]
    assert not missing, f"kernels without an oracle entry: {missing}"
