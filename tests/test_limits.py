"""Every resource limit refuses through one check that names the bound."""

import pytest

from dyckposet import (
    DEFAULT_GENERATION_CEILING,
    LimitExceededError,
    build_interval,
    generate_all,
    generate_peakless_motzkin,
    mobius,
    pyramid,
    scan_alternating,
    scan_rank2_max,
    scan_rank3_max,
    staircase,
    sweep_cover_count,
)
from dyckposet.bijections import DEFAULT_MOTZKIN_CEILING
from dyckposet.scans import (
    ALTERNATING_SCAN_CEILING,
    COVER_SCAN_CEILING,
    RANK2_SCAN_CEILING,
    RANK3_SCAN_CEILING,
)

UD = staircase(1)
GEN = DEFAULT_GENERATION_CEILING


@pytest.mark.parametrize(
    "request_over, message",
    [
        pytest.param(
            lambda: generate_all(GEN + 1),
            f"generation semilength {GEN + 1} exceeds the ceiling {GEN}",
            id="generate_all",
        ),
        pytest.param(
            lambda: generate_peakless_motzkin(DEFAULT_MOTZKIN_CEILING + 1),
            f"Motzkin length {DEFAULT_MOTZKIN_CEILING + 1} exceeds the ceiling "
            f"{DEFAULT_MOTZKIN_CEILING}",
            id="generate_peakless_motzkin",
        ),
        pytest.param(
            lambda: build_interval(UD, pyramid(GEN + 1)),
            f"interval top semilength {GEN + 1} exceeds the ceiling {GEN}",
            id="build_interval",
        ),
        pytest.param(
            lambda: mobius(UD, pyramid(GEN + 1)),
            f"interval top semilength {GEN + 1} exceeds the ceiling {GEN}",
            id="mobius",
        ),
        pytest.param(
            lambda: build_interval(UD, pyramid(GEN + 2), limit=GEN + 1),
            f"interval top semilength {GEN + 2} exceeds the limit {GEN + 1}",
            id="build_interval-limit",
        ),
        pytest.param(
            lambda: mobius(UD, pyramid(GEN + 2), limit=GEN + 1),
            f"interval top semilength {GEN + 2} exceeds the limit {GEN + 1}",
            id="mobius-limit",
        ),
        pytest.param(
            lambda: scan_alternating(ALTERNATING_SCAN_CEILING + 1),
            f"alternating scan top semilength {ALTERNATING_SCAN_CEILING + 1} "
            f"exceeds the ceiling {ALTERNATING_SCAN_CEILING}",
            id="scan_alternating",
        ),
        pytest.param(
            lambda: scan_rank2_max(RANK2_SCAN_CEILING + 1),
            f"rank2max scan bottom semilength {RANK2_SCAN_CEILING + 1} "
            f"exceeds the ceiling {RANK2_SCAN_CEILING}",
            id="scan_rank2_max",
        ),
        pytest.param(
            lambda: scan_rank3_max(RANK3_SCAN_CEILING + 1),
            f"rank3max scan bottom semilength {RANK3_SCAN_CEILING + 1} "
            f"exceeds the ceiling {RANK3_SCAN_CEILING}",
            id="scan_rank3_max",
        ),
        pytest.param(
            lambda: sweep_cover_count(COVER_SCAN_CEILING + 1),
            f"covercount scan semilength {COVER_SCAN_CEILING + 1} "
            f"exceeds the ceiling {COVER_SCAN_CEILING}",
            id="sweep_cover_count",
        ),
        pytest.param(
            lambda: scan_alternating(3, limit=2),
            "alternating scan top semilength 3 exceeds the limit 2",
            id="scan_alternating-limit",
        ),
    ],
)
def test_limit_refusal_names_quantity_value_and_bound(request_over, message):
    with pytest.raises(LimitExceededError) as refused:
        request_over()
    assert str(refused.value) == message
