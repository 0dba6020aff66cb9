"""Hypothesis profiles: `ci` draws the same examples on every run.

Set HYPOTHESIS_PROFILE=ci to select it; without it the default profile runs,
with fresh random examples each time.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("ci", derandomize=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
