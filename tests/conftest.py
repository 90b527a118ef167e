"""Hypothesis profiles of the test suite.

``default`` is derandomized: every tier-1 run draws the same examples,
so a failure reproduces on the next run and the suite's time stays put.
``fuzz`` draws fresh examples with a larger budget; CI's property-fuzz
job selects it with ``HYPOTHESIS_PROFILE=fuzz``.  A test that pins its
own ``max_examples`` keeps it under either profile.
"""

from __future__ import annotations

import os

from hypothesis import settings

settings.register_profile("default", derandomize=True)
settings.register_profile("fuzz", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
