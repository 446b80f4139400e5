"""Settings for the test run.

With ``CI`` set (as CI services set it), hypothesis runs its ``ci`` profile:
examples derived from each test rather than drawn at random, and no
per-example deadline, so a property test cannot pass on one run and fail on
the next, nor fail on a slow runner.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
