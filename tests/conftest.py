"""Shared test settings.

Property tests draw the same examples on every run and keep no example
database, so a tier-1 run does not depend on `.hypothesis/` or on luck.
`HYPOTHESIS_PROFILE=explore` switches to fresh random draws.
"""

import os

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))
