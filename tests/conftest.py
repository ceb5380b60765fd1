"""Shared test settings.

The checkout's `src` goes first on `sys.path` and on `PYTHONPATH`, so a
plain `pytest` from a fresh checkout imports this tree's `circlet`, and so
do the CLI runs in subprocesses.

Property tests draw the same examples on every run and keep no example
database, so a tier-1 run does not depend on `.hypothesis/` or on luck.
`HYPOTHESIS_PROFILE=explore` switches to fresh random draws.
"""

import os
import sys
from pathlib import Path

from hypothesis import settings

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))
