"""Hypothesis draws the same examples for a test whichever tests run with it.

The profile below sets ``derandomize=True``, which fixes each test's seed and
implies no example database.  Hypothesis also draws from the literals of every
local non-test module in ``sys.modules``, so that pool grows with the modules the
collected test files import: ``bench/test_oracles.py`` brings ``oracles`` and
``workloads``, ``tests/test_cli.py`` brings ``algflow.cli``.  Importing all of them
here, before any test file is collected, gives a test the same pool alone, in its
file and in the full run, so a failing example is reproduced by rerunning that
test on its own.
"""

import importlib
import pathlib
import sys

from hypothesis import settings

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "bench"))
# Every local module that a test file imports, algflow's and the benchmark's.
for name in ("algflow.checks", "algflow.cli", "hostspeed", "oracles", "tracing", "workloads"):
    importlib.import_module(name)

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
