"""Hypothesis draws the same examples on every run, so a failing example is
reproduced by rerunning the suite, without the local example database."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
