"""Hypothesis profiles for the suite.

``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run, so that
the runs at different BLAS thread counts test the same circuits, and a
failure on one of them points at the thread setting rather than at a
different draw. Without the variable hypothesis keeps its default,
randomized profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
