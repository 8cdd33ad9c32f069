"""Settings shared by the whole suite."""

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis caches the constants it reads from the source under its home
# directory, at collection time and even without an example database; keep
# that cache out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "strateval-hypothesis")
# property tests draw the same examples on every run and store none
settings.register_profile("strateval", derandomize=True, database=None, deadline=None)
settings.load_profile("strateval")
