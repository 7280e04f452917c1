"""Session settings: property tests draw the same examples on every run and store none."""

from hypothesis import settings

settings.register_profile("ngcost", derandomize=True, database=None, deadline=None)
settings.load_profile("ngcost")
