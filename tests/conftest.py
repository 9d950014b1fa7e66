"""Suite-wide hypothesis settings.

A falsified property prints a @reproduce_failure blob, so a failure seen in a
CI log can be replayed exactly, not only from the local example database.
"""
from hypothesis import settings

settings.register_profile("iprox", print_blob=True)
settings.load_profile("iprox")
