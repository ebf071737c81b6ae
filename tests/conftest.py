"""Suite-wide hypothesis settings.

The host's speed drifts by tens of percent, so per-example deadlines flake;
derandomized exploration keeps every run of the suite the same run.
"""

from hypothesis import settings

settings.register_profile("edgecache", deadline=None, derandomize=True)
settings.load_profile("edgecache")
