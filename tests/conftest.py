"""Property tests draw the same examples on every run, so a tier-1 result
is reproducible; each test keeps its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
