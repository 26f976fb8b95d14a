"""Hypothesis runs the same examples on every pass and has no time limit,
so Tier-1 stays deterministic while the machine's speed varies."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
