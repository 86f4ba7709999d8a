"""Shared pytest configuration.

Property tests draw their examples deterministically, so every run of the
suite checks the same cases and no run fails on a timing deadline.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
