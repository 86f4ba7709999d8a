"""Shared pytest configuration.

Property tests draw their examples deterministically, so every run of the
suite checks the same cases and no run fails on a timing deadline.  The
"thorough" profile (``--hypothesis-profile thorough``) draws many more.

Tests that pin output bits by digest take the ``recorded_platform``
fixture: it skips them on a host whose floating-point primitives round
differently from the one where the digests were recorded.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import settings
from scipy.special import gammaln

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.register_profile("thorough", derandomize=True, deadline=None,
                          max_examples=2000)
settings.load_profile("deterministic")

# digest of _platform_probe() where the output digests were recorded
PLATFORM_PROBE = (
    "405b591f26f0de1b61ebef973e0f5875c4a12078918c1a103d23f72dbe0d0b9d")


def _platform_probe() -> str:
    """Digest of the primitives thin's bits rest on: exp, gammaln, row sums
    and division, and the BLAS matrix-vector product at thin's shapes."""
    rng = np.random.default_rng(8)
    parts = [np.exp(np.linspace(-745.0, 709.0, 4099)),
             gammaln(np.arange(1.0, 5001.0))]
    for n in (5, 64, 300, 2048):
        a = rng.random((n, n))
        v = rng.random(n)
        parts += [v @ a, a / a.sum(axis=1, keepdims=True)]
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


@pytest.fixture(scope="session")
def recorded_platform():
    if _platform_probe() != PLATFORM_PROBE:
        pytest.skip("exp, gammaln or BLAS round differently here than where "
                    "the digests were recorded")
