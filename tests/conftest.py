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
    "7a971319e33e25e80bb1da5cbcb061d4d9cb826b0d8b7b5fa027d904e222ab5f")


def _platform_probe() -> str:
    """Digest of the primitives the pinned bits rest on: the Taylor shift
    of thin and inverse_thin, a BLAS product with the Pascal block (a
    vector-matrix product below 65 points) and np.convolve; and exp and
    gammaln, which build the pmfs and functionals of the fsum digests."""
    rng = np.random.default_rng(8)
    parts = [np.exp(np.linspace(-745.0, 709.0, 4099)),
             gammaln(np.arange(1.0, 5001.0))]
    block = rng.random((64, 65))
    for n in (5, 64, 300, 2048):
        a = rng.random((n, n))
        v = rng.random(n)
        parts += [v @ a, rng.random((-(-n // 64), 64)) @ block[:, :64],
                  np.convolve(v, block[0])]
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


@pytest.fixture(scope="session")
def recorded_platform():
    if _platform_probe() != PLATFORM_PROBE:
        pytest.skip("exp, gammaln or BLAS round differently here than where "
                    "the digests were recorded")
