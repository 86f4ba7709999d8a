"""The output bits of thin and inverse_thin, pinned by digest."""

import hashlib

import numpy as np
import pytest

from thinpower import FamilySpec, FinitePmf, construct, inverse_thin, thin
from thinpower.jsonio import dumps_canonical, pmf_to_json
from thinpower.numerics import poisson_log_terms

# thin's output bits, recorded from the blocked Taylor shift once it met the
# mpmath oracles of test_transforms.py: any change to how thin rounds fails
# here
THIN_DIGESTS = {
    "uniform": "ff6241ae27d19d756a94654e67d8465618930695cb8896d29c14b6767d5145b4",
    "poisson": "e383f822658c912df86a4e44a5b60b31eefad49726483b60b89ea9f6b5cc9522",
    "binomial": "2f30636cf6ddffe03cf26b9cf98ffe6e65471c56bacfe1d4501ec6188e75a1a7",
}
# inverse_thin's output bits, recorded once its Taylor shift by 1/alpha met
# the mpmath oracles of test_transforms.py
INVERSE_THIN_DIGEST = (
    "0fd1ee79829065ecd9fca5b29599bae0d48ff1c1eea448f6c0522ce86d9897b3")

THIN_INPUTS = {
    "uniform": lambda n: FinitePmf(np.full(n, 1.0 / n)),
    "poisson": lambda n: _truncated_poisson(n / 2.0, n),
    "binomial": lambda n: construct(FamilySpec.binomial(n - 1, 0.3)),
}


def _truncated_poisson(rate, n):
    p = np.exp(poisson_log_terms(rate, n - 1)[1])
    return FinitePmf(p / p.sum())


def _digest(doc) -> str:
    return hashlib.sha256(dumps_canonical(doc).encode()).hexdigest()


def thin_digest(family: str) -> str:
    x_of = THIN_INPUTS[family]
    return _digest([pmf_to_json(thin(x_of(n), alpha))
                    for n in (5, 64, 300, 2048) for alpha in (0.1, 0.5, 0.9)])


def inverse_thin_digest() -> str:
    cases = [(construct(FamilySpec.binomial(20, 0.2)), 0.5),
             (construct(FamilySpec.poisson(2.0)), 0.8),
             (construct(FamilySpec.bernoulli_sum(0.2, 0.5, 0.7)), 0.9),
             (construct(FamilySpec.binomial(299, 0.3)), 0.99)]
    return _digest([pmf_to_json(inverse_thin(x, a)) for x, a in cases])


@pytest.mark.parametrize("family", sorted(THIN_DIGESTS))
def test_thin_output_digest(recorded_platform, family):
    assert thin_digest(family) == THIN_DIGESTS[family]


def test_inverse_thin_output_digest(recorded_platform):
    assert inverse_thin_digest() == INVERSE_THIN_DIGEST
