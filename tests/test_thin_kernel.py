"""The inverse thinning kernel's bits, equal to the dense formula, and the
output bits of thin and inverse_thin, pinned by digest."""

import hashlib
import math

import numpy as np
import pytest

from thinpower import FamilySpec, FinitePmf, construct, inverse_thin, thin
from thinpower.jsonio import dumps_canonical, pmf_to_json
from thinpower.numerics import binomial_rows, log_factorials, poisson_log_terms


def dense_binomial_rows(ns, alpha, width):
    """The signed kernel, alpha > 1, as one dense expression over the table."""
    lf = log_factorials(max(int(ns.max()), width - 1))
    k = np.arange(width)
    nk = ns[:, None] - k[None, :]
    valid = nk >= 0
    nk = np.where(valid, nk, 0)
    logw = (lf[ns][:, None] - lf[k][None, :] - lf[nk]
            + k[None, :] * math.log(alpha) + nk * math.log(alpha - 1.0))
    w = np.where(valid, np.exp(logw), 0.0)
    return np.where(nk % 2 == 1, -w, w)


KERNEL_ALPHAS = [1.0 / 0.3, 1.0 / 0.9]


KERNEL_WIDTHS = [1, 2, 3, 17, 255, 256, 257, 1024, 2048, 3000]


# the ids name the first row, n = 0
@pytest.mark.parametrize("width", KERNEL_WIDTHS, ids=lambda w: f"{w}-zero")
def test_binomial_rows_equals_dense_formula_bit_for_bit(width):
    for alpha in KERNEL_ALPHAS:
        # the signed kernel overflows past a few hundred points at 1/0.3;
        # inverse_thin refuses such inputs by their condition number
        with np.errstate(over="ignore"):
            got = binomial_rows(alpha, width)
            want = dense_binomial_rows(np.arange(width), alpha, width)
        assert got.shape == want.shape
        # compared as integers, so -0.0 against 0.0 also counts
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), alpha


# thin's output bits, recorded from the blocked Taylor shift once it met the
# mpmath oracles of test_transforms.py: any change to how thin rounds fails
# here
THIN_DIGESTS = {
    "uniform": "ff6241ae27d19d756a94654e67d8465618930695cb8896d29c14b6767d5145b4",
    "poisson": "e383f822658c912df86a4e44a5b60b31eefad49726483b60b89ea9f6b5cc9522",
    "binomial": "2f30636cf6ddffe03cf26b9cf98ffe6e65471c56bacfe1d4501ec6188e75a1a7",
}
INVERSE_THIN_DIGEST = (
    "cb3c4c6094b61779dc1fb06a878264bbe79953748306daecf6363ea9521775cc")

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
