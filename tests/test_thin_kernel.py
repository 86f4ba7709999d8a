"""The thinning kernel's bits: equal to the dense formula, and pinned by digest."""

import hashlib
import math

import numpy as np
import pytest

from thinpower import (FamilySpec, FinitePmf, ParameterError, construct,
                       inverse_thin, thin)
from thinpower.jsonio import dumps_canonical, pmf_to_json
from thinpower.numerics import (_EXP_ZERO, _live_band, binomial_rows,
                                log_factorials, poisson_log_terms)


def dense_binomial_rows(ns, alpha, width):
    """The kernel as one dense expression over the whole table."""
    lf = log_factorials(max(int(ns.max()), width - 1))
    k = np.arange(width)
    nk = ns[:, None] - k[None, :]
    valid = nk >= 0
    nk = np.where(valid, nk, 0)
    log_rest = math.log1p(-alpha) if alpha < 1.0 else math.log(alpha - 1.0)
    logw = (lf[ns][:, None] - lf[k][None, :] - lf[nk]
            + k[None, :] * math.log(alpha) + nk * log_rest)
    w = np.where(valid, np.exp(logw), 0.0)
    if alpha > 1.0:
        return np.where(nk % 2 == 1, -w, w)
    return w / w.sum(axis=1, keepdims=True)


KERNEL_ALPHAS = [1e-3, 0.1, 0.5, 0.9, 0.999, 1.0 / 0.3, 1.0 / 0.9]
# at 2048 points and more the live band cuts rows on the right (0.1),
# on the left (0.9) and on both sides (0.5)
BAND_ALPHAS = [0.1, 0.5, 0.9]


@pytest.mark.parametrize("width, start", [
    (width, start) for width in (1, 2, 3, 17, 255, 256, 257, 1024)
    for start in ("zero", "block") if (width, start) != (1, "block")]
    + [(2048, "zero"), (3000, "block")])
def test_binomial_rows_equals_dense_formula_bit_for_bit(width, start):
    if start == "zero":
        ns = np.arange(width)
    else:
        # a row block of a kernel past 2828 points: lo > 0, columns beyond it
        lo = max(1, width // 4)
        ns = np.arange(lo, max(lo + 1, 3 * width // 4))
        assert width > ns.max()
    for alpha in KERNEL_ALPHAS if width <= 1024 else BAND_ALPHAS:
        # the signed kernel overflows past a few hundred points at 1/0.3;
        # inverse_thin refuses such inputs by their condition number
        with np.errstate(over="ignore"):
            got = binomial_rows(ns, alpha, width)
            want = dense_binomial_rows(ns, alpha, width)
        assert got.shape == want.shape
        # compared as integers, so -0.0 against 0.0 also counts
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), alpha


def test_cells_outside_the_live_band_are_exact_zeros():
    assert np.exp(_EXP_ZERO) == 0.0
    for width, alpha in [(2048, 0.1), (2048, 0.5), (2048, 0.9), (1024, 0.999)]:
        ns = np.arange(width)
        left, right = _live_band(ns, alpha)
        k = np.arange(width)
        skipped = (k < left[:, None]) | (k >= right[:, None])
        dense = dense_binomial_rows(ns, alpha, width)
        # +0.0 is the all-zero bit pattern; some skipped cells are below the
        # diagonal, so the band does leave out cells the triangle would not
        assert np.all(dense[skipped].view(np.uint64) == 0), alpha
        assert np.count_nonzero(skipped & (k <= ns[:, None])) > 0, alpha


def test_binomial_rows_refuses_cut_rows():
    # every kept entry of these rows underflows: the sum they divide by is 0
    with pytest.raises(ParameterError, match="width"):
        binomial_rows(np.arange(300, 600), 0.999, 1)


# thin's output bits, recorded before the kernel was built from Toeplitz
# views: any change to how thin rounds fails here
THIN_DIGESTS = {
    "uniform": "0df289d61160a5a2476e35e60673cace9c1bf3f44ddaa7c06871fde33c165f2a",
    "poisson": "daca987c0544eb6bede37dd2a62fbf8616bee5b9f9561ed34b1c15bcc68252bf",
    "binomial": "a19cf86b64f7baf253f3c07ab0cd05f437ea8c5f52cf13b962c2f9ca8faf3351",
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
