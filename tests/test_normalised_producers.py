"""The pmfs the library computes skip FinitePmf's input checks, bit for bit.

thin, convolve, poisson_pmf and construct's binomial hand the array they
form to FinitePmf._normalised, which only checks the mass, divides and
trims.  That is FinitePmf(array) bit for bit when the array is a 1-D
float64 array, finite, with no entry below +0.0 and no -0.0, which
FinitePmf would clamp to +0.0.  The properties draw ULC and non-ULC pmfs,
Poisson rates and alphas, catch each array on its way in, and check both
the precondition and the bits.  Tier-1 draws supports of up to about 300
points and rates up to 200; the thorough profile (--hypothesis-profile
thorough) draws up to about 3000 points and rates up to 2000.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thinpower import (FamilySpec, FinitePmf, ParameterError, ToleranceConfig,
                       construct, convolve, thin)
from thinpower.numerics import fsum, poisson_terms
from thinpower.pmf_core import poisson_pmf
from conftest import THOROUGH

# most points of a drawn pmf; Bernoulli factors and Poisson rate of the ULC
# ones, about 120 + 50 + 10 sqrt(50) + 30 <= 300 points in tier-1, and
# 1500 + 700 + 10 sqrt(700) + 30 <= 3000 thorough; largest Poisson rate
POINTS, FACTORS, ULC_RATE = (3000, 1500, 700.0) if THOROUGH else (300, 120, 50.0)
RATE = 2000.0 if THOROUGH else 200.0

alphas = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def ulc_pmfs(draw):
    """A Bernoulli sum times a Poisson factor, which is ULC."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = construct(FamilySpec.bernoulli_sum(
        *rng.uniform(0.01, 0.99, draw(st.integers(0, FACTORS)))))
    rate = draw(st.floats(0.0, ULC_RATE))
    return convolve(x, poisson_pmf(rate)) if rate > 0.0 else x


@st.composite
def rough_pmfs(draw):
    """Random entries over many binades, some of them zero: leading,
    interior and trailing zeros, and entries near underflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, POINTS))
    probs = rng.random(n) ** draw(st.sampled_from([1, 8, 60]))
    probs[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0.0
    # subnormal entries and products in thin and convolve
    probs[rng.random(n) < draw(st.sampled_from([0.0, 0.2]))] *= 2.0 ** -1060
    probs[rng.integers(n)] = 1.0
    return construct(FamilySpec.raw(probs))


pmfs = st.one_of(ulc_pmfs(), rough_pmfs())


def handed_over(call):
    """call()'s pmf and copies of the arrays it gave FinitePmf._normalised."""
    arrays = []
    normalised = FinitePmf._normalised.__func__

    def spy(cls, arr, cfg):
        arrays.append(arr.copy())
        return normalised(cls, arr, cfg)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FinitePmf, "_normalised", classmethod(spy))
        pmf = call()
    return pmf, arrays


def assert_checks_cannot_fail(pmf, arrays, *inputs):
    assert len(arrays) == 1
    raw = arrays[0]
    assert raw.dtype == np.float64 and raw.ndim == 1 and raw.size >= 1
    assert np.all(np.isfinite(raw))
    assert not np.any(raw < 0.0)
    assert not np.any(np.signbit(raw))    # no -0.0
    assert pmf.probs.tobytes() == FinitePmf(raw).probs.tobytes()
    # the array was the producer's own: the pmf shares no memory with its
    # inputs
    assert not any(np.shares_memory(pmf.probs, x.probs) for x in inputs)


@given(pmfs, alphas)
def test_thin_hands_over_an_array_the_checks_pass(x, alpha):
    pmf, arrays = handed_over(lambda: thin(x, alpha))
    if len(x) == 1:
        assert arrays == []
    else:
        assert_checks_cannot_fail(pmf, arrays, x)


@given(pmfs, pmfs)
def test_convolve_hands_over_an_array_the_checks_pass(x, y):
    pmf, arrays = handed_over(lambda: convolve(x, y))
    assert_checks_cannot_fail(pmf, arrays, x, y)


@given(st.one_of(st.floats(0.0, RATE, exclude_min=True),
                 st.sampled_from([5e-324, 1e-300, 1e-12, RATE])))
def test_poisson_pmf_hands_over_an_array_the_checks_pass(rate):
    pmf, arrays = handed_over(lambda: poisson_pmf(rate))
    assert_checks_cannot_fail(pmf, arrays)


@given(st.integers(1, POINTS - 1), st.floats(0.0, 1.0, exclude_min=True,
                                             exclude_max=True))
def test_binomial_hands_over_an_array_the_checks_pass(n, p):
    pmf, arrays = handed_over(lambda: construct(FamilySpec.binomial(n, p)))
    assert_checks_cannot_fail(pmf, arrays)


def test_poisson_pmf_still_checks_its_mass():
    # the support cut leaves out more mass than this tol_norm allows
    cfg = ToleranceConfig(tol_norm=1e-16)
    kept = fsum(np.exp(poisson_terms(50.0, cfg.tail_eps)[1]))
    assert 1.0 - kept > cfg.tol_norm
    with pytest.raises(ParameterError, match="pmf mass"):
        poisson_pmf(50.0, cfg)


def test_poisson_pmf_builds_a_rate_its_rounding_once_refused(recorded_platform):
    # with scipy's gammaln past the shipped log-factorials the mass read
    # 1.0000000010540258; math.lgamma's entries keep it within tol_norm
    assert len(poisson_pmf(791364.6334701926)) == 800292


def test_poisson_pmf_builds_a_rate_that_z_log_rate_refused(recorded_platform):
    # z log(rate) - rate - log(z!) put this mass at 0.9999999989783277, off
    # by more than tol_norm; Loader's form keeps it within an ulp of 1
    rate = 655559.6116920724
    kept = fsum(np.exp(poisson_terms(rate, ToleranceConfig().tail_eps)[1]))
    assert abs(kept - 1.0) <= 2.3e-16
    assert len(poisson_pmf(rate)) == 663688


def test_a_refused_poisson_rate_names_the_entries_rounding(recorded_platform):
    # the cut leaves out less than tail_eps, so the entries' rounding is
    # what moves the mass past a tol_norm below eps (at the default 1e-9
    # Loader's form builds every rate measured up to 1.3e6)
    rate = 879392.7565314277
    cfg = ToleranceConfig(tol_norm=5e-17, tail_eps=1e-17)
    kept = fsum(np.exp(poisson_terms(rate, cfg.tail_eps)[1]))
    assert abs(kept - 1.0) > cfg.tol_norm + cfg.tail_eps
    with pytest.raises(ParameterError) as refused:
        poisson_pmf(rate, cfg)
    assert str(refused.value).startswith(
        f"Poisson rate {rate!r} on 888802 points: pmf mass {kept!r} differs "
        "from 1 by more than tol_norm = 5e-17;")
    assert "relative rounding error of a few eps ln N = 3.0e-15" \
        in str(refused.value)
