"""hessian_analytic on 2 to 4 ULC factors at interior simplex alphas: a
finite, symmetric matrix, or an error of a type from thinpower.errors.

Tier-1 draws factors of up to a dozen points; the thorough profile
(--hypothesis-profile thorough) draws Bernoulli sums of up to 200 factors
times a Poisson factor of rate up to 300, hundreds of points each.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thinpower import FamilySpec, ParameterError, construct, convolve
from thinpower import hessian
from conftest import THOROUGH

FACTORS, RATE = (200, 300.0) if THOROUGH else (6, 4.0)


@st.composite
def ulc_pmfs(draw):
    """A Bernoulli sum times a Poisson factor, which is ULC."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = construct(FamilySpec.bernoulli_sum(
        *rng.uniform(0.01, 0.99, draw(st.integers(0, FACTORS)))))
    rate = draw(st.floats(0.0, RATE))
    return convolve(x, construct(FamilySpec.poisson(rate))) if rate > 0.0 else x


# positive weights normalised to the simplex; the tiny ones put alpha_i
# alpha_j near or below the smallest double
weights = st.one_of(st.floats(1e-3, 1.0),
                    st.sampled_from([1e-300, 1e-170, 1e-160, 1e-20]))


@given(st.integers(2, 4).flatmap(lambda m: st.tuples(
    st.lists(ulc_pmfs(), min_size=m, max_size=m),
    st.lists(weights, min_size=m, max_size=m))))
def test_hessian_is_finite_or_a_typed_error(case):
    xs, w = case
    alphas = np.array(w) / sum(w)
    try:
        hess = hessian.hessian_analytic(xs, alphas)
    except Exception as exc:
        assert type(exc).__module__ == "thinpower.errors", repr(exc)
        return
    assert hess.shape == (len(xs), len(xs))
    assert np.all(np.isfinite(hess))
    assert np.array_equal(hess, hess.T)


_TRIPLE = [construct(FamilySpec.bernoulli_sum(0.3, 0.6)),
           construct(FamilySpec.poisson(2.0)),
           construct(FamilySpec.bernoulli(0.5))]


def test_underflowing_alpha_products_are_refused():
    # 1e-300 * 0.3 is a double, 1e-300 * 1e-300 is 0: a 0/0 entry
    with pytest.raises(ParameterError, match="not finite"):
        hessian.hessian_analytic(_TRIPLE, [1e-300, 0.7, 0.3])


@pytest.mark.parametrize("tiny", [1e-155, 1e-158, 1e-160, 2e-162])
def test_alphas_below_2_to_the_minus_511_are_refused(tiny):
    # alpha^2 is subnormal: H[0, 0] drifts from 1e-13 (1e-155) to 0.3
    # (2e-162), relative, while every entry stays finite
    with pytest.raises(ParameterError, match="not accurate"):
        hessian.hessian_analytic(_TRIPLE, [tiny, 0.5, 0.5 - tiny])


@pytest.mark.parametrize("small", [1.5e-154, 1e-150])
def test_alphas_just_above_2_to_the_minus_511_keep_their_digits(small):
    want = hessian.hessian_analytic(_TRIPLE, [1e-140, 0.5, 0.5 - 1e-140])
    got = hessian.hessian_analytic(_TRIPLE, [small, 0.5, 0.5 - small])
    assert abs(got[0, 0] - want[0, 0]) <= 1e-15 * abs(want[0, 0])
