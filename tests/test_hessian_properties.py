"""hessian_analytic on 2 to 4 ULC factors at interior simplex alphas: a
finite, symmetric matrix, or an error of a type from thinpower.errors.

Tier-1 draws factors of up to a dozen points; the thorough profile
(--hypothesis-profile thorough) draws Bernoulli sums of up to 200 factors
times a Poisson factor of rate up to 300, hundreds of points each.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thinpower import FamilySpec, ParameterError, construct, convolve
from thinpower import hessian

THOROUGH = (settings().max_examples
            >= settings.get_profile("thorough").max_examples)
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


def test_underflowing_alpha_products_are_refused():
    # 1e-300 * 0.3 is a double, 1e-300 * 1e-300 is 0: a 0/0 entry
    xs = [construct(FamilySpec.bernoulli_sum(0.3, 0.6)),
          construct(FamilySpec.poisson(2.0)),
          construct(FamilySpec.bernoulli(0.5))]
    with pytest.raises(ParameterError, match="not finite"):
        hessian.hessian_analytic(xs, [1e-300, 0.7, 0.3])
