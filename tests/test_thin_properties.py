"""Properties of thin over the envelope it claims: supports of a few thousand
points, any alpha in (0, 1) and Poisson rates up to 2000; and of the round
trip through inverse_thin.

The tolerances follow from thin's componentwise bound: each entry is within
(5.1 N + 4m) u, relative, of the exact thinning of its N-point input
normalised to mass 1 (see thin's docstring), and from inverse_thin's L1
bound.  Tier-1 draws inputs of up to a few hundred points; the thorough
profile (--hypothesis-profile thorough) draws the whole envelope.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thinpower import (DEFAULT_TOLERANCES, FamilySpec, IllConditionedError,
                       construct, convolve, inverse_thin, mean, thin,
                       total_variation)
from thinpower import transforms
from test_transforms import (inverse_bound, pgf_at_inverse_point,
                             roundtrip_bound, thin_bound)
from conftest import THOROUGH

# Bernoulli factors and Poisson rate of the ULC inputs: at most about 2850
# points under the thorough profile
FACTORS, ULC_RATE = (1500, 1000.0) if THOROUGH else (150, 40.0)
POISSON_RATE = 2000.0 if THOROUGH else 200.0

alphas = st.one_of(st.sampled_from([1e-3, 0.999]),
                   st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


def underflow(n):
    """thin's absolute allowance per entry where values underflow."""
    return 2 * (n + transforms._M) ** 2 * 2.0 ** -1074


@st.composite
def ulc_pmfs(draw):
    """A Bernoulli sum times a Poisson factor, which is ULC."""
    count = draw(st.integers(0, FACTORS))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rate = draw(st.floats(0.0, ULC_RATE))
    ps = np.random.default_rng(seed).uniform(0.01, 0.99, count)
    x = construct(FamilySpec.bernoulli_sum(*ps))
    return convolve(x, construct(FamilySpec.poisson(rate))) if rate > 0.0 else x


@given(ulc_pmfs(), alphas, alphas)
def test_thin_sign_mass_mean_and_semigroup(x, a, b):
    n = len(x)
    y = thin(x, a)
    assert np.all(y.probs >= 0.0)
    assert abs(math.fsum(y.probs) - 1.0) <= DEFAULT_TOLERANCES.tol_norm
    # mean(T_a x) = a mean(x) exactly; the two mean() calls, the product
    # by a and the mass of x, 1 within 2u, add at most 7u, and 2^-1073
    # where a mean(x) is subnormal
    lam = mean(x)
    assert abs(mean(y) - a * lam) <= ((thin_bound(n) + 8 * transforms.U) * a * lam
                                      + n * n * underflow(n) + 2.0 ** -1073)
    # T_b T_a = T_ab: thin(y, b) carries y's error and its own, thin(x, ab)
    # its own, and rounding a b moves T_ab x by at most 2 u mean(x) in L1
    tv = total_variation(thin(y, b), thin(x, a * b))
    assert tv <= 2.0 * thin_bound(n) + transforms.U * lam + 2 * n * underflow(n)


@given(st.floats(0.0, POISSON_RATE), alphas)
def test_thin_keeps_poisson_closed(rate, a):
    thinned = thin(construct(FamilySpec.poisson(rate)), a)
    assert total_variation(thinned, construct(FamilySpec.poisson(a * rate))) <= 1e-10


@given(ulc_pmfs(), st.floats(0.01, 0.999))
def test_inverse_thin_round_trip_within_its_bound(x, alpha):
    y = thin(x, alpha)
    try:
        back = inverse_thin(y, alpha)
    except IllConditionedError as exc:
        assert exc.bound > DEFAULT_TOLERANCES.tol_norm
        kappa = pgf_at_inverse_point(y, alpha)
        if kappa < 2.0 ** 972:   # above, inverse_thin reads kappa as inf
            assert exc.kappa == pytest.approx(kappa, rel=1e-9)
            assert exc.bound == pytest.approx(inverse_bound(y, alpha),
                                              rel=1e-9)
        else:
            assert exc.kappa == math.inf
        return
    assert 2.0 * total_variation(back, x) <= roundtrip_bound(x, y, alpha)
