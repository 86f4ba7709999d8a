"""The restricted thinned entropy power inequality V(T_a X) >= a V(X) on
ULC pmfs, for any alpha in (0, 1), through check_rtepi.

The pmfs are convolutions of ULC factors (a Bernoulli sum, a binomial and
a Poisson, each of which may be left out), which are ULC.  Tier-1 draws
supports up to about 200 points; the thorough profile
(--hypothesis-profile thorough) draws them up to about 3000.  A few named
pmfs of 1900-2500 points run in both.

check_rtepi holds where the margin is at least -tol_ineq, an absolute
1e-9, while V is documented to within tol_root V with tol_root = 1e-10,
and E to 1e-11 here.  So near equality, from V of about 10 on, the
verdict could read False within V's documented error: the property asks
that it hold, or miss by no more than that error.  A pmf that read False
while V's solve stopped on its evaluated point is pinned below; V's final
Newton step now leaves both of its V within 1.8e-13 of the mpmath root,
relative.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thinpower import (DEFAULT_TOLERANCES, FamilySpec, check_rtepi, construct,
                       convolve, is_ulc, poisson_entropy_derivative)
from conftest import THOROUGH

# most Bernoulli factors, largest binomial n and largest Poisson rate: at
# most 50 + 50 + 115 points in tier-1, 800 + 800 + 1576 thorough
BERNOULLIS, BINOMIAL_N, RATE = (800, 800, 1200.0) if THOROUGH else (50, 50, 30.0)
# E(t)'s documented absolute error for t up to 2000
E_BOUND = 1e-11

# interior alphas, with the ends of (0, 1) and its middle drawn often
alphas = st.one_of(st.floats(1e-6, 1.0 - 1e-6),
                   st.sampled_from([1e-6, 0.013, 0.5, 1.0 - 1e-6]))


@st.composite
def ulc_pmfs(draw):
    """A Bernoulli sum, a binomial and a Poisson, convolved; each factor
    may be left out, and with none left the pmf is the point mass at 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    factors = [construct(FamilySpec.delta(0))]
    m = draw(st.integers(0, BERNOULLIS))
    if m:
        factors.append(construct(FamilySpec.bernoulli_sum(
            *rng.uniform(0.001, 0.999, m))))
    n = draw(st.integers(0, BINOMIAL_N))
    if n:
        factors.append(construct(FamilySpec.binomial(
            n, draw(st.floats(0.001, 0.999)))))
    rate = draw(st.floats(0.0, RATE))
    if rate > 0.0:
        factors.append(construct(FamilySpec.poisson(rate)))
    x = factors[0]
    for factor in factors[1:]:
        x = convolve(x, factor)
    return x


def v_error(v: float) -> float:
    """V's documented error at V = v: the root solve's tol_root v, and
    E's error over E'(v), for each of H's and E's (zero at v = 0)."""
    if v == 0.0:
        return 0.0
    return (DEFAULT_TOLERANCES.tol_root * v
            + 2.0 * E_BOUND / poisson_entropy_derivative(v))


def assert_holds_within_v_error(x, alpha):
    verdict = check_rtepi(x, alpha)
    slack = (DEFAULT_TOLERANCES.tol_ineq + v_error(verdict.lhs)
             + alpha * v_error(verdict.rhs / alpha))
    assert verdict.holds or verdict.margin >= -slack, (
        len(x), alpha, verdict.margin, slack)
    return verdict


@given(ulc_pmfs(), alphas)
def test_thinning_keeps_a_share_of_the_entropy_power(x, alpha):
    assert is_ulc(x)
    assert_holds_within_v_error(x, alpha)


WIDE = {
    "binomial(2999, 0.5)": lambda: construct(FamilySpec.binomial(2999, 0.5)),
    "poisson(1500)": lambda: construct(FamilySpec.poisson(1500.0)),
    "poisson(2000)": lambda: construct(FamilySpec.poisson(2000.0)),
    "binomial(1500, 0.3)+poisson(800)": lambda: convolve(
        construct(FamilySpec.binomial(1500, 0.3)),
        construct(FamilySpec.poisson(800.0))),
    "3000 bernoullis": lambda: construct(FamilySpec.bernoulli_sum(
        *np.random.default_rng(3000).uniform(0.01, 0.99, 3000))),
}


@pytest.mark.parametrize("alpha", [1e-6, 0.013, 0.5, 1.0 - 1e-6])
@pytest.mark.parametrize("name", sorted(WIDE))
def test_wide_ulc_pmfs_hold(name, alpha):
    x = WIDE[name]()
    assert len(x) > 1900
    verdict = check_rtepi(x, alpha)
    assert verdict.holds, verdict.margin
    if name.startswith("poisson"):
        # at equality the margin is rounding, under 2.3e-13 here
        assert abs(verdict.margin) < 1e-12


def test_near_poisson_equality_holds_at_rate_641():
    # binomial(380, 0.001) is nearly Poisson(0.38), so X is nearly
    # Poisson(641.5) and the true margin nearly 0; it read -2.5e-9, within
    # V's error of 1.8e-7 but past tol_ineq, while V's solve returned its
    # last evaluated point, and reads +3.8e-10 since its final Newton step
    x = convolve(construct(FamilySpec.binomial(380, 0.001)),
                 construct(FamilySpec.poisson(641.125)))
    verdict = assert_holds_within_v_error(x, 0.999999)
    assert verdict.holds, verdict.margin
