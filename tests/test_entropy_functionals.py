"""Scalar functionals: entropy, the Poisson entropy curve, entropy power,
relative entropy, and the L / Lambda / U functionals."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from thinpower import (DomainError, FamilySpec, FinitePmf, NumericError,
                       ParameterError, ToleranceConfig, construct, convolve,
                       entropy, entropy_power, is_ulc, l_functional,
                       lambda_functional, mean, poisson_entropy,
                       poisson_entropy_derivative, random_ulc,
                       rel_entropy_poisson, thin, u_functional)
from thinpower import entropy_functionals
from thinpower.numerics import solve_increasing

bern = lambda p: construct(FamilySpec.bernoulli(p))
poi = lambda r: construct(FamilySpec.poisson(r))

mp.mp.dps = 40


_MP_LOG_FACT = [mp.mpf(0)]


def _poisson_entropy_mp(t):
    """Extended-precision oracle for H(Poisson(t)), with cached log k!."""
    t = mp.mpf(t)
    top = int(t + 12 * mp.sqrt(t) + 60)
    while len(_MP_LOG_FACT) < top:
        _MP_LOG_FACT.append(_MP_LOG_FACT[-1] + mp.log(len(_MP_LOG_FACT)))
    log_t = mp.log(t)
    total = mp.mpf(0)
    for z in range(top):
        logp = z * log_t - t - _MP_LOG_FACT[z]
        total -= mp.e ** logp * logp
    return total


def _entropy_power_mp(x):
    """Extended-precision root of E(t) = entropy(x).nats.

    The target is the float entropy the solver sees, so this checks the root
    solve alone.  The bracket is found by doubling and by steps of 2^-8, then
    refined with a bracketing Anderson-Bjorck iteration.
    """
    target = mp.mpf(entropy(x).nats)
    hi = mp.mpf(max(mean(x), 1.0))
    while _poisson_entropy_mp(hi) < target:
        hi *= 2
    lo = hi
    while _poisson_entropy_mp(lo) >= target:
        lo /= 2 ** 8
    root = mp.findroot(lambda t: _poisson_entropy_mp(t) - target, (lo, hi),
                       solver="anderson")
    return float(root)


def _poisson_j_mp(t):
    """Extended-precision oracle for the entropy derivative."""
    t = mp.mpf(t)
    total = mp.mpf(0)
    for z in range(int(t + 12 * mp.sqrt(t) + 60)):
        logp = z * mp.log(t) - t - mp.loggamma(z + 1)
        total += mp.e ** logp * mp.log(mp.mpf(z + 1) / t)
    return float(total)


def test_entropy_of_point_masses_is_zero():
    for k in (0, 1, 5):
        assert entropy(construct(FamilySpec.delta(k))).nats == 0.0


def test_entropy_of_fair_coin():
    value = entropy(bern(0.5))
    assert value.nats == pytest.approx(math.log(2.0), abs=1e-15)
    assert value.bits == pytest.approx(1.0, abs=1e-15)


def test_entropy_of_reference_mixture_in_bits():
    x = convolve(bern(1.0 / 3.0), poi(1.0))
    assert entropy(x).bits == pytest.approx(2.08286, abs=1e-4)


def test_poisson_entropy_endpoints_and_consistency():
    assert poisson_entropy(0.0) == 0.0
    gap = abs(poisson_entropy(1.0) - entropy(poi(1.0)).nats)
    assert gap < 1e-11


@pytest.mark.parametrize("t", [0.5, 1.0, 10.0, 300.0, 2000.0])
def test_poisson_entropy_against_extended_precision(t):
    assert abs(poisson_entropy(t) - _poisson_entropy_mp(t)) < 1e-11


def test_poisson_entropy_rejects_negative_rate():
    with pytest.raises(ParameterError):
        poisson_entropy(-1.0)


def test_poisson_entropy_increasing_and_concave():
    grid = np.concatenate([np.linspace(0.05, 5, 60),
                           np.geomspace(5, 2000, 40)[1:]])
    values = np.array([poisson_entropy(float(t)) for t in grid])
    assert np.all(np.diff(values) > 0.0)
    chords = (values[2:] - values[:-2]) / (grid[2:] - grid[:-2])
    exact = np.array([(values[i + 1] - values[i]) / (grid[i + 1] - grid[i])
                      for i in range(len(grid) - 2)])
    # secant slopes shrink as the interval moves right
    assert np.all(exact + 1e-12 >= chords)


def test_entropy_derivative_positive_and_matches_oracle():
    j1 = poisson_entropy_derivative(1.0)
    assert j1 > 0.0
    assert j1 == pytest.approx(_poisson_j_mp(1.0), rel=1e-10)
    assert 0.0 < poisson_entropy_derivative(1000.0) < 0.001


def test_entropy_derivative_matches_finite_difference():
    for t in (1.0, 10.0):
        h = 1e-5
        fd = (poisson_entropy(t + h) - poisson_entropy(t - h)) / (2 * h)
        assert poisson_entropy_derivative(t) == pytest.approx(fd, rel=1e-6)


def test_entropy_derivative_rejects_nonpositive():
    with pytest.raises(ParameterError):
        poisson_entropy_derivative(0.0)


@pytest.mark.parametrize("lam", [0.1, 0.5, 3.0, 100.0, 1000.0])
def test_entropy_power_inverts_the_poisson_curve(lam):
    assert abs(entropy_power(poi(lam)) - lam) < 1e-8


V_ORACLE_CASES = (
    [pytest.param(poi(r), id=f"poisson-{r}") for r in (1e-3, 0.5, 40.0, 1590.0)]
    + [pytest.param(bern(q), id=f"bernoulli-{q}") for q in (1e-12, 1e-6)]
    # V above the mean: the bracket has to expand
    + [pytest.param(construct(FamilySpec.geometric(50.0)), id="geometric-50"),
       pytest.param(FinitePmf(np.full(200, 1.0 / 200)), id="uniform-200")]
    + [pytest.param(random_ulc(int(s), 3, 2.0), id=f"random-ulc-{i}")
       for i, s in enumerate(np.random.default_rng(31).integers(0, 2 ** 62, 20))]
)


@pytest.mark.parametrize("x", V_ORACLE_CASES)
def test_entropy_power_matches_extended_precision_root(x):
    oracle = _entropy_power_mp(x)
    assert abs(entropy_power(x) - oracle) <= 1e-9 * oracle


def test_entropy_power_takes_few_e_evaluations(monkeypatch):
    rates = []
    pair = entropy_functionals._poisson_entropy_pair
    monkeypatch.setattr(entropy_functionals, "_poisson_entropy_pair",
                        lambda t, cfg: rates.append(t) or pair(t, cfg))
    seeds = np.random.default_rng(41).integers(0, 2 ** 62, 50)
    for s in seeds:
        entropy_power(random_ulc(int(s), 3, 2.0))
    assert len(rates) <= 8 * len(seeds)
    # the mean of Poisson(1000) is the root, and V starts from it
    rates.clear()
    assert abs(entropy_power(poi(1000.0)) - 1000.0) < 1e-8
    assert len(rates) <= 3


def _tiny_entropy_power_mp(x):
    """Extended-precision root of E(t) = entropy(x).nats for entropies far
    below 1, by bisection in log t: there t(1 - log t) <= E(t) is at least t
    and at most 1000 t, so the root lies within e^10 below the target."""
    target = mp.mpf(entropy(x).nats)
    lo, hi = mp.log(target) - 10, mp.log(target)
    for _ in range(120):
        mid = (lo + hi) / 2
        if _poisson_entropy_mp(mp.e ** mid) < target:
            lo = mid
        else:
            hi = mid
    return float(mp.e ** ((lo + hi) / 2))


@pytest.mark.parametrize("x", [
    pytest.param(poi(1e-100), id="poisson-1e-100"),
    pytest.param(bern(1e-62), id="bernoulli-1e-62"),
])
def test_entropy_power_of_tiny_entropy_matches_extended_precision_root(x):
    # from t = 1 every Newton step lands below 0, so the solve bisects down
    # hundreds of times; a cap of 200 steps used to end it with NumericError
    oracle = _tiny_entropy_power_mp(x)
    assert abs(entropy_power(x) - oracle) <= 1e-9 * oracle


@pytest.mark.parametrize("tol_root", [1e-17, 1e-300])
def test_entropy_power_with_tol_root_below_double_resolution(tol_root):
    cfg = ToleranceConfig(tol_root=tol_root)
    assert abs(entropy_power(poi(3.0), cfg) - 3.0) < 1e-12
    x = convolve(bern(1.0 / 3.0), poi(1.0))
    assert entropy_power(x, cfg) == pytest.approx(entropy_power(x), rel=1e-10)


def test_solve_increasing_raises_numeric_error_when_it_cannot_converge():
    # a slope 1e9 times too steep keeps every Newton step inside the bracket
    # and above tol, so only the step cap ends the solve
    pair = lambda s: (s - 1.0, (s - 1.0) / (1e-9 * s))
    with pytest.raises(NumericError):
        solve_increasing(pair, 0.0, 2.0, 1e-10)


def test_solve_increasing_raises_numeric_error_from_a_start_at_zero():
    # a path start that underflows to 0 (thinning Bernoulli(5e-324)) made
    # the doubling loop spin at 0 forever
    calls = []

    def pair(s):
        calls.append(s)
        assert len(calls) < 100, "bracket growth did not stop"
        return s, 1.0

    with pytest.raises(NumericError):
        solve_increasing(pair, 1.0, 0.0, 1e-10)


def test_a_start_left_of_a_near_root_evaluates_no_point_past_it():
    # Newton on the concave log from 2 rises to the root 3 without passing
    # it; the bracket probe evaluated 4, twice the start
    calls = []
    pair = lambda s: calls.append(s) or (math.log(s), 1.0 / s)
    assert solve_increasing(pair, math.log(3.0), 2.0, 1e-12) == \
        pytest.approx(3.0, rel=1e-12)
    assert max(calls) < 4.0


@pytest.mark.parametrize("slope", [0.0, -1.0, math.nan])
def test_a_left_point_whose_slope_does_not_rise_doubles(slope):
    calls = []

    def pair(s):
        calls.append(s)
        return s - 3.0, slope if s < 1.0 else 1.0

    assert solve_increasing(pair, 0.0, 0.1, 1e-12) == pytest.approx(3.0)
    assert calls[:5] == [0.1, 0.2, 0.4, 0.8, 1.6]


def _steep_tanh(c, s):
    g = math.tanh(50.0 * (s / c - 1.0))
    return g, 50.0 / c * (1.0 - g * g)   # rounds to 0 far from c


# increasing g with the root at c, as (g(s), g'(s)): concave, convex, steep
SHAPES = {
    "log": lambda c, s: (math.log(s / c), 1.0 / s),
    "cube": lambda c, s: ((s / c) ** 3 - 1.0, 3.0 * s * s / c ** 3),
    "tanh": _steep_tanh,
}


@given(shape=st.sampled_from(sorted(SHAPES)),
       root=st.floats(1e-3, 1e6),
       start=st.sampled_from([1.0, 1e-12, -1.0]),   # left, far left, right
       u=st.floats(0.05, 0.95),
       # well above double resolution, where g's rounding moves the root
       tol=st.sampled_from([1e-12, 1e-9, 1e-6]))
def test_solve_increasing_finds_the_root_in_one_loop(shape, root, start, u,
                                                      tol):
    calls = []

    def pair(s):
        calls.append((s, *SHAPES[shape](root, s)))
        return calls[-1][1:]

    t0 = root / u if start < 0.0 else root * u * start
    assert abs(solve_increasing(pair, 0.0, t0, tol) - root) <= tol * root
    assert all(0.0 < s <= 1e15 for s, _, _ in calls)
    # until a point right of the root is known, a step from a left point
    # goes at most to twice it, and to twice it when its slope does not
    # point right
    for (s, g, slope), (s_next, _, _) in zip(calls, calls[1:]):
        if g >= 0.0:
            break
        assert s < s_next <= 2.0 * s
        if not slope > 0.0:
            assert s_next == 2.0 * s


def test_entropy_power_of_point_mass_is_zero():
    assert entropy_power(construct(FamilySpec.delta(2))) == 0.0


def test_entropy_power_of_reference_mixture():
    x = convolve(bern(1.0 / 3.0), poi(1.0))
    assert entropy_power(x) == pytest.approx(1.27189, abs=1e-4)


def test_entropy_power_below_mean_for_ulc():
    battery = [bern(0.3), construct(FamilySpec.binomial(5, 0.4)), poi(2.0),
               construct(FamilySpec.bernoulli_sum(0.2, 0.6, 0.9))]
    rng = np.random.default_rng(7)
    battery += [random_ulc(int(s), 3, 2.0) for s in rng.integers(0, 2 ** 62, 10)]
    for x in battery:
        assert entropy_power(x) <= mean(x) + 1e-9


def test_ulc_entropy_below_poisson_curve_at_the_mean():
    rng = np.random.default_rng(23)
    battery = [bern(0.4), construct(FamilySpec.binomial(6, 0.7)), poi(3.0)]
    battery += [random_ulc(int(s), 3, 2.0) for s in rng.integers(0, 2 ** 62, 10)]
    for x in battery:
        assert entropy(x).nats <= poisson_entropy(mean(x)) + 1e-10


def test_entropy_power_can_exceed_mean_outside_ulc():
    # geometric beats the Poisson max-entropy bound at its mean, so the
    # root bracket must expand past the mean
    x = construct(FamilySpec.geometric(1.0))
    assert not is_ulc(x)
    assert entropy_power(x) > mean(x)


def test_rel_entropy_vanishes_on_poisson():
    assert rel_entropy_poisson(poi(2.0)) <= 1e-10


@pytest.mark.parametrize("lam", [1590.0, 2000.0])
def test_rel_entropy_nonnegative_on_wide_poisson(lam):
    # the sum's rounding grows with the support; a fixed 1e-12 clamp let
    # Poisson(1590) read -1.2e-12
    assert 0.0 <= rel_entropy_poisson(poi(lam)) <= 1e-10


def test_rel_entropy_rounding_clamp_keeps_small_rates():
    assert rel_entropy_poisson(poi(1.0)) == 0.0
    assert rel_entropy_poisson(poi(1e-3)) == pytest.approx(3.011069464008991e-17,
                                                           rel=1e-6)


def test_rel_entropy_direct_sum_oracle():
    # two-term sum evaluated at 40 digits: 0.5 log(.5/e^-.5) + 0.5 log(.5/(.5 e^-.5))
    assert rel_entropy_poisson(bern(0.5)) == pytest.approx(
        0.15342640972002734529, abs=1e-12)
    assert rel_entropy_poisson(bern(0.5)) > 0.0
    assert rel_entropy_poisson(construct(FamilySpec.delta(0))) == 0.0


def test_cross_entropy_identity():
    battery = [bern(0.5), bern(0.05), poi(1.5),
               construct(FamilySpec.binomial(6, 0.3)),
               construct(FamilySpec.geometric(1.0)),
               construct(FamilySpec.raw([0.25, 0.5, 0.25]))]
    for x in battery:
        lam = lambda_functional(x)
        split = entropy(x).nats + rel_entropy_poisson(x)
        assert abs(lam - split) < 1e-10


@pytest.mark.parametrize("lam", [0.5, 1.0, 5.0, 20.0])
def test_l_functional_at_poisson_equals_rate_times_derivative(lam):
    value = l_functional(poi(lam))
    assert abs(value - lam * poisson_entropy_derivative(lam)) < 1e-9


def test_l_functional_signs_and_hand_value():
    assert l_functional(bern(0.8)) < 0.0
    # two terms cancel exactly: 1*(1/2)log(1/2) + 2*(1/4)log(2)
    assert abs(l_functional(construct(FamilySpec.raw([0.25, 0.5, 0.25])))) < 1e-12


def test_l_functional_gapped_support_raises():
    with pytest.raises(DomainError):
        l_functional(FinitePmf([0.5, 0.0, 0.5]))


def test_l_functional_shifted_support_is_minus_infinity():
    assert l_functional(construct(FamilySpec.delta(2))) == -math.inf


@pytest.mark.parametrize("functional", [l_functional, u_functional])
def test_functionals_of_the_point_mass_at_zero_are_plus_zero(functional):
    value = functional(construct(FamilySpec.delta(0)))
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_l_functional_is_the_thinning_derivative_of_entropy():
    step = 1e-5
    for x in (bern(0.3), poi(2.0), construct(FamilySpec.raw([0.25, 0.5, 0.25])),
              construct(FamilySpec.bernoulli_sum(0.3, 0.6))):
        fd = (entropy(x).nats - entropy(thin(x, 1.0 - step)).nats) / step
        assert abs(fd - l_functional(x)) < 1e-5


def test_lambda_functional_values():
    assert lambda_functional(construct(FamilySpec.delta(0))) == 0.0
    assert abs(lambda_functional(poi(2.0)) - entropy(poi(2.0)).nats) < 1e-10
    closed_form = 0.5 * (1.0 + math.log(2.0))
    assert lambda_functional(bern(0.5)) == pytest.approx(closed_form, abs=1e-14)


def test_u_functional_values():
    assert u_functional(construct(FamilySpec.delta(0))) == 0.0
    for lam in (0.5, 2.0):
        gap = abs(u_functional(poi(lam)) - lam * poisson_entropy_derivative(lam))
        assert gap < 1e-8
    # single-term evaluation: H - p1 log 1! - mean + 1*p1*log 1 = H - 1/2
    direct = entropy(bern(0.5)).nats - 0.5
    assert u_functional(bern(0.5)) == pytest.approx(direct, abs=1e-14)
