"""E to rounding against mpmath, and V in one E evaluation.

From numerics._SADDLE_FROM on, the Poisson log pmf is Loader's
saddle-point form; it and E are checked against mpmath at 40 digits, and
so is the bound |E''| <= 1.11 E'/t on which V's final Newton step rests.
V starts from a table of E inverted by cubic Hermite interpolation and
ends with one Newton step left unevaluated: one E evaluation per solve on
criterion 3's draws, and V within tol_root of the mpmath root.
"""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from thinpower import (FamilySpec, ToleranceConfig, construct, convolve,
                       entropy_power, poisson_entropy,
                       poisson_entropy_derivative, random_ulc, search)
from thinpower import entropy_functionals, numerics
from thinpower.acceptance import SUITE_SEED
from thinpower.numerics import solve_increasing

from test_entropy_functionals import _entropy_power_mp, _poisson_entropy_mp

EPS = 2.0 ** -52
poi = lambda r: construct(FamilySpec.poisson(r))


@pytest.mark.parametrize("t", [16.0, 500.0, 1500.0, 2000.0])
def test_log_pmf_and_e_against_mpmath(t):
    z, logp, _ = numerics.poisson_terms(t, ToleranceConfig().tail_eps)
    with mp.workdps(40):
        log_t = mp.log(t)
        exact = np.array([float(k * log_t - t - mp.loggamma(k + 1))
                          for k in range(z.size)])
    # measured at most 3.7 eps of max(1, |log pmf|)
    assert np.all(np.abs(logp - exact) <= 6.0 * EPS * np.maximum(1.0, np.abs(exact)))
    # measured at most 4.5e-16; z log(t) - t - log(z!) read 1.1e-12 at 2000
    with mp.workdps(40):
        assert abs(poisson_entropy(t) - _poisson_entropy_mp(t)) <= 1e-15


def _e_slopes_mp(t):
    """(E'(t), E''(t)) at 30 digits: sum pmf log((z + 1)/t), and
    sum pmf log((z + 2)/(z + 1)) - 1/t."""
    with mp.workdps(30):
        t = mp.mpf(t)
        log_t, log_fact = mp.log(t), mp.mpf(0)
        first = second = mp.mpf(0)
        for z in range(int(t + 12 * mp.sqrt(t) + 60)):
            if z:
                log_fact += mp.log(z)
            pmf = mp.e ** (z * log_t - t - log_fact)
            first += pmf * mp.log((z + 1) / t)
            second += pmf * mp.log(mp.mpf(z + 2) / (z + 1))
        return float(first), float(second - 1 / t)


def test_e_second_derivative_is_bounded_by_its_slope_over_t():
    # the bound entropy_power's docstring states; the ratio peaks at 1.105
    # near t = 2.8, tends to 1 as t grows and to 0 as t falls
    ratios = []
    for t in np.geomspace(1e-3, 1e4, 29).tolist():
        first, second = _e_slopes_mp(t)
        assert first == pytest.approx(poisson_entropy_derivative(t), rel=1e-12)
        ratios.append(abs(second) * t / first)
    assert max(ratios) <= 1.11


ORACLE = {
    "mixture": lambda: convolve(construct(FamilySpec.bernoulli(1.0 / 3.0)),
                                poi(1.0)),
    "random-ulc": lambda: random_ulc(2026, 3, 2.0),
    "geometric-50": lambda: construct(FamilySpec.geometric(50.0)),
    # outside the table: V = 2900 from the mean 99.5, left of the root
    "uniform-200": lambda: construct(FamilySpec.raw([1.0 / 200] * 200)),
}


@lru_cache(maxsize=None)
def _oracle_root(name):
    with mp.workdps(40):
        return _entropy_power_mp(ORACLE[name]())


@pytest.mark.parametrize("tol_root", [1e-4, 1e-10, 1e-20])
@pytest.mark.parametrize("name", sorted(ORACLE))
def test_v_lies_within_tol_root_of_the_mpmath_root(name, tol_root):
    root = _oracle_root(name)
    v = entropy_power(ORACLE[name](), ToleranceConfig(tol_root=tol_root))
    # tol_root below double resolution leaves a few ulps, and E's own
    # error, 1e-15 at most, moves the float root by that over E'
    slack = 4.0 * EPS * root + 1e-15 / poisson_entropy_derivative(root)
    assert abs(v - root) <= tol_root * root + slack


@given(st.floats(math.log(1e-3), math.log(2000.0)).map(math.exp))
def test_v_of_a_poisson_is_its_rate(t):
    # E and entropy(construct(Poisson(t))) agree to an ulp, and the mean
    # near the table's start is taken as the start
    assert entropy_power(poi(t)) == pytest.approx(t, rel=1e-12)


def test_the_table_start_lies_within_its_stated_error():
    # E^-1(E(t)) = t; the stated error leaves room over the measured 6.3e-7
    for t in np.geomspace(1.01e-3, 0.99e3, 300).tolist():
        start = entropy_functionals._start(poisson_entropy(t), math.inf)
        assert abs(start - t) <= 0.4 * entropy_functionals._START_ERR * t


def test_v_takes_one_e_evaluation_per_solve_on_criterion_3_draws(monkeypatch):
    # 6.04 evaluations per solve when V started at max(mean, 1) and
    # stopped on its last evaluated point
    entropy_functionals._start(1.0, 1.0)   # the table is built once, first
    solves, evals = [], []

    def spy(pair, *args, f=entropy_functionals.solve_increasing, **kw):
        solves.append(1)
        return f(lambda s: evals.append(s) or pair(s), *args, **kw)
    monkeypatch.setattr(entropy_functionals, "solve_increasing", spy)
    for name in ("rtepi", "isop", "hmon"):
        search(name, 40, SUITE_SEED)
    assert len(solves) > 100
    assert len(evals) <= 1.1 * len(solves)


def test_the_final_step_is_left_unevaluated():
    # log from 3 (1 + 1e-6): one evaluation, then the Newton point, whose
    # error is about (1e-6)^2 / 2 relative, inside tol = 1e-10
    calls = []
    pair = lambda s: calls.append(s) or (math.log(s), 1.0 / s)
    t = solve_increasing(pair, math.log(3.0), 3.0 * (1.0 + 1e-6), 1e-10,
                         final_step=True)
    assert calls == [3.0 * (1.0 + 1e-6)]
    assert t not in calls and abs(t - 3.0) <= 1e-12 * 3.0
    # without it, the loop evaluates until the step is below tol
    calls.clear()
    solve_increasing(pair, math.log(3.0), 3.0 * (1.0 + 1e-6), 1e-10)
    assert len(calls) == 2


def test_a_point_within_an_ulp_of_the_target_is_returned_as_it_is():
    # g misses the target by one ulp at the start: the step would follow
    # the rounding of g alone
    target = 1.0
    pair = lambda s: (target + math.ulp(target) if s == 2.0 else s - 1.0, 1e-3)
    assert solve_increasing(pair, target, 2.0, 1e-10, final_step=True) == 2.0
