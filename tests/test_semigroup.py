"""Interpolation machinery: evolution map, its defining equation, the
entropy-preserving path, and the isoperimetric comparison."""

import numpy as np
import pytest

from thinpower import (DEFAULT_TOLERANCES, DomainError, FamilySpec,
                       ParameterError, PreconditionError, construct, convolve,
                       default_t_grid,
                       entropy, entropy_power, entropy_preserving_path, evolve,
                       isoperimetric_check, l_functional, mean, pde_residual,
                       random_ulc, thin, total_variation)
from thinpower import entropy_functionals, semigroup

bern = lambda p: construct(FamilySpec.bernoulli(p))
poi = lambda r: construct(FamilySpec.poisson(r))


def test_evolve_identity_and_pure_thinning():
    x = construct(FamilySpec.bernoulli_sum(0.4, 0.7))
    assert evolve(x, 1.0, 0.0) is x
    out = evolve(construct(FamilySpec.delta(1)), 0.5, 0.0)
    assert np.allclose(out.probs, [0.5, 0.5], atol=1e-15)


def test_evolve_reproduces_reference_thinned_mixture():
    # thinning Bern(1/3)+Poisson(1) by a and adding rate f gives
    # Bern(a/3) + Poisson(a + f); at a = 0.999, f = 1 this is the
    # counterexample construction with the distant Poisson leg folded in
    alpha = 0.999
    x = convolve(bern(1.0 / 3.0), poi(1.0))
    left = evolve(x, alpha, 1.0)
    right = convolve(bern(alpha / 3.0), poi(alpha + 1.0))
    assert total_variation(left, right) < 1e-10


def test_evolve_validates_arguments():
    x = bern(0.5)
    with pytest.raises(ParameterError):
        evolve(x, 0.0, 0.0)
    with pytest.raises(ParameterError):
        evolve(x, 0.5, -1.0)


@pytest.mark.parametrize("x,t", [
    (bern(0.7), 0.5),
    (construct(FamilySpec.binomial(3, 0.5)), 0.25),
    (construct(FamilySpec.bernoulli_sum(0.2, 0.5, 0.8)), 0.6),
])
def test_pde_residual_pure_thinning(x, t):
    assert pde_residual(x, t, 0.0, 0.0, 1e-5) < 1e-6


def test_pde_residual_point_mass_is_exactly_zero():
    assert pde_residual(construct(FamilySpec.delta(0)), 0.4, 0.0, 0.0, 1e-5) == 0.0


def test_pde_residual_with_replenishment():
    # constant f: r(t) = f/t, checked against the same analytic right side
    x = bern(0.6)
    t, f = 0.5, 0.8
    assert pde_residual(x, t, f / t, f, 1e-5) < 1e-6


def test_pde_residual_step_validation():
    with pytest.raises(ParameterError):
        pde_residual(bern(0.5), 0.5, 0.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        pde_residual(bern(0.5), 1.0, 0.0, 0.0, 1e-5)
    # f - h (f/t - r) = 0.1 - 0.1 * 10.2 < 0
    with pytest.raises(ParameterError, match="perturbed rate went negative"):
        pde_residual(bern(0.5), 0.5, -10.0, 0.1, 0.1)


def test_path_for_poisson_is_linear_rate_exchange():
    lam = 2.0
    report = entropy_preserving_path(poi(lam), default_t_grid(12))
    assert np.max(np.abs(report.f_vals - (1.0 - report.t_grid) * lam)) < 1e-8
    assert report.f0_extrapolated == pytest.approx(lam, abs=1e-3)
    assert report.v_target == pytest.approx(lam, abs=1e-8)


@pytest.mark.parametrize("lam", [0.5, 2.0, 20.0, 200.0])
def test_path_rate_matches_poisson_oracle(lam):
    # thin(Poisson(lam), t) + Poisson(lam (1 - t)) is Poisson(lam) again
    report = entropy_preserving_path(poi(lam))
    exact = lam * (1.0 - report.t_grid)
    bound = DEFAULT_TOLERANCES.tol_root * np.maximum(1.0, report.f_vals)
    assert np.all(np.abs(report.f_vals - exact) <= bound)


@pytest.mark.parametrize("x", [
    pytest.param(construct(FamilySpec.binomial(40, 0.3)), id="binomial-40"),
    pytest.param(poi(200.0), id="poisson-200"),
])
def test_path_takes_few_entropy_evaluations(monkeypatch, x):
    # Newton on the exact derivative; bisection took about 40 per point.
    # The solver's pair takes H through entropy_and_log, the rest through
    # entropy (which calls entropy_and_log, so that one is left unpatched)
    calls = []
    for module, name in ((semigroup, "entropy"), (semigroup, "entropy_and_log"),
                         (entropy_functionals, "entropy")):
        monkeypatch.setattr(module, name,
                            lambda p, f=getattr(module, name):
                            calls.append(1) or f(p))
    report = entropy_preserving_path(x)
    # about 5.9 per point on binomial(40, 0.3) from the mean-restoring
    # start, about 3.7 from the extrapolated one
    assert len(calls) <= 5 * report.t_grid.size


def _mean_restoring_rates(x, t_grid, cfg=DEFAULT_TOLERANCES):
    """Each rate of the path solved from the rate that restores the mean,
    the start every grid point took before starts were extrapolated."""
    h_target = entropy(x).nats
    rates = []
    for t in t_grid.tolist():
        base = thin(x, t, cfg)
        rate0 = mean(base) / t * (1.0 - t) or mean(x) * (1.0 - t)
        rates.append(semigroup._solve_rate_for_entropy(
            base, h_target, rate0, cfg)[0])
    return np.array(rates)


def _criterion_6_inputs(count):
    """The first `count` pmfs that random_ulc draws as criterion 6 does,
    from seeds 0, 1, ..., with L > 0."""
    inputs, seed = [], 0
    while len(inputs) < count:
        x = random_ulc(seed, 3, 2.0)
        if l_functional(x) > 0.0:
            inputs.append(x)
        seed += 1
    return inputs


@pytest.mark.parametrize("x", [
    pytest.param(construct(FamilySpec.binomial(40, 0.3)), id="binomial-40"),
    pytest.param(poi(200.0), id="poisson-200"),
    *[pytest.param(x, id=f"criterion-6-{i}")
      for i, x in enumerate(_criterion_6_inputs(5))],
])
def test_extrapolated_starts_keep_the_rates(x):
    report = entropy_preserving_path(x)
    bound = 2.0 * DEFAULT_TOLERANCES.tol_root * np.maximum(1.0, report.f_vals)
    assert np.all(np.abs(report.f_vals - _mean_restoring_rates(
        x, report.t_grid)) <= bound)


def test_close_grid_points_do_not_blow_up_the_start():
    # from four points 1e-11 apart, the cubic carries the solved rates'
    # rounding to about 1e17 at t = 0.9, a Poisson no array can hold
    x = construct(FamilySpec.binomial(40, 0.3))
    grid = np.array([0.1, 0.1 + 1e-11, 0.1 + 2e-11, 0.1 + 3e-11, 0.9, 1.0])
    report = entropy_preserving_path(x, grid)
    assert np.all(np.abs(report.f_vals - _mean_restoring_rates(x, grid))
                  <= 2.0 * DEFAULT_TOLERANCES.tol_root
                  * np.maximum(1.0, report.f_vals))


@pytest.mark.parametrize("end, accepted", [(1.0 + 4e-13, False),
                                           (1.0 - 4e-13, True)])
def test_path_grid_ends_at_most_at_one(end, accepted):
    grid = default_t_grid(10)
    grid[-1] = end
    x = construct(FamilySpec.binomial(4, 0.3))
    if accepted:
        report = entropy_preserving_path(x, grid)
        assert 0.0 <= report.f_vals[-1] < 1e-9
    else:
        with pytest.raises(ParameterError, match="t grid must sit in"):
            entropy_preserving_path(x, grid)


def test_path_reports_the_state_its_solver_evaluated(monkeypatch):
    # H(x), then per point H(thin(x, t)) by entropy and one H per solver
    # evaluation by entropy_and_log, which pair calls for H and log Q; the
    # reported H and U are those of the evaluated state, not a recount
    entropies, evals = [], []
    for name in ("entropy", "entropy_and_log"):
        monkeypatch.setattr(semigroup, name,
                            lambda p, f=getattr(semigroup, name):
                            entropies.append(1) or f(p))
    monkeypatch.setattr(semigroup, "solve_increasing",
                        lambda pair, *args, f=semigroup.solve_increasing:
                        f(lambda s: evals.append(1) or pair(s), *args))
    x = construct(FamilySpec.binomial(40, 0.3))
    report = entropy_preserving_path(x, default_t_grid(10))
    assert len(entropies) == 1 + report.t_grid.size + len(evals)
    monkeypatch.undo()
    for t, f, h, u in zip(report.t_grid, report.f_vals, report.h_vals,
                          report.u_vals):
        state = evolve(x, float(t), float(f))
        assert h == entropy(state).nats
        assert u == entropy_functionals.u_functional(state)


def test_an_exact_start_is_returned_without_a_bracket_probe(monkeypatch):
    # Poisson(200)'s path is f = 200 (1 - t), which its starts extrapolate
    # to rounding, and V(Poisson(1000)) starts at its mean, the root: a
    # start whose Newton step is below tol is returned without evaluating
    # twice the start (2.05 evaluations per point, and 2 for V, with such
    # a probe)
    evals = []
    for module in (semigroup, entropy_functionals):
        monkeypatch.setattr(module, "solve_increasing",
                            lambda pair, *args, f=module.solve_increasing,
                            **kw: f(lambda s: evals.append(s) or pair(s),
                                    *args, **kw))
    report = entropy_preserving_path(poi(200.0))
    assert len(evals) <= 1.5 * report.t_grid.size
    evals.clear()
    assert entropy_power(poi(1000.0)) == pytest.approx(1000.0, rel=1e-12)
    assert len(evals) == 1


def test_the_path_solver_evaluates_no_bracket_probe(monkeypatch):
    # Newton from an extrapolated start left of the root rises to it
    # without a probe past it: binomial(40, 0.3)'s path takes 2.0
    # evaluations per point, and took 2.65 when the solver also evaluated
    # twice each left start
    evals = []
    monkeypatch.setattr(semigroup, "solve_increasing",
                        lambda pair, *args, f=semigroup.solve_increasing:
                        f(lambda s: evals.append(s) or pair(s), *args))
    report = entropy_preserving_path(construct(FamilySpec.binomial(40, 0.3)))
    assert len(evals) <= 2.2 * report.t_grid.size


def test_path_extrapolates_to_entropy_power():
    x = construct(FamilySpec.binomial(4, 0.3))
    report = entropy_preserving_path(x, default_t_grid(40))
    assert abs(report.f0_extrapolated - report.v_target) < 1e-3


def test_path_constancy_and_monotone_u():
    x = construct(FamilySpec.bernoulli_sum(0.2, 0.3, 0.4))
    report = entropy_preserving_path(x, default_t_grid(25))
    assert np.max(np.abs(report.h_vals - entropy(x).nats)) < 10 * 1e-10
    assert np.all(np.diff(report.u_vals) <= 1e-8)
    assert np.all(report.f_vals >= -1e-12)
    assert report.f_vals[-1] == 0.0


def test_path_requires_positive_l():
    with pytest.raises(DomainError):
        entropy_preserving_path(bern(0.8))   # L(Bern(0.8)) < 0


def test_path_requires_ulc():
    with pytest.raises(PreconditionError):
        entropy_preserving_path(construct(FamilySpec.geometric(1.0)))


def test_path_grid_validation():
    with pytest.raises(ParameterError):
        entropy_preserving_path(poi(1.0), [0.5, 0.2, 1.0])
    with pytest.raises(ParameterError):
        entropy_preserving_path(poi(1.0), [0.2, 0.9])
    with pytest.raises(ParameterError, match="t grid needs at least 2 points"):
        default_t_grid(1)


def test_isoperimetric_poisson_equality():
    verdict = isoperimetric_check(poi(3.0))
    assert abs(verdict.margin) < 1e-8
    assert verdict.holds


def test_isoperimetric_negative_l_holds_automatically():
    verdict = isoperimetric_check(bern(0.9))
    assert verdict.lhs < 0.0
    assert verdict.holds


def test_isoperimetric_positive_margin_case():
    verdict = isoperimetric_check(construct(FamilySpec.binomial(5, 0.2)))
    assert verdict.holds and verdict.margin > 0.0


def test_isoperimetric_requires_ulc_unless_overridden():
    geo = construct(FamilySpec.geometric(1.0))
    with pytest.raises(PreconditionError):
        isoperimetric_check(geo)
    verdict = isoperimetric_check(geo, allow_non_ulc=True)
    assert verdict.note == "outside theorem hypotheses"


def test_scaled_entropy_power_ratio_is_nonincreasing():
    # the differential form of the isoperimetric statement: V(T_a x)/a falls
    rng = np.random.default_rng(505)
    alphas = np.linspace(0.2, 1.0, 9)
    for seed in rng.integers(0, 2 ** 62, size=50):
        x = random_ulc(int(seed), 3, 2.0)
        ratios = [entropy_power(thin(x, float(a))) / a for a in alphas]
        slopes = np.diff(ratios) / np.diff(alphas)
        assert np.max(slopes) <= 1e-7
