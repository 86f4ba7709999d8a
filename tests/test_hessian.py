"""The analytic Hessian against a dense joint-table sum and finite
differences, positive splitting witnesses, and the interpolation quadratic
form."""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thinpower import (FamilySpec, ParameterError, PreconditionError,
                       construct, check_dsub, check_hmon, lambda_functional,
                       mean, thin)
from thinpower import hessian as apb
from thinpower.numerics import log_factorials
from thinpower.transforms import _left_out, leave_one_out, thinned_sum

from test_transforms import SIMPLEX_ERRORS

bern = lambda p: construct(FamilySpec.bernoulli(p))
poi = lambda r: construct(FamilySpec.poisson(r))
binom = lambda n, p: construct(FamilySpec.binomial(n, p))

ulc_inputs = st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3).map(
    lambda ps: construct(FamilySpec.bernoulli_sum(*ps)))


def dense_hessian(xs, alphas):
    """The Hessian formula summed over the dense product table of the
    thinned inputs: an independent reference for hessian_analytic."""
    alphas = np.asarray(alphas, dtype=float)
    values = reduce(np.multiply.outer,
                    [thin(p, float(a)).probs for p, a in zip(xs, alphas)])
    grids = np.indices(values.shape)
    total = grids.sum(axis=0)
    ratio = np.zeros(values.shape)
    big = total >= 2
    ratio[big] = np.log(total[big] / (total[big] - 1.0))
    base = values * ratio
    m = len(xs)
    hess = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            coeff = grids[i] * (grids[j] - (i == j))
            hess[i, j] = np.sum(base * coeff) / (alphas[i] * alphas[j])
    lam = np.array([mean(p) for p in xs])
    return hess - np.outer(lam, lam) / float(np.dot(alphas, lam))


def test_phi_on_poisson_inputs_is_poisson_entropy():
    value = apb.phi([poi(1.0), poi(1.0)], [0.5, 0.5])
    assert value == pytest.approx(lambda_functional(poi(1.0)), abs=1e-10)


def test_phi_decomposition_identity():
    xs = [binom(2, 0.6), bern(0.4)]
    alphas = [0.45, 0.8]
    q = thinned_sum(xs, alphas).probs
    rate = math.fsum(a * mean(x) for a, x in zip(alphas, xs))
    theta = rate - rate * math.log(rate)
    split = math.fsum(q * log_factorials(q.size - 1)) + theta
    assert split == pytest.approx(apb.phi(xs, alphas), abs=1e-12)


def test_phi_hand_value_for_two_fair_coins():
    # thin(Bern(.5), .5) twice and convolve: [0.5625, 0.375, 0.0625];
    # Lambda = mean + E log X! - mean log mean with mean = 0.5
    expected = 0.5 + 0.0625 * math.log(2.0) - 0.5 * math.log(0.5)
    assert apb.phi([bern(0.5), bern(0.5)], [0.5, 0.5]) == pytest.approx(
        expected, abs=1e-14)


def test_hessian_is_symmetric():
    hess = apb.hessian_analytic([bern(0.5), bern(0.7)], [0.4, 0.6])
    assert np.max(np.abs(hess - hess.T)) < 1e-12


def test_hessian_matches_finite_differences():
    xs = [bern(0.5), bern(0.7)]
    alphas = [0.4, 0.6]
    analytic = apb.hessian_analytic(xs, alphas)
    numeric = apb.hessian_fd(xs, alphas, step=1e-4)
    assert np.all(np.abs(analytic - numeric) <= 1e-5 * np.abs(analytic) + 1e-8)


def test_hessian_matches_finite_differences_three_variables():
    xs = [bern(0.3), binom(2, 0.6), bern(0.8)]
    alphas = [0.25, 0.35, 0.4]
    analytic = apb.hessian_analytic(xs, alphas)
    numeric = apb.hessian_fd(xs, alphas, step=1e-4)
    assert np.all(np.abs(analytic - numeric) <= 1e-5 * np.abs(analytic) + 1e-8)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda m: st.tuples(
    st.lists(ulc_inputs, min_size=m, max_size=m),
    st.lists(st.floats(0.05, 0.95), min_size=m, max_size=m))))
def test_hessian_matches_the_dense_joint_table(case):
    xs, alphas = case
    hess = apb.hessian_analytic(xs, alphas)
    reference = dense_hessian(xs, alphas)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(hess - hess.T)) <= 1e-13 * scale
    assert np.max(np.abs(hess - reference)) <= 1e-13 * scale


def test_hessian_of_four_wide_poissons_matches_finite_differences():
    # the product table of these inputs would hold over 1.2e7 cells
    xs = [poi(5.0)] * 4
    alphas = [0.25] * 4
    analytic = apb.hessian_analytic(xs, alphas)
    numeric = apb.hessian_fd(xs, alphas, step=1e-4)
    assert np.all(np.isfinite(analytic))
    assert np.all(np.abs(analytic - numeric) <= 1e-5 * np.abs(analytic) + 1e-8)


def test_hessian_of_zero_mean_inputs_is_zero():
    # every thinned sum is 0, so phi and both Hessians vanish identically
    xs = [construct(FamilySpec.delta(0))] * 2
    analytic = apb.hessian_analytic(xs, [0.5, 0.5])
    assert np.array_equal(analytic, apb.hessian_fd(xs, [0.5, 0.5]))
    assert np.array_equal(analytic, np.zeros((2, 2)))


@pytest.mark.parametrize("alphas", [[0.0, 0.5], [0.5, 1.0], [-0.1, 0.5]])
def test_hessian_needs_alphas_strictly_inside_the_unit_interval(alphas):
    with pytest.raises(ParameterError, match=r"in \(0, 1\)"):
        apb.hessian_analytic([bern(0.5), bern(0.5)], alphas)


_PAIR = [bern(0.5), bern(0.5)]


@pytest.mark.parametrize("call, message", [
    (lambda: apb.hessian_analytic(_PAIR, [0.2, 0.3, 0.5]),
     "need n+1 >= 2 pmfs with one alpha each"),
    (lambda: apb.hessian_fd(_PAIR, [0.5, 0.5], step=0.0),
     "fd step must be positive"),
    (lambda: apb.hessian_fd(_PAIR, [1.5e-4, 0.5], step=1e-4),
     "alphas too close to {0, 1} for the fd step"),
    (lambda: apb.hessian_fd(_PAIR, [0.5, 1.0 - 1.5e-4], step=1e-4),
     "alphas too close to {0, 1} for the fd step"),
    (lambda: apb.check_quadratic_form(_PAIR, [0.5, 0.5], 0, [0.5, 1.0]),
     "t grid must sit strictly inside (0, 1)"),
], ids=["analytic-alphas-length", "fd-zero-step", "fd-near-0", "fd-near-1",
        "quadratic-form-t-1"])
def test_hessian_parameter_errors(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message


def test_poisson_quadratic_form_never_positive():
    rng = np.random.default_rng(31)
    xs = [poi(0.3), poi(0.5)]
    hess = apb.hessian_analytic(xs, [0.4, 0.5])
    for _ in range(20):
        direction = rng.normal(size=2)
        assert direction @ hess @ direction <= 1e-10


def test_splitting_witness_hand_case():
    # two variables, unit means, leave out the second at t = 1/2:
    # S = 4, u_21 = u_12 = 2, v_12 = 4
    witness = apb.positive_splitting([0.5, 0.5], 1, 0.5, [1.0, 1.0])
    assert np.allclose(witness.beta, [0.5, 0.5])
    assert np.allclose(witness.mu, [-1.0, 1.0])
    assert witness.S == pytest.approx(4.0, abs=1e-12)
    assert witness.u[1, 0] == pytest.approx(2.0, abs=1e-12)
    assert witness.u[0, 1] == pytest.approx(2.0, abs=1e-12)


def test_splitting_coupling_vanishes_off_the_leave_out_pair():
    alphas = np.array([0.2, 0.3, 0.5])
    beta, mu = apb.interpolation_point(alphas, 2, 0.4)
    for i, j in ((0, 1), (1, 0)):
        diff = mu[i] / beta[i] - mu[j] / beta[j]
        assert abs(diff) < 1e-14


def test_splitting_witnesses_on_random_instances():
    rng = np.random.default_rng(404)
    for _ in range(25):
        size = int(rng.integers(2, 5))
        lambdas = rng.uniform(0.3, 3.0, size=size)
        alphas = rng.dirichlet(np.full(size, 2.0))
        leave = int(rng.integers(0, size))
        t = float(rng.uniform(0.05, 0.95))
        witness = apb.positive_splitting(alphas, leave, t, lambdas)
        beta, mu = witness.beta, witness.mu
        assert np.all(witness.u >= 0.0)
        assert np.all(np.diag(witness.u) == 0.0)
        # independent re-evaluation of the quadratic-mean identity
        lhs = math.fsum(mu * mu * lambdas / beta) - witness.S
        rhs = math.fsum(mu * lambdas) ** 2 / math.fsum(beta * lambdas)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(witness.S))


@pytest.mark.parametrize("alphas, leave, t, lambdas, message", [
    ([0.5, 0.5], 2, 0.5, [1.0, 1.0], "leave_out index 2 outside 0..1"),
    ([0.5, 0.5], 1, 0.5, [1.0, 1.0, 1.0], "alphas and lambdas need"),
    ([0.5, 0.5], 1, 1.5, [1.0, 1.0], r"interpolation time 1.5 outside"),
    ([0.5, 0.5], 1, 0.5, [1.0, -1.0], "every lambda_i must be"),
    ([0.0, 0.5, 0.5], 1, 0.5, [1.0, 1.0, 1.0], "every beta_i must be"),
    ([0.5, math.nan], 0, 0.5, [1.0, 1.0], "alphas and lambdas must be finite"),
    ([math.inf, 0.5], 0, 0.5, [1.0, 1.0], "alphas and lambdas must be finite"),
    ([0.5, 0.5], 0, 0.5, [math.nan, 1.0], "alphas and lambdas must be finite"),
    ([0.5, 0.5], 0, 0.5, [1.0, math.inf], "alphas and lambdas must be finite"),
    # math.fsum overflows on these alphas although their sum is finite
    ([1e308, 1e308, -1e308, 0.5], 3, 0.5, [1.0] * 4,
     "every alpha_i must be finite and nonnegative"),
])
def test_splitting_input_errors(alphas, leave, t, lambdas, message):
    with pytest.raises(ParameterError, match=message):
        apb.positive_splitting(alphas, leave, t, lambdas)


def test_quadratic_form_along_interpolation():
    xs = [bern(0.5), bern(0.5)]
    verdicts = apb.check_quadratic_form(xs, [0.5, 0.5], 1,
                                        np.linspace(0.1, 0.9, 9))
    *forms, monotonicity = verdicts
    for verdict in forms:
        assert verdict.lhs <= 1e-10 and verdict.holds
    assert monotonicity.holds


@pytest.mark.parametrize("xs, alphas, message", SIMPLEX_ERRORS)
def test_quadratic_form_raises_the_simplex_messages(xs, alphas, message):
    with pytest.raises(PreconditionError, match=message):
        apb.check_quadratic_form(xs, alphas, 0, [0.5])


def test_quadratic_form_simplex_error_comes_before_the_ulc_error():
    non_ulc = construct(FamilySpec.raw([0.5, 0.0, 0.5]))
    with pytest.raises(PreconditionError, match="finite and strictly"):
        apb.check_quadratic_form([non_ulc] * 2, [math.nan, 1.0], 0, [0.5])
    with pytest.raises(PreconditionError, match="requires ULC inputs"):
        apb.check_quadratic_form([non_ulc] * 2, [0.5, 0.5], 0, [0.5])


def test_interpolation_point_uses_the_left_out_weights():
    alphas = np.array([0.2, 0.3, 0.5])
    beta, mu = apb.interpolation_point(alphas, 2, 0.25)
    _, weights = _left_out(alphas, 2)
    assert beta.tolist() == (0.75 * weights + 0.25 * np.eye(3)[2]).tolist()
    assert mu.tolist() == (np.eye(3)[2] - weights).tolist()


@pytest.mark.parametrize("t", [math.nan, -0.5, 1.5])
def test_interpolation_point_refuses_a_time_off_the_simplex(t):
    with pytest.raises(ParameterError,
                       match=rf"interpolation time {t!r} outside \[0, 1\]"):
        apb.interpolation_point([0.2, 0.3, 0.5], 2, t)


def test_lambda_monotonicity_tight_on_poissons():
    _, _, lhs, rhs = leave_one_out([poi(1.0)] * 3, [1 / 3, 1 / 3, 1 / 3],
                                   lambda_functional)
    assert abs(lhs - rhs) < 1e-8


@pytest.mark.parametrize("xs, alphas", [
    pytest.param([poi(1.0)], [1.0], id="one-pmf"),
    pytest.param([poi(1.0)] * 3, [0.5, 0.5], id="one-alpha-short"),
    pytest.param([poi(1.0)] * 2, [0.9, 0.9], id="not-a-simplex"),
])
def test_lambda_monotonicity_sides_rejects_non_simplex_inputs(xs, alphas):
    with pytest.raises(PreconditionError):
        leave_one_out(xs, alphas, lambda_functional)


def test_margin_bookkeeping_between_the_three_statements():
    rng = np.random.default_rng(77)
    for _ in range(5):
        xs = [bern(float(rng.uniform(0.2, 0.8))) for _ in range(3)]
        alphas = rng.dirichlet(np.full(3, 2.0))
        alphas = alphas / math.fsum(alphas)
        margin_h = check_hmon(xs, alphas).margin
        _, _, lam_lhs, lam_rhs = leave_one_out(xs, alphas, lambda_functional)
        # divergence margin oriented as it enters the subtraction
        margin_d = -check_dsub(xs, alphas).margin
        assert abs(margin_h - ((lam_lhs - lam_rhs) - margin_d)) < 1e-10
