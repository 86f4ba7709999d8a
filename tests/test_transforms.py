"""Thinning, convolution, and thinning inversion."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from thinpower import numerics, transforms
from thinpower import (DEFAULT_TOLERANCES, FamilySpec, FinitePmf,
                       IllConditionedError, NotThinnableError,
                       ParameterError, PreconditionError, construct, convolve,
                       inverse_thin, is_ulc, mean, random_ulc, thin,
                       total_variation)
from thinpower.transforms import _left_out, leave_one_out, thinned_sum

bern = lambda p: construct(FamilySpec.bernoulli(p))
poi = lambda r: construct(FamilySpec.poisson(r))

BATTERY = [
    bern(0.3),
    construct(FamilySpec.bernoulli_sum(0.2, 0.5, 0.7)),
    construct(FamilySpec.binomial(4, 0.35)),
    poi(2.0),
    poi(50.0),
]


def test_thin_by_one_is_identity():
    x = construct(FamilySpec.bernoulli_sum(0.3, 0.8))
    assert thin(x, 1.0) is x


def test_thin_single_bernoulli_trial():
    out = thin(bern(1.0), 0.5)
    assert np.allclose(out.probs, [0.5, 0.5], atol=1e-15)


def test_thin_by_zero_collapses_to_origin():
    assert thin(poi(3.0), 0.0).probs.tolist() == [1.0]


@pytest.mark.parametrize("lam", [0.5, 1.0, 5.0, 50.0, 200.0])
@pytest.mark.parametrize("alpha", [0.25, 0.6, 0.9])
def test_thinning_preserves_poisson(lam, alpha):
    tv = total_variation(thin(poi(lam), alpha), poi(alpha * lam))
    assert tv < 1e-10


@pytest.fixture
def cold_log_factorials(monkeypatch):
    """Shrink the shared log-factorial table to 128 entries, so that a
    Poisson(3000) grows it through log_factorials."""
    monkeypatch.setattr(numerics, "_LOG_FACT", numerics._LOG_FACT[:128])


@pytest.mark.parametrize("width", [2829, 4096])
def test_thin_wide_support_in_blocks(width):
    # 45 and 64 blocks of 64 points, combined by 44 and 63 Horner steps
    x = FinitePmf(np.full(width, 1.0 / width))
    out = thin(x, 0.3)
    assert abs(math.fsum(out.probs) - 1.0) < 1e-12
    assert abs(mean(out) - 0.3 * mean(x)) < 1e-9 * mean(x)


def test_thin_wide_poisson_stays_poisson(cold_log_factorials):
    assert total_variation(thin(poi(3000.0), 0.5), poi(1500.0)) <= 1e-10


def thin_bound(n):
    """thin's relative error bound on n points (see its docstring)."""
    return (5.1 * n + 4 * transforms._M) * transforms.U


def test_thin_uniform_5000_against_mpmath():
    # P(k) = sum_(n >= k) C(n, k) / 2^n / 5000, summed at 30 digits through
    # the term ratio (n+1) / (2 (n+1-k)); entry 4999 underflows to 0 and is
    # trimmed with the other trailing zeros.  The stored entries are all
    # equal, so their exact thinning normalised to mass 1 is P
    width = 5000
    out = np.zeros(width)
    thinned = thin(FinitePmf(np.full(width, 1.0 / width)), 0.5).probs
    out[:thinned.size] = thinned
    with mpmath.workdps(30):
        for k in (0, 1250, 2500, 3700, 4999):
            term = mpmath.mpf(2) ** -k
            total = term
            for n in range(k, width - 1):
                term *= mpmath.mpf(n + 1) / (2 * (n + 1 - k))
                total += term
            expected = float(total / width)
            assert abs(out[k] - expected) <= thin_bound(width) * expected


def exact_thin(probs, alpha, ks, power=1):
    """Entries ks of the exact thinning of the doubles probs by alpha^power
    for the double alpha, normalised to mass 1, at 60 digits."""
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha) ** power
        b = 1 - a
        xs = [mpmath.mpf(v) for v in probs.tolist()]
        mass = mpmath.fsum(xs)
        out = []
        for k in ks:
            w = a ** k            # C(n, k) a^k b^(n-k) at n = k
            total = w * xs[k]
            for n in range(k + 1, len(xs)):
                w *= b * n / (n - k)
                total += w * xs[n]
            out.append(float(total / mass))
    return out


def wide_support_input(family, n):
    """The wide_support benchmark's families at n points."""
    if family == "binomial":
        return construct(FamilySpec.binomial(n - 1, 0.8))
    if family == "poisson":
        # about 0.975 of the rate whose support cut lands at n points
        return poi(0.975 * ((math.sqrt(100.0 + 4.0 * (n - 31)) - 10.0) / 2.0) ** 2)
    ps = np.random.default_rng(2048).uniform(0.05, 0.95, n - 1)
    return construct(FamilySpec.bernoulli_sum(*ps))


@pytest.mark.parametrize("family", ["binomial", "poisson", "bernoulli_sum"])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_thin_wide_support_against_mpmath(family, alpha):
    # the mode and nine points spread over the entries above 1e-290, far
    # tails included; every one within the componentwise bound
    x = wide_support_input(family, 2048)
    out = thin(x, alpha).probs
    live = np.flatnonzero(out > 1e-290)
    ks = sorted({int(np.argmax(out))}
                | set(np.linspace(live[0], live[-1], 9).astype(int).tolist()))
    for k, want in zip(ks, exact_thin(x.probs, alpha, ks)):
        assert abs(out[k] - want) <= thin_bound(len(x)) * want, k


def test_thin_rejects_bad_alpha():
    with pytest.raises(ParameterError):
        thin(bern(0.5), 1.5)
    with pytest.raises(ParameterError):
        thin(bern(0.5), -0.1)


@pytest.mark.parametrize("x", BATTERY)
@pytest.mark.parametrize("ab", [(0.3, 0.8), (0.5, 0.5), (0.9, 0.1), (0.05, 0.95)])
def test_thinning_semigroup_law(x, ab):
    a, b = ab
    assert total_variation(thin(thin(x, a), b), thin(x, a * b)) < 1e-12


@pytest.mark.parametrize("x", BATTERY)
@pytest.mark.parametrize("alpha", [0.0, 0.15, 0.5, 0.85, 1.0])
def test_thinning_scales_the_mean(x, alpha):
    assert abs(mean(thin(x, alpha)) - alpha * mean(x)) < 1e-12


@pytest.mark.parametrize("x", BATTERY)
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_zero_mass_lower_bound(x, s):
    assert thin(x, s).probs[0] >= (1.0 - s) ** mean(x) - 1e-12


def test_thinning_commutes_with_convolution():
    x = construct(FamilySpec.bernoulli_sum(0.4, 0.6))
    y = poi(1.5)
    for alpha in (0.2, 0.55, 0.9):
        lhs = thin(convolve(x, y), alpha)
        rhs = convolve(thin(x, alpha), thin(y, alpha))
        assert total_variation(lhs, rhs) < 1e-12


def test_thinning_preserves_ulc_class():
    rng = np.random.default_rng(1234)
    seeds = rng.integers(0, 2 ** 62, size=200)
    for seed in seeds:
        x = random_ulc(int(seed), 3, 2.0)
        for alpha in (0.1, 0.35, 0.65, 0.9):
            assert is_ulc(thin(x, alpha))


def test_convolution_identity_and_symmetric_case():
    y = construct(FamilySpec.binomial(2, 0.7))
    out = convolve(construct(FamilySpec.delta(0)), y)
    assert np.allclose(out.probs, y.probs, atol=1e-16)
    two = convolve(bern(0.5), bern(0.5))
    assert np.allclose(two.probs, [0.25, 0.5, 0.25], atol=1e-16)


def test_convolution_adds_poisson_rates():
    assert total_variation(convolve(poi(1.0), poi(2.0)), poi(3.0)) < 1e-10


def test_convolution_length():
    out = convolve(construct(FamilySpec.binomial(3, 0.5)), bern(0.5))
    assert len(out) == 4 + 2 - 1


def test_inverse_thin_bernoulli():
    out = inverse_thin(bern(0.3), 0.5)
    assert np.allclose(out.probs, [0.4, 0.6], atol=1e-14)


def test_inverse_thin_infeasible_bernoulli():
    with pytest.raises(NotThinnableError) as info:
        inverse_thin(bern(0.6), 0.5)
    assert info.value.index == 0
    assert info.value.value == pytest.approx(-0.2, abs=1e-12)


def test_inverse_thin_poisson():
    out = inverse_thin(poi(1.0), 0.25)
    assert total_variation(out, poi(4.0)) < 1e-9


def test_inverse_thin_alpha_validation():
    with pytest.raises(ParameterError):
        inverse_thin(bern(0.3), 0.0)


@pytest.mark.parametrize("x,alpha", [
    (bern(0.3), 0.5),
    (poi(1.0), 0.25),
    (construct(FamilySpec.binomial(3, 0.2)), 0.7),
])
def test_inverse_thin_round_trip(x, alpha):
    assert total_variation(thin(inverse_thin(x, alpha), alpha), x) < 1e-10


def test_inverse_thin_round_trip_random_ulc():
    rng = np.random.default_rng(99)
    for seed in rng.integers(0, 2 ** 62, size=20):
        x = random_ulc(int(seed), 2, 1.0)
        alpha = float(rng.uniform(0.85, 0.99))
        try:
            star = inverse_thin(x, alpha)
        except NotThinnableError:
            continue
        assert total_variation(thin(star, alpha), x) < 1e-10


def pgf_at_inverse_point(x, alpha):
    """kappa = G_x(2/alpha - 1), summed in log space so no term overflows."""
    n = np.flatnonzero(x.probs)
    logs = np.log(x.probs[n]) + n * math.log(2.0 / alpha - 1.0)
    top = float(np.max(logs))
    try:
        return math.exp(top) * math.fsum(np.exp(logs - top))
    except OverflowError:
        return math.inf


def inverse_bound(x, alpha):
    """inverse_thin's L1 error bound, u (2D + 5N + 2) kappa, on N = len(x)
    points, with D = 2 min(N, m) + (J - 1)(2m + 3) (see its docstring)."""
    n, m, u = len(x), transforms._M, transforms.U
    rounds = 2 * min(n, m) + (math.ceil(n / m) - 1) * (2 * m + 3)
    return u * (2 * rounds + 5 * n + 2) * pgf_at_inverse_point(x, alpha)


def roundtrip_bound(x, y, alpha):
    """L1 bound on inverse_thin(y, alpha) - x for y = thin(x, alpha): y's
    own bound, plus thin's relative error on each entry of y, which the
    exact inverse T_(1/alpha) magnifies by at most kappa in L1."""
    return (inverse_bound(y, alpha)
            + thin_bound(len(x)) * pgf_at_inverse_point(y, alpha))


def exact_inverse_thin(probs, alpha):
    """The exact thinning of the doubles probs, normalised to mass 1, by
    1/alpha; its negative entries are clamped to 0 and the rest
    renormalised, as FinitePmf does."""
    clamped = [max(v, 0.0) for v in
               exact_thin(probs, alpha, range(probs.size), power=-1)]
    with mpmath.workdps(60):
        mass = mpmath.fsum(clamped)
        return [v / mass for v in clamped]


INVERSE_ORACLE_CASES = {
    "binomial(60, .3) at .8": (construct(FamilySpec.binomial(60, 0.3)), 0.8),
    "thinned binomial(60, .3) at .8": (
        thin(construct(FamilySpec.binomial(60, 0.3)), 0.8), 0.8),
    "thinned Poisson(30) at .9": (thin(poi(30.0), 0.9), 0.9),
    "binomial(299, .3) at .99": (construct(FamilySpec.binomial(299, 0.3)), 0.99),
    "Poisson(1) at .25": (poi(1.0), 0.25),
    "binomial(20, .2) at .5": (construct(FamilySpec.binomial(20, 0.2)), 0.5),
}


@pytest.mark.parametrize("case", sorted(INVERSE_ORACLE_CASES))
def test_inverse_thin_against_mpmath(case):
    x, alpha = INVERSE_ORACLE_CASES[case]
    want = exact_inverse_thin(x.probs, alpha)
    got = np.zeros(len(x))
    star = inverse_thin(x, alpha).probs
    got[:star.size] = star
    with mpmath.workdps(60):
        err = float(mpmath.fsum(abs(mpmath.mpf(g) - w)
                                for g, w in zip(got.tolist(), want)))
    assert err <= inverse_bound(x, alpha)


@pytest.mark.parametrize("n, alpha", [(1000, 0.999), (2000, 0.9999),
                                      (4096, 0.99999)])
def test_inverse_thin_round_trip_on_wide_support(n, alpha):
    # alpha near 1 keeps kappa small enough to certify thousands of points
    x = construct(FamilySpec.binomial(n - 1, 0.3))
    y = thin(x, alpha)
    back = inverse_thin(y, alpha)
    assert 2.0 * total_variation(back, x) <= roundtrip_bound(x, y, alpha)


def test_inverse_thin_overflowing_condition_number():
    # 2/alpha - 1 overflows to inf; the top entry is positive, so kappa is
    # inf rather than 0 * inf = nan
    with pytest.raises(IllConditionedError) as info:
        inverse_thin(bern(0.5), 1e-310)
    assert info.value.kappa == math.inf


def test_inverse_thin_condition_number_of_a_subnormal_tail():
    # the top entry, 3 * 2^-1074, carries nearly all of kappa; Horner's rule
    # on the unscaled entries rounds its first, subnormal steps to whole
    # multiples of 2^-1074 and read kappa 0.34% low
    probs = np.zeros(438)
    probs[0], probs[437] = 1.0, 3 * 2.0 ** -1074
    x = FinitePmf(probs)
    with pytest.raises(IllConditionedError) as info:
        inverse_thin(x, 0.3)
    assert info.value.kappa == pytest.approx(pgf_at_inverse_point(x, 0.3),
                                             rel=1e-9)


def test_inverse_thin_shift_overflow_is_ill_conditioned():
    # kappa = 1 + 1e-25 (3 - 2 alpha)^60, about 4.2e3, passes the bound,
    # but the shift by 1/alpha forms (2/alpha)^i, past the largest double
    # within a block: the bound's no-overflow premise fails, and the
    # refusal is IllConditionedError, without an overflow warning
    v = np.zeros(61)
    v[0], v[60] = 1.0 - 1e-25, 1e-25
    x = thin(FinitePmf(v), 1.2e-5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedError) as info:
            inverse_thin(x, 1.2e-5)
    assert info.value.kappa == pytest.approx(pgf_at_inverse_point(x, 1.2e-5),
                                             rel=1e-9)
    assert info.value.bound == math.inf


@pytest.mark.parametrize("spec, alpha", [
    (FamilySpec.binomial(128, 0.5), 0.5),
    (FamilySpec.binomial(600, 0.5), 0.9),
    (FamilySpec.poisson(160.0), 0.9),
    (FamilySpec.binomial(64, 0.5), 0.5),
])
def test_inverse_thin_refuses_ill_conditioned_round_trips(spec, alpha):
    # each input is a thinned pmf, so its preimage exists, but kappa is
    # too large for double precision to decide its entries' signs
    y = thin(construct(spec), alpha)
    with pytest.raises(IllConditionedError) as info:
        inverse_thin(y, alpha)
    assert info.value.alpha == alpha
    assert info.value.kappa == pytest.approx(pgf_at_inverse_point(y, alpha),
                                             rel=1e-9)
    assert info.value.bound == pytest.approx(inverse_bound(y, alpha),
                                             rel=1e-9)
    assert info.value.bound > DEFAULT_TOLERANCES.tol_norm


def test_thinned_sum_matches_thin_then_convolve():
    x, y = construct(FamilySpec.binomial(3, 0.4)), poi(1.5)
    expected = convolve(thin(x, 0.3), thin(y, 0.7))
    assert np.array_equal(thinned_sum([x, y], [0.3, 0.7]).probs, expected.probs)


@pytest.mark.parametrize("xs, alphas", [([], []), ([poi(1.0)], [0.5, 0.5])])
def test_thinned_sum_needs_one_alpha_per_pmf(xs, alphas):
    with pytest.raises(ParameterError):
        thinned_sum(xs, alphas)


def test_leave_one_out_means_of_poisson_terms():
    # the mean of a thinned sum is sum_i alpha_i * mean_i
    xs, alphas = [poi(1.0), poi(2.0), poi(3.0)], [0.2, 0.3, 0.5]
    full, loo, n_full, weighted = leave_one_out(xs, alphas, mean)
    comp = [_left_out(np.asarray(alphas), l)[0] for l in range(3)]
    assert full == pytest.approx(0.2 + 0.6 + 1.5, abs=1e-9)
    assert comp == pytest.approx([0.8, 0.7, 0.5], abs=1e-15)
    assert loo == pytest.approx([(0.6 + 1.5) / 0.8, (0.2 + 1.5) / 0.7,
                                 (0.2 + 0.6) / 0.5], abs=1e-9)
    # the sides the monotonicity statements compare
    assert n_full == 2 * full
    assert weighted == math.fsum(c * v for c, v in zip(comp, loo))


def test_left_out_weights_zero_the_left_out_entry():
    alphas = np.array([0.2, 0.3, 0.5])
    comp, weights = _left_out(alphas, 1)
    assert comp == math.fsum([0.2, 0.5])
    assert weights.tolist() == [0.2 / comp, 0.0, 0.5 / comp]
    with pytest.raises(ParameterError, match="vanished"):
        _left_out(np.array([1.0, 0.0]), 0)
    with pytest.raises(ParameterError, match="overflows a double"):
        _left_out(np.array([1e308, 1e308, 1e308]), 0)


# simplex inputs leave_one_out refuses, and the message it gives
SIMPLEX_ERRORS = [
    ([poi(1.0)], [1.0], r"need n\+1 >= 2 pmfs"),
    ([poi(1.0)] * 2, [0.0, 1.0], "strictly positive"),
    ([poi(1.0)] * 2, [0.5, 0.6], "sum to 1"),
    ([poi(1.0)] * 2, [math.nan, 1.0], "finite and strictly positive"),
    ([poi(1.0)] * 2, [0.5, math.nan], "finite and strictly positive"),
    ([poi(1.0)] * 2, [math.inf, 0.5], "finite and strictly positive"),
    ([poi(1.0)] * 2, [0.5, -math.inf], "finite and strictly positive"),
    # a sum past the largest double, which math.fsum reports as overflow
    ([poi(1.0)] * 2, [1e308, 1e308], "sum to 1"),
]


@pytest.mark.parametrize("xs, alphas, message", SIMPLEX_ERRORS)
def test_leave_one_out_validates_the_simplex(xs, alphas, message):
    with pytest.raises(PreconditionError, match=message):
        leave_one_out(xs, alphas, mean)
