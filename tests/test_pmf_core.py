"""Construction, family constructors, and structural predicates."""

import math

import mpmath
import numpy as np
import pytest

from thinpower import (DomainError, FamilySpec, FinitePmf, ParameterError,
                       ToleranceConfig, construct, is_ulc, mean, size_bias,
                       total_variation)

bern = lambda p: construct(FamilySpec.bernoulli(p))
poi = lambda r: construct(FamilySpec.poisson(r))


def test_delta_is_point_mass():
    assert construct(FamilySpec.delta(0)).probs.tolist() == [1.0]
    d3 = construct(FamilySpec.delta(3))
    assert d3.probs.tolist() == [0.0, 0.0, 0.0, 1.0]


def test_bernoulli_sum_half_half_is_symmetric_binomial():
    p = construct(FamilySpec.bernoulli_sum(0.5, 0.5))
    assert p.probs.tolist() == [0.25, 0.5, 0.25]


def test_poisson_unit_rate_matches_extended_precision():
    # oracle: exp(-1), exp(-1), exp(-1)/2 evaluated at 40 digits in mpmath
    p = poi(1.0)
    assert abs(p.probs[0] - 0.36787944117144233) < 1e-14
    assert abs(p.probs[1] - 0.36787944117144233) < 1e-14
    assert abs(p.probs[2] - 0.18393972058572117) < 1e-14


def test_poisson_support_rule_and_tail():
    cfg = ToleranceConfig()
    p = poi(7.0)
    assert len(p) >= 7 + 10 * math.sqrt(7) + 30
    assert p.probs[-1] > 0.0
    # omitted mass is below tail_eps: head of an extended construction agrees
    wide = construct(FamilySpec.poisson(7.0), ToleranceConfig(tail_eps=1e-18))
    assert math.fsum(wide.probs[len(p):]) < cfg.tail_eps


def test_mean_trivial_cases():
    assert mean(construct(FamilySpec.delta(0))) == 0.0
    assert mean(bern(0.3)) == pytest.approx(0.3, abs=1e-15)


def test_mean_of_truncated_poisson_close_to_rate():
    cfg = ToleranceConfig(tail_eps=1e-14)
    p = construct(FamilySpec.poisson(2.0), cfg)
    assert abs(mean(p) - 2.0) < 1e-12


@pytest.mark.parametrize("lam", [0.5, 2.0, 9.0])
def test_poisson_mean_window(lam):
    cfg = ToleranceConfig()
    p = construct(FamilySpec.poisson(lam), cfg)
    m = mean(p)
    assert lam - 10 * cfg.tail_eps * len(p) <= m <= lam + 1e-13


def test_ulc_members_and_non_members():
    assert is_ulc(construct(FamilySpec.binomial(3, 0.4)))
    assert is_ulc(poi(5.0))
    assert is_ulc(construct(FamilySpec.bernoulli_sum(0.2, 0.9, 0.5)))
    # geometric ratios violate the defining inequality at every interior index
    assert not is_ulc(construct(FamilySpec.geometric(1.0)))


def test_ulc_rejects_interior_zeros_but_allows_leading():
    assert not is_ulc(FinitePmf([0.5, 0.0, 0.5]))
    assert is_ulc(construct(FamilySpec.delta(4)))


def test_size_bias_of_poisson_is_shift_invariant():
    p = poi(4.0)
    biased = size_bias(p)
    matched = FinitePmf(p.probs[:len(biased)])
    assert total_variation(biased, matched) < 1e-12
    twice = size_bias(size_bias(poi(3.0)))
    ref = poi(3.0)
    assert total_variation(twice, FinitePmf(ref.probs[:len(twice)])) < 1e-10


def test_size_bias_small_cases():
    assert size_bias(bern(0.5)).probs.tolist() == [1.0]
    two = size_bias(construct(FamilySpec.raw([0.25, 0.5, 0.25])))
    assert np.allclose(two.probs, [0.5, 0.5], atol=1e-15)


def test_size_bias_rejects_zero_mean():
    with pytest.raises(DomainError):
        size_bias(construct(FamilySpec.delta(0)))


def test_total_variation_values():
    p = bern(0.5)
    assert total_variation(p, p) == 0.0
    assert total_variation(construct(FamilySpec.delta(0)),
                           construct(FamilySpec.delta(1))) == 1.0
    assert total_variation(bern(0.5), bern(0.6)) == pytest.approx(0.1, abs=1e-15)


def test_bernoulli_sum_equals_iterated_convolution():
    ps = (0.1, 0.35, 0.6, 0.85)
    direct = construct(FamilySpec.bernoulli_sum(*ps))
    folded = construct(FamilySpec.delta(0))
    from thinpower import convolve
    for p in ps:
        folded = convolve(folded, bern(p))
    assert total_variation(direct, folded) < 1e-14


def test_zero_rate_families_collapse_to_point_mass():
    assert construct(FamilySpec.poisson(0.0)).probs.tolist() == [1.0]
    assert construct(FamilySpec.geometric(0.0)).probs.tolist() == [1.0]
    assert construct(FamilySpec.binomial(5, 0.0)).probs.tolist() == [1.0]


def test_geometric_family_mean_and_shape():
    g = construct(FamilySpec.geometric(1.0))
    assert abs(mean(g) - 1.0) < 1e-12
    # success probability 1/2: consecutive ratio is 1/2
    assert g.probs[1] / g.probs[0] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("tiny", [1e-17, 1e-300, 5e-324])
def test_geometric_below_double_resolution_of_its_success_probability(tiny):
    # 1 / (1 + tiny) rounds to 1.0, so 1 - succ cannot be formed from succ
    g = construct(FamilySpec.geometric(tiny))
    assert math.fsum(g.probs) == 1.0
    assert mean(g) == pytest.approx(tiny, rel=1e-12)


@pytest.mark.parametrize("mean_, tail_eps", [
    (1e-10, 1e-14), (1e-12, 1e-14), (1e-14, 1e-14), (1.2e-16, 1e-14),
    (1.0, 1e-14), (50.0, 1e-14),
    # the default cut would keep 3.2e7 points
    (1e6, 0.5)])
def test_geometric_against_mpmath(mean_, tail_eps):
    # the pmf the constructor claims: r^k (1 - r) on 0..top, r = m / (1 + m),
    # renormalised by 1 - r^(top + 1), with its mean in closed form
    g = construct(FamilySpec.geometric(mean_), ToleranceConfig(tail_eps=tail_eps))
    top = len(g) - 1
    with mpmath.workdps(40):
        m = mpmath.mpf(mean_)
        r = m / (1 + m)
        kept = 1 - r ** (top + 1)
        p0 = (1 - r) / kept
        want = [p0, r * p0, r / (1 - r) - (top + 1) * r ** (top + 1) / kept]
    for got, exact in zip([g.probs[0], g.probs[1], mean(g)], want):
        assert abs(got - float(exact)) <= 1e-14 * float(exact)


@pytest.mark.parametrize("tail_eps", [1e-4, 1e-2])
def test_truncated_geometric_is_renormalised(tail_eps):
    # the omitted tail (about tail_eps) is above tol_norm, so only the
    # renormalisation of the retained block keeps it a pmf
    g = construct(FamilySpec.geometric(1.0), ToleranceConfig(tail_eps=tail_eps))
    assert math.fsum(g.probs) == pytest.approx(1.0, abs=1e-15)
    assert g.probs[1] / g.probs[0] == pytest.approx(0.5, abs=1e-12)


def test_non_numeric_entry_is_named_not_echoed():
    probs = [1e-3] * 5000 + ["x"]
    with pytest.raises(ParameterError) as err:
        FinitePmf(probs)
    assert str(err.value) == "pmf entries must be numbers, got entry 5000 = 'x'"


def test_constructor_clamps_subtolerance_noise():
    p = FinitePmf([0.5, 0.5 + 1e-12, -1e-12])
    assert p.probs.min() >= 0.0
    assert math.fsum(p.probs) == pytest.approx(1.0, abs=1e-15)


def test_constructor_trims_trailing_zeros():
    p = FinitePmf([0.5, 0.5, 0.0, 0.0])
    assert len(p) == 2


def test_constructor_rejects_bad_mass():
    with pytest.raises(ParameterError):
        FinitePmf([0.5, 0.4])          # mass far from 1
    with pytest.raises(ParameterError):
        FinitePmf([1.2, -0.2])         # significantly negative entry
    with pytest.raises(ParameterError):
        FinitePmf([])


def test_a_mass_past_the_largest_double_is_a_parameter_error():
    # math.fsum raises OverflowError on these sums; each used to escape
    with pytest.raises(ParameterError, match="pmf mass inf differs from 1"):
        FinitePmf([1e308, 1e308])
    with pytest.raises(ParameterError, match="raw pmf mass overflows"):
        construct(FamilySpec.raw([1e308, 1e308]))
    # a large mass that still fits is normalised as before
    assert construct(FamilySpec.raw([1e308, 3e307])).probs[0] == pytest.approx(1 / 1.3)


def test_family_parameter_validation():
    with pytest.raises(ParameterError):
        construct(FamilySpec.bernoulli(1.2))
    with pytest.raises(ParameterError):
        construct(FamilySpec.poisson(-0.5))
    with pytest.raises(ParameterError):
        construct(FamilySpec.binomial(-1, 0.5))
    with pytest.raises(ParameterError):
        construct(FamilySpec.raw([0.0, 0.0]))


def test_family_spec_json_round_trip():
    for spec in (FamilySpec.delta(2), FamilySpec.bernoulli(0.3),
                 FamilySpec.binomial(3, 0.4), FamilySpec.bernoulli_sum(0.2, 0.7),
                 FamilySpec.poisson(1.5), FamilySpec.geometric(2.0),
                 FamilySpec.raw([0.25, 0.5, 0.25])):
        again = FamilySpec.from_json(spec.to_json())
        assert again == spec


def test_family_spec_json_aliases():
    assert FamilySpec.from_json({"family": "poisson", "lam": 2.5}) \
        == FamilySpec.poisson(2.5)
    assert FamilySpec.from_json({"family": "poisson", "rate": 1.0,
                                 "lam": 5.0}) == FamilySpec.poisson(1.0)
    assert FamilySpec.from_json({"family": "mixture", "probs": [1, 1]}) \
        == FamilySpec.raw([1.0, 1.0])


@pytest.mark.parametrize("doc, message", [
    ({"family": "poisson"}, "family 'poisson' misses parameter 'rate'"),
    ({"family": "binomial", "p": 0.5}, "family 'binomial' misses parameter 'n'"),
    ({"family": "binomial", "n": "x", "p": 0.5},
     "family 'binomial' parameter 'n' has invalid value 'x'"),
    ({"family": "bernoulli", "p": "a"},
     "family 'bernoulli' parameter 'p' has invalid value 'a'"),
    ({"family": "bernoulli_sum", "ps": 3},
     "family 'bernoulli_sum' parameter 'ps' has invalid value 3"),
    ({"family": "raw", "probs": "11"},
     "family 'raw' parameter 'probs' has invalid value '11'"),
    ({"family": "delta", "k": None},
     "family 'delta' parameter 'k' has invalid value None"),
    ({"family": ["poisson"]}, "unknown family ['poisson']"),
])
def test_family_spec_json_errors(doc, message):
    with pytest.raises(ParameterError) as info:
        FamilySpec.from_json(doc)
    assert str(info.value) == message


def test_tolerance_config_requires_positive_entries():
    with pytest.raises(ParameterError):
        ToleranceConfig(tol_norm=0.0)
    for value in (1.0, 1e300):
        with pytest.raises(ParameterError, match="tol_norm must be below 1"):
            ToleranceConfig(tol_norm=value)
    assert ToleranceConfig(tol_norm=np.nextafter(1.0, 0.0)).tol_norm < 1.0
    for value in (math.inf, -math.inf, math.nan, 10 ** 400):
        with pytest.raises(ParameterError, match="tail_eps must be finite"):
            ToleranceConfig(tail_eps=value)
    assert ToleranceConfig(tail_eps=np.finfo(float).max).tail_eps > 0.0
    with pytest.raises(ParameterError, match="tol_root must be a number"):
        ToleranceConfig(tol_root="x")


def test_tolerance_config_from_overrides():
    cfg = ToleranceConfig.from_overrides({"tail_eps": 1e-12, "fd_step": 1e-3})
    assert cfg == ToleranceConfig(tail_eps=1e-12, fd_step=1e-3)
    assert ToleranceConfig.from_overrides({}) == ToleranceConfig()
    with pytest.raises(ParameterError, match="unknown tolerance 'tol_foo'"):
        ToleranceConfig.from_overrides({"tol_foo": 1.0})


def test_pmf_is_immutable():
    p = bern(0.4)
    with pytest.raises(ValueError):
        p.probs[0] = 0.9


@pytest.mark.parametrize("build, family, name, shown", [
    (lambda: FamilySpec.binomial(3.5, 0.5), "binomial", "n", "3.5"),
    (lambda: FamilySpec.binomial(True, 0.5), "binomial", "n", "True"),
    (lambda: FamilySpec.binomial(3, np.True_), "binomial", "p", repr(np.True_)),
    (lambda: FamilySpec.delta(2.5), "delta", "k", "2.5"),
    (lambda: FamilySpec.bernoulli(False), "bernoulli", "p", "False"),
    (lambda: FamilySpec.poisson("x"), "poisson", "rate", "'x'"),
    (lambda: FamilySpec.bernoulli_sum(0.5, True), "bernoulli_sum", "ps",
     "(0.5, True)"),
    (lambda: FamilySpec.raw([True, False]), "raw", "probs", "(True, False)"),
    (lambda: FamilySpec.raw("ab"), "raw", "probs", "('a', 'b')"),
], ids=["binomial-n-3.5", "binomial-n-True", "binomial-p-np.True_",
        "delta-k-2.5", "bernoulli-p-False", "poisson-rate-str",
        "bernoulli_sum-ps-True", "raw-probs-True", "raw-probs-str"])
def test_family_spec_classmethods_check_their_parameters(
        build, family, name, shown):
    # the same checks as a spec document: int() truncates 3.5 and float()
    # reads True as 1.0
    with pytest.raises(ParameterError) as info:
        build()
    assert str(info.value) == \
        f"family {family!r} parameter {name!r} has invalid value {shown}"


def test_family_spec_documents_and_classmethods_agree():
    assert FamilySpec.binomial(np.int64(4), np.float64(0.25)) == \
        FamilySpec.from_json({"family": "binomial", "n": 4.0, "p": 0.25})
    assert FamilySpec.raw(np.array([0.25, 0.75])) == FamilySpec.raw([0.25, 0.75]) \
        == FamilySpec.from_json({"family": "mixture", "probs": [0.25, 0.75]})
    assert FamilySpec.bernoulli_sum(*np.array([0.5, 0.25])).ps == (0.5, 0.25)
    assert type(FamilySpec.delta(np.int64(2)).k) is int
    assert FamilySpec.binomial(3.0, 0.5) == FamilySpec.binomial(3, 0.5)
    with pytest.raises(ParameterError, match="unknown family 'beta'"):
        FamilySpec("beta")

