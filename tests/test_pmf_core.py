"""Construction, family constructors, and structural predicates."""

import math

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
