"""transforms._inverse_thin_entropies, the batch behind check_epilike's
scan, against one inverse_thin call per alpha: the same entropy bits, or
an error of the same type with the same message.

Tier-1 draws a hundred examples; the thorough profile
(--hypothesis-profile thorough) draws 2000.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import assume, given, strategies as st

from thinpower import (DEFAULT_TOLERANCES, FamilySpec, FinitePmf,
                       IllConditionedError, ParameterError, check_epilike,
                       construct, convolve, entropy, inverse_thin, thin)
from thinpower import transforms

# check_epilike's inner points take twice the default slack
INNER = replace(DEFAULT_TOLERANCES, tol_norm=2.0 * DEFAULT_TOLERANCES.tol_norm)


def scalar(x, alpha, cfg):
    try:
        return entropy(inverse_thin(x, alpha, cfg)).nats
    except ValueError as exc:
        return exc


def same(got, want) -> bool:
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return isinstance(got, float) and got.hex() == want.hex()


@st.composite
def thinned_ulc(draw):
    """T_a of a Bernoulli sum times a Poisson factor: ULC, 1 to about 60
    points."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    x = construct(FamilySpec.bernoulli_sum(
        *rng.uniform(0.01, 0.99, draw(st.integers(0, 40)))))
    rate = draw(st.floats(0.0, 3.0))
    if rate > 0.0:
        x = convolve(x, construct(FamilySpec.poisson(rate)))
    return thin(x, draw(st.floats(0.0, 1.0, exclude_min=True)))


# binomials reach 80 points, past the batch's _M = 64
pmfs = st.one_of(
    st.floats(0.0, 12.0).map(lambda r: construct(FamilySpec.poisson(r))),
    st.builds(lambda n, p: construct(FamilySpec.binomial(n, p)),
              st.integers(0, 79), st.floats(0.0, 1.0)),
    thinned_ulc())

# alpha = 1, small alphas whose bound refuses them or whose powers
# overflow, and any alpha in (0, 1), where many preimages are not pmfs
alphas = st.one_of(
    st.just(1.0),
    st.sampled_from([1e-310, 1e-300, 1e-12, 1e-5, 1e-3, 0.05]),
    st.floats(0.0, 1.0, exclude_min=True))


@given(pmfs, st.sampled_from([1, 8, 9, 65]).flatmap(
    lambda size: st.lists(alphas, min_size=size, max_size=size)))
def test_the_batch_matches_one_inverse_thin_per_alpha(x, batch):
    for cfg in (DEFAULT_TOLERANCES, INNER):
        got = transforms._inverse_thin_entropies(x, np.array(batch), cfg)
        assert len(got) == len(batch)
        for alpha, value in zip(batch, got):
            want = scalar(x, alpha, cfg)
            assert same(value, want), (len(x), alpha, value, want)


@given(thinned_ulc(), st.lists(st.floats(3e-10, 9.9e-10), min_size=1,
                               max_size=3), st.floats(0.5, 0.99))
def test_preimages_with_entries_just_below_zero(z, dents, a):
    # x = T_a v for a unit-mass v with up to 3 inner entries in (-tol_norm,
    # 0): at a, the preimage passes FinitePmf's entry check, and its mass
    # check passes or fails by the clamped mass alone
    v = z.probs.copy()
    top = int(np.argmax(v))
    spots = [i for i in range(1, v.size - 1) if i != top][:len(dents)]
    assume(len(spots) == len(dents))
    v[spots] = -np.array(dents)
    v[top] += 1.0 - math.fsum(v)
    try:
        x = FinitePmf(transforms._taylor_shift(
            v, transforms._pascal(a, min(v.size, transforms._M + 1))))
    except ParameterError:
        assume(False)
    batch = [a, float(np.nextafter(a, 1.0)), 0.5 * (1.0 + a)]
    for cfg in (DEFAULT_TOLERANCES, INNER):
        got = transforms._inverse_thin_entropies(x, np.array(batch), cfg)
        for alpha, value in zip(batch, got):
            want = scalar(x, alpha, cfg)
            assert same(value, want), (len(x), alpha, value, want)


def test_an_exact_point_mass_preimage_has_entropy_plus_zero():
    # every product and sum of the shift by 2 is exact, so the preimage at
    # 1/2 is the point mass at 2, whose -sum p log p is -0.0
    x = FinitePmf([0.25, 0.5, 0.25])
    [got] = transforms._inverse_thin_entropies(x, np.array([0.5]),
                                               DEFAULT_TOLERANCES)
    assert got.hex() == scalar(x, 0.5, DEFAULT_TOLERANCES).hex() == "0x0.0p+0"


def test_a_preimage_that_overflows_is_refused_as_inverse_thin_refuses_it():
    # kappa = 2 passes the bound at alpha = 2e-155, but the block's a^2 and
    # b^2 overflow, so the shift holds inf, -inf and nan
    x = FinitePmf([1.0, 0.0, 1e-310])
    [got] = transforms._inverse_thin_entropies(x, np.array([2e-155]),
                                               DEFAULT_TOLERANCES)
    assert isinstance(got, IllConditionedError) and got.bound == math.inf
    assert same(got, scalar(x, 2e-155, DEFAULT_TOLERANCES))


def test_the_batch_keeps_its_blocks_out_of_the_cache():
    # only thin reads and fills _pascal's cache: inverse_thin, the batch
    # and a whole check_epilike leave its blocks, and their order, alone
    transforms._BLOCKS.clear()
    x = construct(FamilySpec.poisson(2.0))
    for k in range(transforms._BLOCKS_MAX):
        thin(x, (k + 1) / 128.0)
    before = list(transforms._BLOCKS.items())   # keeps the blocks alive

    def unchanged():
        return ([(a, id(block)) for a, block in transforms._BLOCKS.items()]
                == [(a, id(block)) for a, block in before])

    assert isinstance(inverse_thin(x, 0.75), FinitePmf)
    assert unchanged()
    grid = np.linspace(0.3, 0.7, 65)
    got = transforms._inverse_thin_entropies(x, grid, DEFAULT_TOLERANCES)
    assert all(isinstance(h, float) for h in got)
    assert unchanged()
    assert check_epilike(x, construct(FamilySpec.poisson(3.0))).holds
    assert unchanged()
