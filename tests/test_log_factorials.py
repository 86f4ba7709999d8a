"""The shared tables of numerics: the shipped log-factorials are scipy's
gammaln bit for bit, growth past them leaves them as they are, and no caller
can write into a table.  The Poisson terms read z and log(z + 1) from tables
kept beside the log-factorials and give the bits of arrays built fresh on
each call: below the shipped 4096 entries, at the last one and past it,
where all three tables grow.  The support cut reads its tail term from
the same Poisson terms it returns, and D reads its log pi from them too.
And V(Poisson(t)) = t within its documented error.

Tier-1 draws rates up to 200; the thorough profile
(--hypothesis-profile thorough) draws them up to 2000.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

import thinpower
from thinpower import (DEFAULT_TOLERANCES, entropy_functionals, entropy_power,
                       mean, numerics, rel_entropy_poisson)
from thinpower.entropy_functionals import _poisson_entropy_pair
from thinpower.numerics import fsum, poisson_log_terms, poisson_terms
from thinpower.pmf_core import FamilySpec, FinitePmf, construct, poisson_pmf

SHIPPED = Path(thinpower.__file__).with_name("log_factorials.npy")
THOROUGH = (settings().max_examples
            >= settings.get_profile("thorough").max_examples)
V_RATE = 2000.0 if THOROUGH else 200.0
# E(t), and so the entropy of a Poisson pmf, is documented to within 1e-11
# absolute for t up to 2000
E_BOUND = 1e-11


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.fixture
def shipped_table(monkeypatch):
    """The three tables as numerics builds them at import, before any
    growth; returns the log-factorials."""
    table = np.load(SHIPPED)
    z = np.arange(table.size, dtype=float)
    for name, values in (("_LOG_FACT", table), ("_Z", z),
                         ("_LOG_Z1", np.log(z + 1.0))):
        values.flags.writeable = False
        monkeypatch.setattr(numerics, name, values)
    return table


def test_shipped_table_is_gammaln(recorded_platform):
    table = np.load(SHIPPED)
    assert table.dtype == np.float64 and table.shape == (4096,)
    assert np.array_equal(_bits(table), _bits(gammaln(np.arange(4096) + 1.0)))


def test_growth_keeps_the_shipped_entries(shipped_table):
    grown = numerics.log_factorials(5000)
    assert grown.size == 5001 and numerics._LOG_FACT.size == 8192
    assert np.array_equal(_bits(grown[:4096]), _bits(shipped_table))
    assert np.array_equal(_bits(grown[4096:]),
                          _bits(gammaln(np.arange(4096, 5001) + 1.0)))


def test_views_are_read_only_before_and_after_growth(shipped_table):
    for n in (10, 4095, 5000, 10):
        view = numerics.log_factorials(n)
        with pytest.raises(ValueError, match="read-only"):
            view[-1] = 0.0
    assert np.array_equal(_bits(numerics.log_factorials(4095)),
                          _bits(np.load(SHIPPED)))


def fresh_log_terms(rate, top):
    z = np.arange(top + 1)
    return z, z * math.log(rate) - rate - numerics.log_factorials(top)


def fresh_cut(rate, tail_eps=DEFAULT_TOLERANCES.tail_eps):
    """The support cut N, with its tail term formed in Python floats."""
    n = int(math.ceil(rate + 10.0 * math.sqrt(rate) + 30.0))
    while True:
        lf = numerics.log_factorials(n + 1)
        log_tip = (n + 1) * math.log(rate) - rate - lf[n + 1]
        if math.exp(log_tip) / (1.0 - rate / (n + 2)) < tail_eps:
            return n
        n += max(10, int(math.sqrt(rate)))


def fresh_entropy_pair(t):
    top = fresh_cut(t)
    z, logp = fresh_log_terms(t, top)
    pmf = np.exp(logp)
    return -fsum(pmf * logp), fsum(pmf * (np.log(z + 1.0) - math.log(t)))


def test_the_log_table_is_np_log_at_every_length():
    # np.log is elementwise: a prefix of the table is the whole array's log
    z, log_z1, _ = numerics.tables(4095)
    assert np.array_equal(_bits(z), _bits(np.arange(4096)))
    for n in range(1, 4097):
        assert np.array_equal(_bits(log_z1[:n]),
                              _bits(np.log(np.arange(n) + 1.0)))


# 3475 puts the support top at 4095, the shipped tables' last entry; from
# 3476 on it is past them
RATES = [0.25, 3.0, 40.0, 2000.0, 3400.0, 3475.0, 3476.0, 3500.0]


@pytest.mark.parametrize("rate", RATES)
def test_poisson_terms_match_fresh_arrays(shipped_table, rate):
    top = poisson_terms(rate, DEFAULT_TOLERANCES.tail_eps)[0].size - 1
    assert top == fresh_cut(rate)
    assert (top < 4095, top == 4095) == (rate < 3475.0, rate == 3475.0)
    fresh_z, fresh_logp = fresh_log_terms(rate, top)
    for z, logp, log_z1 in (poisson_log_terms(rate, top),
                            poisson_terms(rate, DEFAULT_TOLERANCES.tail_eps)):
        assert np.array_equal(_bits(z), _bits(fresh_z))
        assert np.array_equal(_bits(logp), _bits(fresh_logp))
        assert np.array_equal(_bits(log_z1), _bits(np.log(fresh_z + 1.0)))
    assert np.array_equal(_bits(poisson_pmf(rate).probs),
                          _bits(FinitePmf(np.exp(fresh_logp)).probs))
    assert np.array_equal(_bits(_poisson_entropy_pair(rate, DEFAULT_TOLERANCES)),
                          _bits(fresh_entropy_pair(rate)))
    # the cut's tail term reads log((top + 1)!): from top 4095 on, all
    # three tables grew together
    assert numerics._Z.size == numerics._LOG_Z1.size == numerics._LOG_FACT.size
    assert numerics._Z.size == (4096 if top < 4095 else 8192)


@pytest.mark.parametrize("rate", [3.0, 2000.0, 3500.0])
def test_one_entropy_pair_slices_the_tables_once(monkeypatch, shipped_table, rate):
    # the support cut's tail term is the entry past the cut of the terms
    # it returns, so one slice of top + 1 serves both; growth past the
    # shipped size still grows all three tables
    calls = []
    tables = numerics.tables

    def counted(n):
        calls.append(n)
        return tables(n)
    monkeypatch.setattr(numerics, "tables", counted)
    pair = _poisson_entropy_pair(rate, DEFAULT_TOLERANCES)
    # taken before fresh_cut, whose log_factorials slices the tables too
    sliced = list(calls)
    top = fresh_cut(rate)
    assert sliced == [top + 1]
    assert np.array_equal(_bits(pair), _bits(fresh_entropy_pair(rate)))
    assert numerics._Z.size == numerics._LOG_Z1.size == numerics._LOG_FACT.size


@pytest.mark.parametrize("rate", [1e-6, 0.7, 3.0, 50.0, 2000.0])
def test_the_cut_reads_its_tail_term_from_the_terms_it_returns(monkeypatch,
                                                               rate):
    calls, returned = [], []

    def spy(r, n_top):
        calls.append((r, n_top))
        returned.append(poisson_log_terms(r, n_top))
        return returned[-1]
    monkeypatch.setattr(numerics, "poisson_log_terms", spy)
    terms = poisson_terms(rate, DEFAULT_TOLERANCES.tail_eps)
    top = fresh_cut(rate)
    # one call, one entry past the cut, and the terms are its own arrays
    assert calls == [(rate, top + 1)]
    for mine, theirs in zip(terms, returned[0]):
        assert mine.size == top + 1 and np.shares_memory(mine, theirs)

    # a tail term that fails the bound makes the cut step on, so the bound
    # reads the entry past the cut of those terms, not a copy of its own
    def heavy_tip(r, n_top):
        z, logp, log_z1 = poisson_log_terms(r, n_top)
        if not calls:
            logp = logp.copy()
            logp[-1] = 0.0
        calls.append(n_top)
        return z, logp, log_z1
    calls.clear()
    monkeypatch.setattr(numerics, "poisson_log_terms", heavy_tip)
    step = max(10, int(math.sqrt(rate)))
    assert poisson_terms(rate, DEFAULT_TOLERANCES.tail_eps)[0].size \
        == top + step + 1
    assert calls == [top + 1, top + step + 1]


@pytest.mark.parametrize("spec", [FamilySpec.poisson(3.0),
                                  FamilySpec.binomial(40, 0.3),
                                  FamilySpec.poisson(1000.0)])
def test_rel_entropy_poisson_reads_log_pi_from_poisson_log_terms(monkeypatch,
                                                                  spec):
    x = construct(spec)
    value = rel_entropy_poisson(x)
    calls = []

    def shifted(rate, n_top):
        # log pi one lower raises D by one, as sum p = 1
        calls.append((rate, n_top))
        z, logp, log_z1 = poisson_log_terms(rate, n_top)
        return z, logp - 1.0, log_z1
    monkeypatch.setattr(entropy_functionals, "poisson_log_terms", shifted)
    shifted_value = rel_entropy_poisson(x)
    assert calls == [(mean(x), len(x) - 1)]
    assert abs(shifted_value - (value + 1.0)) < 1e-12


def test_grown_tables_keep_their_entries_and_stay_read_only(shipped_table):
    before = [t.copy() for t in numerics.tables(4095)]
    grown = numerics.tables(5000)
    assert [t.size for t in grown] == [5001] * 3
    for old, new in zip(before, grown):
        assert np.array_equal(_bits(new[:4096]), _bits(old))
        with pytest.raises(ValueError, match="read-only"):
            new[0] = 1.0
    assert np.array_equal(_bits(grown[0]), _bits(np.arange(5001)))
    assert np.array_equal(_bits(grown[1]), _bits(np.log(np.arange(5001) + 1.0)))


@pytest.mark.parametrize("width", [2, 64, 4096, 4097, 6000])
def test_mean_matches_a_fresh_support(width):
    probs = np.random.default_rng(width).random(width)
    x = FinitePmf(probs / probs.sum())
    assert _bits(mean(x)) == _bits(fsum(np.arange(len(x)) * x.probs))


@given(st.floats(1e-6, V_RATE))
def test_entropy_power_of_a_poisson_is_its_rate(t):
    # E(V) = H(Poisson(t)) and E(t) each within E_BOUND, E concave, and the
    # root solve stops within tol_root V
    v = entropy_power(poisson_pmf(t))
    slope = thinpower.poisson_entropy_derivative(max(t, v))
    assert abs(v - t) <= DEFAULT_TOLERANCES.tol_root * t + 2.0 * E_BOUND / slope
