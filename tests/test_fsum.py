"""numerics.fsum returns math.fsum's bits."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thinpower import FamilySpec, construct, mean
from thinpower import numerics
from thinpower.numerics import fsum

from test_pinned_outputs import family_pmf

EXTRACT = numerics._FSUM_EXTRACT


def _outcome(sum_fn, a):
    """The value's bit pattern, or the type of the exception raised."""
    try:
        value = sum_fn(a)
    except (ValueError, OverflowError) as err:
        return type(err)
    # compared as integers, so -0.0 against 0.0 also counts
    return int(np.array([value]).view(np.uint64)[0])


def assert_same_as_math_fsum(a):
    assert _outcome(fsum, a) == _outcome(lambda v: math.fsum(v.tolist()), a)


@given(family=st.sampled_from(["poisson", "binomial", "bernoulli_sum"]),
       n=st.integers(EXTRACT, 4096), p=st.floats(0.01, 0.99),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fsum_of_pmfs_and_entropy_terms(family, n, p, seed):
    x = family_pmf(family, n, p, seed)
    probs = x.probs
    assert_same_as_math_fsum(probs)
    mass = probs[probs > 0.0]
    logp = np.log(mass)
    assert_same_as_math_fsum(mass * logp)
    # the terms of D against the Poisson of the same mean: for a Poisson
    # input they cancel to ~1e-13
    k = np.flatnonzero(probs > 0.0)
    lam = mean(x)
    log_pi = k * math.log(lam) - lam - numerics.log_factorials(k[-1])[k]
    assert_same_as_math_fsum(mass * (logp - log_pi))
    assert_same_as_math_fsum(k * mass)


magnitudes = st.lists(
    st.floats(-1074.0, 10.0).map(lambda e: 2.0 ** e), min_size=1,
    max_size=2100)


@given(half=magnitudes, extra=st.integers(-4, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_fsum_of_cancelling_entries(half, extra, seed):
    # v and -v cancel exactly; extra smallest subnormals leave a total of
    # 0 or a few times 5e-324
    a = np.array(half + [-v for v in half] + [math.copysign(5e-324, extra)]
                 * abs(extra))
    np.random.default_rng(seed).shuffle(a)
    assert_same_as_math_fsum(a)


@given(tie=st.sampled_from([2.0 ** -53, 2.0 ** -53 - 2.0 ** -106,
                            -(2.0 ** -54), -(2.0 ** -54 - 2.0 ** -107),
                            3 * 2.0 ** -53]),
       n_tiny=st.integers(0, 1024), sign=st.sampled_from([-1.0, 0.0, 1.0]),
       exponent=st.integers(-1074, -101) | st.integers(-115, -101))
def test_fsum_near_ties(tie, n_tiny, sign, exponent):
    # 1 + tie sits on or just inside a midpoint between two doubles: the
    # tiny entries, 48 or more binades below the tie, decide how it rounds
    a = np.array([1.0, tie] + [sign * 2.0 ** exponent] * n_tiny)
    assert_same_as_math_fsum(a)


@given(n=st.integers(EXTRACT, 4096), spread=st.integers(1, 60),
       negative=st.floats(0.0, 0.2), seed=st.integers(0, 2 ** 32 - 1))
def test_fsum_of_entries_near_the_top(n, spread, negative, seed):
    # the extracted parts of entries within 2^-spread of +-1 sum to nearly
    # n max|a|, on the grid of the binade below sigma where an entry is
    # negative: their partial sums are exact only because 2^k >= n + 2
    rng = np.random.default_rng(seed)
    a = ((1.0 - rng.random(n) * 2.0 ** -spread)
         * np.where(rng.random(n) < negative, -1.0, 1.0))
    assert_same_as_math_fsum(a)


MAX = 1.7976931348623157e308
CERTIFICATE_EDGES = {
    # the small entries carry 1 + 2^-53 - 2^-102 past the midpoint above 1
    "small_sum": [1.0, 2.0 ** -53 - 2.0 ** -102, 2.0 ** -101],
    # just below the midpoint to the double past MAX; the small entries
    # round the total to inf, which math.fsum reports as an overflow
    "overflow": [MAX, 2.0 ** 970 - 2.0 ** 918, 2.0 ** 920, 2.0 ** 920],
}


@pytest.mark.parametrize("case", sorted(CERTIFICATE_EDGES))
def test_fsum_certificate_edges(case):
    entries = CERTIFICATE_EDGES[case]
    for n in (EXTRACT, 512):
        a = np.zeros(n)
        a[:len(entries)] = entries
        assert_same_as_math_fsum(a)


@pytest.mark.parametrize("n", [1, EXTRACT - 1, EXTRACT, 511, 512, 4096])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_fsum_of_zeros_keeps_the_sign_of_math_fsum(n, zero):
    assert_same_as_math_fsum(np.full(n, zero))


@given(n=st.integers(1, 1024),
       specials=st.lists(st.tuples(st.integers(0, 1023),
                                   st.sampled_from([math.inf, -math.inf,
                                                    math.nan, 1e308, -1e308])),
                         min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fsum_with_non_finite_or_huge_entries(n, specials, seed):
    a = np.random.default_rng(seed).random(n)
    for i, v in specials:
        a[i % n] = v
    assert_same_as_math_fsum(a)


def _lengths_summed_by_math_fsum(monkeypatch, a):
    lengths = []
    real = math.fsum

    def spy(values):
        lengths.append(len(values))
        return real(values)

    monkeypatch.setattr(math, "fsum", spy)
    fsum(a)
    monkeypatch.undo()
    return lengths


def test_fsum_sums_a_wide_pmf_in_part_and_a_tie_whole(monkeypatch):
    probs = construct(FamilySpec.poisson(1615.0)).probs
    assert probs.size >= 2048
    # math.fsum sees only the level sums, and them with -r and -rho
    lengths = _lengths_summed_by_math_fsum(monkeypatch, probs)
    assert max(lengths) <= numerics._FSUM_LEVELS + 1
    assert fsum(probs) == math.fsum(probs.tolist())
    # 1 + 2^-53 is a midpoint that the tiny entries push up.  The third
    # level sums them exactly: rho = fl(T - r) rounds their 2^-189 away,
    # and rho's own residual keeps it, so the whole list is never summed
    tie = np.array([1.0, 2.0 ** -53] + [2.0 ** -200] * (probs.size - 2))
    lengths = _lengths_summed_by_math_fsum(monkeypatch, tie)
    assert max(lengths) <= numerics._FSUM_LEVELS + 2
    assert fsum(tie) == 1.0 + 2.0 ** -52
    # the pair cancels at the third level, so only 2^-400, a fourth level
    # down, leaves the midpoint: past the last level the whole list decides
    for n in (EXTRACT, 512):
        deep = np.zeros(n)
        deep[:5] = [1.0, 2.0 ** -53, 2.0 ** -200, -(2.0 ** -200), 2.0 ** -400]
        assert _lengths_summed_by_math_fsum(monkeypatch, deep)[-1] == n
        assert fsum(deep) == 1.0 + 2.0 ** -52


def _entropy_terms(n):
    """n terms p log p of a Poisson pmf, over its tails too."""
    probs = construct(FamilySpec.poisson(n / 2.0)).probs
    mass = probs[probs > 0.0]
    a = np.zeros(n)
    a[:mass.size] = (mass * np.log(mass))[:n]
    return a


def _span(n, tip):
    """1 + 2^-53 and +-v pairs over 2^-54 .. 2^-230, then tip: the total
    sits a tip away from a midpoint, more than 160 binades below it."""
    v = 2.0 ** -np.random.default_rng(n).integers(54, 231, (n - 3) // 2)
    return np.concatenate([[1.0, 2.0 ** -53, tip], v, -v])


def _span_random_signs(n):
    """1 + 2^-53 and n - 2 entries of random sign over 2^-60 .. 2^-230."""
    rng = np.random.default_rng(n)
    tail = rng.choice([-1.0, 1.0], n - 2) * 2.0 ** -rng.integers(60, 231, n - 2)
    return np.concatenate([[1.0, 2.0 ** -53], tail])


def _cancelling_pairs(n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n // 2) * 2.0 ** -rng.integers(0, 300, n // 2)
    return np.concatenate([v, -v[::-1]])


def _near_overflow(n, top):
    """Entries up to top, of both signs, over 200 binades."""
    rng = np.random.default_rng(n)
    a = top * rng.uniform(-1.0, 1.0, n) * 2.0 ** -rng.integers(0, 200, n)
    a[n // 3] = top
    return a


def _subnormals(n, low):
    return 5e-324 * np.random.default_rng(n).integers(low, 2 ** 52, n).astype(float)


EXTRACTION_EDGES = {
    "entropy_terms": _entropy_terms,
    "uniform": lambda n: np.random.default_rng(n).random(n),
    "span_above_midpoint": lambda n: _span(n, 2.0 ** -230),
    "span_below_midpoint": lambda n: _span(n, -(2.0 ** -230)),
    "span_on_midpoint": lambda n: _span(n, 0.0),
    "span_random_signs": _span_random_signs,
    "cancelling_pairs": _cancelling_pairs,
    "one_nonzero": lambda n: np.where(np.arange(n) == n // 2, -0.3, 0.0),
    "top_n_below_2^1000": lambda n: _near_overflow(
        n, math.nextafter(2.0 ** 1000 / n, 0.0)),
    "top_n_at_2^1000": lambda n: _near_overflow(n, 2.0 ** 1000 / n),
    "top_n_above_2^1000": lambda n: _near_overflow(
        n, math.nextafter(2.0 ** 1000 / n, math.inf)),
    "subnormals": lambda n: _subnormals(n, -2 ** 52),
    "positive_subnormals": lambda n: _subnormals(n, 1),
}


@pytest.mark.parametrize("n", [EXTRACT - 1, EXTRACT, 511, 512, 513, 2087])
@pytest.mark.parametrize("case", sorted(EXTRACTION_EDGES))
def test_fsum_extraction_edges(case, n):
    a = EXTRACTION_EDGES[case](n)
    assert a.size in (n - 1, n)
    assert_same_as_math_fsum(a)
    assert_same_as_math_fsum(-a)


def _poisson_head(n):
    """The first n entries of a Poisson pmf: a bulk and a tail over 100
    binades or more, with no zero."""
    probs = family_pmf("poisson", n + 40, 0.0, 0).probs[:n]
    assert probs.size == n and probs.min() > 0.0
    return probs


def _narrow(n, signed):
    """Entries in [1, 2) times 2^-51 .. 1, so under 2^53 apart."""
    rng = np.random.default_rng(n)
    a = rng.uniform(1.0, 2.0, n) * 2.0 ** -rng.integers(0, 52, n)
    return a * rng.choice([-1.0, 1.0], n) if signed else a


def _uniform(n):
    return np.random.default_rng(n).uniform(0.5, 1.0, n)


# the range of the entries does not choose the path: below EXTRACT entries
# each array is summed whole, from EXTRACT on each is extracted
CUT_ARRAYS = {
    "poisson_pmf": _poisson_head,
    "p_log_p": lambda n: _poisson_head(n) * np.log(_poisson_head(n)),
    "uniform": _uniform,
    "uniform_with_zeros": lambda n: np.where(
        np.arange(n) % 17 == 5, 0.0, _uniform(n)),
    "narrow": lambda n: _narrow(n, False),
    "narrow_signed": lambda n: _narrow(n, True),
}


@pytest.mark.parametrize("n", [EXTRACT - 1, EXTRACT, 230, 300, 511, 512])
@pytest.mark.parametrize("case", sorted(CUT_ARRAYS))
def test_fsum_at_the_cuts(monkeypatch, case, n):
    a = CUT_ARRAYS[case](n)
    assert a.size == n
    lengths = _lengths_summed_by_math_fsum(monkeypatch, a)
    if n < EXTRACT:
        assert lengths == [n]
    else:
        # math.fsum sees only the level sums, and them with -r and -rho
        assert max(lengths) <= numerics._FSUM_LEVELS + 1
    assert_same_as_math_fsum(a)
    assert_same_as_math_fsum(-a)
    for special in (math.nan, math.inf, -math.inf, 1e308, -1e308):
        b = a.copy()
        b[n // 3] = special
        assert_same_as_math_fsum(b)
