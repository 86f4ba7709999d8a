"""The ULC gate against an mpmath oracle, on mixtures that sit on both sides.

is_ulc tests i p_i^2 >= (i+1) p_(i+1) p_(i-1) with the relative slack
lhs >= rhs (1 - slack), and skips the triples whose rhs lies below
2^-1000.  slack is tol_norm on the supports drawn here (below 28000
points), and 16 eps N ln N, the rounding of the entries, where larger.  A mixture of two Poissons of different rates is never ULC (by
Cauchy-Schwarz on the moments i! p_i), however small its violations are in
absolute terms; a mixture of two binomials can be ULC or not.  The oracle
forms each mixture's entries from its parameters at 40 digits, on the
support the library's pmf has, and reads the largest relative violation
(rhs - lhs) / rhs.  The library's entries are accurate to far better than
1e-9 relative, so the gate must agree wherever that violation is clear of
tol_norm by a factor of 2.
"""

import json

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from thinpower import (DEFAULT_TOLERANCES, FamilySpec, FinitePmf,
                       ToleranceConfig, construct, is_ulc)
from thinpower.cli import main
from thinpower.pmf_core import poisson_pmf
from conftest import THOROUGH

# largest Poisson rate and binomial n.  Every entry of either component,
# times a weight of at least 1e-8, stays a normal double: e^-650 for the
# Poisson, 0.05^200 for the binomial, whose p stays in [0.05, 0.95].  So
# the stored pmf has the support of the exact mixture and its entries
# their full relative accuracy.  (Past rate 745, e^-rate underflows, and
# a mixture with a Poisson(1) has an interior gap as stored.)  From n of
# about 115 on, the products in the outer triples fall below 2^-1000
RATE, BINOMIAL_N = (650.0, 200) if THOROUGH else (100.0, 130)
TOL = DEFAULT_TOLERANCES.tol_norm

weights = st.one_of(st.floats(1e-8, 0.5), st.sampled_from([1e-8, 0.5]))


def mixed(w, a, b) -> FinitePmf:
    """w a + (1 - w) b of two pmf arrays, zero-padded to one length."""
    probs = np.zeros(max(a.size, b.size))
    probs[:a.size] += w * a
    probs[:b.size] += (1.0 - w) * b
    return FinitePmf(probs)


def worst_violation(entries) -> mpmath.mpf:
    """The largest (rhs - lhs) / rhs over the interior triples whose rhs
    is at least 2^-1000, from exact entries."""
    floor = mpmath.mpf(2) ** -1000
    worst = -mpmath.inf
    for i in range(1, len(entries) - 1):
        lhs = i * entries[i] ** 2
        rhs = (i + 1) * entries[i + 1] * entries[i - 1]
        if rhs >= floor:
            worst = max(worst, (rhs - lhs) / rhs)
    return worst


def assert_gate_agrees(x, entries):
    worst = worst_violation(entries)
    # within a factor 2 of tol_norm the entries' rounding may decide
    assume(not TOL / 2 <= worst <= 2 * TOL)
    assert is_ulc(x) == (worst < TOL / 2)


def truncated_poisson(rate, size):
    """Poisson(rate) entries on {0, ..., size - 1}, divided by their sum,
    as poisson_pmf cuts and normalises them."""
    t = mpmath.mpf(rate)
    terms = [mpmath.exp(-t)]
    for k in range(1, size):
        terms.append(terms[-1] * t / k)
    total = mpmath.fsum(terms)
    return [term / total for term in terms]


@given(weights, st.floats(0.05, RATE), st.floats(0.05, RATE))
def test_two_poisson_mixtures(w, rate_a, rate_b):
    a, b = poisson_pmf(rate_a).probs, poisson_pmf(rate_b).probs
    x = mixed(w, a, b)
    assert len(x) == max(a.size, b.size)
    with mpmath.workdps(40):
        exact_a = truncated_poisson(rate_a, a.size)
        exact_b = truncated_poisson(rate_b, b.size)
        entries = [w * (exact_a[k] if k < a.size else 0)
                   + (1 - w) * (exact_b[k] if k < b.size else 0)
                   for k in range(len(x))]
        assert_gate_agrees(x, entries)


def binomial_entries(n, p, size):
    q = mpmath.mpf(p)
    return [mpmath.binomial(n, k) * q ** k * (1 - q) ** (n - k) if k <= n
            else 0 for k in range(size)]


@given(weights, st.integers(1, BINOMIAL_N), st.floats(0.05, 0.95),
       st.integers(1, BINOMIAL_N), st.floats(0.05, 0.95))
def test_two_binomial_mixtures(w, n_a, p_a, n_b, p_b):
    x = mixed(w, construct(FamilySpec.binomial(n_a, p_a)).probs,
              construct(FamilySpec.binomial(n_b, p_b)).probs)
    assert len(x) == max(n_a, n_b) + 1
    with mpmath.workdps(40):
        entries = [w * u + (1 - w) * v for u, v in
                   zip(binomial_entries(n_a, p_a, len(x)),
                       binomial_entries(n_b, p_b, len(x)))]
        assert_gate_agrees(x, entries)


def test_bimodal_poisson_mixture_is_not_ulc():
    # 92 triples violated, all in the dip, where p is about 2.5e-5: each
    # product lies below 1e-9, so an absolute slack of tol_norm passed them
    x = mixed(0.5, poisson_pmf(5.0).probs, poisson_pmf(50.0).probs)
    assert not is_ulc(x)
    assert not is_ulc(x, TIGHT)


# a tol_norm below the rounding of the entries: the slack is floored there
TIGHT = ToleranceConfig(tol_norm=1e-15)


@pytest.mark.parametrize("rate", [0.5, 5.0, 50.0, 650.0, 2000.0])
def test_tight_tol_norm_passes_a_poisson(rate):
    assert is_ulc(poisson_pmf(rate), TIGHT)


@pytest.mark.parametrize("rate", [1e5, 3e5, 1e6])
def test_large_poisson_is_ulc(rate):
    # its entries' relative errors reach a few eps N ln N: about 1e-9 at
    # rate 1e5 and 6.5e-9 at rate 1e6, past a slack of tol_norm alone
    assert is_ulc(poisson_pmf(rate))


def test_check_refuses_a_mixture_outside_the_hypotheses(capsys):
    # a proved statement read as violated (exit 1) while the gate let this
    # bimodal pmf through
    x = mixed(0.706, poisson_pmf(0.867).probs, poisson_pmf(56.6).probs)
    code = main(["check", "--name", "rtepi", "--alpha", "0.8",
                 "--pmf", json.dumps({"probs": x.probs.tolist()})])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == "PreconditionError"
