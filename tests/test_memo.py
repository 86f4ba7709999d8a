"""FinitePmf's per-instance memo of H, V and is_ulc and its leaner checks."""

import math

import numpy as np
import pytest

from thinpower import (FamilySpec, FinitePmf, ParameterError, ToleranceConfig,
                       construct, entropy, entropy_power, evolve, is_ulc,
                       pde_residual)
from thinpower import entropy_functionals

from test_pinned_outputs import THIN_INPUTS

poi = lambda r: construct(FamilySpec.poisson(r))

# V of the uniform pmfs on 300 and 2048 points, whose solves read log k!
# past the shipped table; the grown_v entry of the golden manifest pins the
# same two values and says how far each lies from the mpmath root
GROWN_V = {300: 5269.651517036904, 2048: 245575.9592287276}


@pytest.mark.parametrize("n", sorted(GROWN_V))
def test_v_past_the_shipped_table(recorded_platform, n):
    assert entropy_power(THIN_INPUTS["uniform"](n)).hex() == GROWN_V[n].hex()


def _bits(value: float) -> str:
    return float(value).hex()


def test_memoised_values_equal_a_fresh_pmfs_bit_for_bit():
    x = construct(FamilySpec.bernoulli_sum(0.3, 0.6, 0.8))
    first = (entropy(x).nats, entropy_power(x), is_ulc(x))
    again = (entropy(x).nats, entropy_power(x), is_ulc(x))
    fresh = FinitePmf(x.probs)
    assert fresh._memo == {}
    expected = (entropy(fresh).nats, entropy_power(fresh), is_ulc(fresh))
    assert list(map(_bits, first)) == list(map(_bits, expected))
    assert list(map(_bits, again)) == list(map(_bits, expected))
    assert len(x._memo) == 3


def _count_v_solves(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(entropy_functionals, "solve_increasing",
                        lambda *args, f=entropy_functionals.solve_increasing,
                        **kw: calls.append(1) or f(*args, **kw))
    return calls


def test_entropy_power_is_solved_once_per_pmf_and_cfg(monkeypatch):
    calls = _count_v_solves(monkeypatch)
    x = poi(3.0)
    loose = ToleranceConfig(tol_root=1e-4)
    v = [entropy_power(x), entropy_power(x), entropy_power(x, loose),
         entropy_power(x, loose), entropy_power(x)]
    assert len(calls) == 2
    assert v[0] == v[1] == v[4] and v[2] == v[3]
    monkeypatch.undo()
    assert _bits(v[2]) == _bits(entropy_power(FinitePmf(x.probs), loose))
    # V reads tol_root and tail_eps: another tail_eps recomputes, another
    # tol_ineq does not
    calls = _count_v_solves(monkeypatch)
    entropy_power(x, ToleranceConfig(tol_ineq=1e-3))
    assert len(calls) == 0
    entropy_power(x, ToleranceConfig(tail_eps=1e-12))
    assert len(calls) == 1


def test_is_ulc_verdict_is_kept_per_tol_norm():
    # 1 * p1^2 falls 1e-6 short of 2 * p2 * p0: ULC only with a wide slack
    p0 = p2 = 0.25
    p1 = math.sqrt(2.0 * p2 * p0 - 1e-6)
    probs = np.array([p0, p1, p2])
    x = FinitePmf(probs / probs.sum())
    wide = ToleranceConfig(tol_norm=1e-3)
    assert [is_ulc(x), is_ulc(x, wide), is_ulc(x)] == [False, True, False]
    assert is_ulc(x, wide) and not is_ulc(FinitePmf(x.probs))


def test_probs_stay_read_only_once_memoised():
    x = poi(1.5)
    entropy_power(x)
    is_ulc(x)
    assert not x.probs.flags.writeable
    with pytest.raises(ValueError):
        x.probs[0] = 0.5


@pytest.mark.parametrize("probs", [[0.5, -0.0, 0.5], [0.5, 0.0, -0.0, 0.5],
                                   [0.5, 0.5, -0.0]])
def test_negative_zero_entries_become_positive_zeros(probs):
    x = FinitePmf(probs)
    assert all(math.copysign(1.0, p) == 1.0 for p in x.probs)
    assert x.probs[-1] > 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_keep_their_message(bad):
    with pytest.raises(ParameterError, match="pmf entries must be finite"):
        FinitePmf([0.5, bad, 0.5])


def test_negative_entry_keeps_its_message():
    with pytest.raises(ParameterError, match=r"pmf entry -1\.000000e-03 is "
                                             r"below -tol_norm = -1\.0e-09"):
        FinitePmf([0.5, -1e-3, 0.501])


def test_positive_pmfs_are_neither_clipped_nor_trimmed():
    probs = np.array([0.25, 0.5, 0.25])
    x = FinitePmf(probs)
    assert x.probs.tolist() == probs.tolist() and len(x) == 3
    assert FinitePmf([0.5, 0.5, 0.0, 0.0]).probs.tolist() == [0.5, 0.5]


@pytest.mark.parametrize("rate", [math.inf, math.nan])
def test_non_finite_added_rates_are_parameter_errors(rate):
    x = construct(FamilySpec.binomial(3, 0.4))
    with pytest.raises(ParameterError):
        evolve(x, 0.5, rate)
    with pytest.raises(ParameterError):
        pde_residual(x, 0.5, 0.0, rate, 1e-4)
