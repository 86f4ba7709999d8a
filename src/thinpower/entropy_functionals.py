"""Scalar functionals: H, the Poisson entropy curve and its inverse,
relative entropy to the matched Poisson, and the thinning-derivative
functionals L, Lambda, U."""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .numerics import (_SADDLE_FROM, fsum, log_factorials, poisson_log_terms,
                       poisson_terms, solve_increasing)
from .pmf_core import DEFAULT_TOLERANCES, FinitePmf, ToleranceConfig, mean

LN2 = math.log(2.0)
EPS = float(np.finfo(float).eps)
# a start from _start_table misses E^-1 by at most 6.3e-7, relative
# (measured at 3000 log-spaced t in the table); a mean within this of it
# is taken instead
_START_ERR = 2e-6


@dataclass(frozen=True)
class EntropyValue:
    """Entropy in nats, with the base-2 reading derived on access."""

    nats: float

    @property
    def bits(self) -> float:
        return self.nats / LN2


def entropy(p: FinitePmf) -> EntropyValue:
    """Shannon entropy -sum p log p in nats; zero terms are skipped."""
    if "entropy" not in p._memo:
        entropy_and_log(p)
    return p._memo["entropy"]


def entropy_and_log(p: FinitePmf) -> tuple[float, np.ndarray]:
    """(H(p) in nats, log p): the one home of entropy's formula, for a
    caller that needs the log of the entries too; H goes into p's memo
    as entropy keeps it.

    log p is 0 where p is 0, so each zero entry adds a +0.0 term, and
    -fsum(p log p) over every entry is the sum over the positive entries
    bit for bit: fsum rounds correctly.  A pmf without zeros, the common
    case, takes the plain log and skips the mask.
    """
    probs = p.probs
    log_p = (np.log(probs) if probs.all()
             else np.log(probs, out=np.zeros(probs.size), where=probs > 0.0))
    nats = -fsum(probs * log_p)
    value = p._memo["entropy"] = EntropyValue(nats if nats > 0.0 else 0.0)
    return value.nats, log_p


def _poisson_entropy_pair(t: float, cfg: ToleranceConfig) -> tuple[float, float]:
    """(E(t), E'(t)) for t > 0 from one truncated Poisson(t) log pmf.

    E is the entropy of the truncated pmf renormalised, as construct
    builds it: -sum(p log p)/S + log S over the entries p of mass S.  S
    misses 1 by an ulp or so; left in, that moves E by about an ulp, and
    V by that over E', 2.7e-12 at t = 1500.  Renormalised, E and
    entropy(construct(Poisson(t))) agree to an ulp from t = 0.2 on (400
    rates on a log grid to 2000).
    """
    _, logp, log_z1 = poisson_terms(t, cfg.tail_eps)
    pmf = np.exp(logp)
    mass = fsum(pmf)
    return (-fsum(pmf * logp) / mass + math.log(mass),
            fsum(pmf * (log_z1 - math.log(t))))


def poisson_entropy(t: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """H(Poisson(t)) in nats, by direct truncated summation.

    The log pmf is evaluated once per support point and used both as weight
    exponent and as logarithm, which keeps this curve consistent with
    entropy(construct(poisson(t))) to rounding.  Against mpmath the
    absolute error is below 3.3e-15 for t under 10, and below 1e-15 from
    10 up to 2000 (numerics' _SADDLE_FROM records the measurement).
    """
    if t < 0.0 or not math.isfinite(t):
        raise ParameterError(f"poisson entropy needs t >= 0, got {t!r}")
    if t == 0.0:
        return 0.0
    return _poisson_entropy_pair(t, cfg)[0]


def poisson_entropy_derivative(t: float,
                               cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """d/dt H(Poisson(t)) = sum_z pmf(z) log((z+1)/t); strictly positive."""
    if t <= 0.0 or not math.isfinite(t):
        raise ParameterError(f"entropy derivative needs t > 0, got {t!r}")
    return _poisson_entropy_pair(t, cfg)[1]


@functools.cache
def _start_table() -> tuple:
    """V's start: (log E(t), log t, E(t)/(t E'(t))) at 16 log-spaced t a
    decade over [1e-3, 1e3], built on first use in 4-7 ms.  A table to 1e4
    would grow the log k! tables past the shipped 4096 entries and take 10
    ms; V past E(1e3) starts from the mean, the root itself for a Poisson."""
    rows = []
    for t in np.geomspace(1e-3, 1e3, 97).tolist():
        e, slope = _poisson_entropy_pair(t, DEFAULT_TOLERANCES)
        rows.append((math.log(e), math.log(t), e / (t * slope)))
    return tuple(rows)


def _start(target: float, mu: float) -> float:
    """Where V's solve for an entropy target starts, for a pmf of mean mu.

    Inside the table, E^-1(target) by cubic Hermite interpolation of log t
    against log E, whose slopes d(log t)/d(log E) = E/(t E'(t)) the table
    holds; but mu where it lies within _START_ERR of that: for a Poisson
    pmf the mean is the root itself.  Outside the table, max(mu, 1).
    """
    table = _start_table()
    y = math.log(target)
    i = bisect.bisect_right(table, (y,))
    if not 0 < i < len(table):
        return max(mu, 1.0)
    (y0, u0, m0), (y1, u1, m1) = table[i - 1], table[i]
    h = y1 - y0
    s = (y - y0) / h
    r = 1.0 - s
    t = math.exp(r * r * ((1.0 + 2.0 * s) * u0 + s * h * m0)
                 + s * s * ((3.0 - 2.0 * s) * u1 - r * h * m1))
    return mu if abs(mu - t) <= _START_ERR * t else t


def entropy_power(p: FinitePmf, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """The Poisson rate t whose entropy equals H(p).

    Solved by numerics.solve_increasing on the concave E, with E and E'
    from one Poisson log pmf per step, from _start: a table of E inverted
    by cubic Hermite interpolation, within 6.3e-7 of the root, or the mean
    near it or outside the table.  For ULC p the mean lies right of the
    root (V <= mean), and from a start left of it, Newton on the concave E
    rises to the root without passing it.  The solve ends with a Newton
    step of at most sqrt(cfg.tol_root) * t, left unevaluated.  |E''| <=
    1.11 E'/t, measured against mpmath on a log grid over [1e-3, 1e4] (the
    largest ratio, 1.105, near t = 2.8; it tends to 1 as t grows and to 0
    as t falls), so that step leaves V within about 0.56 tol_root V of the
    root.  A start from the table takes one evaluation at the default
    tol_root; entropies near 1e-100 take hundreds (bisecting).  The result
    is kept in p's memo per (tol_root, tail_eps).
    """
    key = ("entropy_power", cfg.tol_root, cfg.tail_eps)
    if key not in p._memo:
        target = entropy(p).nats
        p._memo[key] = (solve_increasing(
            lambda t: _poisson_entropy_pair(t, cfg), target,
            _start(target, mean(p)), cfg.tol_root,
            final_step=True) if target > 0.0 else 0.0)
    return p._memo[key]


def rel_entropy_poisson(p: FinitePmf) -> float:
    """Relative entropy from p to the Poisson with the same mean."""
    lam = mean(p)
    if lam == 0.0:
        return 0.0
    z, log_pi, _ = poisson_log_terms(lam, len(p) - 1)
    keep = p.probs > 0.0
    probs, log_p = p.probs[keep], np.log(p.probs[keep])
    value = fsum(probs * (log_p - log_pi[keep]))
    # D >= 0, so swallow a negative value within the rounding bound of the
    # sum, 4 eps sum p (|log pi| + |log p|).  Below _SADDLE_FROM, log_pi =
    # z log(lam) - lam - log(z!) rounds with its terms, each far larger
    # than log_pi itself on wide supports, so their sizes stand for it
    size = (np.abs(log_pi) if lam >= _SADDLE_FROM
            else z * abs(math.log(lam)) + lam + log_factorials(len(p) - 1))
    slack = 4.0 * EPS * fsum(probs * (size[keep] + np.abs(log_p)))
    return 0.0 if -slack < value < 0.0 else value


def l_functional(p: FinitePmf) -> float:
    """sum_z (z+1) p(z+1) log(p(z)/p(z+1)); the thinning derivative of H at 1.

    May be negative.  Needs a support contiguous from its minimum; a gap
    flanked by positive mass raises DomainError.  If the support starts above
    zero the leading log(0) term makes the value -inf.
    """
    probs = p.probs
    start = int(np.flatnonzero(probs)[0])
    if np.any(probs[start:] == 0.0):
        raise DomainError("L undefined (gapped support)")
    if start > 0:
        return -math.inf
    z1 = np.arange(1, len(p))
    return fsum(z1 * probs[1:] * (np.log(probs[:-1]) - np.log(probs[1:])))


def lambda_functional(p: FinitePmf) -> float:
    """Poisson cross-entropy: mean + E[log X!] - mean*log(mean)."""
    lam = mean(p)
    if lam == 0.0:
        return 0.0
    log_fact = log_factorials(len(p) - 1)
    return lam + fsum(p.probs * log_fact) - lam * math.log(lam)


def u_functional(p: FinitePmf) -> float:
    """H(p) - sum_z p(z+1) log (z+1)! - mean + sum_z (z+1) p(z+1) log(z+1)."""
    h = entropy(p).nats
    z1 = np.arange(1, len(p))
    log_fact = log_factorials(len(p) - 1)
    s_fact = fsum(p.probs[1:] * log_fact[1:])
    s_lin = fsum(z1 * p.probs[1:] * np.log(z1))
    return h - s_fact - mean(p) + s_lin
