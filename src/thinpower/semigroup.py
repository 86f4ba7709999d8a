"""Interpolation machinery: the thin-then-add-Poisson map, its evolution
equation as a verification target, the entropy-preserving path, and the
isoperimetric comparison it certifies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ParameterError, PreconditionError
from .entropy_functionals import (entropy, entropy_and_log, entropy_power,
                                  l_functional, poisson_entropy_derivative,
                                  u_functional)
from .inequality_verdict import InequalityVerdict, make_verdict, ulc_note
from .numerics import check_count, fsum, solve_increasing
from .pmf_core import (DEFAULT_TOLERANCES, FinitePmf, ToleranceConfig,
                       _padded, is_ulc, mean, poisson_pmf)
from .transforms import convolve, thin


@dataclass(frozen=True)
class PathReport:
    """Sampled entropy-preserving interpolation between a pmf and a Poisson.

    Parallel arrays over t_grid: the Poisson rate f(t) solved to keep entropy
    constant, the drift r(t) = f(t)/t - f'(t) from differencing f, the
    entropy and the U functional along the path, plus the extrapolated f(0)
    and the entropy power it should match.
    """

    t_grid: np.ndarray
    f_vals: np.ndarray
    r_vals: np.ndarray
    h_vals: np.ndarray
    u_vals: np.ndarray
    f0_extrapolated: float
    v_target: float

    def to_json(self) -> dict:
        return {k: np.asarray(v).tolist() for k, v in vars(self).items()}


def default_t_grid(points: int = 40) -> np.ndarray:
    """Logarithmically spaced grid on [0.02, 1], dense near the extrapolation end."""
    if points < 2:
        raise ParameterError("t grid needs at least 2 points")
    check_count(points, "t grid", points, "points")
    return np.geomspace(0.02, 1.0, points)


def evolve(x: FinitePmf, t: float, f_val: float,
           cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FinitePmf:
    """Thin x by t, then add an independent Poisson(f_val)."""
    if not 0.0 < t <= 1.0:
        raise ParameterError(f"evolution time {t!r} outside (0, 1]")
    if f_val < 0.0:
        raise ParameterError(f"added Poisson rate {f_val!r} must be >= 0")
    return _add_poisson(thin(x, t, cfg), f_val, cfg)


def _add_poisson(p: FinitePmf, rate: float, cfg: ToleranceConfig) -> FinitePmf:
    if rate == 0.0:
        return p
    return convolve(p, poisson_pmf(rate, cfg), cfg)


def pde_residual(x: FinitePmf, t: float, r_val: float, f_val: float,
                 fd_step: float,
                 cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Max deviation of the evolved pmf from its evolution equation at time t.

    Checks d/dt P_t(z) (by central differencing the actual thin+add map)
    against g(z-1) - g(z) with g(z) = (z+1) P_t(z+1)/t - r(t) P_t(z).  For
    the pure-thinning flow pass r_val = f_val = 0.  The equation is used as
    a verification target only; evolution itself is always computed directly.
    """
    if fd_step <= 0.0:
        raise ParameterError("fd_step must be positive")
    if not (0.0 < t - fd_step and t + fd_step < 1.0):
        raise ParameterError("need 0 < t - fd_step and t + fd_step < 1")
    if f_val == 0.0 and r_val == 0.0:
        f_lo = f_hi = 0.0
    else:
        # r = f/t - f', so f(t +- h) = f +- h*(f/t - r) to first order
        slope = f_val / t - r_val
        f_hi, f_lo = f_val + fd_step * slope, f_val - fd_step * slope
        if min(f_hi, f_lo) < 0.0:
            raise ParameterError("fd_step too large: perturbed rate went negative")
    p_mid = evolve(x, t, f_val, cfg)
    p_hi = evolve(x, t + fd_step, f_hi, cfg)
    p_lo = evolve(x, t - fd_step, f_lo, cfg)
    width = max(len(p_mid), len(p_hi), len(p_lo)) + 1
    mid = _padded(p_mid, width)
    dpdt = (_padded(p_hi, width) - _padded(p_lo, width)) / (2.0 * fd_step)
    z = np.arange(width)
    flux = np.zeros(width)
    flux[:-1] = (z[1:] * mid[1:]) / t
    flux -= r_val * mid
    rhs = np.concatenate(([0.0], flux[:-1])) - flux
    return float(np.max(np.abs(dpdt - rhs)))


def _solve_rate_for_entropy(base: FinitePmf, h_target: float, rate0: float,
                            cfg: ToleranceConfig):
    """(f, Q, H(Q)): the Poisson rate f >= 0 with H(Q) = h_target for
    Q = base + Poisson(f), and the Q and H(Q) evaluated at that f.

    H grows with f, so no gap at f = 0 (as at t = 1) means f = 0.  Else
    numerics.solve_increasing starts from rate0 and steps on the exact
    derivative: Q has dQ(z)/df = Q(z-1) - Q(z), so
    dH/df = -sum_z (Q(z-1) - Q(z)) log Q(z).
    """
    h_base = entropy(base).nats
    gap_at_zero = h_base - h_target
    if gap_at_zero >= 0.0:
        if gap_at_zero <= 10.0 * cfg.tol_root:
            return 0.0, base, h_base
        raise NumericError("entropy gap positive at f = 0; no bracket",
                           {"rate0": rate0, "gap_at_zero": gap_at_zero})
    evaluated = {}

    def pair(f):
        q = _add_poisson(base, f, cfg)
        h, log_q = entropy_and_log(q)   # one log Q for H and dH/df
        evaluated[f] = q, h
        dq = q.probs.copy()  # Q(z) - Q(z-1), Q(-1) = 0
        dq[1:] -= q.probs[:-1]
        return h, fsum(dq * log_q)

    f = solve_increasing(pair, h_target, rate0, cfg.tol_root)
    return (f, *evaluated[f])


def _extrapolate(ts, fs, t: float) -> float:
    """The value at t of the polynomial through the points (ts, fs), or 0
    with no point (Lagrange's form)."""
    total = 0.0
    for j, (t_j, f_j) in enumerate(zip(ts, fs)):
        for k, t_k in enumerate(ts):
            if k != j:
                f_j *= (t - t_k) / (t_j - t_k)
        total += f_j
    return total


def entropy_preserving_path(x: FinitePmf, t_grid=None,
                            cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> PathReport:
    """Solve the constant-entropy interpolation X_t = thin(x, t) + Poisson(f(t)).

    Defined for ultra-log-concave x with l_functional(x) > 0, the regime in
    which entropy strictly grows under thinning-with-replenishment and the
    path runs from x at t = 1 towards a Poisson of rate V(x) as t -> 0.
    Each f(t) is solved by numerics.solve_increasing, Newton on the exact
    derivative dH/df, to cfg.tol_root * f, from the cubic through the last
    four solved (t, f); the first point, and any whose extrapolation falls
    outside (0, mean(x)], where f lies, starts from the rate that restores
    the mean.  A point takes about 2 evaluations of H, and 1 when its
    start is exact.  The grid must end in (1 - 1e-12, 1].  The report
    records f, its extrapolation to t = 0, and the U functional, which
    should be non-increasing in t.
    """
    if t_grid is None:
        t_grid = default_t_grid()
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2 or np.any(np.diff(t_grid) <= 0):
        raise ParameterError("t grid must be strictly increasing with >= 2 points")
    if not (0.0 < t_grid[0] and 1.0 - 1e-12 < t_grid[-1] <= 1.0):
        raise ParameterError("t grid must sit in (0, 1] and end at 1")
    if not is_ulc(x, cfg):
        raise PreconditionError("entropy-preserving path requires a ULC input")
    if not l_functional(x) > 0.0:
        raise DomainError("path undefined (L <= 0)")

    h_target = entropy(x).nats
    v_target = entropy_power(x, cfg)
    mu = mean(x)

    f_vals = np.empty(t_grid.size)
    h_vals = np.empty(t_grid.size)
    u_vals = np.empty(t_grid.size)
    ts = t_grid.tolist()
    for i, t in enumerate(ts):
        base = thin(x, t, cfg)
        # start from the polynomial through the last four solved (t, f), a
        # cubic from the fifth point on.  The root lies in (0, mean(x)]:
        # f <= V(x), since H(Po(f)) <= H(X_t) = H(x), and V(x) <= mean(x)
        # for ULC x.  At the first point, and where close grid points blow
        # the solved rates' rounding up past that, start from the rate that
        # restores the mean (exact for a Poisson x), mean(base) / t *
        # (1 - t), or from mean(x) * (1 - t), which it approximates, where
        # thinning underflows a subnormal mean to 0
        last = max(0, i - 4)
        rate0 = _extrapolate(ts[last:i], f_vals[last:i].tolist(), t)
        if not 0.0 < rate0 <= mu:
            rate0 = mean(base) / t * (1.0 - t) or mu * (1.0 - t)
        f_vals[i], state, h_vals[i] = _solve_rate_for_entropy(
            base, h_target, rate0, cfg)
        u_vals[i] = u_functional(state)

    # second-order central differences inside, one-sided at the ends
    f_prime = np.gradient(f_vals, t_grid)
    r_vals = f_vals / t_grid - f_prime
    f0 = f_vals[0] - f_prime[0] * t_grid[0]
    return PathReport(t_grid=t_grid, f_vals=f_vals, r_vals=r_vals,
                      h_vals=h_vals, u_vals=u_vals,
                      f0_extrapolated=float(f0), v_target=v_target)


def isoperimetric_check(x: FinitePmf,
                        cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                        allow_non_ulc: bool = False) -> InequalityVerdict:
    """Verdict for L(X) <= V(X) * J(V(X)); equality at Poisson inputs."""
    note = ulc_note(cfg, allow_non_ulc, x)
    lhs = l_functional(x)
    v = entropy_power(x, cfg)
    rhs = v * poisson_entropy_derivative(v, cfg) if v > 0.0 else 0.0
    return make_verdict("isop", lhs, rhs, cfg, margin=rhs - lhs, note=note,
                        v=v)
