"""Verdict-producing checkers for the proved thinning inequalities, the two
refuted entropy-power conjectures, the STATEMENTS table that `check` and
`search` dispatch on, and a seeded random-ULC search harness."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DomainError, IllConditionedError, NotThinnableError,
                     ParameterError, PreconditionError)
from .entropy_functionals import entropy, entropy_power, rel_entropy_poisson
from .inequality_verdict import InequalityVerdict, make_verdict, ulc_note
from .numerics import check_count, check_support, fsum
from .pmf_core import (DEFAULT_TOLERANCES, FamilySpec, FinitePmf,
                       ToleranceConfig, _check_prob, construct, is_ulc, mean,
                       total_variation)
from .semigroup import isoperimetric_check
from .transforms import (_inverse_thin_entropies, convolve, inverse_thin,
                         leave_one_out, thin, thinned_sum)

# alpha values used by the grid-sweeping searches
ALPHA_GRID = tuple(np.linspace(0.1, 0.9, 9))

# check_epilike scans its feasible alpha window at this many equal steps
EPILIKE_SCAN = 64
# golden section's inner point, as a share of the interval
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a seeded randomized sweep of one inequality."""

    conjecture: str
    trials: int
    violations: list
    tightest_margin: float
    seed: int

    def to_json(self) -> dict:
        return dict(vars(self))


def check_teci(x: FinitePmf, y: FinitePmf, alpha: float,
               cfg: ToleranceConfig = DEFAULT_TOLERANCES,
               allow_non_ulc: bool = False) -> InequalityVerdict:
    """H(T_a X + T_(1-a) Y) >= a H(X) + (1-a) H(Y) for ULC X, Y."""
    alpha = _check_prob(alpha, "alpha")
    note = ulc_note(cfg, allow_non_ulc, x, y)
    lhs = entropy(thinned_sum((x, y), (alpha, 1.0 - alpha), cfg)).nats
    rhs = alpha * entropy(x).nats + (1.0 - alpha) * entropy(y).nats
    return make_verdict("teci", lhs, rhs, cfg, note=note,
                        alpha=alpha, x=x, y=y)


def check_rtepi(x: FinitePmf, alpha: float,
                cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                allow_non_ulc: bool = False) -> InequalityVerdict:
    """V(T_a X) >= a V(X) for ULC X."""
    alpha = _check_prob(alpha, "alpha")
    note = ulc_note(cfg, allow_non_ulc, x)
    lhs = entropy_power(thin(x, alpha, cfg), cfg)
    rhs = alpha * entropy_power(x, cfg)
    return make_verdict("rtepi", lhs, rhs, cfg, units="poisson-rate",
                        note=note, alpha=alpha, x=x)


def _edge(preimage, good, bad, tol):
    """(a, err): a within tol of the end of the interval where preimage
    succeeds (it does at good), err what it raised just past a."""
    err = None
    while abs(good - bad) > tol:
        mid = 0.5 * (good + bad)
        try:
            preimage(mid)
            good = mid
        except (NotThinnableError, IllConditionedError) as exc:
            bad, err = mid, exc
    return good, err


def _bisect(gap, a0, d0, a1, d1, tol):
    """A zero of gap in [a0, a1], where it changes sign: d0 = gap(a0) and
    d1 = gap(a1) have opposite signs.

    The Illinois form of regula falsi (Dowell and Jarratt, BIT 11, 1971):
    a secant step through the bracket's ends, kept tol/2 inside it, that
    halves the value at an end the bracket keeps twice in a row.  When two
    steps have not halved the bracket, the next one takes its midpoint, so
    each halving costs at most three evaluations.  Returns the midpoint of
    the first bracket no wider than tol.
    """
    # kept: 1 if the last step kept a1, -1 if it kept a0; slow: steps
    # since the bracket last halved
    sign, kept, width, slow = d0 > 0.0, 0, a1 - a0, 0
    while a1 - a0 > tol:
        if slow >= 2:
            a = 0.5 * (a0 + a1)
        else:
            a = min(max(a0 - d0 * (a1 - a0) / (d1 - d0), a0 + 0.5 * tol),
                    a1 - 0.5 * tol)
        d = gap(a)
        if (d > 0.0) == sign:
            if kept == 1:
                d1 *= 0.5
            a0, d0, kept = a, d, 1
        else:
            if kept == -1:
                d0 *= 0.5
            a1, d1, kept = a, d, -1
        if a1 - a0 <= 0.5 * width:
            width, slow = a1 - a0, 0
        else:
            slow += 1
    return 0.5 * (a0 + a1)


def _golden_min(gap, lo, hi, tol):
    """(|gap(a)|, a) at the least |gap| golden section on [lo, hi] meets.
    Each step evaluates d, _GOLDEN of the way from the best point c into
    the larger side (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973), and shrinks [lo, hi] to at most 0.691 of its width."""
    c = lo + _GOLDEN * (hi - lo)
    fc = abs(gap(c))
    while hi - lo > tol:
        d = c + _GOLDEN * (hi - c if hi - c > c - lo else lo - c)
        fd = abs(gap(d))
        if fd < fc:
            lo, hi, c, fc = (c, hi, d, fd) if d > c else (lo, c, d, fd)
        else:
            lo, hi = (d, hi) if c > d else (lo, d)
    return fc, c


def check_epilike(x: FinitePmf, y: FinitePmf,
                  cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                  allow_non_ulc: bool = False) -> InequalityVerdict:
    """H(X + Y) >= H(X*) where X = T_a X*, Y = T_(1-a) Y*, H(X*) = H(Y*).

    X*_a exists and is certified (see inverse_thin) for a in [lo, 1], Y*_a
    for a in [0, hi]; bisection finds lo and hi.  H(X*_a) - H(Y*_a) is
    scanned at EPILIKE_SCAN equal steps over [lo, hi]: the X*_a of the scan
    in one batch and its Y*_a in another (transforms._inverse_thin_entropies,
    the bits of one inverse_thin call per alpha), raising the first error
    in scan order, X*_a before Y*_a.  Sign changes are refined by Illinois
    steps from the scan's bracket (_bisect); a local minimum of |gap|
    without one (a tangent zero) is refined by golden section and kept if
    |gap| <= tol_ineq.  The edges, the sign-change refinement and the
    golden section call inverse_thin one alpha at a time.  The zero
    nearest the heuristic alpha = V(X)/(V(X)+V(Y)) is used.  With none:
    IllConditionedError if a zero may hide where a preimage is
    ill-conditioned, else DomainError.
    """
    note = ulc_note(cfg, allow_non_ulc, x, y)
    v_x, v_y = entropy_power(x, cfg), entropy_power(y, cfg)
    heuristic = v_x / (v_x + v_y) if v_x + v_y > 0.0 else 0.5

    # a preimage whose negative mass sits at tol_norm passes or fails by
    # rounding, so points inside [lo, hi] get twice the slack, kept below 1
    inner = replace(cfg, tol_norm=min(2.0 * cfg.tol_norm,
                                      0.5 * (1.0 + cfg.tol_norm)))

    def gap(a):
        return (entropy(inverse_thin(x, a, inner)).nats
                - entropy(inverse_thin(y, 1.0 - a, inner)).nats)

    # floats near alpha = 1 are 1.1e-16 apart; finer brackets never shrink
    tol = max(cfg.tol_root, 1e-12)
    lo, err_x = _edge(lambda a: inverse_thin(x, a, cfg), 1.0, 0.0, tol)
    hi, err_y = _edge(lambda a: inverse_thin(y, 1.0 - a, cfg), 0.0, 1.0, tol)
    scan = []
    if lo <= hi:
        grid = np.linspace(lo, hi, EPILIKE_SCAN + 1)
        for a, h_x, h_y in zip(grid.tolist(),
                               _inverse_thin_entropies(x, grid, inner),
                               _inverse_thin_entropies(y, 1.0 - grid, inner)):
            for h in (h_x, h_y):
                if isinstance(h, Exception):
                    raise h
            scan.append((a, h_x - h_y))
    zeros, ends = [], scan[:1] + scan + scan[-1:]
    for (a_lo, d_lo), (a, d), (a_hi, d_hi) in zip(ends, scan, ends[2:]):
        if d * d_hi < 0.0:
            zeros.append(_bisect(gap, a, d, a_hi, d_hi, tol))
        elif d * d_lo >= 0.0 and abs(d) <= min(abs(d_lo), abs(d_hi)):
            size, best = min(_golden_min(gap, a_lo, a_hi, tol), (abs(d), a))
            if size <= cfg.tol_ineq:
                zeros.append(best)
    if not zeros:
        # a not-thinnable end rules out every alpha beyond it; beyond an
        # ill-conditioned end, alphas the other does not rule out stay open
        ill_x, ill_y = (isinstance(e, IllConditionedError) for e in (err_x, err_y))
        if ill_x and (hi > 0.0 or ill_y) or ill_y and lo < 1.0:
            raise err_x if ill_x else err_y
        raise DomainError("no admissible (X*, Y*) decomposition: " + (
            "preimage entropies never meet" if scan
            else "no alpha makes both preimages valid pmfs"))
    alpha = min(zeros, key=lambda a: abs(a - heuristic))
    h_xstar = entropy(inverse_thin(x, alpha, inner)).nats
    h_ystar = entropy(inverse_thin(y, 1.0 - alpha, inner)).nats
    lhs = entropy(convolve(x, y, cfg)).nats
    return make_verdict("epilike", lhs, h_xstar, cfg, note=note,
                        alpha=alpha, alpha_heuristic=heuristic,
                        h_xstar=h_xstar, h_ystar=h_ystar, x=x, y=y)


def check_hmon(xs, alphas, cfg: ToleranceConfig = DEFAULT_TOLERANCES,
               allow_non_ulc: bool = False) -> InequalityVerdict:
    """n H(sum_i T_(a_i) X_i) >= sum_l a^(l) H(leave-one-out sum), ULC X_i."""
    _, _, lhs, rhs = leave_one_out(xs, alphas, lambda p: entropy(p).nats, cfg)
    # gated after leave_one_out, whose simplex errors take precedence
    note = ulc_note(cfg, allow_non_ulc, *xs)
    return make_verdict("hmon", lhs, rhs, cfg, note=note,
                        alphas=np.asarray(alphas, dtype=float), xs=xs)


def check_dsub(xs, alphas,
               cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> InequalityVerdict:
    """sum_l a^(l) D(leave-one-out sum) >= n D(full sum); no ULC needed."""
    _, _, rhs, lhs = leave_one_out(xs, alphas, rel_entropy_poisson, cfg)
    return make_verdict("dsub", lhs, rhs, cfg,
                        alphas=np.asarray(alphas, dtype=float), xs=xs)


def check_discepilike(ystars, alphas,
                      cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                      allow_non_ulc: bool = False) -> InequalityVerdict:
    """H(sum_i T_(a_i) Y_i*) >= H*, the common leave-one-out entropy.

    Precondition: the n+1 leave-one-out entropies agree within tol_ineq;
    their mean is used as H*.
    """
    lhs, h_loo, _, _ = leave_one_out(
        ystars, alphas, lambda p: entropy(p).nats, cfg)
    # gated after leave_one_out, whose simplex errors take precedence
    note = ulc_note(cfg, allow_non_ulc, *ystars)
    spread = max(h_loo) - min(h_loo)
    if spread > cfg.tol_ineq:
        raise PreconditionError(
            f"leave-one-out entropies disagree: spread = {spread:.3e} nats")
    h_star = math.fsum(h_loo) / len(h_loo)
    return make_verdict("discepilike", lhs, h_star, cfg, note=note,
                        alphas=np.asarray(alphas, dtype=float), ystars=ystars,
                        h_leave_one_out=h_loo)


def check_conjecture_v_superadd(x: FinitePmf, y: FinitePmf,
                                cfg: ToleranceConfig = DEFAULT_TOLERANCES
                                ) -> InequalityVerdict:
    """V(X+Y) >= V(X) + V(Y); refuted in general, verdict reports either way."""
    lhs = entropy_power(convolve(x, y, cfg), cfg)
    rhs = entropy_power(x, cfg) + entropy_power(y, cfg)
    return make_verdict("firstepi", lhs, rhs, cfg, units="poisson-rate",
                        x=x, y=y)


def check_conjecture_tepi(x: FinitePmf, y: FinitePmf, alpha: float,
                          cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                          allow_non_ulc: bool = False) -> InequalityVerdict:
    """V(T_a X + T_(1-a) Y) >= a V(X) + (1-a) V(Y); refuted in general."""
    alpha = _check_prob(alpha, "alpha")
    note = ulc_note(cfg, allow_non_ulc, x, y)
    lhs = entropy_power(thinned_sum((x, y), (alpha, 1.0 - alpha), cfg), cfg)
    rhs = alpha * entropy_power(x, cfg) + (1.0 - alpha) * entropy_power(y, cfg)
    return make_verdict("tepi", lhs, rhs, cfg, units="poisson-rate",
                        note=note, alpha=alpha, x=x, y=y)


def tepis_ratio_condition(v_x: float, v_y: float, beta: float, gamma: float,
                          tol: float = 0.0) -> bool:
    """beta/(1-gamma) <= V(Y)/V(X) <= (1-beta)/gamma, via cross products."""
    return (beta * v_x <= (1.0 - gamma) * v_y + tol
            and gamma * v_y <= (1.0 - beta) * v_x + tol)


def check_tepis(x: FinitePmf, y: FinitePmf, beta: float, gamma: float,
                cfg: ToleranceConfig = DEFAULT_TOLERANCES,
                allow_non_ulc: bool = False) -> InequalityVerdict:
    """V(T_b X + T_g Y) >= b V(X) + g V(Y) under either admissible condition.

    Condition `ratio`: beta/(1-gamma) <= V(Y)/V(X) <= (1-beta)/gamma, which
    is the same as beta V(X) + gamma V(Y) <= min(V(X), V(Y)).  Condition
    `poisson-leg`: beta + gamma = 1 and Y is Poisson with rate <= V(X).
    At least one must hold; the verdict records which.
    """
    beta = _check_prob(beta, "beta")
    gamma = _check_prob(gamma, "gamma")
    note = ulc_note(cfg, allow_non_ulc, x, y)
    v_x, v_y = entropy_power(x, cfg), entropy_power(y, cfg)
    tol = cfg.tol_ineq * max(1.0, v_x, v_y)
    cond_ratio = tepis_ratio_condition(v_x, v_y, beta, gamma, tol)
    mu = mean(y)
    poisson_like = total_variation(
        y, construct(FamilySpec.poisson(mu), cfg)) <= 1e-9
    cond_poisson = (abs(beta + gamma - 1.0) <= 1e-9 and poisson_like
                    and mu <= v_x + tol)
    if not (cond_ratio or cond_poisson):
        raise PreconditionError(
            "neither admissibility condition holds: ratio window fails and "
            "Y is not a Poisson leg with rate <= V(X)")
    condition = ("both" if cond_ratio and cond_poisson
                 else "ratio" if cond_ratio else "poisson-leg")
    lhs = entropy_power(thinned_sum((x, y), (beta, gamma), cfg), cfg)
    rhs = beta * v_x + gamma * v_y
    return make_verdict("tepis", lhs, rhs, cfg, units="poisson-rate",
                        note=note, beta=beta, gamma=gamma,
                        condition=condition, v_x=v_x, v_y=v_y, x=x, y=y)


@dataclass(frozen=True)
class Statement:
    """One statement as `check` and `search` dispatch on it.

    `pmfs` is the number of pmf inputs, or None for a list of n+1 pmfs
    weighted by a simplex vector.  `params` names the scalar parameters by
    their CLI flags, in call order.  Every checker takes
    (pmfs..., params..., cfg), plus allow_non_ulc when `ulc_gated`.
    """

    name: str
    checker: Callable[..., InequalityVerdict]
    proved: bool
    pmfs: int | None
    params: tuple = ()
    ulc_gated: bool = True
    searchable: bool = False

    def run(self, pmfs, params, cfg: ToleranceConfig = DEFAULT_TOLERANCES,
            allow_non_ulc: bool = False) -> InequalityVerdict:
        head = [pmfs] if self.pmfs is None else pmfs
        gate = (allow_non_ulc,) if self.ulc_gated else ()
        return self.checker(*head, *params, cfg, *gate)


STATEMENTS = {s.name: s for s in (
    Statement("firstepi", check_conjecture_v_superadd, False, 2,
              ulc_gated=False, searchable=True),
    Statement("tepi", check_conjecture_tepi, False, 2, ("alpha",),
              searchable=True),
    Statement("teci", check_teci, True, 2, ("alpha",), searchable=True),
    Statement("rtepi", check_rtepi, True, 1, ("alpha",), searchable=True),
    Statement("hmon", check_hmon, True, None, ("alphas",), searchable=True),
    Statement("dsub", check_dsub, True, None, ("alphas",), ulc_gated=False,
              searchable=True),
    Statement("isop", isoperimetric_check, True, 1, searchable=True),
    Statement("epilike", check_epilike, True, 2),
    Statement("discepilike", check_discepilike, True, None, ("alphas",)),
    Statement("tepis", check_tepis, True, 2, ("beta", "gamma")),
)}

# the statements `search` sweeps, in table order
CONJECTURES = tuple(name for name, s in STATEMENTS.items() if s.searchable)


def random_ulc(seed: int, max_bernoullis: int = 3, max_poisson_rate: float = 2.0,
               cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FinitePmf:
    """Seeded random ULC pmf: a Bernoulli convolution, optionally with a
    Poisson factor.  Deterministic for a given seed."""
    if seed < 0:
        raise ParameterError("seed must be >= 0")
    if max_bernoullis < 1 or not 0.0 <= max_poisson_rate < math.inf:
        raise ParameterError(
            "need max_bernoullis >= 1 and a finite max_poisson_rate >= 0")
    # a sum of max_bernoullis Bernoullis has support 0..max_bernoullis
    check_support(max_bernoullis, "max_bernoullis", max_bernoullis)
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, max_bernoullis + 1))
    ps = rng.uniform(0.05, 0.95, size=count)
    pmf = construct(FamilySpec.bernoulli_sum(*ps), cfg)
    if max_poisson_rate > 0.0:
        rate = float(rng.uniform(0.0, max_poisson_rate))
        if rate > 0.0:
            pmf = convolve(pmf, construct(FamilySpec.poisson(rate), cfg), cfg)
    if not is_ulc(pmf, cfg):
        raise RuntimeError("generator bug: produced a non-ULC pmf")
    return pmf


def _simplex(rng, size: int) -> np.ndarray:
    alphas = rng.dirichlet(np.full(size, 2.0))
    return alphas / fsum(alphas)


def search(conjecture: str, trials: int, seed: int,
           cfg: ToleranceConfig = DEFAULT_TOLERANCES,
           max_bernoullis: int = 3,
           max_poisson_rate: float = 2.0) -> SearchReport:
    """Sweep one inequality over seeded random ULC inputs.

    Trial seeds are pre-drawn from the master seed, so the report is
    identical however the trials are scheduled.  Violating verdicts are
    collected verbatim; for the proved statements any violation indicates
    an implementation bug rather than a counterexample.
    """
    if conjecture not in CONJECTURES:
        raise ParameterError(
            f"unknown conjecture {conjecture!r}; expected one of {CONJECTURES}")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if seed < 0:
        raise ParameterError("seed must be >= 0")
    check_count(trials, "trials", trials, "trial seeds")
    statement = STATEMENTS[conjecture]
    master = np.random.default_rng(seed)
    trial_seeds = master.integers(0, 2 ** 62, size=trials)
    violations = []
    tightest = math.inf

    def record(trial, trial_seed, verdict):
        nonlocal tightest
        tightest = min(tightest, verdict.margin)
        if not verdict.holds:
            violations.append({"trial": int(trial), "seed": int(trial_seed),
                               "verdict": verdict.to_json()})

    for trial in range(trials):
        t_seed = int(trial_seeds[trial])
        rng = np.random.default_rng(t_seed)
        draw = lambda: random_ulc(int(rng.integers(0, 2 ** 62)),
                                  max_bernoullis, max_poisson_rate, cfg)
        if statement.pmfs is None:
            size = int(rng.integers(2, 4))
            pmfs = [draw() for _ in range(size)]
            sweep = [(_simplex(rng, size),)]
        else:
            pmfs = [draw() for _ in range(statement.pmfs)]
            # a searchable statement takes one alpha or no parameter
            sweep = ([(float(a),) for a in ALPHA_GRID] if statement.params
                     else [()])
        for params in sweep:
            record(trial, t_seed, statement.run(pmfs, params, cfg))

    return SearchReport(conjecture=conjecture, trials=trials,
                        violations=violations, tightest_margin=tightest,
                        seed=seed)
