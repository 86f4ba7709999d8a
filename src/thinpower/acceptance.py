"""Executable acceptance criteria.

Each criterion_N function runs one gate of the release checklist and returns
a CriterionResult whose details are deterministic (timings are kept out of
the serialised payload).  The `_criterion` decorator registers each one in
CRITERIA with its number, name and time bound.  `thinpower verify`, the test
suite and `thinpower reproduce` (through fail1, fail2 and
binomial_corollary_margins) all call these.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import hessian as hes
from .entropy_functionals import (entropy, entropy_power, l_functional,
                                  lambda_functional, poisson_entropy_derivative,
                                  rel_entropy_poisson)
from .errors import ParameterError
from .inequality_suite import (_simplex, check_conjecture_tepi,
                               check_conjecture_v_superadd, check_dsub,
                               check_epilike, check_hmon, check_teci,
                               random_ulc, search)
from .jsonio import dumps_canonical
from .pmf_core import (DEFAULT_TOLERANCES, FamilySpec, ToleranceConfig,
                       construct, total_variation)
from .semigroup import default_t_grid, entropy_preserving_path, pde_residual
from .transforms import (convolve, inverse_thin, leave_one_out, thin,
                         thinned_sum)

SUITE_SEED = 20260810

FAIL2_REFERENCE = (2.08286, 1.27189, 2.27062, 2.55729, 2.25374)
FAIL2_ALPHA = 0.999


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict
    seconds: float

    def to_json(self) -> dict:
        return {"number": self.number, "name": self.name,
                "passed": self.passed, "details": self.details}


CRITERIA = {}


def _criterion(number: int, name: str, within: float = math.inf):
    """Register a body returning (passed, details) as criterion `number`;
    the registered function times it and fails it at `within` seconds."""
    def register(body):
        @functools.wraps(body)
        def run(cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> CriterionResult:
            start = time.perf_counter()
            passed, details = body(cfg)
            elapsed = time.perf_counter() - start
            return CriterionResult(number, name, bool(passed) and elapsed < within,
                                   details, elapsed)
        CRITERIA[number] = run
        return run
    return register


def fail1(cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """The three-point pmf that refutes superadditivity of V: returns
    (verdict, refuted), refuted when V(X+X) < 2 V(X) by more than 1e-6."""
    p = construct(FamilySpec.raw([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0]), cfg)
    verdict = check_conjecture_v_superadd(p, p, cfg)
    return verdict, verdict.margin < -1e-6 and not verdict.holds


def fail2(cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Bernoulli(1/3)+Poisson(1) against Poisson(1000) at alpha = 0.999:
    returns the five reference quantities (entropies in bits), their
    distances to FAIL2_REFERENCE, the thinned EPI verdict, and refuted
    (every quantity reproduces to 1e-4 and the verdict fails)."""
    x = convolve(construct(FamilySpec.bernoulli(1.0 / 3.0), cfg),
                 construct(FamilySpec.poisson(1.0), cfg), cfg)
    y = construct(FamilySpec.poisson(1000.0), cfg)
    alpha = FAIL2_ALPHA
    v_x = entropy_power(x, cfg)
    v_y = entropy_power(y, cfg)
    mixed = thinned_sum((x, y), (alpha, 1.0 - alpha), cfg)
    computed = (entropy(x).bits, v_x, alpha * v_x + (1.0 - alpha) * v_y,
                entropy(mixed).bits, entropy_power(mixed, cfg))
    deviations = [abs(c - r) for c, r in zip(computed, FAIL2_REFERENCE)]
    verdict = check_conjecture_tepi(x, y, alpha, cfg)
    return (computed, deviations, verdict,
            max(deviations) < 1e-4 and not verdict.holds)


@_criterion(1, "thinned entropy-power counterexample", within=5.0)
def criterion_1(cfg):
    """Asymmetric Bernoulli+Poisson counterexample reproduces to 1e-4."""
    computed, deviations, verdict, refuted = fail2(cfg)
    return refuted, {"computed": list(computed),
                     "reference": list(FAIL2_REFERENCE),
                     "deviations": deviations, "tepi_holds": verdict.holds,
                     "tepi_margin": verdict.margin}


@_criterion(2, "entropy-power superadditivity counterexample", within=1.0)
def criterion_2(cfg):
    """Three-point superadditivity counterexample: strict violation."""
    verdict, refuted = fail1(cfg)
    return refuted, {"v_sum": verdict.lhs, "v_x_plus_v_y": verdict.rhs,
                     "margin": verdict.margin, "holds": verdict.holds}


@_criterion(3, "random-ULC theorem sweeps", within=60.0)
def criterion_3(cfg):
    """Seeded random-ULC sweeps of the proved statements: zero violations."""
    plan = (("teci", 500), ("rtepi", 500), ("isop", 500),
            ("hmon", 100), ("dsub", 100))
    details = {}
    clean = True
    for name, trials in plan:
        report = search(name, trials, SUITE_SEED, cfg)
        details[name] = {"trials": trials,
                         "violations": len(report.violations),
                         "tightest_margin": report.tightest_margin}
        clean = clean and not report.violations
    return clean, details


@_criterion(4, "Poisson equality margins")
def criterion_4(cfg):
    """Matched-rate Poisson inputs sit at equality within 1e-7."""
    pi1 = construct(FamilySpec.poisson(1.0), cfg)
    pi2 = construct(FamilySpec.poisson(2.0), cfg)
    margins = {
        "teci": check_teci(pi2, pi2, 0.3, cfg).margin,
        "hmon": check_hmon([pi1, pi1, pi1],
                           [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], cfg).margin,
        "epilike": check_epilike(pi2, pi2, cfg).margin,
        "tepi": check_conjecture_tepi(pi2, pi2, 0.3, cfg).margin,
    }
    return all(abs(m) < 1e-7 for m in margins.values()), {"margins": margins}


def binomial_corollary_margins(cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Margins of H(Bin(n,p) + Bin(n,q)) >= H(Bin(n,p+q)) over the 0.05 grid."""
    worst = math.inf
    count = 0
    violations = 0
    for n in range(1, 11):
        for i in range(1, 20):
            for j in range(1, 21 - i):
                p, q = 0.05 * i, 0.05 * j
                left = convolve(construct(FamilySpec.binomial(n, p), cfg),
                                construct(FamilySpec.binomial(n, q), cfg), cfg)
                right = construct(FamilySpec.binomial(n, min(p + q, 1.0)), cfg)
                margin = entropy(left).nats - entropy(right).nats
                worst = min(worst, margin)
                count += 1
                if margin < -cfg.tol_ineq:
                    violations += 1
    return worst, count, violations


@_criterion(5, "binomial entropy corollary")
def criterion_5(cfg):
    """Binomial corollary holds on the whole (n, p, q) grid."""
    worst, count, violations = binomial_corollary_margins(cfg)
    return violations == 0, {"cases": count, "violations": violations,
                             "worst_margin": worst}


@_criterion(6, "entropy-preserving interpolation")
def criterion_6(cfg):
    """Interpolation machinery: evolution equation, paths, L at Poisson."""
    rng = np.random.default_rng(SUITE_SEED)

    worst_residual = 0.0
    for _ in range(20):
        x = random_ulc(int(rng.integers(0, 2 ** 62)), 3, 2.0, cfg)
        t = float(rng.uniform(0.05, 0.93))
        worst_residual = max(worst_residual,
                             pde_residual(x, t, 0.0, 0.0, cfg.fd_step, cfg))

    paths_done = 0
    worst_f0 = 0.0
    worst_u_step = -math.inf
    grid = default_t_grid(40)
    while paths_done < 20:
        x = random_ulc(int(rng.integers(0, 2 ** 62)), 3, 2.0, cfg)
        if not l_functional(x) > 0.0:
            continue
        report = entropy_preserving_path(x, grid, cfg)
        worst_f0 = max(worst_f0, abs(report.f0_extrapolated - report.v_target))
        worst_u_step = max(worst_u_step, float(np.max(np.diff(report.u_vals))))
        paths_done += 1

    l_gaps = {}
    for lam in (0.5, 1.0, 5.0, 20.0):
        pi = construct(FamilySpec.poisson(lam), cfg)
        l_gaps[str(lam)] = abs(l_functional(pi)
                               - lam * poisson_entropy_derivative(lam, cfg))
    passed = (worst_residual < 1e-6 and worst_f0 < 1e-3
              and worst_u_step <= 1e-8
              and all(g < 1e-9 for g in l_gaps.values()))
    return passed, {"worst_pde_residual": worst_residual,
                    "worst_f0_gap": worst_f0,
                    "worst_u_increase": worst_u_step,
                    "poisson_l_gaps": l_gaps}


def _random_small_ulc(rng, cfg):
    kind = int(rng.integers(0, 3))
    p = float(rng.uniform(0.25, 0.75))
    if kind == 0:
        return construct(FamilySpec.bernoulli(p), cfg)
    if kind == 1:
        return construct(FamilySpec.binomial(2, p), cfg)
    return construct(FamilySpec.binomial(3, p), cfg)


@_criterion(7, "Hessian and splitting machinery")
def criterion_7(cfg):
    """Hessian machinery: FD agreement, splitting identities, negativity,
    and the margin bookkeeping between the three monotonicity statements."""
    rng = np.random.default_rng(SUITE_SEED + 1)

    worst_fd = 0.0
    for _ in range(20):
        size = int(rng.integers(2, 4))
        xs = [_random_small_ulc(rng, cfg) for _ in range(size)]
        while True:
            alphas = rng.dirichlet(np.full(size, 5.0))
            if alphas.min() > 0.05 and alphas.max() < 0.9:
                break
        analytic = hes.hessian_analytic(xs, alphas, cfg)
        numeric = hes.hessian_fd(xs, alphas, cfg)
        gap = np.abs(analytic - numeric) - (1e-5 * np.abs(analytic) + 1e-8)
        worst_fd = max(worst_fd, float(gap.max()))

    witnesses = 0
    for _ in range(20):
        size = int(rng.integers(2, 5))
        lambdas = rng.uniform(0.3, 3.0, size=size)
        alphas = rng.dirichlet(np.full(size, 2.0))
        leave = int(rng.integers(0, size))
        t = float(rng.uniform(0.05, 0.95))
        hes.positive_splitting(alphas, leave, t, lambdas)  # raises on failure
        witnesses += 1

    worst_quad = -math.inf
    t_grid = np.linspace(0.1, 0.9, 9)
    quad_instances = (
        ([construct(FamilySpec.bernoulli(0.5), cfg)] * 2, [0.5, 0.5], 1),
        ([construct(FamilySpec.bernoulli(0.3), cfg),
          construct(FamilySpec.binomial(2, 0.4), cfg),
          construct(FamilySpec.bernoulli(0.7), cfg)], [0.2, 0.3, 0.5], 0),
        ([construct(FamilySpec.binomial(3, 0.6), cfg),
          construct(FamilySpec.bernoulli(0.4), cfg)], [0.4, 0.6], 0),
    )
    for xs, alphas, leave in quad_instances:
        verdicts = hes.check_quadratic_form(xs, alphas, leave, t_grid, cfg)
        for verdict in verdicts[:-1]:
            worst_quad = max(worst_quad, verdict.lhs)

    worst_identity = 0.0
    for _ in range(5):
        size = int(rng.integers(2, 4))
        xs = [_random_small_ulc(rng, cfg) for _ in range(size)]
        alphas = _simplex(rng, size)
        margin_h = check_hmon(xs, alphas, cfg).margin
        _, _, lam_lhs, lam_rhs = leave_one_out(xs, alphas, lambda_functional,
                                               cfg)
        margin_lambda = lam_lhs - lam_rhs
        # the divergence inequality enters subtracted, i.e. with margin
        # oriented as n D(full) - sum_l a^(l) D(leave-one-out)
        margin_d_sub = -check_dsub(xs, alphas, cfg).margin
        worst_identity = max(worst_identity,
                             abs(margin_h - (margin_lambda - margin_d_sub)))

    passed = (worst_fd <= 0.0 and witnesses == 20
              and worst_quad <= 1e-10 and worst_identity < 1e-10)
    return passed, {"worst_fd_excess": worst_fd,
                    "splitting_witnesses": witnesses,
                    "worst_quadratic_form": worst_quad,
                    "worst_margin_identity_residual": worst_identity}


@_criterion(8, "algebraic invariants")
def criterion_8(cfg):
    """Algebraic invariants of the maps and functionals."""
    battery = [
        construct(FamilySpec.bernoulli(0.3), cfg),
        construct(FamilySpec.bernoulli_sum(0.2, 0.5, 0.7), cfg),
        construct(FamilySpec.binomial(4, 0.35), cfg),
        construct(FamilySpec.poisson(2.0), cfg),
        construct(FamilySpec.raw([0.25, 0.5, 0.25]), cfg),
        construct(FamilySpec.geometric(1.0), cfg),
        random_ulc(SUITE_SEED + 2, 3, 2.0, cfg),
    ]

    worst_semigroup = 0.0
    for x in battery[:4]:
        for a, b in ((0.3, 0.8), (0.5, 0.5), (0.9, 0.7)):
            worst_semigroup = max(worst_semigroup, total_variation(
                thin(thin(x, a, cfg), b, cfg), thin(x, a * b, cfg)))

    worst_closure = 0.0
    for lam in (0.5, 2.0, 10.0, 50.0):
        pi = construct(FamilySpec.poisson(lam), cfg)
        for a in (0.25, 0.6, 0.9):
            worst_closure = max(worst_closure, total_variation(
                thin(pi, a, cfg), construct(FamilySpec.poisson(a * lam), cfg)))

    worst_roundtrip = 0.0
    roundtrips = (
        (construct(FamilySpec.bernoulli(0.3), cfg), 0.5),
        (construct(FamilySpec.poisson(1.0), cfg), 0.25),
        (construct(FamilySpec.binomial(3, 0.2), cfg), 0.7),
        (random_ulc(SUITE_SEED + 3, 3, 1.0, cfg), 0.8),
    )
    for x, a in roundtrips:
        worst_roundtrip = max(worst_roundtrip, total_variation(
            thin(inverse_thin(x, a, cfg), a, cfg), x))

    worst_lam_identity = 0.0
    for x in battery:
        gap = abs(lambda_functional(x) - entropy(x).nats
                  - rel_entropy_poisson(x))
        worst_lam_identity = max(worst_lam_identity, gap)

    worst_vpi = 0.0
    for t in (0.1, 1.0, 10.0, 100.0, 1000.0):
        pi = construct(FamilySpec.poisson(t), cfg)
        worst_vpi = max(worst_vpi, abs(entropy_power(pi, cfg) - t))

    worst_l_fd = 0.0
    step = cfg.fd_step
    for x in (battery[0], battery[3], battery[4], battery[1]):
        fd = (entropy(x).nats - entropy(thin(x, 1.0 - step, cfg)).nats) / step
        worst_l_fd = max(worst_l_fd, abs(fd - l_functional(x)))

    passed = (worst_semigroup < 1e-12 and worst_closure < 1e-10
              and worst_roundtrip < 1e-10 and worst_lam_identity < 1e-10
              and worst_vpi < 1e-8 and worst_l_fd < 1e-5)
    return passed, {"worst_semigroup_tv": worst_semigroup,
                    "worst_poisson_closure_tv": worst_closure,
                    "worst_roundtrip_tv": worst_roundtrip,
                    "worst_cross_entropy_identity": worst_lam_identity,
                    "worst_v_of_poisson": worst_vpi,
                    "worst_l_vs_fd": worst_l_fd}


@_criterion(9, "byte-identical reports")
def criterion_9(cfg):
    """Reports are byte-identical across repeated runs with one seed."""
    first = dumps_canonical(search("teci", 25, 7, cfg))
    second = dumps_canonical(search("teci", 25, 7, cfg))
    search_ok = first == second
    gate_a = dumps_canonical(criterion_5(cfg).to_json())
    gate_b = dumps_canonical(criterion_5(cfg).to_json())
    verify_ok = gate_a == gate_b
    return search_ok and verify_ok, {"search_identical": search_ok,
                                     "verify_identical": verify_ok,
                                     "search_bytes": len(first)}


def run_criteria(numbers=None, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Run the selected criteria (all when numbers is None) in order."""
    selected = sorted(CRITERIA if numbers is None else set(numbers))
    for number in selected:
        if number not in CRITERIA:
            raise ParameterError(f"no acceptance criterion number {number}")
    return [CRITERIA[number](cfg) for number in selected]
