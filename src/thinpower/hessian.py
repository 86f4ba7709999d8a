"""Hessian machinery behind entropy monotonicity: the cross-entropy
surface Phi over thinning parameters, its analytic Hessian over the
distribution of the thinned total, the positive splitting certificate, and
the negativity of the interpolation quadratic form."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConsistencyError, ParameterError, PreconditionError
from .entropy_functionals import lambda_functional
from .inequality_verdict import make_verdict
from .numerics import fsum
from .pmf_core import DEFAULT_TOLERANCES, ToleranceConfig, is_ulc, mean
from .transforms import _left_out, leave_one_out, thin, thinned_sum

# relative tolerance of the splitting identities re-verified in
# positive_splitting
SPLITTING_IDENTITY_TOL = 1e-10

# hessian_fd's default step, and the CLI's without --fd-step: at
# ToleranceConfig's fd_step (1e-5) rounding dominates phi's second differences
_FD_STEP = 1e-4


@dataclass(frozen=True)
class SplittingWitness:
    """A positive splitting u of the coupling weights v.

    u has zero diagonal and nonnegative entries; u[i][j] + u[j][i]
    reproduces v_ij and every column sum scaled by beta_j*lambda_j equals
    the common value S.
    """

    u: np.ndarray
    S: float
    beta: np.ndarray
    mu: np.ndarray
    lambdas: np.ndarray

    def to_json(self) -> dict:
        return {"u": self.u.tolist(), "S": self.S,
                "beta": self.beta.tolist(), "mu": self.mu.tolist(),
                "lambdas": self.lambdas.tolist()}


def phi(xs, alphas, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> float:
    """Cross-entropy functional of the thinned sum, via direct convolution."""
    return lambda_functional(thinned_sum(xs, alphas, cfg))


def hessian_analytic(xs, alphas,
                     cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> np.ndarray:
    """Analytic Hessian of phi in the thinning parameters.

    The log-factorial part sums Pr(x) * c_ij(x) * g(s) over the independent
    thinned inputs x = (x_1, ..., x_m), with s = x_1 + ... + x_m,
    g(s) = log(s/(s-1)), c_ii = x_i(x_i - 1)/alpha_i^2 and
    c_ij = x_i x_j/(alpha_i alpha_j) off the diagonal.  The coefficient
    factorises over the inputs, so each entry is g against one convolution:
    x_i P_i and x_j P_j (or x_i(x_i - 1) P_i) with every other thinned pmf.
    Those weights vanish wherever c_ij does, so g is only needed at s >= 2.
    The remaining part is the exact rank-one term -lambda_i lambda_j / sum_k
    alpha_k lambda_k from the mean functional, skipped (0/0) when every mean
    is 0, where phi and its Hessian vanish.  Alphas so small that an entry
    is not finite in double precision (alpha_i alpha_j underflows to 0 from
    about 1e-162) raise ParameterError, and so does any alpha below 2^-511
    (about 1.49e-154), where alpha_i^2 is subnormal and H[i, i] loses
    digits: 1e-13, relative, at 1e-155, 6e-4 at 1e-160.
    """
    alphas = np.asarray(alphas, dtype=float)
    if not np.all((0.0 < alphas) & (alphas < 1.0)):
        raise ParameterError("hessian needs every alpha_i in (0, 1)")
    if len(xs) != alphas.size or len(xs) < 2:
        raise ParameterError("need n+1 >= 2 pmfs with one alpha each")
    probs = [thin(p, float(a), cfg).probs for p, a in zip(xs, alphas)]
    m = len(probs)
    total = np.arange(sum(q.size - 1 for q in probs) + 1)
    ratio = np.zeros(total.size)
    ratio[2:] = np.log(total[2:] / (total[2:] - 1.0))

    def entry(i, j):
        xi = np.arange(probs[i].size)
        if i == j:
            weighted = [xi * (xi - 1) * probs[i]]
        else:
            weighted = [xi * probs[i], np.arange(probs[j].size) * probs[j]]
        rest = [q for k, q in enumerate(probs) if k not in (i, j)]
        return (float(reduce(np.convolve, weighted + rest) @ ratio)
                / (alphas[i] * alphas[j]))

    hess = np.empty((m, m))
    lam = np.array([mean(p) for p in xs])
    # alphas near 2^-537 make alpha_i alpha_j 0: refused below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(m):
            for j in range(i + 1):
                hess[i, j] = hess[j, i] = entry(i, j)
        if np.any(lam):
            hess -= np.outer(lam, lam) / float(np.dot(alphas, lam))
    if not np.all(np.isfinite(hess)):
        raise ParameterError("the Hessian at these alphas is not finite in "
                             "double precision")
    if alphas.min() < 2.0 ** -511:
        raise ParameterError("the Hessian at alphas below 2^-511 is not "
                             "accurate in double precision")
    return hess


def hessian_fd(xs, alphas, cfg: ToleranceConfig = DEFAULT_TOLERANCES,
               step: float = _FD_STEP) -> np.ndarray:
    """Central finite-difference Hessian of phi; the independent cross-check.

    Perturbs the alphas freely inside (0, 1) with no simplex constraint,
    since phi is defined off the simplex.
    """
    alphas = np.asarray(alphas, dtype=float)
    if step <= 0.0:
        raise ParameterError("fd step must be positive")
    if np.any(alphas - 2 * step <= 0.0) or np.any(alphas + 2 * step >= 1.0):
        raise ParameterError("alphas too close to {0, 1} for the fd step")
    m = alphas.size

    def at(delta):
        return phi(xs, alphas + delta, cfg)

    centre = at(np.zeros(m))
    hess = np.empty((m, m))
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = step
        hess[i, i] = (at(ei) - 2.0 * centre + at(-ei)) / step ** 2
        for j in range(i):
            ej = np.zeros(m)
            ej[j] = step
            mixed = (at(ei + ej) - at(ei - ej) - at(-ei + ej) + at(-ei - ej))
            hess[i, j] = hess[j, i] = mixed / (4.0 * step ** 2)
    return hess


def interpolation_point(alphas, leave_out: int, t: float):
    """The path A_l(t) = (1-t)*alpha^(l) + t*e_l and its direction mu_l.

    alpha^(l) is the renormalised vector with component `leave_out` removed;
    mu_l = e_l - alpha^(l) is the constant velocity of the path.
    """
    alphas = np.asarray(alphas, dtype=float)
    m = alphas.size
    if not 0 <= leave_out < m:
        raise ParameterError(f"leave_out index {leave_out} outside 0..{m - 1}")
    if not np.all(np.isfinite(alphas) & (alphas >= 0.0)):
        raise ParameterError("every alpha_i must be finite and nonnegative")
    _, loo = _left_out(alphas, leave_out)
    unit = np.zeros(m)
    unit[leave_out] = 1.0
    return (1.0 - t) * loo + t * unit, unit - loo


def positive_splitting(alphas, leave_out: int, t: float,
                       lambdas) -> SplittingWitness:
    """Construct and verify the explicit splitting along an interpolation path.

    The path is interpolation_point(alphas, leave_out, t): beta = A_l(t) and
    mu = e_l - alpha^(l).  The closed-form u is built from S = lambda^(l)(t)
    lambda_l / (t (1-t)^2 lambda(t)) and both defining identities plus the
    quadratic-mean identity are re-verified numerically; any failure raises
    ConsistencyError naming the violated equation (these are algebraic
    identities, so a failure is an implementation bug, not an input
    problem).  Non-finite alphas or lambdas raise ParameterError.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if not (np.all(np.isfinite(alphas)) and np.all(np.isfinite(lambdas))):
        raise ParameterError("alphas and lambdas must be finite")
    beta, mu = interpolation_point(alphas, leave_out, t)
    m = beta.size
    # interpolation_point has already refused fewer than two alphas
    if lambdas.size != m:
        raise ParameterError("alphas and lambdas need a common length")
    if not 0.0 < t < 1.0:
        raise ParameterError(f"interpolation time {t!r} outside (0, 1)")
    if np.any(lambdas <= 0.0):
        raise ParameterError("every lambda_i must be strictly positive")
    if np.any(beta <= 0.0):
        raise ParameterError("every beta_i must be strictly positive")

    lam_t = fsum(beta * lambdas)
    lam_loo_t = lam_t - t * lambdas[leave_out]
    scale = (lam_loo_t * lambdas[leave_out]) / (t * (1.0 - t) ** 2 * lam_t)

    u = np.zeros((m, m))
    for i in range(m):
        if i == leave_out:
            continue
        u[leave_out, i] = scale * beta[i] * lambdas[i]
        u[i, leave_out] = (lambdas[leave_out] ** 2 * beta[i] * lambdas[i]
                           / ((1.0 - t) ** 2 * lam_t))

    def coupling(i, j):
        diff = mu[i] / beta[i] - mu[j] / beta[j]
        return diff * diff * beta[i] * beta[j] * lambdas[i] * lambdas[j]

    tol = SPLITTING_IDENTITY_TOL * max(1.0, abs(scale),
                                       float(np.max(np.abs(u))))
    for i in range(m):
        for j in range(i):
            gap = abs(u[i, j] + u[j, i] - coupling(i, j))
            if not gap <= tol:
                raise ConsistencyError(
                    f"splitting part 1 failed at ({i},{j}): "
                    f"u_ij + u_ji deviates from v_ij by {gap:.3e}")
    for j in range(m):
        col = fsum(np.delete(u[:, j], j))
        gap = abs(col / (beta[j] * lambdas[j]) - scale)
        if not gap <= tol:
            raise ConsistencyError(
                f"splitting part 2 failed at column {j}: "
                f"scaled column sum deviates from S by {gap:.3e}")
    lhs = fsum(mu * mu * lambdas / beta) - scale
    rhs = fsum(mu * lambdas) ** 2 / lam_t
    if not abs(lhs - rhs) <= tol:
        raise ConsistencyError(
            f"quadratic-mean identity failed: residual {abs(lhs - rhs):.3e}")

    return SplittingWitness(u=u, S=float(scale), beta=beta, mu=mu,
                            lambdas=lambdas)


def check_quadratic_form(xs, alphas, leave_out: int, t_grid,
                         cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """Verdicts for mu_l' Phi''(A_l(t)) mu_l <= 0 over a grid of t.

    Appends one extra verdict evaluating the Lambda monotonicity inequality
    n Lambda(full) >= sum_l a^(l) Lambda(leave-one-out) directly, which is
    what the negative quadratic forms certify through the Taylor step.
    """
    alphas = np.asarray(alphas, dtype=float)
    # leave_one_out checks the simplex, before the ULC check
    _, _, lhs, rhs = leave_one_out(xs, alphas, lambda_functional, cfg)
    for p in xs:
        if not is_ulc(p, cfg):
            raise PreconditionError("quadratic form check requires ULC inputs")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0.0) or np.any(t_grid >= 1.0):
        raise ParameterError("t grid must sit strictly inside (0, 1)")

    verdicts = []
    for t in t_grid:
        beta, mu = interpolation_point(alphas, leave_out, float(t))
        hess = hessian_analytic(xs, beta, cfg)
        quad = mu @ hess @ mu
        verdicts.append(make_verdict("suff-quadratic-form", quad, 0.0, cfg,
                                     margin=-quad, t=t, leave_out=leave_out,
                                     alphas=alphas))
    verdicts.append(make_verdict("lambda-monotonicity", lhs, rhs, cfg,
                                 alphas=alphas))
    return verdicts
