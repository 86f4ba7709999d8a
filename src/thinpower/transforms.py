"""The three structural maps: thinning, convolution, and thinning inversion,
plus the thinned sums and leave-one-out sums built from them."""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import NotThinnableError, ParameterError, PreconditionError
from .numerics import binomial_rows
from .pmf_core import DEFAULT_TOLERANCES, FinitePmf, ToleranceConfig

# cap on rows held at once while applying the thinning kernel
_BLOCK_CELLS = 8_000_000


def thin(x: FinitePmf, alpha: float,
         cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FinitePmf:
    """Thinned pmf: result[k] = sum_n x[n] * C(n,k) alpha^k (1-alpha)^(n-k).

    Binomial weights are evaluated through log-gamma differences, so supports
    well past n = 170 neither overflow nor lose accuracy.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"thinning parameter {alpha!r} outside [0, 1]")
    if alpha == 1.0:
        return x
    width = len(x)
    if alpha == 0.0 or width == 1:
        return FinitePmf([1.0], cfg)
    out = np.zeros(width)
    block = max(1, _BLOCK_CELLS // width)
    for lo in range(0, width, block):
        ns = np.arange(lo, min(lo + block, width))
        out += x.probs[ns] @ binomial_rows(ns, alpha, width)
    return FinitePmf(out, cfg)


def convolve(x: FinitePmf, y: FinitePmf,
             cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FinitePmf:
    """Pmf of the sum of independent variables with pmfs x and y."""
    return FinitePmf(np.convolve(x.probs, y.probs), cfg)


def thinned_sum(xs, alphas,
                cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FinitePmf:
    """Pmf of the independent sum T_(alphas[0]) xs[0] + ... + T_(alphas[n]) xs[n]."""
    if not xs or len(xs) != len(alphas):
        raise ParameterError("need pmfs with one alpha each")
    return reduce(lambda a, b: convolve(a, b, cfg),
                  (thin(p, float(a), cfg) for p, a in zip(xs, alphas)))


def leave_one_out(xs, alphas, functional,
                  cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """(f(full), [f(loo_l)], [a^(l)]) for a functional f of a thinned sum.

    The full sum is thinned_sum(xs, alphas); loo_l drops term l and
    renormalises the other weights by a^(l) = sum_(i != l) alphas[i].  The
    alphas must be a strictly positive simplex vector, one per pmf.
    """
    alphas = np.asarray(alphas, dtype=float)
    if len(xs) != alphas.size or len(xs) < 2:
        raise PreconditionError("need n+1 >= 2 pmfs with one alpha each")
    if np.any(alphas <= 0.0):
        raise PreconditionError("every alpha_i must be strictly positive")
    if abs(math.fsum(alphas) - 1.0) > 1e-12:
        raise PreconditionError("alphas must sum to 1 within 1e-12")
    full = functional(thinned_sum(xs, alphas, cfg))
    comp = [math.fsum(np.delete(alphas, l)) for l in range(len(xs))]
    loo = [functional(thinned_sum([p for i, p in enumerate(xs) if i != l],
                                  np.delete(alphas, l) / comp[l], cfg))
           for l in range(len(xs))]
    return full, loo, comp


def inverse_thin(x: FinitePmf, alpha: float,
                 cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FinitePmf:
    """The pmf x* with thin(x*, alpha) = x, when one exists on len(x) points.

    Thinning cannot raise the top support point, so the defining linear
    system is upper triangular and is solved by back-substitution from the
    top index down.  A solved entry below -tol_norm (or a non-finite one)
    means no valid preimage exists and raises NotThinnableError.
    """
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"inverse thinning needs alpha in (0, 1], got {alpha!r}")
    if alpha == 1.0:
        return x
    width = len(x)
    if width == 1:
        return x
    kernel = binomial_rows(np.arange(width), alpha, width)
    solved = np.zeros(width)
    for n in range(width - 1, -1, -1):
        diag = kernel[n, n]
        if diag == 0.0:
            raise NotThinnableError(
                alpha, n, 0.0,
                f"kernel diagonal underflow at index {n}; "
                f"alpha^{n} is below double precision")
        value = (x.probs[n] - solved[n + 1:] @ kernel[n + 1:, n]) / diag
        if not np.isfinite(value):
            raise NotThinnableError(
                alpha, n, value,
                f"not {alpha:g}-thinnable: back-substitution diverged "
                f"at index {n}")
        if value < -cfg.tol_norm:
            raise NotThinnableError(alpha, n, float(value))
        solved[n] = value
    try:
        return FinitePmf(solved, cfg)
    except ParameterError as exc:
        raise NotThinnableError(
            alpha, -1, float(solved.sum()),
            f"not {alpha:g}-thinnable: solved vector fails pmf invariants "
            f"({exc})") from None
