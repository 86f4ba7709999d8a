"""Low-level shared numerics: cached log-factorials and stable binomial rows.

Everything here works in log space via scipy's gammaln so that supports of a
few thousand points neither overflow nor lose more than ~1e-13 relative
accuracy.
"""

import math

import numpy as np
from scipy.special import gammaln

# _LOG_FACT[k] = log(k!), grown on demand and only ever read afterwards.
_LOG_FACT = gammaln(np.arange(128) + 1.0)


def log_factorials(n: int) -> np.ndarray:
    """Return a read-only view holding log(k!) for k = 0..n."""
    global _LOG_FACT
    if n >= _LOG_FACT.size:
        _LOG_FACT = gammaln(np.arange(max(n + 1, 2 * _LOG_FACT.size)) + 1.0)
    return _LOG_FACT[:n + 1]


def binomial_rows(ns: np.ndarray, alpha: float, width: int) -> np.ndarray:
    """Rows of the thinning kernel: row r holds C(n, k) alpha^k (1-alpha)^(n-k)
    for n = ns[r] over columns k = 0..width-1 (zero for k > n).

    Requires alpha > 0 and alpha != 1.  For alpha < 1 each row is renormalised
    to sum to exactly 1, which keeps total mass and means of thinned pmfs
    stable to ~1e-15 even for n ~ 2000.  For alpha > 1 (inverse thinning)
    the rows, signed (-1)^(n-k) by 1 - alpha < 0, are not renormalised.
    """
    # rows stop at n but columns run to width-1, which can exceed ns.max()
    lf = log_factorials(max(int(ns.max()), width - 1))
    k = np.arange(width)
    nk = ns[:, None] - k[None, :]
    valid = nk >= 0
    nk = np.where(valid, nk, 0)
    log_rest = math.log1p(-alpha) if alpha < 1.0 else math.log(alpha - 1.0)
    logw = (lf[ns][:, None] - lf[k][None, :] - lf[nk]
            + k[None, :] * math.log(alpha) + nk * log_rest)
    w = np.where(valid, np.exp(logw), 0.0)
    if alpha > 1.0:
        return np.where(nk % 2 == 1, -w, w)
    return w / w.sum(axis=1, keepdims=True)


def poisson_log_terms(rate: float, n_top: int):
    """Arrays (z, log pmf) of a Poisson(rate) over z = 0..n_top.

    The log pmf is evaluated once and reused by callers both as exponent and
    as logarithm; that single evaluation is what keeps entropy sums and the
    entropy of constructed Poisson pmfs mutually consistent near 1e-12.
    """
    z = np.arange(n_top + 1)
    logp = z * math.log(rate) - rate - log_factorials(n_top)
    return z, logp


def poisson_support_top(rate: float, tail_eps: float) -> int:
    """Smallest support cut N with omitted upper-tail mass provably < tail_eps.

    Starts at rate + 10*sqrt(rate) + 30 and extends until the geometric-ratio
    tail bound pmf(N+1)/(1 - rate/(N+2)) drops below tail_eps.
    """
    n = int(math.ceil(rate + 10.0 * math.sqrt(rate) + 30.0))
    while True:
        lf = log_factorials(n + 1)
        log_tip = (n + 1) * math.log(rate) - rate - lf[n + 1]
        bound = math.exp(log_tip) / (1.0 - rate / (n + 2))
        if bound < tail_eps:
            return n
        n += max(10, int(math.sqrt(rate)))
