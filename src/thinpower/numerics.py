"""Shared numerics: log-factorials, the Poisson log pmf and its support
cut, root solves and the correctly rounded sum.

The binomial and Poisson terms work in log space so that supports of a
few thousand points do not overflow.  Their log(k!) values for k < 4096
are read from the table shipped beside this module (scipy's
gammaln(k + 1), recorded once); past it they are the standard library's
math.lgamma(k + 1), so the package needs numpy alone at run time.  Tables
of k and log(k + 1) of the same size spare the Poisson terms an np.arange
and an np.log on each call.
"""

import math
from pathlib import Path

import numpy as np

from .errors import NumericError, ParameterError

# read-only tables over k = 0, 1, ...: _Z[k] = k, _LOG_Z1[k] = log(k + 1)
# and _LOG_FACT[k] = log(k!).  The shipped table holds
# scipy.special.gammaln(np.arange(4096) + 1.0), written once with np.save;
# _grow() grows all three past it on demand, log(k!) by math.lgamma
_LOG_FACT = np.load(Path(__file__).with_name("log_factorials.npy"))
_Z = np.arange(_LOG_FACT.size, dtype=float)
_LOG_Z1 = np.log(_Z + 1.0)
_LOG_FACT.flags.writeable = False
_Z.flags.writeable = False
_LOG_Z1.flags.writeable = False
# fsum extracts from arrays of this many entries on.  Extraction takes
# 13-25 us at any size; math.fsum grows with its partials, which a pmf's
# tail piles up.  math.fsum against extraction, in us, on a shared 2-core
# x86-64 host (Python 3.11, numpy 2.4):
#
#   entries   Poisson pmf (binades)   its p log p   random, 1-63 binades
#       160   8.8 / 13.5 (95)         9.4 / 13.5
#       176   12.9 / 13.6 (93)        12.5 / 13.4
#       192   15.6 / 13.7 (103)       14.3 / 14.1   7 / 14
#       224   33.6 / 23.3 (133)       32.7 / 23.9
#       256   42.8 / 24.6 (164)       42.9 / 22.8   9 / 14
#       384   110 / 14.5 (296)        88 / 14.1     14 / 14
#       511   174 / 15.4 (435)        179 / 16.0    18-19 / 15-17
#
# Arrays with few partials (a narrow range, or random entries over many
# binades) lose up to 10 us at 192-511 entries: uniform values in
# [0.5, 1) take 6-10 / 15-16 at 192-256 entries and 17 / 19 at 511.  A
# pmf's sum gains as much at 224 entries and several times that from 256
_FSUM_EXTRACT = 192
# extraction levels before fsum falls back to math.fsum of the whole list
_FSUM_LEVELS = 3
# check_count asks the host for more than this many entries: an empty
# array costs about 0.5 us, too much for every Poisson cut of V's solve
_PROBE_FROM = 2 ** 24


def _grown(table: np.ndarray, size: int, values) -> np.ndarray:
    """table extended to size entries by values(k) for its new k, read-only."""
    k = np.arange(table.size, size, dtype=float)
    grown = np.concatenate([table, values(k)])
    grown.flags.writeable = False
    return grown


def _grow(n: int) -> None:
    """Grow the three tables together past z = n, at least doubling; the
    new log(z!) are math.lgamma(z + 1), and entries already handed out
    never change."""
    global _Z, _LOG_Z1, _LOG_FACT
    size = max(n + 1, 2 * _LOG_FACT.size)
    _Z = _grown(_Z, size, lambda k: k)
    _LOG_Z1 = _grown(_LOG_Z1, size, lambda k: np.log(k + 1.0))
    _LOG_FACT = _grown(_LOG_FACT, size, lambda k: np.fromiter(
        map(math.lgamma, (k + 1.0).tolist()), float, k.size))


def tables(n: int):
    """Read-only views (z, log(z + 1), log(z!)) over z = 0..n, as floats.

    np.log is elementwise, so a slice of the log(z + 1) table holds the
    bits np.log(z + 1.0) gives for the same z.
    """
    # the three grow together, so one size check serves all
    if n >= _LOG_FACT.size:
        _grow(n)
    return _Z[:n + 1], _LOG_Z1[:n + 1], _LOG_FACT[:n + 1]


def log_factorials(n: int) -> np.ndarray:
    """Return a read-only view holding log(k!) for k = 0..n."""
    return tables(n)[2]


def fsum(a: np.ndarray) -> float:
    """The correctly rounded sum of a 1-D float array: math.fsum(a.tolist())
    bit for bit, with its nan, inf and overflow behaviour.

    math.fsum pays one step per entry and partial, and a pmf's tail keeps
    dozens of partials (80 over the 440 entries of Poisson(250)).  From
    _FSUM_EXTRACT entries on, fsum splits the array by error-free
    extraction (Rump, Ogita and Oishi, "Accurate floating-point summation,
    part I", SIAM J. Sci. Comput. 30, 2008, Algorithm 3.2 and Lemma 3.3)
    and hands math.fsum only one sum per level.  With 2^k >= n + 2,
    top = max|p| < 2^e and sigma = 2^(e + k), one level sets
    q = (p + sigma) - sigma and p <- p - q:

    - sigma + p lies in [sigma/2, 2 sigma], so the outer subtraction is
      exact (Sterbenz) and q is a multiple of sigma 2^-53 with |q| <= 2^e;
    - p - q is exact, so the entries still sum to S = sum(a) exactly;
    - every partial sum of the q is a multiple of sigma 2^-53 (or of
      2^-1074) below n 2^e < sigma in size, hence a double: tau = q.sum()
      is exact in any order, numpy's pairwise one included.

    After level j, S = T + s exactly, with T = tau_1 + ... + tau_j and s
    the sum of the p left, each |p| <= sigma 2^-53.  One level leaves s
    too large to certify anything; from the second level on,
    r = math.fsum(taus) is T correctly rounded, and r is returned when it
    is certified to be the correctly rounded S:

    - rho = math.fsum(taus + [-r]) is T - r correctly rounded, and its
      own residual rest = math.fsum(taus + [-r, -rho]) is T - r - rho
      correctly rounded, so T - r - rho lies within |rest| 2^-53 + 2^-1075
      of rest.  rho alone would not do: where T is within |T - r| 2^-53
      of a midpoint, rho rounds away the part that decides the side;
    - |s| <= sum|p| <= fl(sum|p|) (1 + n 2^-51), whatever the order of
      the n - 1 additions;
    - slack exceeds the sum of both bounds, its own rounding and that of
      rest - slack and rest + slack included, so that
      2 (rest - slack) <= 2 (S - r - rho) <= 2 (rest + slack);
    - lo = (the double below r) - r and hi = (the double above r) - r are
      exact, and lo - 2 rho and hi - 2 rho round once.  Rounding is
      monotone: for a double y, fl(x) < y implies x < y, and y < fl(x)
      implies y < x.  So if fl(lo - 2 rho) < 2 (rest - slack) and
      2 (rest + slack) < fl(hi - 2 rho), then lo < 2 (S - r) < hi: S lies
      strictly inside the interval of reals that round to r, ties
      excluded, and the correctly rounded S, which math.fsum returns, is r.

    Otherwise math.fsum sums the whole list: where top n >= 2^1000 (also
    inf and nan entries), where r = 0 (the sign of a zero sum), and where
    the certificate still fails after _FSUM_LEVELS levels (S near a
    midpoint between doubles).  Below 2^1000, sigma and every partial sum
    stay finite, so extraction raises nothing that the whole sum would
    raise.  math.fsum always sums a list: iterating the array would yield
    numpy scalars, twice as slow.
    """
    n = a.size
    if n >= _FSUM_EXTRACT:
        p = np.array(a, dtype=float)    # extracted from in place
        mag = np.abs(p)
        top = float(mag.max())
        if top * n < 2.0 ** 1000:
            k = (n + 1).bit_length()
            q = np.empty_like(p)
            taus = []
            for level in range(_FSUM_LEVELS):
                sigma = math.ldexp(1.0, math.frexp(top)[1] + k)
                np.add(p, sigma, out=q)
                q -= sigma
                taus.append(float(q.sum()))
                p -= q
                np.abs(p, out=mag)
                if level:
                    r = math.fsum(taus)
                    if r != 0.0:
                        rho = math.fsum(taus + [-r])
                        rest = math.fsum(taus + [-r, -rho])
                        slack = (abs(rest) * 2.0 ** -50
                                 + float(mag.sum()) * (1.0 + n * 2.0 ** -50)
                                 + (n + 1) * 2.0 ** -1074)
                        if (math.nextafter(r, -math.inf) - r - 2.0 * rho
                                < 2.0 * (rest - slack)
                                and 2.0 * (rest + slack)
                                < math.nextafter(r, math.inf) - r - 2.0 * rho):
                            return r
                top = float(mag.max())
    return math.fsum(a.tolist())


def fsum_nonneg(a: np.ndarray) -> float:
    """fsum of an array of nonnegative entries, or inf where their sum
    passes the largest double, which math.fsum reports as OverflowError."""
    try:
        return fsum(a)
    except OverflowError:
        return math.inf


def poisson_log_terms(rate: float, n_top: int):
    """Arrays (z, log pmf, log(z + 1)) of a Poisson(rate) over z = 0..n_top.

    The one place that forms log pmf = z log(rate) - rate - log(z!).  It
    is read by poisson_terms (also for the support cut's tail term), so by
    E, E' and poisson_pmf (construct's Poisson), and by rel_entropy_poisson
    as its log pi.  One log pmf, used both as exponent and as logarithm,
    keeps E, the entropy of constructed Poisson pmfs and D consistent near
    1e-12.  z and log(z + 1) are read-only views of the tables; E'(t)
    reads the latter.
    """
    z, log_z1, log_fact = tables(n_top)
    return z, z * math.log(rate) - rate - log_fact, log_z1


def check_count(count: int, name: str, value, what: str) -> int:
    """count, the `what` that `name` = `value` asks for, if arrays of
    twice as many doubles fit."""
    # numpy refuses 2**63 bytes, the host often far fewer: past _PROBE_FROM,
    # an untouched np.empty of that size asks for them without using the
    # memory
    fits = count <= 2 ** 58
    if fits and count > _PROBE_FROM:
        try:
            np.empty(2 * count + 2)
        except MemoryError:
            fits = False
    if not fits:
        raise ParameterError(f"{name} = {value:g} needs {float(count):.3g} "
                             f"{what}, more than one array can hold")
    return count


def check_support(top: int, name: str, value) -> int:
    """top, the last support point that `name` = `value` sets, if it fits."""
    # callers allocate up to 2 top + 4 doubles
    return check_count(top + 1, name, value, "support points") - 1


def poisson_terms(rate: float, tail_eps: float):
    """poisson_log_terms(rate, N) at the smallest support cut N whose
    omitted upper-tail mass is provably < tail_eps.

    N starts at rate + 10*sqrt(rate) + 30 and extends until the
    geometric-ratio tail bound pmf(N+1)/(1 - rate/(N+2)) drops below
    tail_eps; pmf(N+1) is the entry past the cut of the same terms.
    """
    n = check_support(int(math.ceil(rate + 10.0 * math.sqrt(rate) + 30.0)),
                      "Poisson rate t", rate)
    while True:
        z, logp, log_z1 = poisson_log_terms(rate, n + 1)
        bound = math.exp(float(logp[n + 1])) / (1.0 - rate / (n + 2))
        if bound < tail_eps:
            return z[:n + 1], logp[:n + 1], log_z1[:n + 1]
        n += max(10, int(math.sqrt(rate)))


def solve_increasing(pair, target: float, t0: float, tol: float) -> float:
    """The s > 0 with g(s) = target for an increasing g; pair(s) = (g(s), g'(s)).

    One safeguarded Newton loop from t0.  While no point right of the root
    is known, a step from a left point goes to the Newton point but at most
    to twice the left point, and to twice it when the slope does not point
    right; for a concave g, Newton from the left rises to the root without
    passing it.  After that, a step that leaves the bracket bisects it.  It
    stops when the step or the bracket is below tol * s, or when the bracket
    cannot shrink in double precision, and returns the evaluated point whose
    g is nearest the target, so an exact start costs one evaluation.  A left
    point that cannot grow inside (0, 1e15] raises NumericError.
    """
    lo, hi = 0.0, math.inf
    t, best_t, best_err = t0, t0, math.inf
    for _ in range(2250):   # twice the 1124 halvings from 1e15 to 5e-324
        g, slope = pair(t)
        err = g - target
        if abs(err) < best_err:
            best_t, best_err = t, abs(err)
        if err >= 0.0:
            hi = t
        else:
            lo = t
        step = err / slope if slope else math.inf   # slope 0: leave the bracket
        if abs(step) <= tol * t or hi - lo <= tol * t:
            return best_t
        t = t - step
        if hi == math.inf:
            if not lo < t < 2.0 * lo:
                t = 2.0 * lo
            if not lo < t <= 1e15:
                raise NumericError("root bracket cannot grow to the target",
                                   {"target": target, "hi": t})
        elif not lo < t < hi:
            t = 0.5 * (lo + hi)
            if not lo < t < hi:
                return best_t
    raise NumericError("root solve did not converge",
                       {"lo": lo, "hi": hi, "target": target})
