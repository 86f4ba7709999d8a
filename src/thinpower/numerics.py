"""Shared numerics: log-factorials, the Poisson log pmf and its support
cut, root solves and the correctly rounded sum.

The binomial and Poisson terms work in log space so that supports of a
few thousand points do not overflow.  Their log(k!) values for k < 4096
are read from the table shipped beside this module (scipy's
gammaln(k + 1), recorded once); past it they are the standard library's
math.lgamma(k + 1), so the package needs numpy alone at run time.  Tables
of k, log(k + 1) and log P(Poisson(k) = k) of the same size spare the
Poisson terms an np.arange and an np.log on each call.
"""

import math
from pathlib import Path

import numpy as np

from .errors import NumericError, ParameterError

# stirlerr(k) = log k! - (k + 1/2) log k + k - log(2 pi)/2 for k = 1..15,
# from mpmath at 40 digits; from k = 16 on, five terms of Stirling's series
# leave less than 1e-16 (C. Loader, "Fast and accurate computation of
# binomial probabilities", 2000)
_STIRLERR = np.array([
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])
_HALF_LOG_2PI = 0.9189385332046728
# poisson_log_terms takes Loader's form from this rate on.  E's error
# against mpmath at 40 digits, on log grids of 200 rates over [1e-3, 10],
# 40 over [10, 16] and 41 over [1, 100]: from z log(rate) - rate - log(z!),
# at most 3.3e-15 up to rate 10, then 7e-15 at 15.6 and 1.6e-13 at 100;
# from Loader's form, below 5.6e-16 over all three.  On the short supports
# below 10 the former costs a tenth or less of the latter's 25-39 us (rate
# 8, 68 points), and path solves there evaluate it often
_SADDLE_FROM = 10.0
# the deviance sums its series for (z - rate)/(z + rate) within +-1/4, z in
# [0.6 rate, rate/0.6], and takes z log(z/rate) + rate - z outside
_NEAR = 0.6


def _saddle(k: np.ndarray) -> np.ndarray:
    """log P(Poisson(k) = k) = -stirlerr(k) - log(2 pi k)/2 for the float
    integers k, 0 at k = 0."""
    out = np.zeros(k.size)
    pos = k > 0.0
    kk = k[pos]
    nn = kk * kk
    err = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn)
                     / nn) / nn) / kk
    small = kk <= _STIRLERR.size
    err[small] = _STIRLERR[kk[small].astype(int) - 1]
    out[pos] = -err - _HALF_LOG_2PI - 0.5 * np.log(kk)
    return out


# read-only tables over k = 0, 1, ...: _Z[k] = k, _LOG_Z1[k] = log(k + 1),
# _LOG_FACT[k] = log(k!) and _SADDLE[k] = log P(Poisson(k) = k).  The
# shipped table holds scipy.special.gammaln(np.arange(4096) + 1.0), written
# once with np.save; _grow() grows all four past it on demand, log(k!) by
# math.lgamma
_LOG_FACT = np.load(Path(__file__).with_name("log_factorials.npy"))
_Z = np.arange(_LOG_FACT.size, dtype=float)
_LOG_Z1 = np.log(_Z + 1.0)
_SADDLE = _saddle(_Z)
_LOG_FACT.flags.writeable = False
_Z.flags.writeable = False
_LOG_Z1.flags.writeable = False
_SADDLE.flags.writeable = False
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
    """Grow the four tables together past z = n, at least doubling; the
    new log(z!) are math.lgamma(z + 1), and entries already handed out
    never change."""
    global _Z, _LOG_Z1, _LOG_FACT, _SADDLE
    size = max(n + 1, 2 * _LOG_FACT.size)
    _Z = _grown(_Z, size, lambda k: k)
    _LOG_Z1 = _grown(_LOG_Z1, size, lambda k: np.log(k + 1.0))
    _LOG_FACT = _grown(_LOG_FACT, size, lambda k: np.fromiter(
        map(math.lgamma, (k + 1.0).tolist()), float, k.size))
    _SADDLE = _grown(_SADDLE, size, _saddle)


def tables(n: int):
    """Read-only views (z, log(z + 1), log(z!)) over z = 0..n, as floats.

    np.log is elementwise, so a slice of the log(z + 1) table holds the
    bits np.log(z + 1.0) gives for the same z.
    """
    # the four grow together, so one size check serves all
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


def _deviance(z: np.ndarray, rate: float) -> np.ndarray:
    """Loader's bd0(z, rate) = z log(z/rate) + rate - z >= 0 over the float
    integers z = 0..N, rate at the entry z = 0.

    Near the rate, with v = (z - rate)/(z + rate), bd0 is (z - rate) v +
    2 z (v^3/3 + v^5/5 + ...), whose terms never form z log(rate): z - rate
    is exact there (Sterbenz), and the series stops at the power of
    w = v^2 where the largest w of the slice falls below 2^-54.  Outside,
    bd0 is at least 0.09 rate, and its plain form cancels no more than a
    factor 5.
    """
    size = z.size
    lo = min(size, max(1, math.ceil(_NEAR * rate)))
    hi = min(size, max(lo, math.ceil(rate / _NEAR)))
    out = np.empty(size)
    out[0] = rate
    for part in (slice(1, lo), slice(hi, size)):
        far = z[part]
        out[part] = far * np.log(far / rate) + (rate - far)
    near = z[lo:hi]
    d = near - rate
    v = d / (near + rate)
    w = v * v
    top = float(max(w[0], w[-1])) if w.size else 0.0
    terms = (1 if top < 2.0 ** -54
             else math.ceil(math.log(2.0 ** -54) / math.log(top)))
    acc = 1.0 / (2 * terms + 1)
    for j in range(terms - 1, 0, -1):
        acc = acc * w + 1.0 / (2 * j + 1)
    out[lo:hi] = v * (d + 2.0 * near * w * acc)
    return out


def poisson_log_terms(rate: float, n_top: int):
    """Arrays (z, log pmf, log(z + 1)) of a Poisson(rate) over z = 0..n_top.

    The one place that forms the Poisson log pmf.  Below _SADDLE_FROM it is
    z log(rate) - rate - log(z!); from there on it is Loader's saddle-point
    form log P(Poisson(z) = z) - bd0(z, rate), which never forms z
    log(rate): the former's terms grow like z log z and cancel to a log pmf
    of a few units, leaving errors of 1e-12 near rate 2000.  Each entry of
    the latter is within a few ulps of its size.  It is read by
    poisson_terms (also for the support cut's tail term), so by E, E' and
    poisson_pmf (construct's Poisson), and by rel_entropy_poisson as its
    log pi.  One log pmf, used both as exponent and as logarithm, keeps E,
    the entropy of constructed Poisson pmfs and D consistent to rounding.
    z and log(z + 1) are read-only views of the tables; E'(t) reads the
    latter.
    """
    z, log_z1, log_fact = tables(n_top)
    if rate < _SADDLE_FROM:
        return z, z * math.log(rate) - rate - log_fact, log_z1
    return z, _SADDLE[:n_top + 1] - _deviance(z, rate), log_z1


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


def solve_increasing(pair, target: float, t0: float, tol: float,
                     final_step: bool = False) -> float:
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

    With final_step, a Newton step of at most sqrt(tol) * s that stays
    strictly inside the bracket is taken and its point returned without
    evaluating it.  Newton's error after a step h is |g''| h^2 / (2 g')
    at a point between, so for a g with |g''| <= c g'/s that point lies
    within about c tol s / 2 of the root.  A point whose g is within an
    ulp of the target is returned as it is: a step from there would follow
    the rounding of g alone.
    """
    lo, hi = 0.0, math.inf
    t, best_t, best_err = t0, t0, math.inf
    final = math.sqrt(tol) if final_step else -1.0
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
        if (abs(step) <= final * t and lo < t - step < hi
                and abs(err) > math.ulp(target)):
            return t - step
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
