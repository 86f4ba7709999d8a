"""The three structural maps: thinning, convolution, and thinning inversion,
plus the thinned sums and leave-one-out sums built from them."""

from __future__ import annotations

import math
from collections import OrderedDict
from functools import reduce

import numpy as np

from .errors import (IllConditionedError, NotThinnableError, ParameterError,
                     PreconditionError)
from .entropy_functionals import entropy
from .numerics import fsum, fsum_nonneg
from .pmf_core import DEFAULT_TOLERANCES, FinitePmf, ToleranceConfig

U = 0.5 * np.finfo(float).eps  # unit roundoff
# thin's block size m: x is thinned in blocks of m coefficients
_M = 64
# C(i, k) for i, k <= _M, each exact integer rounded once (zero for k > i)
_COMB = np.array([[math.comb(i, k) for k in range(_M + 1)]
                  for i in range(_M + 1)], dtype=float)
# Pascal blocks by a, least recently used first; at most 64 blocks of at
# most 65 x 65 entries, 2.2 MB
_BLOCKS = OrderedDict()
_BLOCKS_MAX = 64


def _pascal_stack(a, size: int) -> np.ndarray:
    """The Pascal block K[i, k] = C(i, k) a^k b^(i-k), b = 1 - a, for i, k
    < size: one for a float a, or a stack of them, K[j] for a[j, 0], for a
    column a of shape (count, 1).

    The running products of the rows (1, ..., 1, 1, a, ..., a) and (1, ...,
    1, 1, b, ..., b), size - 1 ones first, give the powers of a and b after
    the ones; b^(i-k) is read through a Toeplitz view of the second row,
    with 1 above the diagonal, where _COMB is 0.  A block holds the same
    products, formed in the same order, alone or in a stack.
    """
    lead = a.shape[:-1] if isinstance(a, np.ndarray) else ()
    powers = np.empty(lead + (2, 2 * size - 1))
    powers[..., :size] = 1.0
    powers[..., 0, size:] = a
    powers[..., 1, size:] = 1.0 - a
    np.multiply.accumulate(powers, axis=-1, out=powers)
    blocks = _COMB[:size, :size] * powers[..., :1, size - 1:]
    # b_powers[..., i, k] = powers[..., 1, size - 1 + i - k]
    b_powers = np.ndarray(blocks.shape, float, powers, 8 * (3 * size - 2),
                          powers.strides[:-2] + (8, -8))
    blocks *= b_powers
    return blocks


def _pascal(a: float, size: int) -> np.ndarray:
    """The read-only Pascal block K[i, k] = C(i, k) a^k b^(i-k), b = 1 - a,
    for i, k < size (see _pascal_stack).

    thin's cache: K's entries do not depend on size, so a block kept in
    _BLOCKS serves every size up to its own as a slice; a miss, or a larger
    size, builds the block at this size and keeps it, evicting the least
    recently used one past _BLOCKS_MAX.  Every block is kept on its first
    request: hessian's alphas recur exactly once, so admitting a block only
    on its second request would build each of them twice.
    """
    block = _BLOCKS.pop(a, None)
    if block is not None and block.shape[0] >= size:
        _BLOCKS[a] = block
        return block[:size, :size]
    block = _pascal_stack(a, size)
    block.flags.writeable = False
    if len(_BLOCKS) >= _BLOCKS_MAX:
        _BLOCKS.popitem(last=False)
    _BLOCKS[a] = block
    return block


def _taylor_shift(probs: np.ndarray, pascal: np.ndarray) -> np.ndarray:
    """Coefficients of G(b + a s), b = 1 - a, for the polynomial G whose N
    >= 2 coefficients are probs, any a > 0: T_a of probs, by the Pascal
    block pascal, K[i, k] = C(i, k) a^k b^(i-k) for i, k < min(N, m + 1).

    von zur Gathen and Gerhard, "Fast algorithms for Taylor shifts", ISSAC
    1997: probs is cut into J = ceil(N/m) blocks of m = _M coefficients, all
    shifted by one product with K, and Horner's rule in q = (b + a s)^m, row
    m of K, adds them up, one np.convolve a step.  For N <= m the result is
    probs @ K, a row per block for a stack of them.  A term x[n] C(n, k)
    a^k b^(n-k) of the result is rounded at most D = 2 min(N, m) + (J - 1)
    (2m + 3) times, whatever its sign: a K entry i + 1 times (C(i, k) once,
    the running products of the powers k - 1 and i - k - 1 times, two
    products), a block product min(N, m) times in any summation order, a
    Horner step 2m + 3 times (q's entry, one product, m + 1 additions).
    thin reads K from _pascal's cache, and inverse thinning builds it
    afresh (_pascal_stack), alone or stacked; either way K holds the same
    products of the same running powers, in the same order, so D and the
    bits do not depend on where K comes from.
    """
    width = probs.size
    if width <= _M:
        return probs @ pascal
    padded = np.zeros(width + -width % _M)
    padded[:width] = probs
    thinned = padded.reshape(-1, _M) @ pascal[:_M, :_M]
    out = thinned[-1]
    for block in thinned[-2::-1]:
        out = np.convolve(out, pascal[_M])
        out[:_M] += block
    return out[:width]


def thin(x: FinitePmf, alpha: float,
         cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FinitePmf:
    """Thinned pmf: result[k] = sum_n x[n] * C(n,k) alpha^k (1-alpha)^(n-k).

    Thinning is a Taylor shift of the pgf, G_(T_a X)(s) = G_X(b + a s) with
    b = 1 - a, computed by _taylor_shift with _pascal's block for a read
    as a double, so that the key and b = fl(1 - a) come from one double.

    Error bound, 0 < a < 1, u = 2^-53: every operation adds or multiplies
    non-negative numbers, so each entry is a sum of terms that each carry a
    product of rounding factors (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3).  A term rounds at most D times (see _taylor_shift),
    with N = len(x) and J = ceil(N/m) blocks of m = _M.  b = fl(1 - a) adds
    one relative error, at most u and the same in each of a term's N - 1 or
    fewer factors b.  Dividing by the correctly rounded sum, whose factor
    lies in the same range as the entries', as FinitePmf does, leaves each
    entry within gamma_(N + 2D + 1) <= (5.1 N + 4m) u, relative, of the
    exact thinning of x.probs normalised to mass 1.  Where intermediate
    values underflow, add at most 2 (N + m)^2 2^-1074, absolute.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"thinning parameter {alpha!r} outside [0, 1]")
    if alpha == 1.0:
        return x
    if alpha == 0.0 or len(x) == 1:
        return FinitePmf([1.0], cfg)
    pascal = _pascal(float(alpha), min(len(x), _M + 1))
    return FinitePmf(_taylor_shift(x.probs, pascal), cfg)


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


def _left_out(alphas: np.ndarray, l: int):
    """(a^(l), alpha^(l)): the weight a^(l) = sum_(i != l) alphas[i] and
    the alphas renormalised by it, entry l set to 0.  The alphas must be
    finite and nonnegative, so that their sum overflows only to inf."""
    rest = alphas.copy()
    rest[l] = 0.0
    comp = fsum_nonneg(rest)
    if not comp > 0.0:
        raise ParameterError("leave-one-out weight vanished")
    if comp == math.inf:
        raise ParameterError("leave-one-out weight overflows a double")
    return comp, rest / comp


def leave_one_out(xs, alphas, functional,
                  cfg: ToleranceConfig = DEFAULT_TOLERANCES):
    """(f(full), [f(loo_l)], n f(full), sum_l a^(l) f(loo_l)) for a
    functional f of a thinned sum of n + 1 terms.

    The full sum is thinned_sum(xs, alphas); loo_l drops term l and
    renormalises the other weights by a^(l) = sum_(i != l) alphas[i].  The
    last two entries are the sides the monotonicity statements for H,
    Lambda and D compare.  The alphas must be a finite, strictly positive
    simplex vector, one per pmf, else PreconditionError.
    """
    alphas = np.asarray(alphas, dtype=float)
    if len(xs) != alphas.size or len(xs) < 2:
        raise PreconditionError("need n+1 >= 2 pmfs with one alpha each")
    if not np.all(np.isfinite(alphas) & (alphas > 0.0)):
        raise PreconditionError("every alpha_i must be finite and strictly positive")
    if not abs(fsum_nonneg(alphas) - 1.0) <= 1e-12:
        raise PreconditionError("alphas must sum to 1 within 1e-12")
    full = functional(thinned_sum(xs, alphas, cfg))
    parts = [_left_out(alphas, l) for l in range(len(xs))]
    loo = [functional(thinned_sum([p for i, p in enumerate(xs) if i != l],
                                  np.delete(weights, l), cfg))
           for l, (_, weights) in enumerate(parts)]
    return (full, loo, (len(xs) - 1) * full,
            math.fsum(c * v for (c, _), v in zip(parts, loo)))


def _inverse_bound(probs: np.ndarray, alpha):
    """(kappa, bound) of inverse_thin at alpha, a float or an array of
    them, for the pmf of at least two points whose entries are probs.

    kappa = G_x(t), t = 2/alpha - 1, by Horner's rule on x scaled by 2^52,
    exact, so that no step is subnormal: kappa within gamma_2N, relative,
    and inf from 2^972 on, where the bound is above any tol_norm.  An
    array of alphas runs the same steps entrywise, so each entry has the
    bits of its float.
    """
    width = probs.size
    t = 2.0 / alpha - 1.0
    scaled = (probs * 2.0 ** 52).tolist()
    kappa = scaled.pop()
    for p in reversed(scaled):
        kappa = kappa * t + p
    kappa = kappa * 2.0 ** -52
    rounds = 2 * min(width, _M) + (-(-width // _M) - 1) * (2 * _M + 3)
    return kappa, U * (2.0 * rounds + 5.0 * width + 2.0) * kappa


def inverse_thin(x: FinitePmf, alpha: float,
                 cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FinitePmf:
    """The pmf x* with thin(x*, alpha) = x, when one exists on len(x) points.

    T_a T_b = T_ab, so x* is x thinned by A = 1/alpha > 1: _taylor_shift
    with a = fl(A), b = 1 - a < 0, through a block built for this call,
    outside _pascal's cache.  Its terms x[n] C(n, k) a^k b^(n-k) have
    magnitudes that sum, over all entries, to kappa = G_x(2A - 1).

    Error bound, u = 2^-53, N = len(x), D the roundings along a term (see
    _taylor_shift), x* the exact thinning by A of x.probs normalised to
    mass 1.  Rounding each term D times moves each entry by at most gamma_D
    times the sum of its terms' magnitudes (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 3), so the result by gamma_D kappa in L1.
    b = fl(1 - a) is exact for a <= 2 (Sterbenz); for a > 2 it adds one
    error, at most u, to each of a term's N - 1 or fewer factors b:
    (N - 1) u kappa more.  a = A(1 + delta), |delta| <= u, moves the exact
    result by at most A u times the L1 norm of its derivative in A,
    sum_n x[n] 2n (2A - 1)^(n - 1) <= 2 (N - 1) kappa A / (2A - 1):
    2 (N - 1) u kappa for a <= 2, 4/3 (N - 1) u kappa above.  So the shift
    is within E = (D + 7/3 (N - 1)) u kappa of x*, to first order.
    FinitePmf clamps negative entries to 0, which moves none away from x*
    clamped the same way, and divides by the correctly rounded sum, which
    at most doubles E and adds 2u.  The L1 distance from the result to x*,
    clamped and renormalised, is below bound = u (2D + 5N + 2) kappa,
    terms of order (D + N)^2 u^2 kappa and E^2 included, for any bound <=
    0.01 (the default tol_norm is 1e-9); where values underflow, add at
    most 2 N (N + m)^2 2^-1074.  bound above tol_norm raises
    IllConditionedError before the shift; otherwise an entry below
    -tol_norm raises NotThinnableError.
    """
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"inverse thinning needs alpha in (0, 1], got {alpha!r}")
    width = len(x)
    if alpha == 1.0 or width == 1:
        return x
    kappa, bound = _inverse_bound(x.probs, alpha)
    if bound > cfg.tol_norm:
        raise IllConditionedError(alpha, kappa, bound)
    # (2/alpha)^i can overflow for tiny alpha where kappa is small
    with np.errstate(over="ignore", invalid="ignore"):
        pascal = _pascal_stack(float(1.0 / alpha), min(width, _M + 1))
        solved = _taylor_shift(x.probs, pascal)
    try:
        return FinitePmf(solved, cfg)
    except ParameterError:
        if not np.all(np.isfinite(solved)):
            # the bound assumes no overflow
            raise IllConditionedError(alpha, kappa, math.inf) from None
        worst = int(np.argmin(solved))
        raise NotThinnableError(alpha, worst, float(solved[worst])) from None


# _inverse_thin_entropies builds the Pascal blocks of this many alphas at
# once: 8 blocks of 64 x 64 entries take 256 KB
_STACK = 8


def _inverse_thin_entropies(x: FinitePmf, alphas: np.ndarray,
                            cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> list:
    """For each alpha of the 1-D array alphas, entropy(inverse_thin(x,
    alpha, cfg)).nats bit for bit, or the exception that call raises.

    A scan that inverts one pmf at many alphas, each used once, shares the
    work over the alphas: kappa and the bound by one Horner loop over the
    array; the preimages by _taylor_shift through stacks of _STACK Pascal
    blocks, built afresh as inverse_thin builds its one; FinitePmf's
    checks, clamp and division, and entropy's -fsum(p log p), over the
    stack of preimages.  Every entry goes through the same operations as
    in inverse_thin and entropy.  An alpha that the bound refuses, a
    preimage that fails FinitePmf's checks, alpha = 1 or outside (0, 1),
    and every alpha of a pmf of one point or of more than _M points, go
    through inverse_thin itself, which returns or raises.
    """
    probs, width = x.probs, len(x)
    batch = np.flatnonzero((alphas > 0.0) & (alphas < 1.0)
                           if 2 <= width <= _M else [])
    # 2/alpha, kappa and (2/alpha)^i can overflow for tiny alpha; such
    # rows are refused or fail the checks below
    with np.errstate(over="ignore", invalid="ignore"):
        if batch.size:
            _, bound = _inverse_bound(probs, alphas[batch])
            batch = batch[~(bound > cfg.tol_norm)]
        rows = np.empty((batch.size, width))
        for start in range(0, batch.size, _STACK):
            a = 1.0 / alphas[batch[start:start + _STACK], None]
            rows[start:start + a.shape[0]] = _taylor_shift(
                probs, _pascal_stack(a, width))
    # FinitePmf's checks: no entry below -tol_norm, and the clamped mass
    # within tol_norm of 1; a nan fails the first, an inf the second
    valid = rows.min(axis=1) >= -cfg.tol_norm
    rows = np.maximum(rows[valid], 0.0)
    totals = np.array([fsum_nonneg(row) for row in rows])
    mass = np.abs(totals - 1.0) <= cfg.tol_norm
    rows = rows[mass] / totals[mass, None]
    terms = rows * np.log(np.where(rows > 0.0, rows, 1.0))
    done = batch[valid][mass]

    out = [None] * alphas.size
    for i, row in zip(done.tolist(), terms):
        nats = -fsum(row)
        out[i] = nats if nats > 0.0 else 0.0
    for i, alpha in enumerate(alphas.tolist()):
        if out[i] is None:
            try:
                out[i] = entropy(inverse_thin(x, alpha, cfg)).nats
            except ValueError as exc:
                out[i] = exc
    return out
