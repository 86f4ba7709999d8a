"""Finite-support pmfs, family constructors, and structural predicates."""

from __future__ import annotations

import math
import numbers
import reprlib
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, ParameterError
from .numerics import (check_support, fsum, fsum_nonneg, log_factorials,
                       poisson_terms, tables)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric tolerances shared by every operation in the library.

    tol_norm   slack for pmf normalisation and sub-noise negative clamping
    tol_ineq   margin below which an inequality verdict stops holding
    tol_root   root-solve width: relative for V and the path rates, which
               stop where the bracket cannot shrink if tol_root is below
               double resolution; absolute (>= 1e-12) for epilike alphas
    tail_eps   Poisson/geometric truncation tail mass
    fd_step    default finite-difference step

    Each must be finite and strictly positive, and tol_norm, a probability
    mass, below 1, else ParameterError.
    """

    tol_norm: float = 1e-9
    tol_ineq: float = 1e-9
    tol_root: float = 1e-10
    tail_eps: float = 1e-14
    fd_step: float = 1e-5

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ParameterError(f"{field.name} must be a number, got {value!r}")
            # inf (or an int past the largest double) overflows support
            # cuts and root solves, and clamps pmfs silently
            if not 0.0 < value <= sys.float_info.max:
                raise ParameterError(f"{field.name} must be finite and strictly "
                                     f"positive, got {reprlib.repr(value)}")
        # at 1 or more, FinitePmf would clamp any negative entry to 0
        if self.tol_norm >= 1.0:
            raise ParameterError(f"tol_norm must be below 1, got "
                                 f"{reprlib.repr(self.tol_norm)}")

    @classmethod
    def from_overrides(cls, overrides: dict) -> "ToleranceConfig":
        """The defaults with the named entries of `overrides` replaced."""
        names = [field.name for field in fields(cls)]
        for name in overrides:
            if name not in names:
                raise ParameterError(f"unknown tolerance {name!r}, not one of {names}")
        return cls(**overrides)


DEFAULT_TOLERANCES = ToleranceConfig()


class FinitePmf:
    """Probability mass function on {0, ..., len-1}; probs[k] = P(X = k).

    Entries are nonnegative and sum to 1; negative noise above -tol_norm is
    clamped to zero and the vector renormalised.  Trailing zeros are trimmed,
    so the last entry is positive except for the point mass at 0.

    The entries are checked where an array enters the library: user
    arrays, raw and bernoulli_sum specs, size_bias, JSON documents and
    inverse_thin, whose checks are its feasibility test.  thin, convolve,
    poisson_pmf and construct's binomial skip the checks and take only
    the normalising tail (_normalised): they sum or multiply nonnegative
    finite entries, or exponentiate finite logs, so what they form is
    finite and has no entry below +0.0, and the checks cannot fail there.

    probs is read-only, so what is computed from it stays valid: _memo
    keeps H, V per (tol_root, tail_eps) and is_ulc per tol_norm, so that a
    check sweeping one pmf over many alphas solves V and tests ULC once.
    """

    __slots__ = ("probs", "_memo")

    def __init__(self, probs, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
        try:
            arr = np.array(probs, dtype=float)
        except (TypeError, ValueError):
            raise ParameterError(
                f"pmf entries must be numbers, got {_first_non_number(probs)}"
            ) from None
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("pmf requires a 1-D vector of length >= 1")
        # nan and +-inf show in the extremes
        lowest, highest = float(arr.min()), float(arr.max())
        if not (math.isfinite(lowest) and math.isfinite(highest)):
            raise ParameterError("pmf entries must be finite")
        if lowest < -cfg.tol_norm:
            raise ParameterError(
                f"pmf entry {lowest:.6e} is below -tol_norm = {-cfg.tol_norm:.1e}")
        # <=, not <: min may report +0.0 where a -0.0 is present too
        if lowest <= 0.0:
            np.clip(arr, 0.0, None, out=arr)
        self._normalise(arr, cfg)

    @classmethod
    def _normalised(cls, arr: np.ndarray, cfg: ToleranceConfig) -> "FinitePmf":
        """The pmf of arr, without the input checks of __init__.

        arr must be a fresh 1-D float64 array of length >= 1, owned by the
        new pmf (it is divided in place and made read-only), finite, with
        every entry +0.0 or positive: no -0.0, which __init__ would clamp
        to +0.0.  The mass is still checked against tol_norm.
        """
        pmf = cls.__new__(cls)
        pmf._normalise(arr, cfg)
        return pmf

    def _normalise(self, arr: np.ndarray, cfg: ToleranceConfig) -> None:
        """Check arr's mass, divide by it, trim trailing zeros and keep arr
        read-only as probs; arr meets _normalised's precondition."""
        total = fsum_nonneg(arr)
        if abs(total - 1.0) > cfg.tol_norm:
            raise ParameterError(
                f"pmf mass {total!r} differs from 1 by more than tol_norm")
        arr /= total
        if arr[-1] == 0.0:
            support = np.flatnonzero(arr)
            arr = arr[:support[-1] + 1] if support.size else arr[:1]
        arr.flags.writeable = False
        self.probs = arr
        self._memo = {}

    def __len__(self) -> int:
        return self.probs.size

    def __repr__(self) -> str:
        body = np.array2string(self.probs, max_line_width=72, threshold=8)
        return f"FinitePmf({body})"


def _first_non_number(probs) -> str:
    """Name the first entry of ``probs`` that is not a number, briefly."""
    if isinstance(probs, (list, tuple)):
        for i, v in enumerate(probs):
            try:
                float(v)
            except (TypeError, ValueError):
                return f"entry {i} = {reprlib.repr(v)}"
    return reprlib.repr(probs)


def _real(value) -> float:
    if isinstance(value, (bool, np.bool_)):  # float(True) would read 1.0
        raise TypeError("expected a number")
    return float(value)


def _integer(value) -> int:
    # int(3.5) would truncate; an integral float such as 1e30 is kept
    if isinstance(value, (bool, np.bool_)) or (isinstance(value, float)
                                               and not value.is_integer()):
        raise ValueError("expected an integer")
    return int(value)


def _float_tuple(values) -> tuple:
    if not isinstance(values, (list, tuple)):  # a string is iterable too
        raise TypeError("expected a list")
    return tuple(_real(v) for v in values)


# each family's parameters as (name, coercion) pairs, in document order
FAMILY_PARAMS = {
    "delta": (("k", _integer),),
    "bernoulli": (("p", _real),),
    "binomial": (("n", _integer), ("p", _real)),
    "bernoulli_sum": (("ps", _float_tuple),),
    "poisson": (("rate", _real),),
    "geometric": (("mean", _real),),
    "raw": (("probs", _float_tuple),),
}


def _family_params(family) -> tuple:
    if not isinstance(family, str) or family not in FAMILY_PARAMS:
        raise ParameterError(f"unknown family {family!r}")
    return FAMILY_PARAMS[family]


@dataclass(frozen=True)
class FamilySpec:
    """Tagged parametric family used by construct().

    Exactly one variant is active, selected by `family`:
    delta(k), bernoulli(p), binomial(n, p), bernoulli_sum(ps), poisson(rate),
    geometric(mean), raw(probs).
    """

    family: str
    k: int = 0
    n: int = 0
    p: float = 0.0
    ps: tuple = ()
    rate: float = 0.0
    mean: float = 0.0
    probs: tuple = ()

    def __post_init__(self):
        """Coerce the family's parameters by FAMILY_PARAMS, so that every
        way of building a spec checks them alike."""
        for name, coerce in _family_params(self.family):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, coerce(value))
            except (TypeError, ValueError, OverflowError):
                raise ParameterError(f"family {self.family!r} parameter "
                                     f"{name!r} has invalid value {value!r}"
                                     ) from None

    @classmethod
    def delta(cls, k: int) -> "FamilySpec":
        return cls("delta", k=k)

    @classmethod
    def bernoulli(cls, p: float) -> "FamilySpec":
        return cls("bernoulli", p=p)

    @classmethod
    def binomial(cls, n: int, p: float) -> "FamilySpec":
        return cls("binomial", n=n, p=p)

    @classmethod
    def bernoulli_sum(cls, *ps: float) -> "FamilySpec":
        return cls("bernoulli_sum", ps=ps)

    @classmethod
    def poisson(cls, rate: float) -> "FamilySpec":
        return cls("poisson", rate=rate)

    @classmethod
    def geometric(cls, mean: float) -> "FamilySpec":
        return cls("geometric", mean=mean)

    @classmethod
    def raw(cls, probs) -> "FamilySpec":
        return cls("raw", probs=tuple(probs))

    @classmethod
    def from_json(cls, doc: dict) -> "FamilySpec":
        if not isinstance(doc, dict) or "family" not in doc:
            raise ParameterError("family spec document needs a 'family' key")
        fam = doc["family"]
        if fam == "mixture":
            fam = "raw"
        values = {}
        for name, _ in _family_params(fam):
            # "lam" is accepted as an older spelling of the Poisson rate
            key = "lam" if name == "rate" and name not in doc else name
            if key not in doc:
                raise ParameterError(f"family {fam!r} misses parameter {name!r}")
            values[name] = doc[key]
        return cls(fam, **values)

    def to_json(self) -> dict:
        doc = {"family": self.family}
        for name, _ in FAMILY_PARAMS[self.family]:
            value = getattr(self, name)
            doc[name] = list(value) if isinstance(value, tuple) else value
        return doc


def _check_prob(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"{name} = {value!r} outside [0, 1]")


def poisson_pmf(rate: float, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FinitePmf:
    """construct(FamilySpec.poisson(rate), cfg) without the spec."""
    if rate < 0.0 or not math.isfinite(rate):
        raise ParameterError(f"poisson rate {rate!r} must be >= 0")
    if rate == 0.0:
        return FinitePmf([1.0], cfg)
    probs = np.exp(poisson_terms(rate, cfg.tail_eps)[1])
    try:
        return FinitePmf._normalised(probs, cfg)
    except ParameterError as err:
        # each entry is exp of a log pmf within a few ulps of -log(2 pi z)/2
        # minus the deviance, so the entries' rounding moves the mass by an
        # ulp or two of 1, and only a tol_norm near eps refuses a rate for it
        n = probs.size
        raise ParameterError(
            f"Poisson rate {rate!r} on {n} points: {err} = {cfg.tol_norm:g}; "
            f"the support cut leaves out less than tail_eps = "
            f"{cfg.tail_eps:g}, and each entry carries a relative rounding "
            f"error of a few eps ln N = "
            f"{sys.float_info.epsilon * math.log(n):.1e}") from None


def construct(spec: FamilySpec, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FinitePmf:
    """Build the pmf of a parametric family.

    Poisson and geometric supports are cut where the omitted tail mass is
    below cfg.tail_eps and the retained block renormalised; bernoulli_sum is
    the exact convolution of its Bernoulli factors.
    """
    fam = spec.family
    if fam == "delta":
        if spec.k < 0:
            raise ParameterError("delta offset must be >= 0")
        vec = np.zeros(check_support(spec.k, "delta offset k", spec.k) + 1)
        vec[spec.k] = 1.0
        return FinitePmf(vec, cfg)
    if fam == "bernoulli":
        _check_prob(spec.p, "bernoulli p")
        return FinitePmf([1.0 - spec.p, spec.p], cfg)
    if fam == "binomial":
        if spec.n < 0:
            raise ParameterError("binomial n must be >= 0")
        _check_prob(spec.p, "binomial p")
        if spec.n == 0 or spec.p == 0.0:
            return construct(FamilySpec.delta(0), cfg)
        if spec.p == 1.0:
            return construct(FamilySpec.delta(spec.n), cfg)
        lf = log_factorials(check_support(spec.n, "binomial n", spec.n))
        k = np.arange(spec.n + 1)
        logw = (lf[spec.n] - lf[k] - lf[spec.n - k]
                + k * math.log(spec.p) + (spec.n - k) * math.log1p(-spec.p))
        return FinitePmf._normalised(np.exp(logw), cfg)
    if fam == "bernoulli_sum":
        if not spec.ps:
            return construct(FamilySpec.delta(0), cfg)
        vec = np.array([1.0])
        for p in spec.ps:
            _check_prob(p, "bernoulli_sum p_i")
            vec = np.convolve(vec, [1.0 - p, p])
        # the checks clamp the -0.0 entries that a p of -0.0 leaves
        return FinitePmf(vec, cfg)
    if fam == "poisson":
        return poisson_pmf(spec.rate, cfg)
    if fam == "geometric":
        if spec.mean < 0.0 or not math.isfinite(spec.mean):
            raise ParameterError(f"geometric mean {spec.mean!r} must be >= 0")
        if spec.mean == 0.0:
            return construct(FamilySpec.delta(0), cfg)
        # logs of 1 / (1 + mean) and mean / (1 + mean) from the mean itself;
        # above mean 1, 1 / mean avoids cancelling two nearly equal logs
        log_succ = -math.log1p(spec.mean)
        log_fail = (math.log(spec.mean) + log_succ if spec.mean <= 1.0
                    else -math.log1p(1.0 / spec.mean))
        # tail beyond k is fail^(k+1); cut it below tail_eps
        top = max(1, int(math.ceil(math.log(cfg.tail_eps) / log_fail)))
        k = np.arange(check_support(top, "geometric mean", spec.mean) + 1)
        block = np.exp(log_succ + k * log_fail)
        return FinitePmf(block / fsum(block), cfg)
    # raw: FamilySpec admits no other family
    arr = np.asarray(spec.probs, dtype=float)
    if arr.size == 0:
        raise ParameterError("raw pmf requires a nonempty vector")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("raw pmf entries must be finite")
    total = fsum_nonneg(np.clip(arr, 0.0, None))
    if total <= 0.0:
        raise ParameterError("raw pmf has no positive mass")
    if total == math.inf:
        raise ParameterError("raw pmf mass overflows a double")
    if float(arr.min()) < -cfg.tol_norm * total:
        raise ParameterError("raw pmf has a significantly negative entry")
    return FinitePmf(np.clip(arr, 0.0, None) / total, cfg)


def mean(p: FinitePmf) -> float:
    """First moment, with compensated summation."""
    return fsum(tables(len(p) - 1)[0] * p.probs)


def is_ulc(p: FinitePmf, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Whether i*P(i)^2 >= (i+1)*P(i+1)*P(i-1) holds for all interior i.

    The support must be a contiguous block {a, ..., b}: leading zeros are
    fine, but an interior zero flanked by positive mass fails the check.
    The comparison carries a relative slack, lhs >= rhs * (1 - slack),
    so that families that sit exactly on the boundary (Poisson) are not
    rejected for rounding.  slack is tol_norm, but never below
    16 eps N ln N on a support of N points: the library forms binomial
    entries, and Poisson entries below rate 10, as exp of a log whose terms
    grow to about N ln N, so an entry carries a relative error of up to a
    few eps N ln N (measured: at most 4.1 eps N ln N, on Poissons of rates
    up to 1e6 in that form; from rate 10 on, Loader's form leaves a few
    eps ln N).  With the
    default tol_norm of 1e-9 the floor takes over from about 28000 points
    on; it also keeps a tol_norm set below the entries' rounding from
    refusing a Poisson.  Triples with rhs below 2^-1000 are skipped, as
    there the products carry no relative accuracy.
    """
    key = ("is_ulc", cfg.tol_norm)
    if key not in p._memo:
        probs = p.probs
        start = int(np.flatnonzero(probs)[0]) if probs.any() else 0
        n = len(p)
        slack = max(cfg.tol_norm, 16.0 * sys.float_info.epsilon * n * math.log(n))
        i = np.arange(1, n - 1)
        lhs = i * probs[1:-1] ** 2
        rhs = (i + 1) * probs[2:] * probs[:-2]
        p._memo[key] = bool(not np.any(probs[start:] == 0.0)
                            and np.all((lhs >= rhs * (1.0 - slack))
                                       | (rhs < 2.0 ** -1000)))
    return p._memo[key]


def size_bias(p: FinitePmf, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FinitePmf:
    """Size-biased pmf: result[x] = p[x+1]*(x+1)/mean(p)."""
    lam = mean(p)
    if lam <= 0.0:
        raise DomainError("size bias undefined for a zero-mean pmf")
    shifted = p.probs[1:] * np.arange(1, len(p)) / lam
    return FinitePmf(shifted, cfg)


def total_variation(p: FinitePmf, q: FinitePmf) -> float:
    """0.5 * sum |p[k] - q[k]| over the union support."""
    width = max(len(p), len(q))
    return 0.5 * fsum(np.abs(_padded(p, width) - _padded(q, width)))


def _padded(p: FinitePmf, width: int) -> np.ndarray:
    out = np.zeros(width)
    out[:len(p)] = p.probs
    return out
