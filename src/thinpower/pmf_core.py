"""Finite-support pmfs, family constructors, and structural predicates."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, ParameterError
from .numerics import log_factorials, poisson_log_terms, poisson_support_top


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric tolerances shared by every operation in the library.

    tol_norm   slack for pmf normalisation and sub-noise negative clamping
    tol_ineq   margin below which an inequality verdict stops holding
    tol_root   convergence width for one-dimensional root solves
    tail_eps   Poisson/geometric truncation tail mass
    fd_step    default finite-difference step
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
            if not value > 0.0:
                raise ParameterError(f"{field.name} must be strictly positive")

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
    """

    __slots__ = ("probs",)

    def __init__(self, probs, cfg: ToleranceConfig = DEFAULT_TOLERANCES):
        arr = np.array(probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("pmf requires a 1-D vector of length >= 1")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("pmf entries must be finite")
        lowest = float(arr.min())
        if lowest < -cfg.tol_norm:
            raise ParameterError(
                f"pmf entry {lowest:.6e} is below -tol_norm = {-cfg.tol_norm:.1e}")
        np.clip(arr, 0.0, None, out=arr)
        total = math.fsum(arr)
        if abs(total - 1.0) > cfg.tol_norm:
            raise ParameterError(
                f"pmf mass {total!r} differs from 1 by more than tol_norm")
        arr /= total
        support = np.flatnonzero(arr)
        arr = arr[:support[-1] + 1] if support.size else arr[:1]
        arr.flags.writeable = False
        self.probs = arr

    def __len__(self) -> int:
        return self.probs.size

    def __repr__(self) -> str:
        body = np.array2string(self.probs, max_line_width=72, threshold=8)
        return f"FinitePmf({body})"


def _float_tuple(values) -> tuple:
    if not isinstance(values, (list, tuple)):  # a string is iterable too
        raise TypeError("expected a list")
    return tuple(float(v) for v in values)


# each family's parameters as (name, coercion) pairs, in document order
FAMILY_PARAMS = {
    "delta": (("k", int),),
    "bernoulli": (("p", float),),
    "binomial": (("n", int), ("p", float)),
    "bernoulli_sum": (("ps", _float_tuple),),
    "poisson": (("rate", float),),
    "geometric": (("mean", float),),
    "raw": (("probs", _float_tuple),),
}


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
        return cls("bernoulli_sum", ps=tuple(ps))

    @classmethod
    def poisson(cls, rate: float) -> "FamilySpec":
        return cls("poisson", rate=rate)

    @classmethod
    def geometric(cls, mean: float) -> "FamilySpec":
        return cls("geometric", mean=mean)

    @classmethod
    def raw(cls, probs) -> "FamilySpec":
        return cls("raw", probs=tuple(float(v) for v in probs))

    @classmethod
    def from_json(cls, doc: dict) -> "FamilySpec":
        if not isinstance(doc, dict) or "family" not in doc:
            raise ParameterError("family spec document needs a 'family' key")
        fam = doc["family"]
        if fam == "mixture":
            fam = "raw"
        if not isinstance(fam, str) or fam not in FAMILY_PARAMS:
            raise ParameterError(f"unknown family {fam!r}")
        values = {}
        for name, coerce in FAMILY_PARAMS[fam]:
            # "lam" is accepted as an older spelling of the Poisson rate
            key = "lam" if name == "rate" and name not in doc else name
            if key not in doc:
                raise ParameterError(f"family {fam!r} misses parameter {name!r}")
            try:
                values[name] = coerce(doc[key])
            except (TypeError, ValueError, OverflowError):
                raise ParameterError(f"family {fam!r} parameter {name!r} "
                                     f"has invalid value {doc[key]!r}") from None
        return cls(fam, **values)

    def to_json(self) -> dict:
        doc = {"family": self.family}
        for name, _ in FAMILY_PARAMS[self.family]:
            value = getattr(self, name)
            doc[name] = list(value) if isinstance(value, tuple) else value
        return doc


def _check_prob(p: float, what: str) -> None:
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"{what} = {p!r} outside [0, 1]")


def _poisson_probs(rate: float, cfg: ToleranceConfig) -> np.ndarray:
    if rate == 0.0:
        return np.array([1.0])
    top = poisson_support_top(rate, cfg.tail_eps)
    _, logp = poisson_log_terms(rate, top)
    return np.exp(logp)


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
        vec = np.zeros(spec.k + 1)
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
        lf = log_factorials(spec.n)
        k = np.arange(spec.n + 1)
        logw = (lf[spec.n] - lf[k] - lf[spec.n - k]
                + k * math.log(spec.p) + (spec.n - k) * math.log1p(-spec.p))
        return FinitePmf(np.exp(logw), cfg)
    if fam == "bernoulli_sum":
        if not spec.ps:
            return construct(FamilySpec.delta(0), cfg)
        vec = np.array([1.0])
        for p in spec.ps:
            _check_prob(p, "bernoulli_sum p_i")
            vec = np.convolve(vec, [1.0 - p, p])
        return FinitePmf(vec, cfg)
    if fam == "poisson":
        if spec.rate < 0.0 or not math.isfinite(spec.rate):
            raise ParameterError(f"poisson rate {spec.rate!r} must be >= 0")
        return FinitePmf(_poisson_probs(spec.rate, cfg), cfg)
    if fam == "geometric":
        if spec.mean < 0.0 or not math.isfinite(spec.mean):
            raise ParameterError(f"geometric mean {spec.mean!r} must be >= 0")
        if spec.mean == 0.0:
            return construct(FamilySpec.delta(0), cfg)
        succ = 1.0 / (1.0 + spec.mean)
        # tail beyond k is (1-succ)^(k+1); cut it below tail_eps
        top = max(1, int(math.ceil(math.log(cfg.tail_eps) / math.log1p(-succ))))
        k = np.arange(top + 1)
        return FinitePmf(np.exp(math.log(succ) + k * math.log1p(-succ)), cfg)
    if fam == "raw":
        arr = np.asarray(spec.probs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("raw pmf requires a nonempty vector")
        if not np.all(np.isfinite(arr)):
            raise ParameterError("raw pmf entries must be finite")
        total = math.fsum(np.clip(arr, 0.0, None))
        if total <= 0.0:
            raise ParameterError("raw pmf has no positive mass")
        if float(arr.min()) < -cfg.tol_norm * total:
            raise ParameterError("raw pmf has a significantly negative entry")
        return FinitePmf(np.clip(arr, 0.0, None) / total, cfg)
    raise ParameterError(f"unknown family {fam!r}")


def mean(p: FinitePmf) -> float:
    """First moment, with compensated summation."""
    return math.fsum(np.arange(len(p)) * p.probs)


def is_ulc(p: FinitePmf, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> bool:
    """Whether i*P(i)^2 >= (i+1)*P(i+1)*P(i-1) holds for all interior i.

    The support must be a contiguous block {a, ..., b}: leading zeros are
    fine, but an interior zero flanked by positive mass fails the check.
    Comparison carries a -tol_norm slack so families that sit exactly on the
    boundary (Poisson) are not rejected for rounding.
    """
    probs = p.probs
    start = int(np.flatnonzero(probs)[0]) if probs.any() else 0
    if np.any(probs[start:] == 0.0):
        return False
    if len(p) < 3:
        return True
    i = np.arange(1, len(p) - 1)
    lhs = i * probs[1:-1] ** 2
    rhs = (i + 1) * probs[2:] * probs[:-2]
    return bool(np.all(lhs >= rhs - cfg.tol_norm))


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
    a = np.zeros(width)
    b = np.zeros(width)
    a[:len(p)] = p.probs
    b[:len(q)] = q.probs
    return 0.5 * math.fsum(np.abs(a - b))
