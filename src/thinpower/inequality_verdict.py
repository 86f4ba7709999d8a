"""The shared verdict record for every inequality checker, and the ULC gate
in front of the statements proved for ultra log-concave inputs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .pmf_core import FinitePmf, ToleranceConfig, is_ulc

NON_ULC_NOTE = "outside theorem hypotheses"


@dataclass(frozen=True)
class InequalityVerdict:
    """One inequality evaluation.

    The margin is oriented so that `holds` is equivalent to
    margin >= -tol_ineq regardless of which way the statement is written;
    for "lhs >= rhs" statements it is lhs - rhs.  `units` records whether
    the two sides are entropies (nats or bits) or Poisson rates.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    holds: bool
    inputs: dict = field(default_factory=dict)
    units: str = "nats"
    note: str = ""

    def to_json(self) -> dict:
        return dict(vars(self))


def _native(value):
    """value as JSON-native data: a pmf as its probabilities, a list or
    tuple item by item, a numpy array or scalar by tolist."""
    if isinstance(value, FinitePmf):
        return value.probs.tolist()
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def make_verdict(name: str, lhs: float, rhs: float, cfg: ToleranceConfig, *,
                 margin: float | None = None, units: str = "nats",
                 note: str = "", **inputs) -> InequalityVerdict:
    """The verdict on lhs against rhs, with the keyword inputs echoed as
    JSON-native data (_native).

    The margin defaults to lhs - rhs; a statement written lhs <= rhs
    passes its own.
    """
    if margin is None:
        margin = lhs - rhs
    return InequalityVerdict(
        name=name, lhs=float(lhs), rhs=float(rhs), margin=float(margin),
        holds=bool(margin >= -cfg.tol_ineq),
        inputs={key: _native(value) for key, value in inputs.items()},
        units=units, note=note)


def ulc_note(cfg: ToleranceConfig, allow_non_ulc: bool, *pmfs) -> str:
    """The verdict note for a ULC-gated statement: empty for ULC inputs,
    NON_ULC_NOTE when other inputs are allowed, else PreconditionError."""
    if all(is_ulc(p, cfg) for p in pmfs):
        return ""
    if not allow_non_ulc:
        raise PreconditionError(
            "input pmf is not ultra log-concave; pass allow_non_ulc=True "
            "to evaluate outside the theorem hypotheses")
    return NON_ULC_NOTE
