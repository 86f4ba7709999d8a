"""Canonical JSON serialisation and the pmf/spec file formats.

Machine output must be byte-identical across runs, so floats are always
printed with 17 significant digits and object keys are sorted.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParameterError
from .pmf_core import (DEFAULT_TOLERANCES, FamilySpec, FinitePmf,
                       ToleranceConfig, construct)


def _format_float(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return format(value, ".17g")


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (np.floating, float)):
        return _format_float(float(obj))
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if isinstance(obj, np.ndarray):
        return dumps_canonical(obj.tolist())
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise ParameterError("canonical JSON requires string keys")
        items = (f"{json.dumps(k)}:{dumps_canonical(obj[k])}"
                 for k in sorted(obj))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_canonical(v) for v in obj) + "]"
    if hasattr(obj, "to_json"):
        return dumps_canonical(obj.to_json())
    raise ParameterError(f"cannot serialise {type(obj).__name__} canonically")


def pmf_to_json(p: FinitePmf) -> dict:
    return {"probs": p.probs.tolist()}


def pmf_from_json(doc, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FinitePmf:
    if not isinstance(doc, dict) or "probs" not in doc:
        raise ParameterError('pmf document needs a "probs" array')
    return FinitePmf(doc["probs"], cfg)


def pmf_from_doc(doc, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FinitePmf:
    """Build a pmf from a family spec document or a {"probs": [...]} one."""
    if isinstance(doc, dict) and "family" in doc:
        return construct(FamilySpec.from_json(doc), cfg)
    return pmf_from_json(doc, cfg)


def load_json_argument(text: str):
    """Parse a CLI argument that is either inline JSON or a path to a file."""
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            return json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"invalid inline JSON: {exc}") from None
    try:
        with open(text, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParameterError(f"cannot read {text!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParameterError(f"invalid JSON in {text!r}: {exc}") from None


def load_pmf(text: str, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FinitePmf:
    """Load a pmf from a JSON pmf document or a family spec document."""
    return pmf_from_doc(load_json_argument(text), cfg)
