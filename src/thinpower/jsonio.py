"""Canonical JSON serialisation and the pmf/spec file formats.

Machine output must be byte-identical across runs, so floats are always
printed with 17 significant digits and object keys are sorted.  A float
list, tuple or 1-D float64 array is printed as a whole by _join_floats.
"""

from __future__ import annotations

import functools
import json
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

import numpy as np

from .errors import ParameterError
from .pmf_core import (DEFAULT_TOLERANCES, FamilySpec, FinitePmf,
                       ToleranceConfig, construct)


# _join_floats tries the kernel _format_floats on a float sequence of this
# many entries or more.  Measured on pmfs against one %-format call, the
# kernel's median speed-up is 0.61 at 64 entries, 1.0 at 112, 1.09 at 128,
# 1.8 at 256 and 2.3 at 512: it pays a fixed cost of about 50 us
_FORMAT_FROM = 128

# exponents X = floor(log10 |x|) of finite nonzero doubles, and the
# estimate one off on either side: the kernel's tables are indexed by
# X - _X_MIN
_X_MIN, _X_MAX = -325, 309


def _pow10_table():
    """10^(16 - X) = (hi + lo) 2^s for X = _X_MIN.._X_MAX, from exact
    integers: hi in [1, 2) is 10^(16 - X) 2^-s correctly rounded and lo
    the rest correctly rounded, so hi + lo is within 2^-106 of it."""
    size = _X_MAX - _X_MIN + 1
    hi, lo = np.empty(size), np.empty(size)
    shift = np.empty(size, dtype=np.int64)
    for i in range(size):
        k = 16 - _X_MIN - i
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        s = num.bit_length() - den.bit_length()
        num, den = num << max(-s, 0), den << max(s, 0)
        if num < den:
            num, s = num << 1, s - 1
        h = num / den                   # int / int is correctly rounded
        rest = (num << 52) - int(h * 2.0 ** 52) * den
        hi[i], lo[i], shift[i] = h, rest / (den << 52), s
    return hi, lo, shift


# hi split into 26 and 27 bits (Veltkamp) for Dekker's product
_VELTKAMP = 2.0 ** 27 + 1.0
# a row word: little-endian on any host, so that d0 << 48 is its byte 6
_WORD = np.dtype("<u8")


def _group_tables():
    """Per 4-digit group g = 0..9999: its word "d.d.d.d.", and in row j
    the significant digits of a number whose last nonzero digit is in g at
    place j of d1..d16, 0 if g is 0, and 1 in row 0 for g = 0 (d0 is
    always written)."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    words = np.full((10000, 8), ord("."), dtype=np.uint8)
    words[:, ::2] = digits + ord("0")
    last = ((digits != 0) * np.arange(1, 5, dtype=np.uint8)).max(1)
    place = 4 * np.arange(4, dtype=np.uint8)[:, None]
    nsig = np.where(last > 0, place + 1 + last, 0)
    nsig[0, 0] = 1
    return words.view(_WORD).ravel(), nsig.astype(np.uint8)


def _suffix_table(exponents: np.ndarray) -> np.ndarray:
    """Per exponent X, the last word of its row: "e+ddd," ("e-ddd," for
    X < 0) and two 0 bytes."""
    suffix = np.zeros((exponents.size, 8), dtype=np.uint8)
    suffix[:, :6] = np.frombuffer(b"e+000,", dtype=np.uint8)
    suffix[exponents < 0, 1] = ord("-")
    suffix[:, 2:5] += (np.abs(exponents)[:, None] // np.array([100, 10, 1])
                       % 10).astype(np.uint8)
    return suffix.view(_WORD).ravel()


def _keep_masks():
    """(782, 48) bool: the bytes of a row that each layout keeps.

    Layout (sign * 23 + style) * 17 + nsig - 1 for a sign, nsig significant
    digits and a style: X + 4 for %f at X = -4..16, and 21 and 22 for %e
    with a two- and a three-digit exponent.
    """
    # axes: sign, style, nsig, and last the byte or the digit i
    sign, style, nsig, i = np.ix_(range(2), range(23), range(1, 18), range(17))
    x = style - 4
    fixed = style < 21
    keep = np.zeros((2, 23, 17, 48), dtype=bool)
    keep[..., :1] = sign == 1
    keep[..., 1:3] = style < 4
    keep[..., 3:6] = np.arange(3) < 3 - style
    # %f writes the digits up to X, %e only the significant ones; the
    # point follows digit X, or d0 in %e, if a significant digit follows
    keep[..., 6:40:2] = (i < nsig) | (fixed & (i <= x))
    point = np.where(fixed, x, 0)
    keep[..., 7:41:2] = (i == point) & (nsig > point + 1)
    keep[..., 40:45] = ~fixed
    keep[..., 42:43] &= style == 22
    keep[..., 45] = True
    return keep.reshape(-1, 48)


# np.compress builds an index of every byte it keeps (8 bytes each): by
# blocks of this many rows, that index and the masks stay under 110 KB
_BLOCK = 512
_FIRST_WORD = int(np.frombuffer(b"-0.0000.", dtype=_WORD)[0])


@functools.cache
def _tables() -> SimpleNamespace:
    """The kernel's tables, built on its first call, so that importing
    the package builds none of them.

    pow10_hi, pow10_lo, pow10_shift and hi_hi, hi_lo (see _pow10_table)
    give y in _digits.  The row an element's text is cut from is six
    little-endian 8-byte words,
      "-0.000" d0 "."  |  "d.d.d.d." x 4, d1..d16  |  "e+ddd," 0 0
    group[g] is the word of the 4-digit group g and nsig its significant
    digits (see _group_tables), suffix[X - _X_MIN] the last word for
    exponent X, keep the masks (see _keep_masks) and layout_base[X -
    _X_MIN] the layout of a positive number less nsig.
    """
    hi, lo, shift = _pow10_table()
    hi_hi = hi * _VELTKAMP
    hi_hi -= hi_hi - hi
    group, nsig = _group_tables()
    exponents = np.arange(_X_MIN, _X_MAX + 1)
    layout_base = 17 * np.where((exponents >= -4) & (exponents <= 16),
                                exponents + 4,
                                21 + (np.abs(exponents) >= 100)) - 1
    return SimpleNamespace(pow10_hi=hi, pow10_lo=lo, pow10_shift=shift,
                           hi_hi=hi_hi, hi_lo=hi - hi_hi, group=group,
                           nsig=nsig, suffix=_suffix_table(exponents),
                           keep=_keep_masks(), layout_base=layout_base)


def _rounded(f, f_hi, f_lo, e, at, tables):
    """(D, r) per element: y = f 2^e 10^(16 - X), X = at + _X_MIN, as
    D = p + rint(t) in int64 and r = t - rint(t); see _format_floats."""
    scale = ((tables.pow10_shift.take(at) + e + 1023) << 52).view(np.float64)
    p = f * tables.pow10_hi.take(at)
    hi_hi, hi_lo = tables.hi_hi.take(at), tables.hi_lo.take(at)
    t = (((f_hi * hi_hi - p) + f_hi * hi_lo + f_lo * hi_hi) + f_lo * hi_lo
         + f * tables.pow10_lo.take(at)) * scale
    p *= scale
    rounded = np.rint(t)
    return p.astype(np.int64) + rounded.astype(np.int64), t - rounded


def _digits(values: np.ndarray):
    """(D, X - _X_MIN, certified) per element; see _format_floats.  Its
    float temporaries are freed on return, before the rows are built, and
    it never writes to values."""
    tables = _tables()
    magnitude = np.abs(values)
    zero = magnitude == 0.0
    has_zero = zero.any()
    if has_zero:
        magnitude[zero] = 1.0
    exponent = np.floor(np.log10(magnitude)).astype(np.int64)
    f, e = np.frexp(magnitude)
    at = exponent - _X_MIN
    split = f * _VELTKAMP
    f_hi = split - (split - f)
    f_lo = f - f_hi
    digits, r = _rounded(f, f_hi, f_lo, e, at, tables)
    under = (digits - 10 ** 16) + r <= -2.0 ** -40
    ok = (np.abs(r) < 0.5 - 2.0 ** -40) & (digits < 10 ** 17) & ~under
    if has_zero:
        digits[zero] = 0            # and X = log10(1) = 0
        ok[zero] = True
    if under.any():
        # np.log10 rounds some doubles just under 10^X up to X (1e-14's,
        # for one), so that y falls under 10^16: retry them at X - 1,
        # where y is ten times as large and D = 10^17 is 10^16 at X
        miss = np.flatnonzero(under)
        below = at[miss] - 1
        retry, r = _rounded(f[miss], f_hi[miss], f_lo[miss], e[miss], below,
                            tables)
        ok[miss] = ((np.abs(r) < 0.5 - 2.0 ** -40) & (retry <= 10 ** 17)
                    & ((retry - 10 ** 16) + r > -2.0 ** -40))
        carry = retry == 10 ** 17
        digits[miss] = np.where(carry, 10 ** 16, retry)
        at[miss] = np.where(carry, at[miss], below)
    return digits, at, ok


def _format_floats(values: np.ndarray) -> str | None:
    """",".join(format(v, ".17g") for v in values) for a 1-D float64
    array of finite values, byte for byte, in one pass of array operations,
    or None if the digits of some element are not certified.

    Digits.  For x = f 2^e != 0 (np.frexp, f in [1/2, 1)) and X, the
    estimate of floor(log10 |x|) from np.log10, y = |x| 10^(16 - X) =
    f (hi + lo) 2^(s + e) with hi, lo and s from the table.  Dekker's
    product of f and hi, both split by Veltkamp, is exact; f lo and its
    sum with the product's error term round once each, and the power of
    two is exact.  So y = p + t with |y - (p + t)| < 5 * 2^-106 y, below
    2^-46 wherever y < 10^17, and p holds an integer wherever y >= 2^53.
    D = p + rint(t), in int64, and r = t - rint(t) are exact, and D is
    taken, with exponent X, where
    - |r| < 1/2 - 2^-40: y is more than 2^-40 from a tie, so D is y
      rounded to the nearest integer;
    - 10^16 - 2^-40 < D + r and D < 10^17: with the first condition,
      10^16 - 2^-39 < y < 10^17 - 1/2, so D has 17 digits and X is the
      exponent of x rounded to 17 significant digits.  Where y < 10^16,
      D = 10^16 and x rounded to 17 digits is 10^X too, so an exact
      power of ten such as 1.0 is taken.
    An estimate of X that is off by one puts y below 10^16 - 2^-39,
    where a p that is not an integer is truncated and only lowers D + r,
    or at 10^17 and above, unless x is within that distance of 10^X:
    it fails the second condition.  np.log10 rounds some doubles just
    under 10^X up to X (those nearest 1e-14 and 1e-6 among them), so an
    element whose D + r falls under 10^16 - 2^-40 is retried at X - 1,
    where y is ten times as large.  It is taken there on the same two
    conditions, except that D = 10^17 passes and is written as 10^16 at
    X: then |y - 10^16| < 1/20, and x rounded to 17 digits is 10^X.  An
    exact tie fails the first condition at either exponent.  If any
    element still fails, the kernel declines the whole array and returns
    None.  Zeros are written with D = 0 and X = 0.

    Text.  The C99 %g rules at precision 17: style e when X < -4 or
    X >= 17, style f otherwise; trailing zeros dropped, and the point with
    them; an exponent of at least two digits.  Each element fills one
    48-byte row, laid out as in _tables: its sign, "0.000", its 17 digits
    with a point after each, "e", the exponent's sign and three digits,
    and a comma.  Its layout (sign, style, exponent width, significant
    digits) selects a keep mask from the table keep, and np.compress of
    the rows by their masks, _BLOCK rows at a time, leaves the text.
    """
    digits, at, ok = _digits(values)
    if not ok.all():
        return None
    tables = _tables()
    top = digits // 10 ** 8
    low = digits - top * 10 ** 8
    groups = (top // 10 ** 4 % 10 ** 4, top % 10 ** 4,
              low // 10 ** 4, low % 10 ** 4)
    rows = np.empty((values.size, 6), dtype=_WORD)
    rows[:, 0] = (top // 10 ** 8 << 48) + _FIRST_WORD
    for j, g in enumerate(groups):
        rows[:, j + 1] = tables.group.take(g)
    rows[:, 5] = tables.suffix.take(at)
    nsig = np.maximum.reduce([tables.nsig[j].take(g)
                              for j, g in enumerate(groups)])
    layout = (tables.layout_base.take(at) + nsig
              + np.signbit(values) * (23 * 17))
    rows = rows.view(np.uint8)
    return b"".join([
        np.compress(tables.keep.take(layout[i:i + _BLOCK], axis=0).ravel(),
                    rows[i:i + _BLOCK].ravel()).tobytes()
        for i in range(0, values.size, _BLOCK)])[:-1].decode("ascii")


# the %.17g texts of nan (of either sign) and inf, as JSON readers name them
_NAMES = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _join_floats(values) -> str:
    """",".join of the canonical text of each float in a list or tuple of
    floats or a 1-D float64 array.  From _FORMAT_FROM entries on, if all
    are finite, the kernel _format_floats prints them; otherwise, or if it
    declines, one %-format call does, and its "nan" and "inf" (the only
    float texts with an "n") are renamed."""
    if len(values) >= _FORMAT_FROM:
        array = np.asarray(values, dtype=float)
        if np.isfinite(array).all():
            text = _format_floats(array)
            if text is not None:
                return text
    if isinstance(values, np.ndarray):
        values = values.tolist()
    text = ",".join(["%.17g"] * len(values)) % tuple(values)
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, floats as "%.17g" % v, and nan
    and inf as NaN and Infinity.  A list or tuple of exact floats, or a 1-D
    float64 array (itself, not a copy), goes whole to _join_floats.
    Strings are quoted by the function json.dumps uses for them under its
    default ensure_ascii."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (np.floating, float)):
        text = "%.17g" % obj
        return _NAMES.get(text, text)
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype == np.float64:
            return "[" + _join_floats(obj) + "]"
        return dumps_canonical(obj.tolist())
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise ParameterError("canonical JSON requires string keys")
        items = (f"{encode_basestring_ascii(k)}:{dumps_canonical(obj[k])}"
                 for k in sorted(obj))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) == {float}:
            return "[" + _join_floats(obj) + "]"
        return "[" + ",".join(dumps_canonical(v) for v in obj) + "]"
    if hasattr(obj, "to_json"):
        return dumps_canonical(obj.to_json())
    raise ParameterError(f"cannot serialise {type(obj).__name__} canonically")


def pmf_to_json(p: FinitePmf) -> dict:
    """{"probs": p.probs}: the pmf's own read-only array, not a copy."""
    return {"probs": p.probs}


def pmf_from_doc(doc, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FinitePmf:
    """Build a pmf from a family spec document or a {"probs": [...]} one."""
    if isinstance(doc, dict) and "family" in doc:
        return construct(FamilySpec.from_json(doc), cfg)
    if not isinstance(doc, dict) or "probs" not in doc:
        raise ParameterError('pmf document needs a "probs" array')
    return FinitePmf(doc["probs"], cfg)


def load_json_argument(text: str):
    """Parse a CLI argument that is either inline JSON or a path to a file."""
    stripped = text.strip()
    inline = stripped.startswith(("{", "["))
    try:
        if inline:
            return json.loads(stripped)
        with open(text, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ParameterError(f"cannot read {text!r}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # not JSON, nested too deep for the parser, or bytes not UTF-8
        where = "inline JSON" if inline else f"JSON in {text!r}"
        raise ParameterError(f"invalid {where}: {exc}") from None


def load_pmf(text: str, cfg: ToleranceConfig = DEFAULT_TOLERANCES) -> FinitePmf:
    """Load a pmf from a JSON pmf document or a family spec document."""
    return pmf_from_doc(load_json_argument(text), cfg)
