"""dumps_canonical writes the same bytes as the element-by-element
serialiser it replaced, kept here as the oracle: for short float lists,
formatted by one %-format call, and for long ones, formatted by the array
kernel _format_floats or, where it declines, by the same %-format call."""

import json
import math
import os
import struct
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thinpower import jsonio
from thinpower.errors import ParameterError
from thinpower.jsonio import _FORMAT_FROM, dumps_canonical, pmf_to_json
from thinpower.pmf_core import FamilySpec, construct

from test_pinned_outputs import MANIFEST


def _oracle_float(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return format(value, ".17g")


def oracle(obj) -> str:
    """The per-element serialiser: one call per float, json.dumps per string."""
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (np.floating, float)):
        return _oracle_float(float(obj))
    if isinstance(obj, (np.integer, int)):
        return str(int(obj))
    if isinstance(obj, np.ndarray):
        return oracle(obj.tolist())
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise ParameterError("canonical JSON requires string keys")
        items = (f"{json.dumps(k)}:{oracle(obj[k])}" for k in sorted(obj))
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(oracle(v) for v in obj) + "]"
    if hasattr(obj, "to_json"):
        return oracle(obj.to_json())
    raise ParameterError(f"cannot serialise {type(obj).__name__} canonically")


EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
               2.2250738585072009e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1e16, 1e17, 123456789012345680.0]

floats = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=True,
                                                  allow_infinity=True)
ints = st.integers(-2 ** 70, 2 ** 70)
# quotes, backslashes, control characters, non-ASCII text and surrogates
text = st.text(st.sampled_from('"\\/\x00\x01\x1f\x7f\n\t\b\f\r ä€\ud800𝄞aZ09')
               | st.characters(), max_size=12)
scalars = (floats | ints | st.booleans() | st.none() | text
           | floats.map(np.float64) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
float_lists = st.lists(floats, max_size=40)
# float lists with a bool, an int or a numpy scalar mixed in
mixed_lists = st.lists(floats | st.booleans() | ints | floats.map(np.float64),
                       max_size=20)
leaves = scalars | float_lists | mixed_lists | float_lists.map(tuple) \
    | float_lists.map(lambda v: np.array(v, dtype=float))
documents = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(text, inner, max_size=5),
    max_leaves=30)


@given(documents)
def test_same_bytes_as_the_per_element_serialiser(doc):
    assert dumps_canonical(doc) == oracle(doc)


@given(float_lists)
def test_float_lists_and_tuples_match_per_element(values):
    expected = "[" + ",".join(_oracle_float(v) for v in values) + "]"
    assert dumps_canonical(values) == expected
    assert dumps_canonical(tuple(values)) == expected
    assert dumps_canonical(np.array(values, dtype=float)) == expected


@pytest.mark.parametrize("doc, text", [
    ([], "[]"),
    ((), "[]"),
    ([1.0, math.nan, -math.inf], "[1,NaN,-Infinity]"),
    ([0.5, True, 2 ** 70], "[0.5,true,1180591620717411303424]"),
    ([-0.0, 5e-324], "[-0,4.9406564584124654e-324]"),
    ({"bé": [0.25], 'a"\\': None}, '{"a\\"\\\\":null,"b\\u00e9":[0.25]}'),
    # arrays other than 1-D float64 go by their lists
    (np.array([True, False]), "[true,false]"),
    (np.array([2 ** 62 + 1, -1]), "[4611686018427387905,-1]"),
    (np.array([[0.5], [1.0]]), "[[0.5],[1]]"),
])
def test_known_texts(doc, text):
    assert dumps_canonical(doc) == text == oracle(doc)


@pytest.mark.parametrize("key", [1, 1.5, None, ("a",)])
def test_non_string_key_raises(key):
    with pytest.raises(ParameterError, match="string keys"):
        dumps_canonical({"a": [1.0], key: 2.0})


# ---------------------------------------------------------------- long lists

def _per_element(values) -> str:
    return "[" + ",".join(_oracle_float(v) for v in values) + "]"


def _assert_long_list(values):
    """dumps_canonical of values as a list, a tuple and an array, against
    the per-element text."""
    values = [float(v) for v in values]
    expected = _per_element(values)
    assert dumps_canonical(values) == expected
    assert dumps_canonical(tuple(values)) == expected
    assert dumps_canonical(np.array(values)) == expected


@pytest.fixture
def kernel_calls(monkeypatch):
    """(array, text) per call of the long-list kernel: the array it was
    given and what it returned, None where it declined."""
    calls = []
    kernel = jsonio._format_floats

    def counted(values):
        calls.append((values, kernel(values)))
        return calls[-1][1]
    monkeypatch.setattr(jsonio, "_format_floats", counted)
    return calls


def _sizes(calls) -> list:
    """(size, declined) per kernel call."""
    return [(values.size, text is None) for values, text in calls]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


finite_floats = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.integers(0, 2 ** 64 - 1).map(_from_bits).filter(math.isfinite)
                 | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e17, 0.001,
                                    2.2250738585072009e-308, 1.7976931348623157e308]))


def _mixed_doubles(rng, size: int) -> np.ndarray:
    """Finite doubles of four kinds, mixed: random bit patterns, log-uniform
    magnitudes from 1e-320 to 1e300, short decimals and dyadic rationals."""
    bits = rng.integers(0, 2 ** 63, size, dtype=np.int64).view(float)
    kinds = [
        np.where(np.isfinite(bits), bits, 0.5),
        np.exp(rng.uniform(math.log(1e-320), math.log(1e300), size)),
        np.array([round(v, int(d)) for v, d in
                  zip(rng.uniform(-1e3, 1e3, size), rng.integers(0, 7, size))]),
        np.ldexp(rng.integers(-2 ** 20, 2 ** 20, size).astype(float),
                 rng.integers(-1074, 1000, size)),
    ]
    pick = rng.integers(0, len(kinds), size)
    values = np.choose(pick, kinds)
    return np.where(rng.random(size) < 0.5, -values, values)


@given(st.lists(finite_floats, max_size=40), st.integers(0, 2 ** 32 - 1),
       st.integers(_FORMAT_FROM, 4 * _FORMAT_FROM))
def test_long_float_lists_match_per_element(picked, seed, size):
    # the drawn floats land at random places of a long list of mixed doubles
    rng = np.random.default_rng(seed)
    values = _mixed_doubles(rng, size)
    values[rng.choice(size, len(picked), replace=False)] = picked
    _assert_long_list(values)


@pytest.mark.parametrize("size", [jsonio._BLOCK - 1, jsonio._BLOCK,
                                  jsonio._BLOCK + 1, 2 * jsonio._BLOCK + 1])
def test_lists_across_compress_blocks(size):
    # the text is cut _BLOCK rows at a time: the joins lose no element
    _assert_long_list(_mixed_doubles(np.random.default_rng(size), size))


def _ulps_around(centre: float, ulps: int = 3) -> list:
    below = [centre]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], 0.0))
    above = [centre]
    for _ in range(ulps):
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def test_values_near_powers_of_ten_match_per_element(kernel_calls):
    # within 3 ulps of 10^k and of 9.9999999999999995e k, every k: where
    # the decimal exponent and the digit count change
    values = []
    for k in range(-324, 309):
        for centre in (float(f"1e{k}"), float(f"9.9999999999999995e{k}")):
            if 0.0 < centre < math.inf:
                values += _ulps_around(centre)
    assert len(values) > 8000
    _assert_long_list(values)
    _assert_long_list([-v for v in values])
    # six ties between 17-digit decimals next to 1e15 fail the
    # certificate, so the kernel declines these lists; it must print the
    # elements it certifies, the ones np.log10 rounds up to 10^k included
    assert _sizes(kernel_calls) == [(len(values), True)] * 6
    for signed in (np.array(values), -np.array(values)):
        taken = signed[jsonio._digits(signed)[2]]
        assert taken.size == len(values) - 6
        assert jsonio._format_floats(taken) == \
            ",".join(format(v, ".17g") for v in taken.tolist())


# the doubles nearest these powers of ten lie under them, and np.log10
# rounds each up to the power's exponent
LOG10_ROUNDS_UP = [1e-20, 1e-19, 1e-16, 1e-14, 1e-12, 1e-11, 1e-7, 1e-6]


def test_exponents_np_log10_rounds_up_are_retried(kernel_calls):
    for v in LOG10_ROUNDS_UP:
        k = round(math.log10(v))
        assert Fraction(v) < Fraction(10) ** k and np.log10(v) == k
    values = np.random.default_rng(8).random(2048)
    values[::256] = LOG10_ROUNDS_UP
    values[1::256] = [-v for v in LOG10_ROUNDS_UP]
    text = dumps_canonical(values)
    assert text == "[" + ",".join(format(v, ".17g")
                                  for v in values.tolist()) + "]"
    assert _sizes(kernel_calls) == [(2048, False)]
    # 1e-14 rounds up to 10^17 at X - 1: its text is 1e-14, the others'
    # are 17 digits under their power of ten
    printed = [format(v, ".17g") for v in LOG10_ROUNDS_UP]
    assert printed[3] == "1e-14" and printed[7] == "9.9999999999999995e-07"
    assert all(len(t.split("e")[0]) == 18 for i, t in enumerate(printed)
               if i != 3)


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_an_exponent_estimate_one_off_fails_the_certificate(
        monkeypatch, kernel_calls, shift):
    # every element's estimate of floor(log10 |x|) one off: the kernel must
    # decline the list, and the %-format call print it
    values = [v for k in range(-324, 309, 7)
              for v in _ulps_around(float(f"1e{k}")) if 0.0 < v < math.inf]
    values += _mixed_doubles(np.random.default_rng(4), 500).tolist()
    floor = np.floor
    monkeypatch.setattr(np, "floor", lambda a: floor(a) + shift)
    assert dumps_canonical(values) == _per_element(values)
    assert _sizes(kernel_calls) == [(len(values), True)]


@pytest.mark.parametrize("values", [
    [2.0 ** -25] * 600,
    [0.5, 80074350687810.56] * 300,
    [80074350687810.56] + [0.25] * (_FORMAT_FROM - 1),
    [0.25] * (_FORMAT_FROM - 1) + [-80074350687810.56],
], ids=["2^-25", "interleaved", "first", "last"])
def test_ties_take_the_per_element_fallback(values):
    # 2^-25 = 2.98023223876953125e-08 and 80074350687810.5625 lie half way
    # between two 17-digit decimals: the kernel leaves their lists to the
    # %-format call
    assert format(2.0 ** -25, ".17g") == "2.9802322387695312e-08"
    assert format(80074350687810.56, ".17g") == "80074350687810.562"
    _assert_long_list(values)


def test_signed_zeros_and_subnormals_in_long_lists():
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0] * 100
    _assert_long_list(values)
    assert dumps_canonical([-0.0] * _FORMAT_FROM) == \
        "[" + ",".join(["-0"] * _FORMAT_FROM) + "]"


@pytest.mark.parametrize("special, name", [
    (math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")])
@pytest.mark.parametrize("at", [0, _FORMAT_FROM, 2 * _FORMAT_FROM - 1])
def test_long_lists_with_nan_or_inf_keep_their_names(kernel_calls, special, name, at):
    values = [0.1 * i for i in range(2 * _FORMAT_FROM)]
    values[at] = special
    text = dumps_canonical(values)
    assert text == _per_element(values)
    assert text.count(name) == 1 and "nan" not in text and "inf" not in text
    assert dumps_canonical(np.array(values)) == text
    assert kernel_calls == []


def test_the_kernel_runs_from_the_cut_on(kernel_calls):
    values = [1.0 / 3.0] * _FORMAT_FROM
    assert dumps_canonical(values[1:]) == _per_element(values[1:])
    assert kernel_calls == []
    assert dumps_canonical(values) == _per_element(values)
    assert dumps_canonical({"probs": np.array(values)}) == \
        '{"probs":' + _per_element(values) + "}"
    assert _sizes(kernel_calls) == [(_FORMAT_FROM, False)] * 2


def test_exact_powers_of_ten_take_the_kernel(kernel_calls):
    # y = 10^16 exactly: x rounded to 17 digits is 10^X from either side
    values = [float(10 ** k) for k in range(23)] * 6
    values += [-v for v in values] + [0.5, 0.0]
    _assert_long_list(values)
    assert _sizes(kernel_calls) == [(len(values), False)] * 3


def test_one_tie_sends_the_whole_list_to_the_percent_call(kernel_calls):
    values = [1.0 / 3.0 + i for i in range(300)]
    assert dumps_canonical(values) == _per_element(values)
    values[150] = 2.0 ** -25
    assert dumps_canonical(values) == _per_element(values)
    assert _sizes(kernel_calls) == [(300, False), (300, True)]


@pytest.mark.parametrize("special", [None, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("size", [0, 1, 127, 128, 129, 512, 513])
def test_arrays_print_as_their_lists(size, special):
    values = _mixed_doubles(np.random.default_rng(size), size).tolist()
    if special is not None and size:
        values[size // 2] = special
    expected = oracle(values)
    assert dumps_canonical(values) == expected
    assert dumps_canonical(np.array(values)) == expected
    assert dumps_canonical({"a": np.array(values)}) == '{"a":' + expected + "}"


def test_a_pmf_reaches_the_kernel_as_its_own_array(kernel_calls):
    p = construct(FamilySpec.binomial(2047, 0.8))
    doc = pmf_to_json(p)
    assert doc["probs"] is p.probs
    assert dumps_canonical(doc) == oracle({"probs": p.probs.tolist()})
    [(values, text)] = kernel_calls
    assert values is p.probs and text is not None


def test_the_kernel_tables_are_built_on_the_first_long_list():
    # a fresh interpreter, since the suite has printed long lists already;
    # the manifest's long lists: the kernel takes the first two and
    # declines the third, which holds subnormals
    script = textwrap.dedent("""
        import thinpower.cli
        from thinpower import jsonio
        from test_pinned_outputs import MANIFEST, long_lists
        print(jsonio._tables.cache_info().currsize)
        print([jsonio._format_floats(v) is not None for v in long_lists()])
        print(MANIFEST["long_lists"].build()[0])
        print(jsonio._tables.cache_info().currsize)
    """)
    src = str(Path(jsonio.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        src, str(Path(__file__).resolve().parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    built, taken, digest, after = proc.stdout.splitlines()
    assert built == "0"
    assert taken == "[True, True, False]"
    assert digest == MANIFEST["long_lists"].digest
    assert after == "1"
