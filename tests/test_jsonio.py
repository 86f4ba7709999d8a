"""dumps_canonical writes the same bytes as the element-by-element
serialiser it replaced, kept here as the oracle."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thinpower.errors import ParameterError
from thinpower.jsonio import dumps_canonical


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
])
def test_known_texts(doc, text):
    assert dumps_canonical(doc) == text == oracle(doc)


@pytest.mark.parametrize("key", [1, 1.5, None, ("a",)])
def test_non_string_key_raises(key):
    with pytest.raises(ParameterError, match="string keys"):
        dumps_canonical({"a": [1.0], key: 2.0})
