"""thin keeps its Pascal blocks in a small LRU keyed by a (transforms._pascal);
inverse thinning builds a fresh block for each shift and keeps none.
Whatever the cache holds, _taylor_shift gives the bits of a cache-free
build: cold, warm, sliced from a larger block, after the block grows and
after eviction.

Tier-1 draws up to a few dozen examples of each property; the thorough
profile (--hypothesis-profile thorough) draws 2000.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from thinpower import FinitePmf, transforms

_M = transforms._M
_I_MINUS_K = np.maximum(np.subtract.outer(np.arange(_M + 1),
                                          np.arange(_M + 1)), 0)


def reference_shift(probs, a):
    """The shift as built with no cache: the powers by np.cumprod and
    b^(i-k) gathered by index."""
    width = probs.size
    size = min(width, _M + 1)
    powers = np.empty((2, size))
    powers[:, 0] = 1.0
    powers[0, 1:] = a
    powers[1, 1:] = 1.0 - a
    np.cumprod(powers, axis=1, out=powers)
    pascal = (transforms._COMB[:size, :size] * powers[0]
              * powers[1][_I_MINUS_K[:size, :size]])
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


def shift(probs, a):
    """The shift as thin (a < 1, a block from the cache) and inverse_thin
    (a > 1, a fresh block) run it."""
    size = min(probs.size, _M + 1)
    pascal = (transforms._pascal(a, size) if a < 1.0
              else transforms._pascal_stack(a, size))
    return transforms._taylor_shift(probs, pascal)


def _bits(a):
    return np.asarray(a).view(np.uint64)


def shift_matches_reference(probs, a):
    # a > 1 (inverse_thin) may overflow: the same inf and nan either way
    with np.errstate(over="ignore", invalid="ignore"):
        got = shift(probs, a)
        want = reference_shift(probs, a)
    assert len(transforms._BLOCKS) <= transforms._BLOCKS_MAX
    return np.array_equal(_bits(got), _bits(want))


def _pmf(width, seed):
    probs = np.random.default_rng(seed).random(width)
    return probs / probs.sum()


# thinning in (0, 1) and inverse thinning by 1/alpha, down to alphas whose
# inverse overflows the powers (1e-300) or is itself inf (1e-310)
shift_params = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(1e-3, 1.0, exclude_max=True).map(lambda alpha: 1.0 / alpha),
    st.sampled_from([1e-300, 5e-324, 1e-310]).map(lambda alpha: 1.0 / alpha))
widths = st.integers(2, 300)
seeds = st.integers(0, 2 ** 32 - 1)


@given(shift_params, widths, seeds)
def test_cold_and_warm_shifts_match_the_reference(a, width, seed):
    probs = _pmf(width, seed)
    transforms._BLOCKS.clear()
    assert shift_matches_reference(probs, a)     # cold: built here
    assert (a in transforms._BLOCKS) == (a < 1.0)
    assert shift_matches_reference(probs, a)     # warm: read back


@given(shift_params, widths, widths, seeds)
def test_a_block_serves_smaller_and_grows_for_larger_pmfs(a, first, second,
                                                          seed):
    transforms._BLOCKS.clear()
    assert shift_matches_reference(_pmf(first, seed), a)
    # a larger width rebuilds the block at its size, a smaller one slices it
    assert shift_matches_reference(_pmf(second, seed + 1), a)
    if a < 1.0:
        assert (transforms._BLOCKS[a].shape[0]
                == min(max(first, second), _M + 1))
    else:
        assert a not in transforms._BLOCKS
    assert shift_matches_reference(_pmf(first, seed + 2), a)


@given(shift_params, widths, seeds, st.integers(0, 100))
def test_an_evicted_block_is_built_again(a, width, seed, others):
    transforms._BLOCKS.clear()
    assert shift_matches_reference(_pmf(width, seed), a)
    # 64 + others more alphas, all distinct from a, push it out
    fill = [b for b in (0.5 + k / 1024.0 for k in range(200)) if b != a]
    for b in fill[:transforms._BLOCKS_MAX + others]:
        shift(_pmf(3, seed), b)
        assert len(transforms._BLOCKS) <= transforms._BLOCKS_MAX
    assert a not in transforms._BLOCKS
    assert shift_matches_reference(_pmf(width, seed), a)


def test_the_least_recently_used_block_goes_first():
    transforms._BLOCKS.clear()
    probs = _pmf(5, 0)
    for k in range(transforms._BLOCKS_MAX):
        shift(probs, (k + 1) / 128.0)
    shift(probs, 1 / 128.0)    # used again: now newest
    shift(probs, 0.75)
    assert len(transforms._BLOCKS) == transforms._BLOCKS_MAX
    assert 1 / 128.0 in transforms._BLOCKS and 2 / 128.0 not in transforms._BLOCKS
    assert next(reversed(transforms._BLOCKS)) == 0.75


def test_cached_blocks_are_read_only():
    transforms._BLOCKS.clear()
    shift(_pmf(200, 1), 0.3)
    for block in (transforms._BLOCKS[0.3], transforms._pascal(0.3, 10)):
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 2.0
    assert transforms._pascal(0.3, 65)[0, 0] == 1.0


def test_a_single_precision_alpha_shifts_as_its_double():
    # the key and b = 1 - a are formed from the same double, not from a
    # b rounded to single precision
    transforms._BLOCKS.clear()
    probs = _pmf(20, 3)
    a = np.float32(1e-3)
    assert float(np.float32(1.0) - a) != 1.0 - float(a)
    assert np.array_equal(
        _bits(transforms.thin(FinitePmf(probs), a).probs),
        _bits(FinitePmf(reference_shift(probs, float(a))).probs))
    assert list(transforms._BLOCKS) == [float(a)]
