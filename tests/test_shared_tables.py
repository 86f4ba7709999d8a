"""Threads share the tables the package builds once: numerics' records of
k, log(k + 1), log(k!) and log P(Poisson(k) = k), and V's start table.
Each sits behind functools.cache, so a thread sees a whole table or
builds its own, with the same bits.  thin's LRU of Pascal blocks, which
every thinned sum reads, has no lock: a race may build a block twice or
evict one early, but every block for the same a holds the same bits, and
the cache never keeps more than _BLOCKS_MAX of them.

Threads switch every microsecond here, so that a table read while another
thread builds it would show: each test starts its threads together from
cleared caches, many times over, and the switch interval and the caches
are restored afterwards.
"""

import sys
import threading

import numpy as np
import pytest

from thinpower import (FinitePmf, check_dsub, check_hmon, entropy_functionals,
                       entropy_power, numerics, random_ulc, thin, transforms)

PROBS = [random_ulc(seed).probs for seed in range(64)]


@pytest.fixture
def fine_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)
    entropy_functionals._start_table.cache_clear()
    numerics._grown.cache_clear()


def _in_threads(count, work) -> list:
    """[work(0), ..., work(count - 1)], each run in its own thread, the
    threads started together; an exception a call raises stands in for
    its result."""
    barrier = threading.Barrier(count)
    found = [None] * count

    def run(i):
        barrier.wait(timeout=60)
        try:
            found[i] = work(i)
        except Exception as exc:    # reported by the caller's assert
            found[i] = exc
    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return found


def test_first_v_solves_in_8_threads_give_the_serial_bits(fine_switching):
    entropy_functionals._start_table.cache_clear()
    serial = [entropy_power(FinitePmf(p)) for p in PROBS]
    for _ in range(10):
        entropy_functionals._start_table.cache_clear()
        found = _in_threads(8, lambda i: [entropy_power(FinitePmf(p))
                                          for p in PROBS[i::8]])
        for i, values in enumerate(found):
            assert values == serial[i::8]


def test_6_threads_growing_the_tables_raise_nothing(fine_switching):
    # supports past the shipped 4096 entries, over records of 8192 and
    # 16384; rate 500 takes Loader's form, which reads the fourth table
    tops = [4096 + 1500 * i for i in range(6)]
    serial = [numerics.poisson_log_terms(500.0, n) for n in tops]
    for _ in range(25):
        numerics._grown.cache_clear()
        found = _in_threads(6, lambda i: numerics.poisson_log_terms(500.0,
                                                                    tops[i]))
        assert [r for r in found if isinstance(r, Exception)] == []
        for terms, n, fresh in zip(found, tops, serial):
            assert [a.size for a in terms] == [n + 1] * 3
            for mine, theirs in zip(terms, fresh):
                assert np.array_equal(mine.view(np.uint64),
                                      theirs.view(np.uint64))


def test_thins_and_simplex_checks_in_8_threads_give_the_serial_bits(
        fine_switching):
    # 100 alphas and the fresh simplex weights of hmon and dsub, more than
    # the cache holds, over pmfs of 2 to 90 points: blocks are built, read,
    # grown, sliced and evicted while other threads read them
    pmfs = [FinitePmf(p) for p in PROBS[:8]] + [FinitePmf(np.ones(90) / 90)]
    thins = [(pmfs[k % len(pmfs)], (k % 100 + 1) / 101.0) for k in range(400)]
    triples = [[FinitePmf(p) for p in PROBS[k:k + 3]] for k in range(0, 48, 3)]
    weights = np.random.default_rng(11).dirichlet(np.full(3, 2.0), size=16)

    def work(i):
        out = [thin(x, a).probs.view(np.uint64).tolist()
               for x, a in thins[i::8]]
        for xs, alphas in zip(triples[i::8], weights[i::8]):
            for check in (check_hmon, check_dsub):
                verdict = check(xs, alphas)
                out.append((verdict.lhs, verdict.rhs))
        return out

    transforms._BLOCKS.clear()
    serial = [work(i) for i in range(8)]
    # a cache that checked its size before keeping a block ended 3 to 30
    # of 30 trials one block past _BLOCKS_MAX
    for _ in range(30):
        transforms._BLOCKS.clear()
        found = _in_threads(8, work)
        assert found == serial
        assert len(transforms._BLOCKS) <= transforms._BLOCKS_MAX
