"""The benchmark's seed-1 output digests, pinned.

`python3 bench/run.py --workload W --seed 1` prints the SHA-256 of the
canonical JSON of its first `min_cycles` cycles.  This test makes that
run in process, through the benchmark worker's own `main`, which it
imports and leaves as it is, so that a change to any output byte of a
workload fails here and not only in a bench run.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

SEED = 1
BENCH_DIGESTS = {
    "ulc_sweep":
        "655983c3d98107102cb0f6a3dbdd4007b147e3ed02125136780ca24d8b41c217",
    "wide_support":
        "126c2f99ba0053a665ec967b4055ffb62eb25416c544f01dc59147815fa22720",
    "interp":
        "28ae5c2882973488320917f0c4b66ff7ede279302b2fa534da75e74fe0804798",
}


@pytest.fixture(scope="module")
def bench_worker():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        yield importlib.import_module("worker")


@pytest.mark.parametrize("name", sorted(BENCH_DIGESTS))
def test_seed_one_bench_digest(recorded_platform, bench_worker, capsys, name):
    # with no time to fill, a run digests its min_cycles and stops
    code = bench_worker.main(["run", "--workload", name, "--seed", str(SEED),
                              "--seconds", "0"])
    assert code == 0
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert record["failures"] == []
    assert record["digest"] == BENCH_DIGESTS[name]
