"""The golden manifest: every pinned output of the package, in one table.

MANIFEST maps each entry's name to the SHA-256 of a document and the
builder that returns (digest, document): the JSON that a CLI command
prints or that dumps_canonical writes, read back, or for a bench entry
the unit documents of the worker's seed-1 cycles and the digest that its
`run --seconds 0` prints.  `test_pinned_output` checks each digest, on a
host whose primitives round as where they were recorded
(`recorded_platform`); `tools/golden.py record` writes each document at
the JSON pointer of its name, so `golden.py diff` lists what a re-pin moves.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from thinpower import (FamilySpec, FinitePmf, check_epilike, construct,
                       convolve, entropy, entropy_power,
                       entropy_preserving_path, inverse_thin, mean,
                       rel_entropy_poisson, thin)
from thinpower.cli import main
from thinpower.jsonio import dumps_canonical, pmf_to_json
from thinpower.numerics import poisson_log_terms

BENCH = Path(__file__).resolve().parent.parent / "bench"

poi = lambda r: construct(FamilySpec.poisson(r))


class Pin(NamedTuple):
    digest: str
    build: Callable[[], tuple]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(doc) -> tuple:
    text = dumps_canonical(doc)
    return _sha(text), json.loads(text)


def _cli(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert code == 0, argv
    return _sha(out.getvalue()), json.loads(out.getvalue())


class _Fed(list):
    """The lines the worker feeds a cycle's digest, kept as documents."""

    def __init__(self, digest):
        super().__init__()
        self.digest = digest

    def update(self, line: bytes) -> None:
        self.digest.update(line)
        text = line.decode().rstrip("\n")
        self.append(text if text == "!error" else json.loads(text))


def _bench(name: str) -> tuple:
    """`worker.py run --workload name --seed 1 --seconds 0`, in process:
    with no time to fill, a run digests its min_cycles and stops."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        worker = importlib.import_module("worker")
        cycles, execute = [], worker.execute

        def spy(units, latencies, failures, digest=None, **kwargs):
            if digest is not None:
                digest = _Fed(digest)
                cycles.append(digest)
            execute(units, latencies, failures, digest, **kwargs)

        patch.setattr(worker, "execute", spy)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = worker.main(["run", "--workload", name, "--seed", "1",
                                "--seconds", "0"])
    assert code == 0
    record = json.loads(out.getvalue().splitlines()[-1])
    assert record["failures"] == []
    return record["digest"], {"cycles": cycles,
                              "failures": record["failures"]}


# thin's inputs per family, at the sizes below
THIN_INPUTS = {
    "uniform": lambda n: FinitePmf(np.full(n, 1.0 / n)),
    "poisson": lambda n: _truncated_poisson(n / 2.0, n),
    "binomial": lambda n: construct(FamilySpec.binomial(n - 1, 0.3)),
}
SIZES = (5, 64, 300, 2048)


def _truncated_poisson(rate, n):
    p = np.exp(poisson_log_terms(rate, n - 1)[1])
    return FinitePmf(p / p.sum())


def _thin(family: str) -> tuple:
    return _canonical([pmf_to_json(thin(THIN_INPUTS[family](n), alpha))
                       for n in SIZES for alpha in (0.1, 0.5, 0.9)])


def _inverse_thin() -> tuple:
    cases = [(construct(FamilySpec.binomial(20, 0.2)), 0.5), (poi(2.0), 0.8),
             (construct(FamilySpec.bernoulli_sum(0.2, 0.5, 0.7)), 0.9),
             (construct(FamilySpec.binomial(299, 0.3)), 0.99)]
    return _canonical([pmf_to_json(inverse_thin(x, a)) for x, a in cases])


def family_pmf(family, n, p, seed):
    """A pmf of about n points: a Poisson, a binomial(n - 1, p), or a sum
    of n - 1 Bernoullis drawn from seed."""
    if family == "poisson":
        # a support cut near rate + 10 sqrt(rate) + 30 points lands near n
        rate = ((math.sqrt(100.0 + 4.0 * max(n - 31, 1)) - 10.0) / 2.0) ** 2
        return poi(rate)
    if family == "binomial":
        return construct(FamilySpec.binomial(n - 1, p))
    ps = np.random.default_rng(seed).uniform(0.05, 0.95, n - 1)
    return construct(FamilySpec.bernoulli_sum(*ps))


WIDE_FAMILIES = ["bernoulli_sum", "binomial", "poisson"]


def _wide(family: str) -> tuple:
    docs = []
    for n in (1024, 2048):
        x = family_pmf(family, n, 0.8, n)
        nxt = WIDE_FAMILIES[(WIDE_FAMILIES.index(family) + 1) % 3]
        h = entropy(x)
        docs.append({"entropy": {"nats": h.nats, "bits": h.bits},
                     "entropy_power": entropy_power(x),
                     "rel_entropy_poisson": rel_entropy_poisson(x),
                     "mean": mean(x),
                     "convolve": pmf_to_json(convolve(x, family_pmf(
                         nxt, n, 0.8, n)))})
    return _canonical(docs)


def split(ps, rate, a):
    """X = T_a Z, Y = T_(1-a) Z for Z = a Bernoulli sum + Poisson(rate)."""
    z = convolve(construct(FamilySpec.bernoulli_sum(*ps)), poi(rate))
    return thin(z, a), thin(z, 1.0 - a)


# the bench's interp epilike inputs for seed 1, cycles 0-3: per cycle the
# Poisson rates of one pair, and the Bernoulli sum, Poisson rate and alpha
# of X = T_a Z, Y = T_(1-a) Z
EPILIKE_BENCH_INPUTS = [
    (0.5413386698646026, 1.6302696630122098,
     [0.3467585448491829, 0.7595858330855638, 0.32287534636248044],
     0.2680833944943295, 0.46124519457885166),
    (0.528295839485966, 0.6150542434010532, [0.44366828587306983],
     1.6288640037767042, 0.4139729425091324),
    (0.5746248253877357, 0.6394609115559711,
     [0.8374293640938427, 0.6451114355533921], 1.040231693178435,
     0.6951681975320951),
    (0.6440894032504179, 1.2539811567168928, [0.5869576251460735],
     0.4410336379690707, 0.6174046704003961)]


def _epilike() -> tuple:
    """check_epilike on the 8 pairs above and on two Poisson(4.85)."""
    docs = []
    for rx, ry, ps, rate, a in EPILIKE_BENCH_INPUTS:
        docs += [check_epilike(poi(rx), poi(ry)).to_json(),
                 check_epilike(*split(ps, rate, a)).to_json()]
    docs.append(check_epilike(poi(4.85), poi(4.85)).to_json())
    return _canonical(docs)


# binomial(n, p) and binomial(n, q) with p + q = 1/2: at the merged root
# alpha = p/(p+q) both preimages are binomial(n, 1/2), whose entropy peaks
# there, so H(X*) - H(Y*) touches zero without changing sign, and only
# check_epilike's golden section finds that zero
TANGENT_PAIRS = [(4, 0.2, 0.3), (10, 0.2, 0.3)]


def _epilike_tangent() -> tuple:
    binom = lambda n, p: construct(FamilySpec.binomial(n, p))
    return _canonical([check_epilike(binom(n, p), binom(n, q)).to_json()
                       for n, p, q in TANGENT_PAIRS])


def _fast_path() -> tuple:
    """The path, V and check_epilike as FinitePmf's memo serves them.
    None of them reads log k! past the shipped table: V of the uniform
    pmfs on 300 and 2048 points does, and the grown_v entry pins it."""
    return _canonical([
        entropy_preserving_path(
            construct(FamilySpec.binomial(40, 0.3))).to_json(),
        [entropy_power(THIN_INPUTS[family](n))
         for family in sorted(THIN_INPUTS) for n in SIZES
         if family != "uniform" or n < 300],
        check_epilike(poi(2.0), poi(3.0)).to_json(),
        check_epilike(*split(
            [0.5344060761936011, 0.5146398843808033, 0.5424897526728931],
            1.1329111563573413, 0.43177830162982067)).to_json()])


def long_lists() -> list:
    """Three 2048-entry arrays of exact doubles: dumps_canonical's kernel
    takes the first two and declines the third, which holds subnormals."""
    rng = np.random.default_rng(2048)
    return [rng.random(2048)] + [
        np.ldexp(rng.random(2048) - 0.5, rng.integers(lo, hi, 2048))
        for lo, hi in ((-900, 900), (-1060, 1020))]


_BIN2 = '{"family": "binomial", "n": 2, "p": 0.4}'
_BE3 = '{"family": "bernoulli", "p": 0.3}'
_PO = '{"family": "poisson", "rate": 1.5}'
_SIMPLEX = ["--pmf", _BE3, "--pmf", _BIN2, "--pmf", _PO,
            "--alphas", "0.2,0.3,0.5"]
_THIRD = "0.3333333333333333"
_BIN = '{"family": "binomial", "n": %d, "p": %s}'
# pmfs of 1919, 1313 and 1802 points, printed by dumps_canonical's
# long-list kernel: Poisson(1500) opens with 286 zeros, and the thinned
# binomial and the convolution reach subnormals with three-digit exponents
LONG_COMMANDS = [
    ("construct", "--spec", '{"family": "poisson", "rate": 1500}'),
    ("thin", "--alpha", "0.3", "--pmf", _BIN % (2047, "0.8")),
    ("conv", "--pmf", _BIN % (1000, "0.5"), "--pmf", _BIN % (1000, "0.5"))]
# each command's stdout
CLI = [
    (("verify", "--all"),
     "2de187b5b9709d70f10ad9c9c5194e0c3a74bb46781efc4f5254c59aee00b8e7"),
] + [
    (("search", "--name", name, "--trials", "40", "--seed", "5"), digest)
    for name, digest in (
        ("firstepi", "40aa15675c2d62ecebb05245db51d8dfc6525f5c3da567d2ea64fecaf3df5713"),
        ("tepi", "a7057f5d839a1964ca78bfbf325366a1dcac712eb98bbf96b44c694f21fd5504"),
        ("teci", "29d94120d78faa82f36659f6237c766a839136f0fab402cf9aff79a8b7c67ab1"),
        ("rtepi", "2938c1c08a706a14b6f09c9ff7ad0294273342da3e0f815b358b2b177f118633"),
        ("hmon", "fc020bf275a27cf588e6410434f4a852b8ccbdb8b8cf0cbc9105e3f12f7f0a6e"),
        ("dsub", "ddef8b8476e82b83fbbbe930b18b292429a8f390db714a3003b7e30d231a1881"),
        ("isop", "9e22b97a3203c66ec6f03fe6416f1e07a25b246659dc45f69417172a7e042558"))
] + [
    (("reproduce", "--example", example), digest)
    for example, digest in (
        ("fail1", "241d4c860b8c2901372d83f54231e3999d130b3e98e214aa35948499d33b88ba"),
        ("fail2", "a7544ed5fc03f5bcedcc4a5cd40a3a867ae5836a73bea453df069114675bb661"),
        ("binoineq", "e9ff3f8fed91a09d34e4d51bf2d951dcb87543d6960f57a31b025b27c8d18133"))
] + [
    (("splitting", "--l", "1", "--t", "0.3", "--lambdas", "0.5,2,1.25",
      "--alphas", "0.2,0.3,0.5"),
     "3627bbc5afbaa2547ef40d662f8590a1a97ba1c631a2537de6a13607f8df2db3"),
    (("hessian", "--specs", f"[{_BE3}, {_BIN2}, {_PO}]",
      "--alphas", "0.2,0.3,0.5", "--fd-check"),
     "ab158290ac04a19d86f1de8623b25ec0385ba9dd893cd538c8d92142e8e8cf60"),
] + [
    (("functional", "--name", name, "--pmf", _BIN2), digest)
    for name, digest in (
        ("L", "1b272b1945f729f34ee2e2f4687becbbb7d4cb5d6dd590957ce92e048a5e74fc"),
        ("Lambda", "53c7b1d8efa3ce8fb961c17bf5841b503d6763bf022b2bc25272bf78c1bd69ed"),
        ("D", "85fbc396b99031ea4f1ae59478b1459b0c5fe7cea504e3182643e0d499d68e3b"),
        ("U", "efcb290b01c4ee15f06e8e09da3f7eb189ed1430ed2bb8fc5b6faf9e844d4b25"))
] + [
    (("check", "--name", "hmon", *_SIMPLEX),
     "e0ac0eaa86ed57feac9dd20848a1a2c2ba17f0f80c4bc65914b55c70cfeb1f35"),
    (("check", "--name", "dsub", *_SIMPLEX),
     "89bcf8503752b9ea34c97532e0d7fed80791cb38e71ebb288a7045695c88ee1d"),
    (("check", "--name", "discepilike", "--pmf", _BIN2, "--pmf", _BIN2,
      "--pmf", _BIN2, "--alphas", ",".join([_THIRD] * 3)),
     "79f6d6a198163acc83dedd6d6088e17b725ad01472c62277ce9d495270c4d3d0"),
] + list(zip(LONG_COMMANDS, [
    "1023f02bf361fa96caf372e44401db36c595b8d17eed8810aa8ab63e86e0049c",
    "b8974476874d76dae24988aacc2d839d92e88906c8ca0a773e5f46a3d3575e1a",
    "38b6841f7cee96f730446bf04103ec986bdb501dfa205bc4988bf21f8d10599a"]))

MANIFEST = {
    # the benchmark's seed-1 digests, as `bench/run.py --seed 1` prints them
    **{f"bench/{name}": Pin(digest, partial(_bench, name))
       for name, digest in (
        ("ulc_sweep", "7466c798aafd631c0fd94b02fee9ab3847b2a4aa986f5dcd8d42f0ca16ff736a"),
        ("wide_support", "57830936a62c85f1d3b228157a3326a89c6509965e597754cd9988594f177645"),
        ("interp", "c626f7662be4a6432ae151500294107be6b4fa5c766219148beaf5b11ad64757"))},
    # recorded once thin's blocked Taylor shift, and inverse_thin's shift
    # by 1/alpha, met the mpmath oracles of test_transforms.py
    **{f"thin/{family}": Pin(digest, partial(_thin, family))
       for family, digest in (
        ("binomial", "2f30636cf6ddffe03cf26b9cf98ffe6e65471c56bacfe1d4501ec6188e75a1a7"),
        ("poisson", "da5f7cd16d63162a75e5a3b48006cf56f7f308413a2d4f50f5c4f331b1cb4abe"),
        ("uniform", "ff6241ae27d19d756a94654e67d8465618930695cb8896d29c14b6767d5145b4"))},
    "inverse_thin": Pin(
        "0fd1ee79829065ecd9fca5b29599bae0d48ff1c1eea448f6c0522ce86d9897b3",
        _inverse_thin),
    # recorded when fsum was math.fsum over the whole list
    **{f"wide/{family}": Pin(digest, partial(_wide, family))
       for family, digest in (
        ("bernoulli_sum", "aa28cb2db36812a4a2830d36c07950ebc7c5d8d339756d6277f5168f4d3adb25"),
        ("binomial", "d6d84343c2f6bde8aacb2b82737b2294201f63a75e23cca005901dfdde770682"),
        ("poisson", "b3715cea6eb3c560f4df1b2c4fd14bb56438b63ce3b6960c73c3d3b5ab86e065"))},
    # recorded once epilike's sign changes were refined by Illinois steps
    # and the path's solves started from extrapolated rates
    "epilike": Pin(
        "f03551f73a9250656dc0c38531109b70cff61e85c97d4c181a7bc42e2e70a215",
        _epilike),
    # recorded once golden section placed each point in the larger side
    # of its best one: alpha moved 1.8e-10 and 5.8e-8, both within 3e-8 of
    # the merged root 0.4, and the second margin 8 ulps
    "epilike_tangent": Pin(
        "8cd28a0b4fbaaaeb64f3c2ac5d5afb6c37f08d12293d1441f0388593ab14ec53",
        _epilike_tangent),
    # V of the uniform pmfs on 300 and 2048 points: their solves read log k!
    # past the table, from math.lgamma.  mpmath puts the roots at
    # 5269.6515170369 and 245575.9592287, which V meets to the digits given
    # (7e-16 and 1.1e-13 relative).  Recorded once the Poisson log pmf took
    # Loader's form and V its final Newton step: the cancellation in
    # z log t - t - log z! had left them at -4.6e-12 and -1.3e-9.  Both
    # rates lie beyond the envelope of rates up to 2000
    "grown_v": Pin(
        "9d4adf8bddeb7de8c71d46b30e2224d1dda7aec3d39312febbebe73abab194e4",
        lambda: _canonical([entropy_power(THIN_INPUTS["uniform"](n))
                            for n in (300, 2048)])),
    "fast_path": Pin(
        "74ae6dbb59c2cb4876f307306157d6cdcd4bb8546abfa07b7fd326d98590021d",
        _fast_path),
    # recorded while the JSON kernel's tables were still built at import
    "long_lists": Pin(
        "752822b11ce760310e196de0ab2fc20df4219c78ab907234019237ca24792e5c",
        lambda: _canonical([v.tolist() for v in long_lists()])),
    **{"cli/" + " ".join(argv): Pin(digest, partial(_cli, argv))
       for argv, digest in CLI},
}


@pytest.mark.parametrize("name", MANIFEST)
def test_pinned_output(recorded_platform, name):
    digest, _ = MANIFEST[name].build()
    assert digest == MANIFEST[name].digest
