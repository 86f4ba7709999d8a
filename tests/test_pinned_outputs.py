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
     "39ce645511b4cb3f85f1c9fcc36bf2ddc2ae028ce1344aff81efa76bc496dbec"),
] + [
    (("search", "--name", name, "--trials", "40", "--seed", "5"), digest)
    for name, digest in (
        ("firstepi", "c9a3d089c2bd23d342e8a3f2de8c4cb75ece8a3b45b025672c739afa4bffb1cd"),
        ("tepi", "4845a554d9e0204be9ada86df96a5e4fc347fbbbad89fd6794b1de663ddc052d"),
        ("teci", "29d94120d78faa82f36659f6237c766a839136f0fab402cf9aff79a8b7c67ab1"),
        ("rtepi", "34d05cc6cda3cd27c8d2b75a33953f16464b9b85d0816595f12a2f295bb83305"),
        ("hmon", "fc020bf275a27cf588e6410434f4a852b8ccbdb8b8cf0cbc9105e3f12f7f0a6e"),
        ("dsub", "ddef8b8476e82b83fbbbe930b18b292429a8f390db714a3003b7e30d231a1881"),
        ("isop", "f7376ad50a173ec7963b6e96100833151a5db807c65c2d6929fe1df8cbb00f82"))
] + [
    (("reproduce", "--example", example), digest)
    for example, digest in (
        ("fail1", "b343517183f75ef8d8c8b479702241b4910890231313007fec17da8807b5322c"),
        ("fail2", "9602fd8ced1b7066f1e6ce33722bf8012b1f3d1b283d2a6be3547a439d036f0d"),
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
    "913c11c70d9e2cb6cdcc36547279937003d3c3c2972fc3ebbb4f3dd48ca1d396",
    "b8974476874d76dae24988aacc2d839d92e88906c8ca0a773e5f46a3d3575e1a",
    "38b6841f7cee96f730446bf04103ec986bdb501dfa205bc4988bf21f8d10599a"]))

MANIFEST = {
    # the benchmark's seed-1 digests, as `bench/run.py --seed 1` prints them
    **{f"bench/{name}": Pin(digest, partial(_bench, name))
       for name, digest in (
        ("ulc_sweep", "655983c3d98107102cb0f6a3dbdd4007b147e3ed02125136780ca24d8b41c217"),
        ("wide_support", "126c2f99ba0053a665ec967b4055ffb62eb25416c544f01dc59147815fa22720"),
        ("interp", "28ae5c2882973488320917f0c4b66ff7ede279302b2fa534da75e74fe0804798"))},
    # recorded once thin's blocked Taylor shift, and inverse_thin's shift
    # by 1/alpha, met the mpmath oracles of test_transforms.py
    **{f"thin/{family}": Pin(digest, partial(_thin, family))
       for family, digest in (
        ("binomial", "2f30636cf6ddffe03cf26b9cf98ffe6e65471c56bacfe1d4501ec6188e75a1a7"),
        ("poisson", "e383f822658c912df86a4e44a5b60b31eefad49726483b60b89ea9f6b5cc9522"),
        ("uniform", "ff6241ae27d19d756a94654e67d8465618930695cb8896d29c14b6767d5145b4"))},
    "inverse_thin": Pin(
        "0fd1ee79829065ecd9fca5b29599bae0d48ff1c1eea448f6c0522ce86d9897b3",
        _inverse_thin),
    # recorded when fsum was math.fsum over the whole list
    **{f"wide/{family}": Pin(digest, partial(_wide, family))
       for family, digest in (
        ("bernoulli_sum", "5e0ded739bcea2c4713915f287aaed9a7e55c3cedf5c57c07858bf1de801785c"),
        ("binomial", "331ee4e5bbfc3019c6ad9b7f3d8fcec43cd766800ace5de35d3c3bf2f4fb1fa9"),
        ("poisson", "b5ecbc9b7e7ef346794035c7d67020b5bb6afff5b2217c8c84f39473df4b263d"))},
    # recorded once epilike's sign changes were refined by Illinois steps
    # and the path's solves started from extrapolated rates
    "epilike": Pin(
        "f56ffbd99b024a7253674a0a6b399b6b4aa309b8a8391c62e1d213cd680863f1",
        _epilike),
    # V of the uniform pmfs on 300 and 2048 points: their solves read log k!
    # past the table, from math.lgamma.  mpmath puts the roots at
    # 5269.6515170369 and 245575.9592287 (errors -4.6e-12 and -1.3e-9
    # relative); the error comes from the cancellation in
    # z log t - t - log z!, not from log k!.  Both rates lie beyond the
    # envelope of rates up to 2000.  Recorded once the solver's Newton
    # loop took the place of its bracket probe, which had left the first
    # at -6.9e-11
    "grown_v": Pin(
        "c48b215565278d507e7bc9ccc8a3ed6a5571902f31fdc7f5be29186d07019b45",
        lambda: _canonical([entropy_power(THIN_INPUTS["uniform"](n))
                            for n in (300, 2048)])),
    "fast_path": Pin(
        "0d6e647a882b286f5c0456e49ac6bbe1c3833c1dc207793689e30abacb0198dc",
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
