"""The benchmark's workloads: seeded inputs, timed units and output checks.

A workload is a list of cycles.  Cycle i is built by ``Workload.cycle`` from
a generator seeded with (seed, i), so a seed fixes every input.  Each cycle
has the same mix of unit kinds; only the drawn parameters change, which
keeps run-to-run spread small while the inputs still vary with the seed.

Units call thinpower through module attributes (``tp.thin``, ``hes.*``) at
call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import thinpower as tp
from thinpower import hessian as hes
from thinpower import jsonio
from thinpower.inequality_suite import ALPHA_GRID

CFG = tp.DEFAULT_TOLERANCES


class CheckFailed(Exception):
    """A unit's output breaks a property the library guarantees."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Unit:
    """One timed call: ``run`` computes, ``check`` validates its value."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[np.random.Generator], list]
    tail_pct: float        # fixed so that >= 10 samples lie beyond it
    min_cycles: int        # always run, and digested, in every run
    trace_cycles: int      # cycles run (untraced, then traced) with --trace 1
    fixed: Callable[[], list] = lambda: []   # untimed checks, once per run


def to_doc(value):
    """The canonical-JSON document of a unit's value, as the CLI prints it."""
    if isinstance(value, tp.FinitePmf):
        return jsonio.pmf_to_json(value)
    if isinstance(value, tp.EntropyValue):
        return {"nats": value.nats, "bits": value.bits}
    return value


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------- ulc_sweep

PROVED = frozenset({"teci", "rtepi", "isop", "hmon", "dsub"})
# Verdict weights: criterion 3's teci:rtepi:isop:hmon:dsub = 5:5:5:1:1, plus
# the refuted tepi and firstepi at 1 each.  A trial of an alpha-swept
# statement gives one verdict per ALPHA_GRID alpha, any other trial one.
# Weighting verdicts rather than trials puts the median inside the isop
# cluster instead of in the gap between cheap and V-bound verdicts.
VERDICT_WEIGHTS = {"teci": 5, "rtepi": 5, "isop": 5, "hmon": 1, "dsub": 1,
                   "tepi": 1, "firstepi": 1}
SWEPT = frozenset({"teci", "rtepi", "tepi"})
TRIALS = tuple(name for name, weight in VERDICT_WEIGHTS.items()
               for _ in range(weight if name in SWEPT
                              else weight * len(ALPHA_GRID)))


def _ulc(rng, bernoullis, poisson_share: float) -> tp.FinitePmf:
    """Bernoulli convolution, times a Poisson(<= 2) factor with the given odds.

    Both factors are ultra log-concave, so the product is too.  The Poisson
    factor's support is cut at tail_eps, which lengthens it to ~20-60 points.
    """
    count = int(rng.integers(bernoullis[0], bernoullis[1] + 1))
    pmf = tp.construct(tp.FamilySpec.bernoulli_sum(
        *rng.uniform(0.05, 0.95, size=count)))
    if rng.random() < poisson_share:
        rate = float(rng.uniform(0.0, 2.0))
        pmf = tp.convolve(pmf, tp.construct(tp.FamilySpec.poisson(rate)))
    return pmf


def _verdict_check(name: str):
    proved = name in PROVED

    def check(v):
        expect(v.name == name, f"verdict named {v.name!r}, expected {name!r}")
        expect(_finite(v.lhs, v.rhs, v.margin), f"{name}: non-finite sides")
        expect(v.holds == (v.margin >= -CFG.tol_ineq),
               f"{name}: holds={v.holds} disagrees with margin {v.margin!r}")
        if proved:
            expect(v.holds, f"proved {name} violated, margin {v.margin:.3e}")
    return check


def _simplex(rng, size: int) -> np.ndarray:
    alphas = rng.dirichlet(np.full(size, 2.0))
    return alphas / math.fsum(alphas)


def _trial(rng, name: str) -> list:
    def draw():
        return _ulc(rng, (2, 14), 0.5)

    check = _verdict_check(name)
    if name in ("teci", "tepi"):
        x, y = draw(), draw()
        fn = "check_teci" if name == "teci" else "check_conjecture_tepi"
        return [Unit(name, lambda a=float(a): getattr(tp, fn)(x, y, a), check)
                for a in ALPHA_GRID]
    if name == "rtepi":
        x = draw()
        return [Unit(name, lambda a=float(a): tp.check_rtepi(x, a), check)
                for a in ALPHA_GRID]
    if name == "isop":
        x = draw()
        return [Unit(name, lambda: tp.isoperimetric_check(x), check)]
    if name == "firstepi":
        x, y = draw(), draw()
        return [Unit(name, lambda: tp.check_conjecture_v_superadd(x, y), check)]
    xs = [draw() for _ in range(int(rng.integers(2, 4)))]
    alphas = _simplex(rng, len(xs))
    fn = "check_hmon" if name == "hmon" else "check_dsub"
    return [Unit(name, lambda: getattr(tp, fn)(xs, alphas), check)]


def ulc_sweep_cycle(rng) -> list:
    return [unit for i in rng.permutation(len(TRIALS))
            for unit in _trial(rng, TRIALS[i])]


def _refuted(name: str, run, margin_below: float) -> Unit:
    def check(v):
        expect(not v.holds and v.margin < margin_below,
               f"{name} counterexample no longer refutes: margin {v.margin!r}")
    return Unit(name, run, check)


def ulc_sweep_fixed() -> list:
    """The two published counterexamples must stay refuted."""
    third = tp.construct(tp.FamilySpec.raw([1 / 6, 2 / 3, 1 / 6]))
    fail2_x = tp.convolve(tp.construct(tp.FamilySpec.bernoulli(1 / 3)),
                          tp.construct(tp.FamilySpec.poisson(1.0)))
    fail2_y = tp.construct(tp.FamilySpec.poisson(1000.0))
    return [
        _refuted("fail1", lambda: tp.check_conjecture_v_superadd(third, third),
                 -1e-6),
        _refuted("fail2", lambda: tp.check_conjecture_tepi(fail2_x, fail2_y,
                                                           0.999), 0.0),
    ]


# ------------------------------------------------------------- wide_support

# largest first, so the warm-up unit grows the log-factorial table fully
WIDE_SIZES = (2048, 1024, 256, 64)
WIDE_ALPHAS = (0.1, 0.5, 0.9)


def _poisson_rate_for(n: int) -> float:
    """A rate whose truncated support (~rate + 10 sqrt(rate) + 30) is ~n."""
    return ((-10.0 + math.sqrt(100.0 + 4.0 * (n - 31))) / 2.0) ** 2


def _mean_close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def _v_close(v: float, t: float) -> bool:
    """V(Poisson(t)) = t, relative to t: E(t) is documented to 1e-11
    absolute and E'(t) ~ 1/(2t), so V's documented error grows like t."""
    return abs(v - t) <= 1e-9 * max(1.0, t)


def _wide_units(x, rate, partner) -> list:
    """Units on one input; rate is set when x is a Poisson(rate)."""
    state = {}
    mean_x = tp.mean(x)

    def thin_check(a):
        def check(out):
            expect(len(out) <= len(x), "thinning lengthened the support")
            expect(abs(math.fsum(out.probs) - 1.0) <= CFG.tol_norm,
                   "thinning lost mass")
            expect(_mean_close(tp.mean(out), a * mean_x),
                   "thinning moved the mean off alpha * mean")
            if rate is not None:
                ref = tp.construct(tp.FamilySpec.poisson(a * rate))
                tv = tp.total_variation(out, ref)
                expect(tv <= 1e-10, f"Poisson closure broken: TV {tv:.3e}")
            state[a] = out
        return check

    def entropy_check(h):
        expect(0.0 <= h.nats <= math.log(len(x)) + 1e-12, "entropy out of range")
        if rate is not None:
            gap = abs(h.nats - tp.poisson_entropy(rate))
            expect(gap <= 1e-10, f"H(Poisson) off E(rate) by {gap:.3e}")

    def v_check(v):
        expect(math.isfinite(v) and v > 0.0, f"V = {v!r}")
        if rate is not None:
            expect(_v_close(v, rate), f"V(Poisson({rate!r})) = {v!r}")
        state["v"] = v

    def v_thin_check(v):
        # rtepi: V(T_a X) >= a V(X) for ULC X; equality for Poisson X
        expect(v >= 0.5 * state["v"] - CFG.tol_ineq * max(1.0, v),
               f"V(thin) = {v!r} below 0.5 V(x) = {0.5 * state['v']!r}")
        if rate is not None:
            expect(_v_close(v, 0.5 * rate),
                   f"V(T_0.5 Poisson({rate!r})) = {v!r}")

    def d_check(d):
        # D >= 0 up to rounding; the exact sign is an envelope probe
        expect(math.isfinite(d) and d >= -1e-10, f"D = {d!r}")
        if rate is not None:
            expect(d <= 1e-10, f"D(Poisson) = {d!r}")

    def conv_check(out):
        expect(len(out) <= len(x) + len(partner) - 1, "convolution too long")
        expect(abs(math.fsum(out.probs) - 1.0) <= CFG.tol_norm,
               "convolution lost mass")
        expect(_mean_close(tp.mean(out), mean_x + tp.mean(partner)),
               "convolution mean is not additive")

    units = [Unit("thin", lambda a=a: tp.thin(x, a), thin_check(a))
             for a in WIDE_ALPHAS]
    return units + [
        Unit("entropy", lambda: tp.entropy(x), entropy_check),
        Unit("entropy_power", lambda: tp.entropy_power(x), v_check),
        Unit("entropy_power_thinned", lambda: tp.entropy_power(state[0.5]),
             v_thin_check),
        Unit("rel_entropy_poisson", lambda: tp.rel_entropy_poisson(x), d_check),
        Unit("convolve", lambda: tp.convolve(x, partner), conv_check),
    ]


def wide_support_cycle(rng) -> list:
    units = []
    for n in WIDE_SIZES:
        rate = _poisson_rate_for(n) * float(rng.uniform(0.95, 1.0))
        inputs = [
            # p >= 0.7 keeps the top mass above underflow: all N points stay
            (tp.construct(tp.FamilySpec.binomial(n - 1, float(rng.uniform(0.7, 0.9)))),
             None),
            (tp.construct(tp.FamilySpec.poisson(rate)), rate),
            (tp.construct(tp.FamilySpec.bernoulli_sum(
                *rng.uniform(0.05, 0.95, size=n - 1))), None),
        ]
        for i, (x, r) in enumerate(inputs):
            units += _wide_units(x, r, inputs[(i + 1) % len(inputs)][0])
    return units


@dataclass(frozen=True)
class Probe:
    """An untimed envelope case the library claims but mishandles today."""

    name: str
    defect: str
    run: Callable[[], None]   # raises CheckFailed or a library error


def _probe_thin(n: int):
    def run():
        x = tp.FinitePmf(np.full(n, 1.0 / n))
        out = tp.thin(x, 0.5)
        expect(abs(math.fsum(out.probs) - 1.0) <= CFG.tol_norm, "mass lost")
        expect(_mean_close(tp.mean(out), 0.5 * tp.mean(x)), "mean moved")
    return run


def _probe_roundtrip(spec, alpha: float):
    def run():
        x = tp.construct(spec)
        back = tp.inverse_thin(tp.thin(x, alpha), alpha)
        tv = tp.total_variation(back, x)
        expect(tv <= 1e-10, f"round trip off by TV {tv:.3e}")
    return run


def _probe_d_sign():
    d = tp.rel_entropy_poisson(tp.construct(tp.FamilySpec.poisson(1590.0)))
    expect(d >= 0.0, f"D(Poisson(1590)) = {d!r} is negative")


PROBES = (
    Probe("thin_uniform_2829", "thin: IndexError above 2828 points",
          _probe_thin(2829)),
    Probe("thin_uniform_4096", "thin: IndexError above 2828 points",
          _probe_thin(4096)),
    Probe("roundtrip_binomial128_a0.5",
          "inverse_thin: false NotThinnableError from N ~ 135 at a = 0.5",
          _probe_roundtrip(tp.FamilySpec.binomial(128, 0.5), 0.5)),
    Probe("roundtrip_binomial600_a0.9",
          "inverse_thin: false NotThinnableError from N ~ 530 at a = 0.9",
          _probe_roundtrip(tp.FamilySpec.binomial(600, 0.5), 0.9)),
    Probe("roundtrip_poisson160_a0.9",
          "inverse_thin: silently inaccurate preimage (TV 1.4e-3)",
          _probe_roundtrip(tp.FamilySpec.poisson(160.0), 0.9)),
    Probe("roundtrip_binomial64_a0.5",
          "inverse_thin: silently inaccurate preimage (TV 3e-6)",
          _probe_roundtrip(tp.FamilySpec.binomial(64, 0.5), 0.5)),
    Probe("rel_entropy_poisson_sign",
          "rel_entropy_poisson: rounding clamp of 1e-12 lets D read -1.2e-12 "
          "at N ~ 2000", _probe_d_sign),
)

# A thinnable input may be refused only with a typed error that says the
# answer cannot be decided in double precision, never "not thinnable".
_REFUSALS_NOT_ALLOWED = (tp.NotThinnableError, tp.ParameterError)


def run_probe(probe: Probe) -> dict:
    try:
        probe.run()
    except CheckFailed as exc:
        return {"outcome": "fail", "detail": str(exc)}
    except _REFUSALS_NOT_ALLOWED as exc:
        return {"outcome": "fail", "detail": f"{type(exc).__name__}: {exc}"}
    except Exception as exc:
        typed = type(exc).__module__ == "thinpower.errors"
        return {"outcome": "typed_error" if typed else "fail",
                "detail": f"{type(exc).__name__}: {exc}"}
    return {"outcome": "ok", "detail": ""}


# ------------------------------------------------------------------ interp

BIN40 = tp.FamilySpec.binomial(40, 0.3)


def _path_input(rng) -> tp.FinitePmf:
    """A criterion-6 input: 1-3 Bernoullis and a Poisson factor, with L > 0."""
    while True:
        x = _ulc(rng, (1, 3), 1.0)
        if tp.l_functional(x) > 0.0:
            return x


def _path_check(report):
    expect(_finite(report.f0_extrapolated, report.v_target), "non-finite f0")
    gap = abs(report.f0_extrapolated - report.v_target)
    # linear extrapolation error grows with the rate, so the 1e-3 of
    # criterion 6 is applied per unit of V once V exceeds 1
    expect(gap <= 1e-3 * max(1.0, report.v_target),
           f"f(0) gap {gap:.3e} at V = {report.v_target:.4g}")
    step = float(np.max(np.diff(report.u_vals)))
    expect(step <= 1e-8, f"U increased along the path by {step:.3e}")


def _epilike_check(equality: bool):
    def check(v):
        expect(v.holds, f"epilike violated, margin {v.margin:.3e}")
        if equality:
            expect(abs(v.margin) <= 1e-7, f"Poisson margin {v.margin:.3e}")
        gap = abs(v.inputs["h_xstar"] - v.inputs["h_ystar"])
        expect(gap <= 1e-6, f"preimage entropies differ by {gap:.3e}")
    return check


def _small_ulc(rng) -> tp.FinitePmf:
    """A criterion-7 input: Bernoulli or binomial(2 or 3)."""
    kind = int(rng.integers(0, 3))
    p = float(rng.uniform(0.25, 0.75))
    spec = (tp.FamilySpec.bernoulli(p) if kind == 0
            else tp.FamilySpec.binomial(kind + 1, p))
    return tp.construct(spec)


def _interior_simplex(rng, size: int) -> np.ndarray:
    while True:
        alphas = rng.dirichlet(np.full(size, 5.0))
        if alphas.min() > 0.05 and alphas.max() < 0.9:
            return alphas / math.fsum(alphas)


def _hessian_unit(rng) -> Unit:
    """One `hessian --fd-check` report on a three-factor criterion-7 table.

    Always three factors, the most criterion 7 draws: two-factor tables cost
    a third as much, and a seed-dependent mix of both would move the median.
    """
    xs = [_small_ulc(rng) for _ in range(3)]
    alphas = _interior_simplex(rng, len(xs))

    def run():
        return [hes.hessian_analytic(xs, alphas),
                hes.hessian_fd(xs, alphas, step=1e-4)]

    def check(pair):
        analytic, numeric = pair
        expect(bool(np.all(np.isfinite(analytic))), "non-finite analytic Hessian")
        # criterion 7 tolerance
        excess = np.abs(analytic - numeric) - (1e-5 * np.abs(analytic) + 1e-8)
        expect(float(excess.max()) <= 0.0,
               f"analytic and FD Hessians differ beyond tolerance by {excess.max():.3e}")
    return Unit("hessian", run, check)


def _quadratic_form_unit(rng) -> Unit:
    xs = [_small_ulc(rng) for _ in range(int(rng.integers(2, 4)))]
    alphas = _interior_simplex(rng, len(xs))
    leave = int(rng.integers(0, len(xs)))
    grid = np.linspace(0.1, 0.9, 9)

    def check(verdicts):
        bad = [v.margin for v in verdicts if not v.holds]
        expect(not bad, f"quadratic form verdicts failed: margins {bad}")
    return Unit("check_quadratic_form",
                lambda: hes.check_quadratic_form(xs, alphas, leave, grid), check)


def _pde_unit(rng) -> Unit:
    x = _ulc(rng, (1, 3), 1.0)
    t = float(rng.uniform(0.05, 0.93))

    def check(residual):
        expect(math.isfinite(residual) and residual < 1e-6,
               f"evolution-equation residual {residual!r}")
    return Unit("pde_residual",
                lambda: tp.pde_residual(x, t, 0.0, 0.0, CFG.fd_step), check)


def interp_cycle(rng) -> list:
    # 4 heavy reports (path, epilike), 4 light ones (pde_residual) and 5
    # middle ones (hessian, quadratic form): the median sits mid-cluster
    path_x = _path_input(rng)
    bin40 = tp.construct(BIN40)
    rx, ry = rng.uniform(0.5, 2.0, size=2)
    px = tp.construct(tp.FamilySpec.poisson(float(rx)))
    py = tp.construct(tp.FamilySpec.poisson(float(ry)))
    # a pair with a known decomposition: X = T_a Z, Y = T_(1-a) Z
    z = _ulc(rng, (1, 3), 1.0)
    a = float(rng.uniform(0.3, 0.7))
    ex, ey = tp.thin(z, a), tp.thin(z, 1.0 - a)
    return ([Unit("path", lambda: tp.entropy_preserving_path(path_x), _path_check),
             Unit("path", lambda: tp.entropy_preserving_path(bin40), _path_check),
             Unit("epilike", lambda: tp.check_epilike(px, py),
                  _epilike_check(True)),
             Unit("epilike", lambda: tp.check_epilike(ex, ey),
                  _epilike_check(False))]
            + [_pde_unit(rng) for _ in range(4)]
            + [_hessian_unit(rng) for _ in range(4)]
            + [_quadratic_form_unit(rng)])


WORKLOADS = {
    "ulc_sweep": Workload("ulc_sweep", ulc_sweep_cycle, tail_pct=99.0,
                          min_cycles=3, trace_cycles=8,
                          fixed=ulc_sweep_fixed),
    "wide_support": Workload("wide_support", wide_support_cycle,
                             tail_pct=95.0, min_cycles=1, trace_cycles=3),
    "interp": Workload("interp", interp_cycle, tail_pct=90.0, min_cycles=2,
                       trace_cycles=4),
}
