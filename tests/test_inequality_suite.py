"""Inequality checkers, counterexamples, and the randomized search harness."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from thinpower import (DEFAULT_TOLERANCES, DomainError, FamilySpec,
                       IllConditionedError, NotThinnableError, ParameterError,
                       PreconditionError, ToleranceConfig,
                       check_conjecture_tepi, check_conjecture_v_superadd,
                       check_discepilike, check_dsub, check_epilike,
                       check_hmon, check_rtepi, check_teci, check_tepis,
                       construct, convolve, entropy, entropy_power, is_ulc,
                       random_ulc, search, thin)
from thinpower import inequality_suite
from thinpower.hessian import check_quadratic_form
from thinpower.inequality_suite import tepis_ratio_condition
from thinpower.jsonio import dumps_canonical

from test_pinned_outputs import EPILIKE_BENCH_INPUTS, TANGENT_PAIRS, split

bern = lambda p: construct(FamilySpec.bernoulli(p))
poi = lambda r: construct(FamilySpec.poisson(r))
binom = lambda n, p: construct(FamilySpec.binomial(n, p))

FAIL1 = construct(FamilySpec.raw([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0]))


class TestTeci:
    def test_poisson_equality(self):
        assert abs(check_teci(poi(2.0), poi(2.0), 0.3).margin) < 1e-8

    def test_alpha_one_degenerates(self):
        v = check_teci(binom(3, 0.4), poi(1.0), 1.0)
        assert abs(v.margin) < 1e-12

    def test_generic_positive_margin(self):
        v = check_teci(binom(3, 0.2), binom(2, 0.7), 0.5)
        assert v.holds and v.margin > 0.0

    def test_requires_ulc(self):
        geo = construct(FamilySpec.geometric(1.0))
        with pytest.raises(PreconditionError):
            check_teci(geo, bern(0.5), 0.5)
        v = check_teci(geo, bern(0.5), 0.5, allow_non_ulc=True)
        assert v.note == "outside theorem hypotheses"

    def test_alpha_validation(self):
        with pytest.raises(ParameterError):
            check_teci(bern(0.5), bern(0.5), 1.5)


class TestRtepi:
    def test_poisson_scaling_equality(self):
        v = check_rtepi(poi(5.0), 0.4)
        assert abs(v.lhs - 2.0) < 1e-8 and abs(v.margin) < 1e-8

    def test_alpha_one(self):
        assert abs(check_rtepi(binom(4, 0.3), 1.0).margin) < 1e-12

    def test_bernoulli_sum_holds(self):
        v = check_rtepi(construct(FamilySpec.bernoulli_sum(0.5, 0.5, 0.5)), 0.3)
        assert v.holds


# a bench input whose scan holds a tangent zero, refined by golden section
GOLDEN_PAIR = lambda: split(
    [0.6096416682045023, 0.2310182825681486, 0.14179614538352475],
    0.22096324787402688, 0.34355897230787036)


def _bisection_oracle(gap, a0, d0, a1, tol):
    """check_epilike's refinement of a sign change before Illinois steps:
    bisection of [a0, a1], d0 = gap(a0), to width tol."""
    while a1 - a0 > tol:
        am = 0.5 * (a0 + a1)
        a0, a1 = (am, a1) if (gap(am) > 0.0) == (d0 > 0.0) else (a0, am)
    return 0.5 * (a0 + a1)


def _bisect_spied(f, lo, hi, tol):
    """(zero, evaluated points) of inequality_suite._bisect on f."""
    points = []
    zero = inequality_suite._bisect(lambda a: points.append(a) or f(a),
                                    lo, f(lo), hi, f(hi), tol)
    return zero, points


def _max_evaluations(lo, hi, tol):
    # at most three evaluations per halving of the bracket
    return 3 * math.ceil(math.log2((hi - lo) / tol)) + 3


def _one_sign_change():
    """(f, lo, hi) with f(lo), f(hi) of opposite signs and one sign change
    between them: a cubic with one real root, a steep tanh, x**k - c."""
    bracket = st.tuples(st.floats(0.0, 0.45), st.floats(0.1, 0.9),
                        st.floats(0.55, 1.0))
    cubic = st.builds(
        lambda b, c, q, s: (lambda x: s * (x - b[1]) * ((x - c) ** 2 + q),
                            b[0], b[2]),
        bracket, st.floats(-1.0, 2.0), st.floats(1e-3, 1.0),
        st.sampled_from([-1e3, -1.0, 1e-3, 1.0]))
    steep = st.builds(
        lambda b, k, s: (lambda x: s * math.tanh(k * (x - b[1])), b[0], b[2]),
        bracket, st.floats(1.0, 1e6), st.sampled_from([-1.0, 1.0]))
    power = st.builds(
        lambda k, c, hi: (lambda x: x ** k - c, 0.0, hi),
        st.integers(1, 15), st.floats(1e-12, 0.99), st.floats(1.0, 2.0))
    return st.one_of(cubic, steep, power)


def _one_minimum():
    """(g, lo, m, hi) with lo <= m <= hi and |g| unimodal on [lo, hi], least
    at m: c (a - m)^2 + k with k >= 0 (k = 0 a tangent zero), a monotone
    cubic with one simple zero at m, or tanh(s (a - m)) with s <= 10."""
    points = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).map(sorted)
    parabola = st.builds(
        lambda p, c, k: (lambda a: c * (a - p[1]) ** 2 + k, *p),
        points, st.floats(1e-3, 1e3), st.just(0.0) | st.floats(0.0, 1.0))
    # its slope 3u^2 + 2(w - m)u + q in u = a - w stays positive
    cubic = st.builds(
        lambda p, w, q, s: (lambda a: s * (a - p[1]) * (
            (a - w) ** 2 + (w - p[1]) ** 2 / 3.0 + q), *p),
        points, st.floats(-1.0, 2.0), st.floats(1e-3, 1.0),
        st.sampled_from([-1e3, -1.0, 1e-3, 1.0]))
    # a steeper tanh saturates to a plateau golden section cannot search
    tanh = st.builds(
        lambda p, s: (lambda a: math.tanh(s * (a - p[1])), *p),
        points, st.floats(-10.0, 10.0).filter(lambda s: abs(s) >= 1e-3))
    return st.one_of(parabola, cubic, tanh)


class TestGoldenMin:
    @given(_one_minimum(), st.sampled_from([1e-12, 1e-9, 1e-6]))
    def test_finds_the_least_value_in_bounded_steps(self, case, tol):
        g, lo, m, hi = case
        assume(hi - lo > tol)
        points = []
        size, a = inequality_suite._golden_min(
            lambda x: points.append(x) or g(x), lo, hi, tol)
        assert all(lo <= x <= hi for x in points)
        assert size == abs(g(a))
        least = abs(g(m))
        assert abs(size - least) <= 8e-16 * least or abs(a - m) <= tol
        # each step shrinks the bracket to at most 0.691 of its width
        assert len(points) <= math.ceil(
            math.log((hi - lo) / tol) / math.log(1.0 / 0.691)) + 2


class TestIllinoisBisect:
    @given(_one_sign_change(), st.sampled_from([1e-12, 1e-10, 1e-6]))
    def test_lands_within_tol_of_the_sign_change(self, case, tol):
        f, lo, hi = case
        assume(hi - lo > tol and f(lo) * f(hi) < 0.0)
        zero, points = _bisect_spied(f, lo, hi, tol)
        left, right = max(lo, zero - tol), min(hi, zero + tol)
        assert (f(left) > 0.0) != (f(right) > 0.0)
        assert len(points) <= _max_evaluations(lo, hi, tol)

    def test_takes_midpoints_where_regula_falsi_stalls(self):
        # secants through the steep right branch land just right of 0, and
        # a kept end must be halved about 40 times before they move: plain
        # regula falsi stalls, Illinois steps alone took 254 evaluations
        f = lambda x: x - 0.7 if x < 0.7 else 1e12 * (x - 0.7)
        lo, hi, tol = 0.0, 1.0, 1e-10
        zero, points = _bisect_spied(f, lo, hi, tol)
        assert abs(zero - 0.7) <= tol
        assert len(points) <= _max_evaluations(lo, hi, tol)
        midpoints = 0
        for a in points:
            midpoints += a == 0.5 * (lo + hi)
            lo, hi = (a, hi) if f(a) <= 0.0 else (lo, a)
        assert midpoints > 0

    @pytest.mark.parametrize("pair", [
        *[(lambda rx=rx, ry=ry: (poi(rx), poi(ry)))
          for rx, ry, _, _, _ in EPILIKE_BENCH_INPUTS],
        *[(lambda ps=ps, rate=rate, a=a: split(ps, rate, a))
          for _, _, ps, rate, a in EPILIKE_BENCH_INPUTS],
        GOLDEN_PAIR])
    def test_alpha_within_tol_of_bisection(self, monkeypatch, pair):
        tol = max(DEFAULT_TOLERANCES.tol_root, 1e-12)
        alpha = check_epilike(*pair()).inputs["alpha"]
        monkeypatch.setattr(inequality_suite, "_bisect",
                            lambda gap, a0, d0, a1, d1, tol:
                            _bisection_oracle(gap, a0, d0, a1, tol))
        assert abs(alpha - check_epilike(*pair()).inputs["alpha"]) <= tol


class TestEpilike:
    def test_poisson_pair_splits_proportionally(self):
        v = check_epilike(poi(2.0), poi(3.0))
        assert v.inputs["alpha"] == pytest.approx(2.0 / 5.0, abs=1e-6)
        assert v.inputs["alpha_heuristic"] == pytest.approx(0.4, abs=1e-6)
        assert abs(v.margin) < 1e-8

    # Bin(n, p) = T_a Bin(n, p/a): the merged root a = p/(p+q) makes both
    # preimages Bin(n, p+q).  For p + q = 1/2 it is a tangent zero of
    # H(X*) - H(Y*) where both entropies peak, and a mirrored crossing sits
    # elsewhere.  Bin(4,.49)/Bin(4,.505) has both preimages only for alpha
    # in [0.49, 0.495], a window narrower than 1/64.
    @pytest.mark.parametrize("n, p, q", [(4, 0.2, 0.3), (2, 0.2, 0.3),
                                         (4, 0.1, 0.4), (4, 0.49, 0.505)])
    def test_binomial_pair_gives_merged_parameter_bound(self, n, p, q):
        v = check_epilike(binom(n, p), binom(n, q))
        assert v.inputs["alpha"] == pytest.approx(p / (p + q), abs=1e-3)
        merged = entropy(binom(n, p + q)).nats
        assert v.rhs == pytest.approx(merged, abs=1e-6)
        assert v.holds

    @pytest.mark.parametrize("n, p, q", TANGENT_PAIRS)
    def test_a_tangent_zero_is_the_golden_sections(self, monkeypatch,
                                                   n, p, q):
        # the pinned tangent pairs: alpha is a point _golden_min returned
        # with |gap| <= tol_ineq; without golden section the verdict takes
        # the mirrored crossing near 1/2
        found, golden = [], inequality_suite._golden_min
        monkeypatch.setattr(inequality_suite, "_golden_min",
                            lambda *args: found.append(golden(*args))
                            or found[-1])
        alpha = check_epilike(binom(n, p), binom(n, q)).inputs["alpha"]
        sizes = [size for size, a in found if a == alpha]
        assert sizes and min(sizes) <= DEFAULT_TOLERANCES.tol_ineq
        monkeypatch.setattr(inequality_suite, "_golden_min",
                            lambda *args: (math.inf, math.nan))
        stubbed = check_epilike(binom(n, p), binom(n, q)).inputs["alpha"]
        assert abs(stubbed - 0.5) < 1e-6 and abs(alpha - 0.4) < 1e-6

    def test_tiny_root_tolerance_still_terminates(self):
        # alpha brackets stop shrinking near 1e-16, so a tol_root below
        # that must not keep the refinement loops running
        cfg = ToleranceConfig(tol_root=1e-300)
        v = check_epilike(binom(2, 0.2), binom(2, 0.3), cfg)
        assert v.inputs["alpha"] == pytest.approx(0.4, abs=1e-3)

    def test_symmetric_three_point_pair_has_no_decomposition(self):
        with pytest.raises(DomainError):
            check_epilike(FAIL1, FAIL1)

    def test_window_edge_rounding_does_not_refuse(self):
        # X = T_a Z, Y = T_(1-a) Z: Y*'s negative mass reaches tol_norm at
        # the window's upper end, and a refinement point just inside it
        # rounds past tol_norm unless inner points get extra slack
        z = convolve(construct(FamilySpec.bernoulli_sum(
            0.5344060761936011, 0.5146398843808033, 0.5424897526728931)),
            poi(1.1329111563573413))
        a = 0.43177830162982067
        v = check_epilike(thin(z, a), thin(z, 1.0 - a))
        assert v.holds
        assert abs(v.inputs["h_xstar"] - v.inputs["h_ystar"]) <= 1e-6

    @pytest.mark.parametrize("rate, certified", [(4.85, True), (4.9, False)])
    def test_equal_poisson_pair_certified_below_rate_4_88(self, rate,
                                                          certified):
        # both preimages at alpha = 1/2 are Poisson(2 rate), and their
        # bound u (2D + 5N + 2) e^(2 rate) crosses tol_norm between 4.87
        # and 4.88
        if certified:
            v = check_epilike(poi(rate), poi(rate))
            assert v.inputs["alpha"] == pytest.approx(0.5, abs=1e-6)
            assert v.holds
        else:
            with pytest.raises(IllConditionedError):
                check_epilike(poi(rate), poi(rate))

    def test_tol_norm_near_one_keeps_inner_slack_below_one(self):
        v = check_epilike(poi(2.0), poi(2.0), ToleranceConfig(tol_norm=0.9))
        assert v.inputs["alpha"] == pytest.approx(0.5, abs=1e-6)

    def test_golden_section_restarts_instead_of_crawling(self, monkeypatch):
        # a bench input on which a golden section that mirrored its best
        # point drifted to the midpoint and then moved by ulps a step: 1.25M
        # inverse_thin calls and 65 s for the same verdict.  Each step now
        # places its point in the larger side and shrinks the bracket to at
        # most 0.691 of its width.  Bisecting its sign changes took 278
        # calls in all, Illinois steps take 232
        calls = []
        monkeypatch.setattr(inequality_suite, "inverse_thin",
                            lambda *args, f=inequality_suite.inverse_thin:
                            calls.append(1) or f(*args))
        v = check_epilike(*GOLDEN_PAIR())
        assert v.inputs["alpha"] == 0.3435589723078684
        assert v.margin == 0.09194969768612471
        assert v.inputs["h_xstar"] == 1.2492375213365954
        assert len(calls) < 250

    def test_undecidable_poisson_pair_is_ill_conditioned(self):
        # Poisson(10) = T_a Poisson(10/a), but X* is certified only for
        # alpha above about 0.69 and Y* only below about 0.31
        with pytest.raises(IllConditionedError):
            check_epilike(poi(10.0), poi(10.0))

    @pytest.mark.parametrize("x_at, y_at, first", [
        (5, 3, ("y", 3)), (3, 3, ("x", 3)), (3, 5, ("x", 3)),
        (64, 64, ("x", 64))])
    def test_the_scan_raises_its_first_error_x_before_y(self, monkeypatch,
                                                        x_at, y_at, first):
        x, y = poi(2.0), poi(3.0)
        real = inequality_suite._inverse_thin_entropies

        def failing(p, alphas, cfg):
            out = real(p, alphas, cfg)
            at = x_at if p is x else y_at
            out[at] = NotThinnableError(0.5, 1000 * (p is x) + at, -1.0)
            return out
        monkeypatch.setattr(inequality_suite, "_inverse_thin_entropies",
                            failing)
        with pytest.raises(NotThinnableError) as info:
            check_epilike(x, y)
        assert divmod(info.value.index, 1000) == (first[0] == "x", first[1])

    @pytest.mark.parametrize("rate, message", [
        (4.9, "inverse thinning at alpha = 0.501663 is ill-conditioned: "
              "kappa = 1.690e+04, error bound 1.000e-09 > tol_norm"),
        (10.0, "inverse thinning at alpha = 0.684277 is ill-conditioned: "
               "kappa = 1.018e+04, error bound 1.000e-09 > tol_norm")])
    def test_refused_poisson_pairs_name_the_edge(self, recorded_platform,
                                                 rate, message):
        # the messages recorded while the scan called inverse_thin once
        # per alpha: the edge bisection's last refusal
        with pytest.raises(IllConditionedError) as info:
            check_epilike(poi(rate), poi(rate))
        assert str(info.value) == message


class TestHmon:
    def test_poisson_uniform_equality(self):
        v = check_hmon([poi(1.0)] * 3, [1 / 3, 1 / 3, 1 / 3])
        assert abs(v.margin) < 1e-7

    def test_two_variables_reduce_to_teci(self):
        pair = (binom(3, 0.4), construct(FamilySpec.bernoulli_sum(0.3, 0.8)))
        via_teci = check_teci(pair[0], pair[1], 0.3)
        via_hmon = check_hmon(list(pair), [0.3, 0.7])
        assert abs(via_teci.margin - via_hmon.margin) < 1e-12

    def test_mixed_inputs_hold(self):
        v = check_hmon([bern(0.3), bern(0.5), binom(2, 0.4)], [0.2, 0.3, 0.5])
        assert v.holds

    def test_simplex_validation(self):
        with pytest.raises(PreconditionError):
            check_hmon([bern(0.3), bern(0.5)], [0.4, 0.7])
        with pytest.raises(PreconditionError, match="sum to 1"):
            check_hmon([bern(0.3), bern(0.5)], [1e308, 1e308])


class TestDsub:
    def test_poisson_inputs_have_zero_divergence(self):
        v = check_dsub([poi(1.0), poi(2.0)], [0.5, 0.5])
        assert abs(v.lhs) < 1e-10 and abs(v.rhs) < 1e-10

    def test_bernoulli_pair(self):
        assert check_dsub([bern(0.4), bern(0.4)], [0.5, 0.5]).holds

    def test_no_ulc_requirement(self):
        geo = construct(FamilySpec.geometric(1.0))
        assert check_dsub([geo, bern(0.5)], [0.3, 0.7]).holds

    def test_simplex_validation(self):
        with pytest.raises(PreconditionError, match="sum to 1"):
            check_dsub([bern(0.3), bern(0.5)], [1e308, 1e308])


class TestDiscepilike:
    def test_uniform_poisson_equality(self):
        v = check_discepilike([poi(1.5)] * 3, [1 / 3, 1 / 3, 1 / 3])
        assert abs(v.margin) < 1e-7

    def test_nonuniform_weights_on_matched_poissons(self):
        # equal rates make every leave-one-out rate equal for any simplex
        v = check_discepilike([poi(1.5)] * 3, [0.2, 0.3, 0.5])
        assert abs(v.margin) < 1e-7

    def test_binomial_inputs_hold(self):
        v = check_discepilike([binom(2, 0.5)] * 3, [1 / 3, 1 / 3, 1 / 3])
        assert v.holds

    def test_mismatched_entropies_rejected(self):
        with pytest.raises(PreconditionError):
            check_discepilike([poi(0.5), poi(3.0)], [0.5, 0.5])


class TestRefutedConjectures:
    def test_superadditivity_fails_on_three_point_example(self):
        v = check_conjecture_v_superadd(FAIL1, FAIL1)
        assert not v.holds and v.margin < -1e-6

    def test_superadditivity_tight_on_poissons(self):
        v = check_conjecture_v_superadd(poi(2.0), poi(3.0))
        assert abs(v.margin) < 1e-8

    def test_superadditivity_reports_either_way(self):
        v = check_conjecture_v_superadd(bern(0.5), bern(0.5))
        assert isinstance(v.holds, bool)

    def test_thinned_version_fails_on_reference_inputs(self):
        x = convolve(bern(1.0 / 3.0), poi(1.0))
        v = check_conjecture_tepi(x, poi(1000.0), 0.999)
        assert not v.holds
        assert v.lhs == pytest.approx(2.25374, abs=1e-4)
        assert v.rhs == pytest.approx(2.27062, abs=1e-4)

    def test_thinned_version_tight_on_poissons(self):
        assert abs(check_conjecture_tepi(poi(2.0), poi(2.0), 0.4).margin) < 1e-8
        assert abs(check_conjecture_tepi(poi(1.0), poi(3.0), 0.7).margin) < 1e-8


class TestTepis:
    def test_ratio_condition_equals_min_form(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            v_x = float(rng.uniform(0.2, 4.0))
            v_y = float(rng.uniform(0.2, 4.0))
            beta = float(rng.uniform(0.0, 1.0))
            gamma = float(rng.uniform(0.0, 1.0))
            window = tepis_ratio_condition(v_x, v_y, beta, gamma)
            min_form = beta * v_x + gamma * v_y <= min(v_x, v_y)
            assert window == min_form

    def test_poisson_equality(self):
        v = check_tepis(poi(2.0), poi(2.0), 0.5, 0.5)
        assert abs(v.margin) < 1e-8

    def test_poisson_leg_holds_for_all_alpha(self):
        x = binom(4, 0.5)
        mu = entropy_power(x) / 2.0
        y = poi(mu)
        for alpha in np.linspace(0.05, 0.95, 10):
            v = check_tepis(x, y, float(alpha), float(1.0 - alpha))
            assert v.holds
            assert v.inputs["condition"] in ("poisson-leg", "both")

    def test_rejects_inadmissible_parameters(self):
        with pytest.raises(PreconditionError):
            check_tepis(binom(4, 0.5), binom(4, 0.5), 0.9, 0.9)


class TestRandomUlc:
    def test_deterministic_and_ulc(self):
        a = random_ulc(42)
        b = random_ulc(42)
        assert np.array_equal(a.probs, b.probs)
        assert is_ulc(a)

    def test_pure_bernoulli_mode(self):
        x = random_ulc(7, max_bernoullis=3, max_poisson_rate=0.0)
        assert len(x) <= 4 and is_ulc(x)

    def test_with_poisson_component(self):
        assert is_ulc(random_ulc(7, max_bernoullis=1, max_poisson_rate=2.0))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            random_ulc(1, max_bernoullis=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            random_ulc(-1)


class TestSearch:
    def test_proved_statement_sweeps_clean(self):
        report = search("teci", 50, 11)
        assert report.trials == 50
        assert report.violations == []
        assert report.tightest_margin > 0.0

    def test_deterministic_reports(self):
        one = dumps_canonical(search("rtepi", 20, 3))
        two = dumps_canonical(search("rtepi", 20, 3))
        assert one == two

    def test_refuted_statement_report_shape(self):
        report = search("tepi", 20, 5)
        assert report.conjecture == "tepi"
        for entry in report.violations:
            assert not entry["verdict"]["holds"]

    def test_unknown_conjecture_rejected(self):
        with pytest.raises(ParameterError):
            search("nonsense", 10, 1)

    def test_searchable_names_in_error_text(self):
        names = ("firstepi", "tepi", "teci", "rtepi", "hmon", "dsub", "isop")
        with pytest.raises(ParameterError, match=re.escape(repr(names))):
            search("epilike", 1, 1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            search("teci", 1, -1)

    def test_violation_entries_serialize_canonically(self):
        import json

        from thinpower import SearchReport
        verdict = check_conjecture_v_superadd(FAIL1, FAIL1)
        assert not verdict.holds
        report = SearchReport(
            conjecture="firstepi", trials=1,
            violations=[{"trial": 0, "seed": 1, "verdict": verdict.to_json()}],
            tightest_margin=verdict.margin, seed=1)
        text = dumps_canonical(report)
        parsed = json.loads(text)
        assert parsed["violations"][0]["verdict"]["holds"] is False
        assert text == dumps_canonical(report)

    def test_hmon_and_dsub_sweeps(self):
        assert search("hmon", 10, 13).violations == []
        assert search("dsub", 10, 13).violations == []


@st.composite
def _statement_inputs(draw):
    """(name, pmfs, params) for each STATEMENTS entry on random ULC pmfs."""
    seeds = st.integers(0, 2 ** 32 - 1)
    name = draw(st.sampled_from(sorted(inequality_suite.STATEMENTS)))
    x, y = (random_ulc(draw(seeds)) for _ in range(2))
    if name == "epilike":
        # equal inputs thinned at one half: their preimages meet there
        x = y = thin(x, 0.5)
        return name, [x, y], []
    if name == "tepis":
        # beta + gamma <= 1 puts equal inputs in the ratio window
        beta = draw(st.floats(0.05, 0.9))
        return name, [x, x], [beta, draw(st.floats(0.05, 1.0)) * (1.0 - beta)]
    statement = inequality_suite.STATEMENTS[name]
    if statement.pmfs is None:
        size = draw(st.integers(2, 3))
        weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=size,
                                         max_size=size)))
        alphas = weights / math.fsum(weights)
        if name == "discepilike":
            # equal Poisson terms give equal leave-one-out entropies
            pmfs = [poi(draw(st.floats(0.1, 5.0)))] * size
        else:
            pmfs = [random_ulc(draw(seeds)) for _ in range(size)]
        return name, draw(st.sampled_from([list, tuple]))(pmfs), [alphas]
    params = [draw(st.floats(0.05, 0.95)) for _ in statement.params]
    return name, [x, y][:statement.pmfs], params


def _native_types(value):
    """The set of types in a JSON document, containers included."""
    if isinstance(value, dict):
        return {dict}.union(*map(_native_types, value.values()))
    if isinstance(value, list):
        return {list}.union(*map(_native_types, value))
    return {type(value)}


def _round_trips(verdict):
    doc = verdict.to_json()
    assert json.loads(json.dumps(doc)) == doc
    # np.float64 is a float and survives the round trip: ask for float
    assert _native_types(doc) <= {dict, list, str, bool, int, float}


@given(_statement_inputs())
def test_every_statement_verdict_is_json_native(case):
    name, pmfs, params = case
    _round_trips(inequality_suite.STATEMENTS[name].run(pmfs, params))


@given(st.integers(2, 3).flatmap(lambda m: st.tuples(
    st.lists(st.integers(0, 2 ** 32 - 1), min_size=m, max_size=m),
    st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m),
    st.integers(0, m - 1),
    st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3))))
def test_quadratic_form_verdicts_are_json_native(case):
    seeds, weights, leave_out, t_grid = case
    alphas = np.array(weights) / math.fsum(weights)
    for verdict in check_quadratic_form([random_ulc(s) for s in seeds],
                                        alphas, leave_out, t_grid):
        _round_trips(verdict)


@pytest.mark.parametrize("check, pmfs, params", [
    (check_teci, (binom(4, 0.5), binom(4, 0.45)), (0.3,)),
    (check_rtepi, (binom(4, 0.5),), (0.3,)),
    (check_conjecture_tepi, (binom(4, 0.5), binom(4, 0.45)), (0.3,)),
    (check_tepis, (binom(4, 0.5), binom(4, 0.45)), (0.3, 0.6))])
def test_a_float32_parameter_gives_the_verdict_of_its_double(check, pmfs,
                                                              params):
    # numpy 2 rounds alpha V(X) and 1 - alpha to single precision for a
    # float32 alpha; the verdict echoes the parameter as its double
    single = [np.float32(value) for value in params]
    assert check(*pmfs, *single) == check(*pmfs, *map(float, single))
