"""The acceptance gate: one test per criterion, each printing a PASS/FAIL
line with its headline numbers."""

import pytest

from thinpower import ParameterError, acceptance


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {result.number}: {result.name} "
          f"({result.seconds:.2f}s) {result.details}")
    assert result.passed, result.details


def test_criterion_1_fail2_reproduction():
    result = acceptance.criterion_1()
    assert max(result.details["deviations"]) < 1e-4
    assert result.details["tepi_holds"] is False
    assert result.seconds < 5.0
    _report(result)


def test_criterion_2_fail1_reproduction():
    result = acceptance.criterion_2()
    assert result.details["margin"] < -1e-6
    assert result.details["holds"] is False
    assert result.seconds < 1.0
    _report(result)


def test_criterion_3_theorem_sweeps():
    result = acceptance.criterion_3()
    for name in ("teci", "rtepi", "isop", "hmon", "dsub"):
        assert result.details[name]["violations"] == 0
    assert result.seconds < 60.0
    _report(result)


def test_criterion_4_poisson_equalities():
    result = acceptance.criterion_4()
    for name, margin in result.details["margins"].items():
        assert abs(margin) < 1e-7, name
    _report(result)


def test_criterion_5_binomial_corollary():
    result = acceptance.criterion_5()
    assert result.details["violations"] == 0
    _report(result)


def test_criterion_6_interpolation_machinery():
    result = acceptance.criterion_6()
    assert result.details["worst_pde_residual"] < 1e-6
    assert result.details["worst_f0_gap"] < 1e-3
    assert result.details["worst_u_increase"] <= 1e-8
    assert all(g < 1e-9 for g in result.details["poisson_l_gaps"].values())
    _report(result)


def test_criterion_7_hessian_machinery():
    result = acceptance.criterion_7()
    assert result.details["worst_fd_excess"] <= 0.0
    assert result.details["splitting_witnesses"] == 20
    assert result.details["worst_quadratic_form"] <= 1e-10
    assert result.details["worst_margin_identity_residual"] < 1e-10
    _report(result)


def test_criterion_8_algebraic_invariants():
    result = acceptance.criterion_8()
    d = result.details
    assert d["worst_semigroup_tv"] < 1e-12
    assert d["worst_poisson_closure_tv"] < 1e-10
    assert d["worst_roundtrip_tv"] < 1e-10
    assert d["worst_cross_entropy_identity"] < 1e-10
    assert d["worst_v_of_poisson"] < 1e-8
    assert d["worst_l_vs_fd"] < 1e-5
    _report(result)


def test_criterion_9_determinism():
    result = acceptance.criterion_9()
    assert result.details["search_identical"] is True
    assert result.details["verify_identical"] is True
    _report(result)


def test_registry_holds_every_criterion():
    assert sorted(acceptance.CRITERIA) == list(range(1, 10))
    assert acceptance.CRITERIA[1] is acceptance.criterion_1
    assert acceptance.CRITERIA[9] is acceptance.criterion_9


def test_criterion_wrapper_applies_the_time_bound(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", {})

    @acceptance._criterion(41, "too slow", within=0.0)
    def slow(cfg):
        return True, {"ran": True}

    @acceptance._criterion(42, "unbounded")
    def fast(cfg):
        return True, {"ran": True}

    result = slow()
    assert (result.number, result.name, result.passed) == (41, "too slow", False)
    assert result.details == {"ran": True} and result.seconds >= 0.0
    assert fast().passed is True
    assert set(acceptance.CRITERIA) == {41, 42}


@pytest.mark.parametrize("numbers", [[0], [10], [2, 10]])
def test_run_criteria_rejects_unknown_numbers(numbers):
    with pytest.raises(ParameterError, match="no acceptance criterion number"):
        acceptance.run_criteria(numbers)


def test_reference_examples_are_refuted():
    verdict, refuted = acceptance.fail1()
    assert refuted and not verdict.holds
    computed, deviations, verdict, refuted = acceptance.fail2()
    assert refuted and not verdict.holds
    assert len(computed) == len(deviations) == 5
    assert max(deviations) < 1e-4
