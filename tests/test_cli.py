"""Command-line behaviour: dispatch, JSON formats, exit codes, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thinpower
from thinpower.cli import main
from thinpower.inequality_suite import STATEMENTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_construct_and_entropy_round_trip(capsys, tmp_path):
    code, out = run(capsys, "construct", "--spec",
                    '{"family": "bernoulli", "p": 0.5}')
    assert code == 0
    doc = json.loads(out)
    assert doc["probs"] == [0.5, 0.5]
    pmf_file = tmp_path / "coin.json"
    pmf_file.write_text(out)
    code, out = run(capsys, "entropy", "--pmf", str(pmf_file), "--bits")
    assert code == 0
    assert json.loads(out) == pytest.approx(1.0, abs=1e-12)


def test_entropy_of_point_mass_is_zero(capsys):
    code, out = run(capsys, "entropy", "--pmf", '{"probs": [1.0]}')
    assert code == 0
    assert json.loads(out) == 0.0


def test_thin_and_conv(capsys):
    code, out = run(capsys, "thin", "--pmf",
                    '{"family": "bernoulli", "p": 1.0}', "--alpha", "0.5")
    assert code == 0
    assert json.loads(out)["probs"] == pytest.approx([0.5, 0.5])
    code, out = run(capsys, "conv",
                    "--pmf", '{"probs": [0.5, 0.5]}',
                    "--pmf", '{"probs": [0.5, 0.5]}')
    assert code == 0
    assert json.loads(out)["probs"] == pytest.approx([0.25, 0.5, 0.25])


def test_unthin_success_and_failure_exit_codes(capsys):
    code, out = run(capsys, "unthin", "--pmf",
                    '{"family": "bernoulli", "p": 0.3}', "--alpha", "0.5")
    assert code == 0
    assert json.loads(out)["probs"] == pytest.approx([0.4, 0.6])
    code, out = run(capsys, "unthin", "--pmf",
                    '{"family": "bernoulli", "p": 0.6}', "--alpha", "0.5")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "NotThinnableError"
    # binomial(64, 0.25) = T_0.5 binomial(64, 0.5), but kappa = 1.5^64
    code, out = run(capsys, "unthin", "--pmf",
                    '{"family": "binomial", "n": 64, "p": 0.25}',
                    "--alpha", "0.5")
    assert code == 2
    assert json.loads(out)["error"] == "IllConditionedError"


def test_vpower_matches_poisson_rate(capsys):
    code, out = run(capsys, "vpower", "--pmf", '{"family": "poisson", "rate": 3}')
    assert code == 0
    assert json.loads(out) == pytest.approx(3.0, abs=1e-8)


def test_vpower_with_tol_root_below_double_resolution(capsys):
    code, out = run(capsys, "vpower", "--pmf", '{"family": "poisson", "rate": 3}',
                    "--tol-root", "1e-17")
    assert code == 0
    assert json.loads(out) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("tiny", ["1e-17", "1e-300", "5e-324"])
def test_vpower_of_geometric_below_double_resolution(capsys, tiny):
    code, out = run(capsys, "vpower", "--pmf",
                    f'{{"family": "geometric", "mean": {tiny}}}')
    assert code == 0
    # P(0) rounds to 1.0, which drops the -P(0) log P(0) ~ mean share of
    # the entropy: V sits a few percent below the mean
    assert json.loads(out) == pytest.approx(float(tiny), rel=0.05)


def test_path_with_tol_root_below_double_resolution():
    # a solve that never stops would hang the suite, so run it in a
    # subprocess that the timeout turns into a failure
    src = str(Path(thinpower.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "thinpower.cli", "path", "--pmf",
            '{"family": "binomial", "n": 4, "p": 0.3}', "--grid", "3",
            "--tol-root", "1e-16"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["f_vals"][-1] == 0.0
    assert doc["f0_extrapolated"] == pytest.approx(doc["v_target"], abs=1e-2)


@pytest.mark.parametrize("argv, name", [
    (["construct", "--spec", '{"family": "geometric", "mean": 1e20}'],
     "geometric mean = 1e+20"),
    (["construct", "--spec", '{"family": "poisson", "rate": 1e30}'],
     "Poisson rate t = 1e+30"),
    (["construct", "--spec", '{"family": "binomial", "n": 1e30, "p": 0.5}'],
     "binomial n = 1e+30"),
    (["functional", "--name", "E", "--t", "1e30"], "Poisson rate t = 1e+30"),
    # under 2**58 points, but far more than numpy can allocate
    (["construct", "--spec", '{"family": "poisson", "rate": 1e17}'],
     "Poisson rate t = 1e+17"),
    (["construct", "--spec", '{"family": "binomial", "n": 1e17, "p": 0.5}'],
     "binomial n = 1e+17"),
    (["construct", "--spec", '{"family": "delta", "k": 1e17}'],
     "delta offset k = 1e+17"),
])
def test_oversized_family_parameters_are_input_errors(capsys, argv, name):
    code, out = run(capsys, *argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ParameterError"
    assert doc["message"].startswith(name)
    assert "more than one array can hold" in doc["message"]


def test_functional_dispatch(capsys):
    code, out = run(capsys, "functional", "--name", "E", "--t", "1.0")
    assert code == 0
    e1 = json.loads(out)
    code, out = run(capsys, "functional", "--name", "Lambda", "--pmf",
                    '{"family": "poisson", "rate": 1}')
    assert code == 0
    assert json.loads(out) == pytest.approx(e1, abs=1e-10)
    code, out = run(capsys, "functional", "--name", "J")
    assert code == 2


def test_check_command_and_exit_codes(capsys):
    code, out = run(capsys, "check", "--name", "teci",
                    "--pmf", '{"family": "binomial", "n": 3, "p": 0.2}',
                    "--pmf", '{"family": "binomial", "n": 2, "p": 0.7}',
                    "--alpha", "0.5")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["holds"] and verdict["units"] == "nats"
    # non-ULC input is an input error unless overridden
    code, out = run(capsys, "check", "--name", "teci",
                    "--pmf", '{"family": "geometric", "mean": 1.0}',
                    "--pmf", '{"family": "bernoulli", "p": 0.5}',
                    "--alpha", "0.5")
    assert code == 2
    code, out = run(capsys, "check", "--name", "teci", "--allow-non-ulc",
                    "--pmf", '{"family": "geometric", "mean": 1.0}',
                    "--pmf", '{"family": "bernoulli", "p": 0.5}',
                    "--alpha", "0.5")
    assert code in (0, 1)
    assert json.loads(out)["note"] == "outside theorem hypotheses"


def test_check_refuted_conjecture_exits_zero(capsys):
    code, out = run(capsys, "check", "--name", "firstepi",
                    "--pmf", '{"probs": [0.16666666666666666, 0.6666666666666666, 0.16666666666666666]}',
                    "--pmf", '{"probs": [0.16666666666666666, 0.6666666666666666, 0.16666666666666666]}')
    assert code == 0
    assert json.loads(out)["holds"] is False


def test_reproduce_fail1(capsys):
    code, out = run(capsys, "reproduce", "--example", "fail1")
    assert code == 0
    doc = json.loads(out)
    assert doc["expected_refutation"] is True
    assert doc["verdict"]["holds"] is False


def test_reproduce_fail2_values(capsys):
    code, out = run(capsys, "reproduce", "--example", "fail2")
    assert code == 0
    doc = json.loads(out)
    assert doc["expected_refutation"] is True
    assert max(row["deviation"] for row in doc["values"]) < 1e-4
    assert doc["tepi_verdict"]["holds"] is False


def test_search_outputs_are_byte_identical(capsys):
    args = ("search", "--name", "teci", "--trials", "10", "--seed", "7")
    code_a, out_a = run(capsys, *args)
    code_b, out_b = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert json.loads(out_a)["violations"] == []


def test_path_command(capsys):
    code, out = run(capsys, "path", "--pmf", '{"family": "poisson", "rate": 2}',
                    "--grid", "8")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["t_grid"]) == 8
    assert doc["f0_extrapolated"] == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("p, grid", [(5e-324, "5"), (1e-322, "40")])
def test_path_on_a_subnormal_bernoulli(capsys, p, grid):
    # thinning underflows the mean at small t, so the rate solve falls back
    # to mean(x) * (1 - t) instead of a zero start it cannot grow
    code, out = run(capsys, "path", "--pmf",
                    json.dumps({"family": "bernoulli", "p": p}), "--grid", grid)
    assert code == 0, out
    doc = json.loads(out)
    assert all(f >= 0.0 for f in doc["f_vals"])
    assert doc["f_vals"][-1] == 0.0
    assert doc["v_target"] > 0.0


def test_hessian_command_with_fd_check(capsys):
    code, out = run(capsys, "hessian",
                    "--specs", '[{"family": "bernoulli", "p": 0.5},'
                               ' {"family": "bernoulli", "p": 0.7}]',
                    "--alphas", "0.4,0.6", "--fd-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_abs_gap"] < 1e-5


def test_hessian_fd_step_comes_from_the_flag_or_the_variable(
        capsys, monkeypatch):
    argv = ["hessian", "--specs", '[{"family": "bernoulli", "p": 0.3},'
            ' {"family": "binomial", "n": 2, "p": 0.4}]',
            "--alphas", "0.4,0.6", "--fd-check"]
    gap = {}
    for key, env, flags in (("default", None, []),
                            ("4 flag", None, ["--fd-step", "1e-4"]),
                            ("2 flag", None, ["--fd-step", "1e-2"]),
                            ("2 env", '{"fd_step": 1e-2}', []),
                            ("4 over env", '{"fd_step": 1e-2}',
                             ["--fd-step", "1e-4"])):
        if env is None:
            monkeypatch.delenv("THINPOWER_TOLERANCES", raising=False)
        else:
            monkeypatch.setenv("THINPOWER_TOLERANCES", env)
        code, out = run(capsys, *argv, *flags)
        assert code == 0
        gap[key] = json.loads(out)["max_abs_gap"]
    # the step is 1e-4 unless the flag or the variable sets it
    assert gap["default"] == gap["4 flag"] == gap["4 over env"] < 1e-7
    assert gap["2 env"] == gap["2 flag"] > 1e-6


def test_hessian_command_with_zero_mean_inputs(capsys):
    delta = '{"family": "delta", "k": 0}'
    code, out = run(capsys, "hessian", "--specs", f"[{delta}, {delta}]",
                    "--alphas", "0.5,0.5", "--fd-check")
    assert code == 0
    assert "NaN" not in out
    doc = json.loads(out)
    assert doc["hessian"] == doc["fd_hessian"] == [[0, 0], [0, 0]]


def test_splitting_command(capsys):
    code, out = run(capsys, "splitting", "--l", "1", "--t", "0.5",
                    "--lambdas", "1,1", "--alphas", "0.5,0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["S"] == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("alphas, lambdas", [
    ("0.5,nan", "1,1"), ("0.5,0.5", "inf,1")])
def test_splitting_refuses_non_finite_inputs(capsys, alphas, lambdas):
    code, out = run(capsys, "splitting", "--l", "0", "--t", "0.5",
                    "--lambdas", lambdas, "--alphas", alphas)
    assert code == 2
    assert json.loads(out) == {"error": "ParameterError",
                               "message": "alphas and lambdas must be finite"}


def test_check_refuses_a_nan_alpha_by_its_name(capsys):
    pmf = '{"family": "poisson", "rate": 1}'
    code, out = run(capsys, "check", "--name", "tepis", "--pmf", pmf,
                    "--pmf", pmf, "--beta", "0.5", "--gamma", "nan")
    assert code == 2
    assert json.loads(out) == {"error": "ParameterError",
                               "message": "gamma = nan outside [0, 1]"}
    code, out = run(capsys, "check", "--name", "hmon", "--pmf", pmf,
                    "--pmf", pmf, "--alphas", "0.5,nan")
    assert code == 2
    assert json.loads(out) == {
        "error": "PreconditionError",
        "message": "every alpha_i must be finite and strictly positive"}


_HUGE = '{"probs": [1e308, 1e308]}'
_POISSON_1 = '{"family": "poisson", "rate": 1}'


@pytest.mark.parametrize("argv, error, message", [
    (["entropy", "--pmf", _HUGE], "ParameterError",
     "pmf mass inf differs from 1 by more than tol_norm"),
    (["construct", "--spec", '{"family": "raw", "probs": [1e308, 1e308]}'],
     "ParameterError", "raw pmf mass overflows a double"),
] + [
    (["check", "--name", name, "--pmf", _POISSON_1, "--pmf", _POISSON_1,
      "--alphas", "1e308,1e308"],
     "PreconditionError", "alphas must sum to 1 within 1e-12")
    for name in ("hmon", "dsub")
] + [
    (["splitting", "--l", "0", "--t", "0.5", "--lambdas", "1,1,1",
      "--alphas", "1e308,1e308,1e308"],
     "ParameterError", "leave-one-out weight overflows a double"),
], ids=["entropy", "construct", "hmon", "dsub", "splitting"])
def test_sums_past_the_largest_double_are_input_errors(capsys, argv, error,
                                                       message):
    # math.fsum raises OverflowError on these sums: each used to end in a
    # traceback and exit 1
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": error, "message": message}


def test_verify_subset(capsys):
    code, out = run(capsys, "verify", "--criteria", "2")
    assert code == 0
    results = json.loads(out)
    assert results[0]["number"] == 2 and results[0]["passed"] is True


def test_table_format(capsys):
    code, out = run(capsys, "--format", "table", "entropy", "--pmf",
                    '{"probs": [0.5, 0.5]}')
    assert code == 0
    assert "0.69314718" in out


def test_tolerance_override_flag(capsys):
    code, out = run(capsys, "--tail-eps", "1e-10", "construct", "--spec",
                    '{"family": "poisson", "rate": 1}')
    assert code == 0
    short = len(json.loads(out)["probs"])
    code, out = run(capsys, "construct", "--spec",
                    '{"family": "poisson", "rate": 1}')
    assert len(json.loads(out)["probs"]) == short  # support rule dominates here


@pytest.mark.parametrize("flags, argv, expected", [
    (["--format", "table"], ["entropy", "--pmf", '{"probs": [0.5, 0.5]}'],
     "0.6931471805599453\n"),
    (["--tail-eps", "1e-10"],
     ["construct", "--spec", '{"family": "geometric", "mean": 1}'], None),
])
def test_shared_flags_work_before_and_after_the_subcommand(
        capsys, flags, argv, expected):
    before = run(capsys, *flags, *argv)
    after = run(capsys, argv[0], *flags, *argv[1:])
    assert before == after
    if expected is None:
        assert len(json.loads(after[1])["probs"]) == 35
        assert len(json.loads(run(capsys, *argv)[1])["probs"]) == 48
    else:
        assert after[1] == expected


B32 = '{"family": "binomial", "n": 3, "p": 0.2}'
B27 = '{"family": "binomial", "n": 2, "p": 0.7}'
BE5 = '{"family": "bernoulli", "p": 0.5}'
GEO = '{"family": "geometric", "mean": 1.0}'
P2 = '{"family": "poisson", "rate": 2}'
P15 = '{"family": "poisson", "rate": 1.5}'

# valid `check` inputs per statement: pmfs and flags
CHECK_INPUTS = {
    "teci": ([B32, B27], {"alpha": "0.5"}),
    "rtepi": ([B32], {"alpha": "0.4"}),
    "epilike": ([P2, P2], {}),
    "hmon": ([B32, B27, BE5], {"alphas": "0.2,0.3,0.5"}),
    "dsub": ([GEO, BE5], {"alphas": "0.3,0.7"}),
    "discepilike": ([P15, P15, P15], {"alphas": "0.2,0.3,0.5"}),
    "firstepi": ([B27, B27], {}),
    "tepi": ([B32, B27], {"alpha": "0.3"}),
    "tepis": ([P2, P2], {"beta": "0.5", "gamma": "0.5"}),
    "isop": ([B32], {}),
}
MISSING_FLAG_TEXT = {"alpha": "--alpha", "alphas": "--alphas",
                     "beta": "--beta and --gamma",
                     "gamma": "--beta and --gamma"}


def check_argv(name, pmfs, flags):
    argv = ["check", "--name", name]
    for pmf in pmfs:
        argv += ["--pmf", pmf]
    for flag, value in flags.items():
        argv += [f"--{flag}", value]
    return argv


def test_every_statement_has_check_inputs():
    assert set(CHECK_INPUTS) == set(STATEMENTS)


@pytest.mark.parametrize("name", list(STATEMENTS))
def test_check_dispatch_for_every_statement(capsys, name):
    statement = STATEMENTS[name]
    pmfs, flags = CHECK_INPUTS[name]
    code, out = run(capsys, *check_argv(name, pmfs, flags))
    assert code == 0
    assert json.loads(out)["name"] == name

    code, out = run(capsys, *check_argv(name, pmfs + [pmfs[0]], flags))
    assert code == 2
    if statement.pmfs is None:
        expected = "need n+1 >= 2 pmfs with one alpha each"
    else:
        expected = f"check {name} needs exactly {len(pmfs)} --pmf inputs"
    assert json.loads(out)["message"] == expected

    for flag in flags:
        rest = {k: v for k, v in flags.items() if k != flag}
        code, out = run(capsys, *check_argv(name, pmfs, rest))
        assert code == 2
        assert (json.loads(out)["message"]
                == f"check {name} needs {MISSING_FLAG_TEXT[flag]}")


def test_check_unknown_name(capsys):
    code, out = run(capsys, "check", "--name", "nope", "--pmf", B32)
    assert code == 2
    assert json.loads(out)["message"] == "unknown check name 'nope'"


@pytest.mark.parametrize(
    "name", [name for name, s in STATEMENTS.items() if not s.searchable])
def test_search_refuses_statements_it_cannot_sweep(capsys, name):
    code, out = run(capsys, "search", "--name", name, "--trials", "1",
                    "--seed", "0")
    assert code == 2
    assert json.loads(out)["error"] == "ParameterError"


@pytest.mark.parametrize("argv, flag", [
    pytest.param(check_argv("hmon", [B32, B27], {"alphas": "x,y"}),
                 "--alphas", id="check"),
    pytest.param(["hessian", "--specs", f"[{BE5}, {BE5}]",
                  "--alphas", "0.5,z"], "--alphas", id="hessian"),
    pytest.param(["splitting", "--l", "1", "--t", "0.5", "--lambdas", "1,q",
                  "--alphas", "0.5,0.5"], "--lambdas", id="splitting"),
])
def test_malformed_number_list_is_an_input_error(capsys, argv, flag):
    code, out = run(capsys, *argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ParameterError" and doc["message"].startswith(flag)


def test_negative_search_seed_is_an_input_error(capsys):
    code, out = run(capsys, "search", "--name", "teci", "--trials", "2",
                    "--seed", "-1")
    assert code == 2
    assert json.loads(out)["message"] == "seed must be >= 0"


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_non_finite_max_poisson_rate_is_an_input_error(capsys, rate):
    # nan used to drop the Poisson factor silently, inf to overflow the draw
    code, out = run(capsys, "search", "--name", "teci", "--trials", "2",
                    "--seed", "1", "--max-poisson-rate", rate)
    assert code == 2
    assert json.loads(out) == {
        "error": "ParameterError",
        "message": "need max_bernoullis >= 1 and a finite max_poisson_rate >= 0"}


@pytest.mark.parametrize("criteria, message", [
    ("1,a", "--criteria needs comma-separated integers, got '1,a'"),
    ("0", "no acceptance criterion number 0"),
    ("10", "no acceptance criterion number 10"),
])
def test_verify_criteria_input_errors(capsys, criteria, message):
    code, out = run(capsys, "verify", "--criteria", criteria)
    assert code == 2
    assert json.loads(out) == {"error": "ParameterError", "message": message}


P1 = '{"family": "poisson", "rate": 1}'


def test_tolerance_env_is_applied_and_flags_override_it(capsys, monkeypatch):
    # the geometric support is cut where the tail drops below tail_eps
    code, out = run(capsys, "construct", "--spec", GEO)
    default_len = len(json.loads(out)["probs"])
    monkeypatch.setenv("THINPOWER_TOLERANCES", '{"tail_eps": 1e-10}')
    code, out = run(capsys, "construct", "--spec", GEO)
    assert code == 0
    assert len(json.loads(out)["probs"]) < default_len
    code, out = run(capsys, "construct", "--spec", GEO, "--tail-eps", "1e-14")
    assert code == 0
    assert len(json.loads(out)["probs"]) == default_len


@pytest.mark.parametrize("env, message", [
    ("[1]", "THINPOWER_TOLERANCES needs a JSON object"),
    ('{"tol_foo": 1}', "unknown tolerance 'tol_foo'"),
    ('{"tol_norm": "x"}', "tol_norm must be a number, got 'x'"),
    ("{bad", "invalid THINPOWER_TOLERANCES"),
])
def test_tolerance_env_input_errors(capsys, monkeypatch, env, message):
    monkeypatch.setenv("THINPOWER_TOLERANCES", env)
    code, out = run(capsys, "construct", "--spec", P1)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "ParameterError"
    assert doc["message"].startswith(message)


TOLERANCE_NAMES = ["tol_norm", "tol_ineq", "tol_root", "tail_eps", "fd_step"]


@pytest.mark.parametrize("name", TOLERANCE_NAMES)
@pytest.mark.parametrize("via", ["flag", "env"])
def test_non_finite_tolerances_are_input_errors(capsys, monkeypatch, name, via):
    for value, shown in ((math.inf, "inf"), (math.nan, "nan")):
        if via == "flag":
            argv = [f"--{name.replace('_', '-')}", shown]
        else:
            monkeypatch.setenv("THINPOWER_TOLERANCES",
                               json.dumps({name: value}))
            argv = []
        code, out = run(capsys, *argv, "construct", "--spec", P1)
        assert code == 2
        assert json.loads(out) == {
            "error": "ParameterError",
            "message": f"{name} must be finite and strictly positive, "
                       f"got {shown}"}


@pytest.mark.parametrize("value, shown", [("1.0", "1.0"), ("1e300", "1e+300")])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_tol_norm_of_one_or_more_is_an_input_error(capsys, monkeypatch, via,
                                                    value, shown):
    # unchecked, a slack of a whole probability mass lets unthin clamp an
    # ill-conditioned, unthinnable preimage into a pmf of zeros and noise
    if via == "flag":
        argv = ["--tol-norm", value]
    else:
        monkeypatch.setenv("THINPOWER_TOLERANCES", f'{{"tol_norm": {value}}}')
        argv = []
    code, out = run(capsys, "unthin", "--pmf",
                    '{"family": "binomial", "n": 60, "p": 0.5}',
                    "--alpha", "0.3", *argv)
    assert code == 2
    assert json.loads(out) == {
        "error": "ParameterError",
        "message": f"tol_norm must be below 1, got {shown}"}


@pytest.mark.parametrize("argv, env", [
    (["construct", "--spec", GEO, "--tail-eps", "inf"], None),
    (["vpower", "--pmf", '{"probs": [0.5, 0.5]}', "--tol-root", "inf"], None),
    (["unthin", "--pmf", '{"family": "binomial", "n": 60, "p": 0.5}',
      "--alpha", "0.3"], '{"tol_norm": Infinity}'),
], ids=["construct", "vpower", "unthin"])
def test_infinite_tolerance_neither_crashes_nor_answers(
        capsys, monkeypatch, argv, env):
    # unchecked, inf overflows the geometric cut, stops the V solve at
    # 1 (V is 0.3014) and lets unthin clamp an unthinnable pmf
    if env is not None:
        monkeypatch.setenv("THINPOWER_TOLERANCES", env)
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == "ParameterError"


@pytest.mark.parametrize("spec, message", [
    ('{"family": "poisson"}', "family 'poisson' misses parameter 'rate'"),
    ('{"family": "binomial", "n": "x", "p": 0.5}',
     "family 'binomial' parameter 'n' has invalid value 'x'"),
    ('{"family": "bernoulli", "p": "a"}',
     "family 'bernoulli' parameter 'p' has invalid value 'a'"),
    ('{"family": "bernoulli_sum", "ps": 3}',
     "family 'bernoulli_sum' parameter 'ps' has invalid value 3"),
])
@pytest.mark.parametrize("command", ["construct", "entropy", "hessian"])
def test_family_spec_input_errors(capsys, command, spec, message):
    argv = {"construct": ["construct", "--spec", spec],
            "entropy": ["entropy", "--pmf", spec],
            "hessian": ["hessian", "--specs", f"[{spec}, {BE5}]",
                        "--alphas", "0.5,0.5"]}[command]
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out) == {"error": "ParameterError", "message": message}


@pytest.mark.parametrize("doc", ['{"probs": ["a"]}', '{"probs": [[0.5], [0.5, 0]]}'])
@pytest.mark.parametrize("command", ["entropy", "hessian"])
def test_pmf_document_input_errors(capsys, command, doc):
    argv = {"entropy": ["entropy", "--pmf", doc],
            "hessian": ["hessian", "--specs", f"[{doc}, {BE5}]",
                        "--alphas", "0.5,0.5"]}[command]
    code, out = run(capsys, *argv)
    assert code == 2
    error = json.loads(out)
    assert error["error"] == "ParameterError"
    assert error["message"].startswith("pmf entries must be numbers")


@pytest.mark.parametrize("argv", [
    ["thin", "--alpha", "0.5"],
    ["unthin", "--alpha", "0.5"],
    ["entropy"],
    ["vpower"],
    ["path", "--grid", "5"],
] + [["functional", "--name", name] for name in ("L", "Lambda", "D", "U")],
    ids=lambda argv: "-".join(argv[::2]))
def test_single_pmf_commands_reject_extra_pmf(capsys, argv):
    code, out = run(capsys, *argv, "--pmf", P1)
    assert code == 0
    code, out = run(capsys, *argv, "--pmf", P1, "--pmf", P1)
    assert code == 2
    assert json.loads(out) == {
        "error": "ParameterError",
        "message": f"{argv[0]} needs exactly 1 --pmf input"}


_BIN2 = '{"family": "binomial", "n": 2, "p": 0.4}'
_BE3 = '{"family": "bernoulli", "p": 0.3}'
_PO = '{"family": "poisson", "rate": 1.5}'
_SIMPLEX = ["--pmf", _BE3, "--pmf", _BIN2, "--pmf", _PO, "--alphas", "0.2,0.3,0.5"]
_THIRD = "0.3333333333333333"
# the SHA-256 of stdout of each command, recorded before the leave-one-out
# simplex got one home: any change to how these outputs round fails here
PINNED_OUTPUTS = [
    (("verify", "--all"),
     "a768ab02adf2fe2e2939e7bdbaf568513a11b7df991806e09b2940cab7138f03"),
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
]


# pmfs of 1919, 1313 and 1802 points, printed by dumps_canonical's
# long-list kernel: Poisson(1500) opens with 286 zeros, and the thinned
# binomial and the convolution reach subnormals with three-digit exponents
_BIN = '{"family": "binomial", "n": %d, "p": %s}'
LONG_OUTPUTS = [
    (("construct", "--spec", '{"family": "poisson", "rate": 1500}'),
     "913c11c70d9e2cb6cdcc36547279937003d3c3c2972fc3ebbb4f3dd48ca1d396"),
    (("thin", "--alpha", "0.3", "--pmf", _BIN % (2047, "0.8")),
     "b8974476874d76dae24988aacc2d839d92e88906c8ca0a773e5f46a3d3575e1a"),
    (("conv", "--pmf", _BIN % (1000, "0.5"), "--pmf", _BIN % (1000, "0.5")),
     "38b6841f7cee96f730446bf04103ec986bdb501dfa205bc4988bf21f8d10599a"),
]
PINNED_OUTPUTS += LONG_OUTPUTS


def test_pinned_output_digests(capsys, recorded_platform):
    changed = []
    for argv, digest in PINNED_OUTPUTS:
        code, out = run(capsys, *argv)
        assert code == 0, argv
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(" ".join(argv[:3]))
    assert changed == []


@pytest.mark.parametrize("argv, size, zeros", [
    (LONG_OUTPUTS[0][0], 1919, 286),
    (LONG_OUTPUTS[1][0], 1313, 0),
    (LONG_OUTPUTS[2][0], 1802, 199),
], ids=["construct", "thin", "conv"])
def test_long_outputs_match_the_per_element_serialiser(capsys, argv, size, zeros):
    # on any platform: the bytes are those of format(v, ".17g") per float
    # of the printed values, which parse back to the same doubles
    code, out = run(capsys, *argv)
    assert code == 0
    probs = json.loads(out)["probs"]
    assert len(probs) == size
    assert probs[zeros] > 0.0 and not any(probs[:zeros])
    assert "e-3" in out
    text = ",".join(format(v, ".17g") for v in probs)
    assert out == '{"probs":[' + text + ']}\n'


# (spec, parameter, its value as the message shows it)
FLAWED_SPECS = [
    ('{"family": "binomial", "n": 3.5, "p": 0.5}', "n", "3.5"),
    ('{"family": "binomial", "n": true, "p": 0.5}', "n", "True"),
    ('{"family": "binomial", "n": 3, "p": true}', "p", "True"),
    ('{"family": "delta", "k": true}', "k", "True"),
    ('{"family": "delta", "k": 2.5}', "k", "2.5"),
    ('{"family": "delta", "k": false}', "k", "False"),
    ('{"family": "bernoulli", "p": true}', "p", "True"),
    ('{"family": "poisson", "rate": true}', "rate", "True"),
    ('{"family": "geometric", "mean": false}', "mean", "False"),
    ('{"family": "bernoulli_sum", "ps": [0.5, true]}', "ps", "[0.5, True]"),
    ('{"family": "raw", "probs": [false, true]}', "probs", "[False, True]"),
]


@pytest.mark.parametrize("spec, name, shown", FLAWED_SPECS,
                         ids=[f"{json.loads(s)['family']}-{n}-{v}"
                              for s, n, v in FLAWED_SPECS])
def test_family_specs_refuse_booleans_and_fractional_counts(
        capsys, spec, name, shown):
    # bare int() and float() read true as 1 and truncate 3.5 to 3
    code, out = run(capsys, "construct", "--spec", spec)
    assert code == 2
    family = json.loads(spec)["family"]
    assert json.loads(out) == {
        "error": "ParameterError",
        "message": f"family {family!r} parameter {name!r} "
                   f"has invalid value {shown}"}


@pytest.mark.parametrize("spec, same", [
    ('{"family": "binomial", "n": 3.0, "p": 0.5}',
     '{"family": "binomial", "n": 3, "p": 0.5}'),
    ('{"family": "delta", "k": 2.0}', '{"family": "delta", "k": 2}'),
    ('{"family": "bernoulli", "p": 1}', '{"family": "bernoulli", "p": 1.0}'),
])
def test_family_specs_keep_integral_numbers(capsys, spec, same):
    code, out = run(capsys, "construct", "--spec", spec)
    assert code == 0
    assert (code, out) == run(capsys, "construct", "--spec", same)


DEEP = "[" * 100_000


@pytest.mark.parametrize("case", ["out-missing-dir", "out-is-a-dir",
                                  "pmf-not-utf8", "pmf-file-too-deep",
                                  "pmf-inline-too-deep", "env-too-deep"])
def test_unreadable_input_and_unwritable_output_are_input_errors(
        capsys, monkeypatch, tmp_path, case):
    # each used to end in a traceback and exit 1: FileNotFoundError,
    # IsADirectoryError, UnicodeDecodeError or RecursionError
    pmf, argv = '{"probs": [0.5, 0.5]}', []
    if case == "out-missing-dir":
        argv = ["--out", str(tmp_path / "missing" / "x.json")]
    elif case == "out-is-a-dir":
        argv = ["--out", str(tmp_path)]
    elif case == "pmf-not-utf8":
        pmf = tmp_path / "pmf.json"
        pmf.write_bytes(b"\xff\xfe")
    elif case == "pmf-file-too-deep":
        pmf = tmp_path / "pmf.json"
        pmf.write_text(DEEP)
    elif case == "pmf-inline-too-deep":
        pmf = DEEP
    else:
        monkeypatch.setenv("THINPOWER_TOLERANCES", DEEP)
    code, out = run(capsys, "entropy", "--pmf", str(pmf), *argv)
    assert code == 2
    error = json.loads(out)
    assert error["error"] == "ParameterError"
    assert error["message"].startswith(
        "cannot write" if case.startswith("out") else "invalid ")
