"""Command-line behaviour: dispatch, JSON formats, exit codes, determinism."""

import json

import pytest

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


def test_vpower_matches_poisson_rate(capsys):
    code, out = run(capsys, "vpower", "--pmf", '{"family": "poisson", "rate": 3}')
    assert code == 0
    assert json.loads(out) == pytest.approx(3.0, abs=1e-8)


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


def test_hessian_command_with_fd_check(capsys):
    code, out = run(capsys, "hessian",
                    "--specs", '[{"family": "bernoulli", "p": 0.5},'
                               ' {"family": "bernoulli", "p": 0.7}]',
                    "--alphas", "0.4,0.6", "--fd-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_abs_gap"] < 1e-5


def test_splitting_command(capsys):
    code, out = run(capsys, "splitting", "--l", "1", "--t", "0.5",
                    "--lambdas", "1,1", "--alphas", "0.5,0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["S"] == pytest.approx(4.0, abs=1e-12)


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
