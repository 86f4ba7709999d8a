"""Command-line entry point exposing every operation plus the reproduction
bundle and the acceptance gate.

Machine output is canonical JSON on stdout (sorted keys, 17-significant-digit
floats), so identical invocations are byte-identical.  Exit codes: 0 for
success or an expected refutation, 1 for an unexpected violation of a proved
statement or an internal inconsistency, 2 for input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import hessian as hes
from .acceptance import binomial_corollary_margins, fail2_values, run_criteria
from .acceptance import FAIL2_ALPHA, FAIL2_REFERENCE, fail2_inputs
from .entropy_functionals import (entropy, entropy_power, l_functional,
                                  lambda_functional, poisson_entropy,
                                  poisson_entropy_derivative,
                                  rel_entropy_poisson, u_functional)
from .errors import (CapacityError, ConsistencyError, DomainError,
                     NotThinnableError, NumericError, ParameterError,
                     PreconditionError)
from .inequality_suite import (STATEMENTS, check_conjecture_tepi,
                               check_conjecture_v_superadd, search)
from .jsonio import (dumps_canonical, load_json_argument, load_pmf,
                     pmf_to_json)
from .pmf_core import FamilySpec, ToleranceConfig, construct
from .semigroup import default_t_grid, entropy_preserving_path
from .transforms import convolve, inverse_thin, thin

INPUT_ERRORS = (ParameterError, DomainError, PreconditionError,
                NotThinnableError, CapacityError)

TOLERANCE_ENV = "THINPOWER_TOLERANCES"


def _build_config(args) -> ToleranceConfig:
    values = {}
    env = os.environ.get(TOLERANCE_ENV)
    if env:
        try:
            values.update(json.loads(env))
        except json.JSONDecodeError as exc:
            raise ParameterError(f"invalid {TOLERANCE_ENV}: {exc}") from None
    for name in ("tol_norm", "tol_ineq", "tol_root", "tail_eps", "fd_step"):
        override = getattr(args, name, None)
        if override is not None:
            values[name] = override
    return ToleranceConfig(**values)


def _render_table(obj, indent=""):
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.extend(_render_table(value, indent + "  "))
            else:
                lines.append(f"{indent}{key} = {value}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            if isinstance(value, (dict, list)):
                lines.append(f"{indent}[{i}]")
                lines.extend(_render_table(value, indent + "  "))
            else:
                lines.append(f"{indent}[{i}] = {value}")
    else:
        lines.append(f"{indent}{obj}")
    return lines


def _emit(payload, args) -> None:
    if getattr(args, "format", "json") == "table":
        text = "\n".join(_render_table(
            json.loads(dumps_canonical(payload)))) + "\n"
    else:
        text = dumps_canonical(payload) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_floats(text: str, flag: str):
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise ParameterError(
            f"{flag} needs comma-separated numbers, got {text!r}") from None


def _cmd_construct(args, cfg):
    spec = FamilySpec.from_json(load_json_argument(args.spec))
    return pmf_to_json(construct(spec, cfg)), 0


def _cmd_thin(args, cfg):
    pmf = load_pmf(args.pmf[0], cfg)
    return pmf_to_json(thin(pmf, args.alpha, cfg)), 0


def _cmd_conv(args, cfg):
    if len(args.pmf) < 2:
        raise ParameterError("conv needs at least two --pmf inputs")
    out = load_pmf(args.pmf[0], cfg)
    for text in args.pmf[1:]:
        out = convolve(out, load_pmf(text, cfg), cfg)
    return pmf_to_json(out), 0


def _cmd_unthin(args, cfg):
    pmf = load_pmf(args.pmf[0], cfg)
    return pmf_to_json(inverse_thin(pmf, args.alpha, cfg)), 0


def _cmd_entropy(args, cfg):
    value = entropy(load_pmf(args.pmf[0], cfg))
    return (value.bits if args.bits else value.nats), 0


def _cmd_vpower(args, cfg):
    return entropy_power(load_pmf(args.pmf[0], cfg), cfg), 0


def _cmd_functional(args, cfg):
    name = args.name
    if name in ("E", "J"):
        if args.t is None:
            raise ParameterError(f"functional {name} needs --t")
        fn = poisson_entropy if name == "E" else poisson_entropy_derivative
        return fn(args.t, cfg), 0
    if not args.pmf:
        raise ParameterError(f"functional {name} needs --pmf")
    pmf = load_pmf(args.pmf[0], cfg)
    table = {"L": l_functional, "Lambda": lambda_functional,
             "D": rel_entropy_poisson, "U": u_functional}
    return table[name](pmf, cfg), 0


def _cmd_path(args, cfg):
    pmf = load_pmf(args.pmf[0], cfg)
    report = entropy_preserving_path(pmf, default_t_grid(args.grid), cfg)
    return report.to_json(), 0


def _cmd_check(args, cfg):
    pmfs = [load_pmf(text, cfg) for text in (args.pmf or [])]
    name = args.name
    statement = STATEMENTS.get(name)
    if statement is None:
        raise ParameterError(f"unknown check name {name!r}")
    if statement.pmfs is not None and len(pmfs) != statement.pmfs:
        raise ParameterError(
            f"check {name} needs exactly {statement.pmfs} --pmf inputs")
    params = [getattr(args, flag) for flag in statement.params]
    if any(value is None for value in params):
        flags = " and ".join(f"--{flag}" for flag in statement.params)
        raise ParameterError(f"check {name} needs {flags}")
    if statement.params == ("alphas",):
        params = [_parse_floats(args.alphas, "--alphas")]
    verdict = statement.run(pmfs, params, cfg, args.allow_non_ulc)
    return verdict.to_json(), 0 if (verdict.holds or not statement.proved) else 1


def _cmd_reproduce(args, cfg):
    if args.example == "fail1":
        p = construct(FamilySpec.raw([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0]), cfg)
        verdict = check_conjecture_v_superadd(p, p, cfg)
        expected = not verdict.holds and verdict.margin < -1e-6
        payload = {"example": "fail1", "verdict": verdict.to_json(),
                   "expected_refutation": expected}
        return payload, 0 if expected else 1
    if args.example == "fail2":
        computed = fail2_values(cfg)
        labels = ("H(X) bits", "V(X)", "alpha V(X) + (1-alpha) V(Y)",
                  "H(thinned sum) bits", "V(thinned sum)")
        rows = [{"quantity": label, "computed": c, "reference": r,
                 "deviation": abs(c - r)}
                for label, c, r in zip(labels, computed, FAIL2_REFERENCE)]
        x, y = fail2_inputs(cfg)
        verdict = check_conjecture_tepi(x, y, FAIL2_ALPHA, cfg)
        expected = (max(row["deviation"] for row in rows) < 1e-4
                    and not verdict.holds)
        payload = {"example": "fail2", "alpha": FAIL2_ALPHA, "values": rows,
                   "tepi_verdict": verdict.to_json(),
                   "expected_refutation": expected}
        return payload, 0 if expected else 1
    worst, count, violations = binomial_corollary_margins(cfg)
    payload = {"example": "binoineq", "cases": count,
               "violations": violations, "worst_margin": worst}
    return payload, 0 if violations == 0 else 1


def _cmd_search(args, cfg):
    report = search(args.name, args.trials, args.seed, cfg,
                    max_bernoullis=args.max_bernoullis,
                    max_poisson_rate=args.max_poisson_rate)
    code = 1 if (STATEMENTS[args.name].proved and report.violations) else 0
    return report.to_json(), code


def _cmd_hessian(args, cfg):
    docs = load_json_argument(args.specs)
    if not isinstance(docs, list):
        raise ParameterError("hessian --specs needs a JSON array")
    pmfs = []
    for doc in docs:
        if isinstance(doc, dict) and "family" in doc:
            pmfs.append(construct(FamilySpec.from_json(doc), cfg))
        else:
            from .jsonio import pmf_from_json
            pmfs.append(pmf_from_json(doc, cfg))
    alphas = _parse_floats(args.alphas, "--alphas")
    analytic = hes.hessian_analytic(pmfs, alphas, cfg, args.cell_budget)
    payload = {"alphas": alphas, "hessian": analytic.tolist()}
    if args.fd_check:
        numeric = hes.hessian_fd(pmfs, alphas, cfg, step=args.fd_step or 1e-4)
        payload["fd_hessian"] = numeric.tolist()
        payload["max_abs_gap"] = float(np.max(np.abs(analytic - numeric)))
    return payload, 0


def _cmd_splitting(args, cfg):
    alphas = np.asarray(_parse_floats(args.alphas, "--alphas"))
    lambdas = _parse_floats(args.lambdas, "--lambdas")
    beta, mu = hes.interpolation_point(alphas, args.l, args.t)
    witness = hes.positive_splitting(beta, mu, args.t, lambdas, cfg)
    return witness.to_json(), 0


def _cmd_verify(args, cfg):
    if args.all:
        numbers = None
    elif args.criteria:
        numbers = [int(v) for v in args.criteria.split(",")]
    else:
        raise ParameterError("verify needs --all or --criteria")
    results = run_criteria(numbers, cfg)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} criterion {res.number}: {res.name} "
              f"({res.seconds:.2f}s)", file=sys.stderr)
    payload = [res.to_json() for res in results]
    return payload, 0 if all(res.passed for res in results) else 1


_COMMANDS = {
    "construct": _cmd_construct,
    "thin": _cmd_thin,
    "conv": _cmd_conv,
    "unthin": _cmd_unthin,
    "entropy": _cmd_entropy,
    "vpower": _cmd_vpower,
    "functional": _cmd_functional,
    "path": _cmd_path,
    "check": _cmd_check,
    "reproduce": _cmd_reproduce,
    "search": _cmd_search,
    "hessian": _cmd_hessian,
    "splitting": _cmd_splitting,
    "verify": _cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    # shared flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--format", choices=("json", "table"), default="json",
                        help="output format (default json, canonical)")
    common.add_argument("--out", help="write output to this file instead of stdout")
    for name, hint in (("tol-norm", "normalisation slack"),
                       ("tol-ineq", "inequality margin tolerance"),
                       ("tol-root", "root-solve convergence width"),
                       ("tail-eps", "Poisson truncation tail mass"),
                       ("fd-step", "finite-difference step")):
        common.add_argument(f"--{name}", dest=name.replace("-", "_"),
                            type=float, default=None, help=hint)

    parser = argparse.ArgumentParser(
        prog="thinpower",
        allow_abbrev=False,
        parents=[common],
        description="Thinning, Poisson entropy power, and inequality checks "
                    "for finite discrete distributions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common],
                              allow_abbrev=False, **kwargs)

    p = add_parser("construct", help="build a pmf from a family spec")
    p.add_argument("--spec", required=True,
                   help="family spec JSON (inline or a file path)")

    for cmd, blurb in (("thin", "binomially thin a pmf"),
                       ("unthin", "invert thinning; exit 2 if impossible")):
        p = add_parser(cmd, help=blurb)
        p.add_argument("--pmf", action="append", required=True)
        p.add_argument("--alpha", type=float, required=True)

    p = add_parser("conv", help="convolve two or more pmfs")
    p.add_argument("--pmf", action="append", required=True)

    p = add_parser("entropy", help="Shannon entropy of a pmf")
    p.add_argument("--pmf", action="append", required=True)
    p.add_argument("--bits", action="store_true", help="report base-2 entropy")

    p = add_parser("vpower", help="Poisson-rate entropy power of a pmf")
    p.add_argument("--pmf", action="append", required=True)

    p = add_parser("functional", help="evaluate a named scalar functional")
    p.add_argument("--name", required=True,
                   choices=("L", "Lambda", "D", "U", "J", "E"))
    p.add_argument("--pmf", action="append")
    p.add_argument("--t", type=float, help="rate argument for E and J")

    p = add_parser("path", help="entropy-preserving interpolation report")
    p.add_argument("--pmf", action="append", required=True)
    p.add_argument("--grid", type=int, default=40)

    p = add_parser("check", help="evaluate one inequality verdict")
    p.add_argument("--name", required=True)
    p.add_argument("--pmf", action="append")
    p.add_argument("--alpha", type=float)
    p.add_argument("--alphas", help="comma-separated simplex weights")
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--allow-non-ulc", action="store_true",
                   help="evaluate outside the theorem hypotheses")

    p = add_parser("reproduce", help="re-run a bundled reference example")
    p.add_argument("--example", required=True,
                   choices=("fail1", "fail2", "binoineq"))

    p = add_parser("search", help="seeded randomized inequality sweep")
    p.add_argument("--name", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-bernoullis", type=int, default=3)
    p.add_argument("--max-poisson-rate", type=float, default=2.0)

    p = add_parser("hessian", help="analytic Hessian of the thinned sum")
    p.add_argument("--specs", required=True,
                   help="JSON array of family specs or pmf documents")
    p.add_argument("--alphas", required=True)
    p.add_argument("--fd-check", action="store_true")
    p.add_argument("--cell-budget", type=int, default=hes.DEFAULT_CELL_BUDGET)

    p = add_parser("splitting", help="positive splitting witness")
    p.add_argument("--l", type=int, required=True,
                   help="leave-out index (0-based)")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--lambdas", required=True)
    p.add_argument("--alphas", required=True)

    p = add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--all", action="store_true")
    p.add_argument("--criteria", help="comma-separated criterion numbers")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        payload, code = _COMMANDS[args.command](args, cfg)
    except INPUT_ERRORS as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, args)
        return 2
    except (NumericError, ConsistencyError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, args)
        return 1
    _emit(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
