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
from .acceptance import (FAIL2_ALPHA, FAIL2_REFERENCE,
                         binomial_corollary_margins, fail1, fail2,
                         run_criteria)
from .entropy_functionals import (entropy, entropy_power, l_functional,
                                  lambda_functional, poisson_entropy,
                                  poisson_entropy_derivative,
                                  rel_entropy_poisson, u_functional)
from .errors import (ConsistencyError, DomainError, IllConditionedError,
                     NotThinnableError, NumericError, ParameterError,
                     PreconditionError)
from .inequality_suite import STATEMENTS, search
from .jsonio import (dumps_canonical, load_json_argument, load_pmf,
                     pmf_from_doc, pmf_to_json)
from .pmf_core import FamilySpec, ToleranceConfig, construct
from .semigroup import default_t_grid, entropy_preserving_path
from .transforms import convolve, inverse_thin, thin

INPUT_ERRORS = (ParameterError, DomainError, PreconditionError,
                NotThinnableError, IllConditionedError)

TOLERANCE_ENV = "THINPOWER_TOLERANCES"

# one --flag per ToleranceConfig field, spelt with "-" for "_"
TOLERANCE_FLAGS = (("tol_norm", "normalisation slack"),
                   ("tol_ineq", "inequality margin tolerance"),
                   ("tol_root", "root-solve convergence width"),
                   ("tail_eps", "Poisson truncation tail mass"),
                   ("fd_step", "finite-difference step"))


def _build_config(args) -> ToleranceConfig:
    overrides = {}
    env = os.environ.get(TOLERANCE_ENV)
    if env:
        try:
            overrides = json.loads(env)
        except (ValueError, RecursionError) as exc:
            raise ParameterError(f"invalid {TOLERANCE_ENV}: {exc}") from None
        if not isinstance(overrides, dict):
            raise ParameterError(f"{TOLERANCE_ENV} needs a JSON object")
    for name, _ in TOLERANCE_FLAGS:
        if getattr(args, name) is not None:
            overrides[name] = getattr(args, name)
    cfg = ToleranceConfig.from_overrides(overrides)
    # the flags also carry the variable's values: a command whose default
    # differs from the config's (hessian's fd_step) checks its flag for None
    vars(args).update(overrides)
    return cfg


def _render_table(obj, indent=""):
    # a nested value opens a block under "key:" in a dict, "[i]" in a list
    if isinstance(obj, dict):
        pairs, colon = [(key, obj[key]) for key in sorted(obj)], ":"
    elif isinstance(obj, list):
        pairs, colon = [(f"[{i}]", value) for i, value in enumerate(obj)], ""
    else:
        return [f"{indent}{obj}"]
    lines = []
    for label, value in pairs:
        if isinstance(value, (dict, list)):
            lines.append(f"{indent}{label}{colon}")
            lines.extend(_render_table(value, indent + "  "))
        else:
            lines.append(f"{indent}{label} = {value}")
    return lines


def _emit(payload, args) -> None:
    if args.format == "table":
        text = "\n".join(_render_table(
            json.loads(dumps_canonical(payload)))) + "\n"
    else:
        text = dumps_canonical(payload) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_numbers(text: str, flag: str, kind=float):
    try:
        return [kind(v) for v in text.split(",") if v != ""]
    except ValueError:
        what = "integers" if kind is int else "numbers"
        raise ParameterError(
            f"{flag} needs comma-separated {what}, got {text!r}") from None


def _single_pmf(args, cfg):
    if len(args.pmf) != 1:
        raise ParameterError(f"{args.command} needs exactly 1 --pmf input")
    return load_pmf(args.pmf[0], cfg)


def _cmd_construct(args, cfg):
    spec = FamilySpec.from_json(load_json_argument(args.spec))
    return pmf_to_json(construct(spec, cfg)), 0


def _cmd_thin(args, cfg):
    return pmf_to_json(thin(_single_pmf(args, cfg), args.alpha, cfg)), 0


def _cmd_conv(args, cfg):
    if len(args.pmf) < 2:
        raise ParameterError("conv needs at least two --pmf inputs")
    out = load_pmf(args.pmf[0], cfg)
    for text in args.pmf[1:]:
        out = convolve(out, load_pmf(text, cfg), cfg)
    return pmf_to_json(out), 0


def _cmd_unthin(args, cfg):
    return pmf_to_json(inverse_thin(_single_pmf(args, cfg), args.alpha, cfg)), 0


def _cmd_entropy(args, cfg):
    value = entropy(_single_pmf(args, cfg))
    return (value.bits if args.bits else value.nats), 0


def _cmd_vpower(args, cfg):
    return entropy_power(_single_pmf(args, cfg), cfg), 0


def _cmd_functional(args, cfg):
    name = args.name
    if name in ("E", "J"):
        if args.pmf:
            raise ParameterError(f"functional {name} takes no --pmf")
        if args.t is None:
            raise ParameterError(f"functional {name} needs --t")
        fn = poisson_entropy if name == "E" else poisson_entropy_derivative
        return fn(args.t, cfg), 0
    if args.t is not None:
        raise ParameterError(f"functional {name} takes no --t")
    if not args.pmf:
        raise ParameterError(f"functional {name} needs --pmf")
    table = {"L": l_functional, "Lambda": lambda_functional,
             "D": rel_entropy_poisson, "U": u_functional}
    return table[name](_single_pmf(args, cfg)), 0


def _cmd_path(args, cfg):
    report = entropy_preserving_path(_single_pmf(args, cfg),
                                     default_t_grid(args.grid), cfg)
    return report.to_json(), 0


def _cmd_check(args, cfg):
    pmfs = [load_pmf(text, cfg) for text in (args.pmf or [])]
    name = args.name
    statement = STATEMENTS.get(name)
    if statement is None:
        raise ParameterError(f"unknown check name {name!r}")
    unused = [f"--{flag}" for flag in ("alpha", "alphas", "beta", "gamma")
              if getattr(args, flag) is not None
              and flag not in statement.params]
    if args.allow_non_ulc and not statement.ulc_gated:
        unused.append("--allow-non-ulc")
    if unused:
        raise ParameterError(f"check {name} takes no {' or '.join(unused)}")
    if statement.pmfs is not None and len(pmfs) != statement.pmfs:
        raise ParameterError(
            f"check {name} needs exactly {statement.pmfs} --pmf inputs")
    params = [getattr(args, flag) for flag in statement.params]
    if any(value is None for value in params):
        flags = " and ".join(f"--{flag}" for flag in statement.params)
        raise ParameterError(f"check {name} needs {flags}")
    if statement.params == ("alphas",):
        params = [_parse_numbers(args.alphas, "--alphas")]
    verdict = statement.run(pmfs, params, cfg, args.allow_non_ulc)
    return verdict.to_json(), 0 if (verdict.holds or not statement.proved) else 1


def _cmd_reproduce(args, cfg):
    if args.example == "fail1":
        verdict, refuted = fail1(cfg)
        payload = {"example": "fail1", "verdict": verdict.to_json(),
                   "expected_refutation": refuted}
        return payload, 0 if refuted else 1
    if args.example == "fail2":
        computed, deviations, verdict, refuted = fail2(cfg)
        labels = ("H(X) bits", "V(X)", "alpha V(X) + (1-alpha) V(Y)",
                  "H(thinned sum) bits", "V(thinned sum)")
        rows = [{"quantity": label, "computed": c, "reference": r, "deviation": d}
                for label, c, r, d in zip(labels, computed, FAIL2_REFERENCE,
                                          deviations)]
        payload = {"example": "fail2", "alpha": FAIL2_ALPHA, "values": rows,
                   "tepi_verdict": verdict.to_json(),
                   "expected_refutation": refuted}
        return payload, 0 if refuted else 1
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
    pmfs = [pmf_from_doc(doc, cfg) for doc in docs]
    alphas = _parse_numbers(args.alphas, "--alphas")
    analytic = hes.hessian_analytic(pmfs, alphas, cfg)
    payload = {"alphas": alphas, "hessian": analytic.tolist()}
    if args.fd_check:
        step = hes._FD_STEP if args.fd_step is None else cfg.fd_step
        numeric = hes.hessian_fd(pmfs, alphas, cfg, step=step)
        payload["fd_hessian"] = numeric.tolist()
        payload["max_abs_gap"] = float(np.max(np.abs(analytic - numeric)))
    return payload, 0


def _cmd_splitting(args, cfg):
    alphas = _parse_numbers(args.alphas, "--alphas")
    lambdas = _parse_numbers(args.lambdas, "--lambdas")
    witness = hes.positive_splitting(alphas, args.l, args.t, lambdas)
    return witness.to_json(), 0


def _cmd_verify(args, cfg):
    numbers = (None if args.all
               else _parse_numbers(args.criteria or "", "--criteria", int))
    if numbers == []:
        raise ParameterError("verify needs --all or --criteria")
    results = run_criteria(numbers, cfg)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} criterion {res.number}: {res.name} "
              f"({res.seconds:.2f}s)", file=sys.stderr)
    payload = [res.to_json() for res in results]
    return payload, 0 if all(res.passed for res in results) else 1


def _shared_flags(default=None) -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False, allow_abbrev=False,
                                    argument_default=default)
    flags.add_argument("--format", choices=("json", "table"),
                       help="output format (default json, canonical)")
    flags.add_argument("--out", help="write output to this file instead of stdout")
    for name, hint in TOLERANCE_FLAGS:
        flags.add_argument(f"--{name.replace('_', '-')}", dest=name,
                           type=float, help=hint)
    return flags


def build_parser() -> argparse.ArgumentParser:
    # shared flags are accepted both before and after the subcommand; the
    # subcommand's copies default to SUPPRESS so an absent flag leaves the
    # value given before the subcommand in place
    common = _shared_flags(argparse.SUPPRESS)
    parser = argparse.ArgumentParser(
        prog="thinpower",
        allow_abbrev=False,
        parents=[_shared_flags()],
        description="Thinning, Poisson entropy power, and inequality checks "
                    "for finite discrete distributions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, handler, **kwargs):
        p = sub.add_parser(name, parents=[common], allow_abbrev=False, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add_parser("construct", _cmd_construct, help="build a pmf from a family spec")
    p.add_argument("--spec", required=True,
                   help="family spec JSON (inline or a file path)")

    for cmd, handler, blurb in (
            ("thin", _cmd_thin, "binomially thin a pmf"),
            ("unthin", _cmd_unthin, "invert thinning; exit 2 if not "
             "thinnable or too ill-conditioned to decide")):
        p = add_parser(cmd, handler, help=blurb)
        p.add_argument("--pmf", action="append", required=True)
        p.add_argument("--alpha", type=float, required=True)

    p = add_parser("conv", _cmd_conv, help="convolve two or more pmfs")
    p.add_argument("--pmf", action="append", required=True)

    p = add_parser("entropy", _cmd_entropy, help="Shannon entropy of a pmf")
    p.add_argument("--pmf", action="append", required=True)
    p.add_argument("--bits", action="store_true", help="report base-2 entropy")

    p = add_parser("vpower", _cmd_vpower, help="Poisson-rate entropy power of a pmf")
    p.add_argument("--pmf", action="append", required=True)

    p = add_parser("functional", _cmd_functional,
                   help="evaluate a named scalar functional")
    p.add_argument("--name", required=True,
                   choices=("L", "Lambda", "D", "U", "J", "E"))
    p.add_argument("--pmf", action="append")
    p.add_argument("--t", type=float, help="rate argument for E and J")

    p = add_parser("path", _cmd_path, help="entropy-preserving interpolation report")
    p.add_argument("--pmf", action="append", required=True)
    p.add_argument("--grid", type=int, default=40)

    p = add_parser("check", _cmd_check, help="evaluate one inequality verdict")
    p.add_argument("--name", required=True)
    p.add_argument("--pmf", action="append")
    p.add_argument("--alpha", type=float)
    p.add_argument("--alphas", help="comma-separated simplex weights")
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--allow-non-ulc", action="store_true",
                   help="evaluate outside the theorem hypotheses")

    p = add_parser("reproduce", _cmd_reproduce,
                   help="re-run a bundled reference example")
    p.add_argument("--example", required=True,
                   choices=("fail1", "fail2", "binoineq"))

    p = add_parser("search", _cmd_search, help="seeded randomized inequality sweep")
    p.add_argument("--name", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-bernoullis", type=int, default=3)
    p.add_argument("--max-poisson-rate", type=float, default=2.0)

    p = add_parser("hessian", _cmd_hessian, help="analytic Hessian of the thinned sum")
    p.add_argument("--specs", required=True,
                   help="JSON array of family specs or pmf documents")
    p.add_argument("--alphas", required=True)
    p.add_argument("--fd-check", action="store_true")

    p = add_parser("splitting", _cmd_splitting, help="positive splitting witness")
    p.add_argument("--l", type=int, required=True,
                   help="leave-out index (0-based)")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--lambdas", required=True)
    p.add_argument("--alphas", required=True)

    p = add_parser("verify", _cmd_verify, help="run the acceptance criteria")
    p.add_argument("--all", action="store_true")
    p.add_argument("--criteria", help="comma-separated criterion numbers")

    return parser


def _error_doc(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        payload, code = args.handler(args, cfg)
    except INPUT_ERRORS as exc:
        payload, code = _error_doc(exc), 2
    except (NumericError, ConsistencyError) as exc:
        payload, code = _error_doc(exc), 1
    try:
        _emit(payload, args)
    except OSError as exc:
        if not args.out:    # stdout itself failed
            raise
        # --out cannot be written: the error goes to stdout instead
        error = ParameterError(f"cannot write {args.out!r}: {exc}")
        args.out = None
        _emit(_error_doc(error), args)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
