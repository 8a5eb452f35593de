"""Command-line driver.

Subcommands:

    solve-linear      solve -phi(u')' = h with zero boundary values
    solve-nonlinear   build a subsolution/supersolution pair and iterate
    sweep             shooting sweep over a lambda range, with thresholds
    indices           growth-index battery for a catalog homeomorphism
    verify-bounds     randomized corpus check of the discrete bound chains

Exit codes: 0 on success, 1 on domain errors (construction failures,
non-convergence, malformed problem files), 2 on usage errors.
Diagnostics go to stderr; data goes to files under --out-dir.  Commands
are deterministic: the same invocation writes byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .bifurcation import check_cone_membership, compute_lambda1, sweep
from .corpus import corpus
from .errors import ConstructionError, PhiBVPError, ZeroWeightError
from .grids import integral, pointwise_leq, sup_norm
from .homeomorphisms import CATALOG_DESCRIPTORS, make_catalog_entry
from .linear import (envelope_bounds, cone_lower_bound, estimate_comparison_constant,
                     solve_linear, sup_norm_lower_bound, verify_comparison_constant)
from .nonlinear import build_supersolution, make_sub_super_pair, solve_between
from .orlicz import check_delta2, check_phi_conditions, duality_check
from .problem_io import (parse_linear_problem, parse_problem, write_diagram_csv,
                         write_json_report, write_profile_csv)
from .problems import with_lambda


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _out_path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _bound_verdicts(phi, h, profile) -> dict:
    """The envelope, cone and half-bracket verdicts on the solution
    ``profile`` of the forcing h, each with the slack 1e-8 * (1 + ||u||).
    Raises ``ZeroWeightError`` when h carries no mass."""
    unorm = sup_norm(profile.u)
    slack = 1e-8 * (1.0 + unorm)
    lower, upper = envelope_bounds(phi, h)
    return {
        "envelope_lower_holds": pointwise_leq(lower, profile.u, slack),
        "envelope_upper_holds": pointwise_leq(profile.u, upper, slack),
        "cone_bound_holds": cone_lower_bound(phi, h, slack),
        "half_bracket_below_sup_norm": bool(
            0.5 * sup_norm_lower_bound(phi, h) <= unorm + slack),
    }


def _cmd_solve_linear(args) -> int:
    phi, h = parse_linear_problem(args.problem, grid_size=args.grid_size)
    profile = solve_linear(phi, h, tol=args.tol)

    report = {
        "c_star": profile.c_star,
        "residual": profile.residual,
        "sup_norm": sup_norm(profile.u),
        "envelope_lower_holds": None,
        "envelope_upper_holds": None,
        "cone_bound_holds": None,
        "half_bracket_below_sup_norm": None,
    }
    try:
        report.update(_bound_verdicts(phi, h, profile))
    except ZeroWeightError:
        _note("forcing carries no mass; envelope checks skipped")

    write_profile_csv(_out_path(args, "solution.csv"), profile)
    write_json_report(_out_path(args, "report.json"), report)
    _note("wrote solution.csv and report.json to %s" % args.out_dir)
    return 0


def _cmd_solve_nonlinear(args) -> int:
    spec = parse_problem(args.problem, grid_size=args.grid_size)
    pair = make_sub_super_pair(spec)
    history = []
    solution = solve_between(spec, pair.sub, pair.super, tol=args.tol,
                             history=history)

    u = solution.u.values
    du = solution.du.values
    report = {
        "lambda0": pair.lambda0,
        "kappa_lambda": pair.kappa_lambda,
        "epsilon": pair.epsilon,
        "iterations": len(history),
        "residual": solution.residual,
        "sup_norm": sup_norm(solution.u),
        "in_cone": check_cone_membership(solution, spec.n),
        "interior_positive": bool(np.all(u[1:-1] > 0.0)),
        "inward_slopes": bool(du[0] > 0.0 > du[-1]),
    }

    write_profile_csv(_out_path(args, "sub.csv"), pair.sub)
    write_profile_csv(_out_path(args, "super.csv"), pair.super)
    write_profile_csv(_out_path(args, "solution.csv"), solution)
    write_json_report(_out_path(args, "report.json"), report)
    _note("wrote sub.csv, super.csv, solution.csv and report.json to %s"
          % args.out_dir)
    return 0


def _cmd_sweep(args) -> int:
    spec = parse_problem(args.problem, grid_size=args.grid_size)
    if not (0.0 < args.lambda_min < args.lambda_max < math.inf):
        raise ValueError("need 0 < --lambda-min < --lambda-max < inf")
    lambdas = np.geomspace(args.lambda_min, args.lambda_max, args.lambda_steps)
    diagram = sweep(spec, lambdas, s_max=args.s_max, count=args.s_count)

    lambda0 = float("nan")
    try:
        lambda0 = build_supersolution(with_lambda(spec, 1e-12)).lambda0
    except (ConstructionError, ZeroWeightError) as exc:
        _note("lambda0 unavailable: %s" % exc)
    lambda1, rho = float("nan"), float("nan")
    try:
        lambda1, rho = compute_lambda1(spec, R=args.r_max)
    except (ConstructionError, ZeroWeightError, ValueError) as exc:
        _note("lambda1 unavailable: %s" % exc)

    write_diagram_csv(_out_path(args, "diagram.csv"), diagram)
    write_json_report(_out_path(args, "report.json"), {
        "lambda_star_estimate": diagram.lambda_star_estimate,
        "lambda0": lambda0,
        "lambda1": lambda1,
        "rho": rho,
    })
    _note("wrote diagram.csv and report.json to %s" % args.out_dir)
    return 0


def _cmd_indices(args) -> int:
    phi = make_catalog_entry(args.entry)
    duality = duality_check(phi)
    estimate = duality.estimate
    d2 = check_delta2(phi)
    conditions = check_phi_conditions(phi, estimate=estimate)

    write_json_report(_out_path(args, "indices.json"), {
        "entry": args.entry,
        "alpha_hat": estimate.alpha_hat,
        "beta_hat": estimate.beta_hat,
        "fit_residual": estimate.fit_residual,
        "delta2": {"holds": d2.holds, "k_hat": d2.k_hat},
        "phi_cond": {
            "holds": conditions.phi_cond,
            "psi1": conditions.psi1,
            "psi2": conditions.psi2,
            "phi_prime": conditions.phi_prime_cond,
            "constant": conditions.constant,
            "p": conditions.p,
            "q": conditions.q,
        },
        "duality": {
            "passed": duality.passed,
            "beta_residual": duality.beta_residual,
            "alpha_residual": duality.alpha_residual,
            "inverse_alpha_hat": duality.inverse_estimate.alpha_hat,
            "inverse_beta_hat": duality.inverse_estimate.beta_hat,
        },
    })
    _note("wrote indices.json to %s" % args.out_dir)
    return 0


def _cmd_verify_bounds(args) -> int:
    cases = corpus(args.seed, args.cases, grid_size=args.grid_size)
    fine_M = np.geomspace(1e-4, 1e4, 331)
    results = []
    for index, (descriptor, phi, h) in enumerate(cases):
        profile = solve_linear(phi, h)
        verdicts = _bound_verdicts(phi, h, profile)
        constant = estimate_comparison_constant(phi, h)
        recheck = bool(constant > 0.0
                       and verify_comparison_constant(phi, h, constant, fine_M))
        results.append({
            "case": index,
            "phi": descriptor,
            "mass": integral(h),
            "sup_norm": sup_norm(profile.u),
            "envelopes_hold": (verdicts["envelope_lower_holds"]
                               and verdicts["envelope_upper_holds"]),
            "cone_bound_holds": verdicts["cone_bound_holds"],
            "half_bracket_below_sup_norm":
                verdicts["half_bracket_below_sup_norm"],
            "comparison_constant": constant,
            "comparison_recheck": recheck,
        })

    all_pass = all(r["envelopes_hold"] and r["cone_bound_holds"]
                   and r["half_bracket_below_sup_norm"] and r["comparison_recheck"]
                   for r in results)
    write_json_report(_out_path(args, "bounds_report.json"), {
        "seed": args.seed,
        "cases": args.cases,
        "grid_size": args.grid_size,
        "all_pass": all_pass,
        "results": results,
    })
    _note("checked %d cases, all_pass=%s" % (args.cases, all_pass))
    return 0 if all_pass else 1


def _add_common(parser, grid_size_default=None):
    parser.add_argument("--grid-size", type=int, default=grid_size_default,
                        help="override the node count")
    parser.add_argument("--out-dir", default=".", help="directory for outputs")


def _count_of(noun: str):
    """An argparse type for a count of ``noun`` that must be at least 1."""
    def count(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(
                "need at least 1 %s, got %d" % (noun, value))
        return value
    return count


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; every later call, and
    so every in-process ``main``, reuses the same one."""
    parser = argparse.ArgumentParser(
        prog="phibvp",
        description="Two-point boundary value problems driven by an odd "
                    "increasing homeomorphism.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-linear", help="solve -phi(u')' = h, u(a)=u(b)=0")
    p.add_argument("problem", help="linear problem file (JSON)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="normalized flux residual target")
    _add_common(p)
    p.set_defaults(handler=_cmd_solve_linear)

    p = sub.add_parser("solve-nonlinear",
                       help="sandwich a solution between constructed barriers")
    p.add_argument("problem", help="problem file (JSON)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="iteration gap target")
    _add_common(p)
    p.set_defaults(handler=_cmd_solve_nonlinear)

    p = sub.add_parser("sweep", help="shooting sweep over a lambda range")
    p.add_argument("problem", help="problem file (JSON)")
    p.add_argument("--lambda-min", type=float, required=True)
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument("--lambda-steps", type=_count_of("lambda step"),
                   default=12)
    p.add_argument("--s-max", type=float, default=100.0,
                   help="largest initial slope to scan")
    p.add_argument("--s-count", type=int, default=60,
                   help="slopes per scan")
    p.add_argument("--r-max", type=float, default=4.0,
                   help="norm cap R used by the small-lambda threshold")
    _add_common(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("indices", help="growth indices, doubling, duality")
    p.add_argument("entry", help="catalog descriptor, one of: %s"
                   % ", ".join(CATALOG_DESCRIPTORS))
    _add_common(p)
    p.set_defaults(handler=_cmd_indices)

    p = sub.add_parser("verify-bounds",
                       help="randomized check of the discrete bound chains")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_count_of("case"), default=50)
    _add_common(p, grid_size_default=257)
    p.set_defaults(handler=_cmd_verify_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (PhiBVPError, ValueError) as exc:
        _note("error: %s" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
