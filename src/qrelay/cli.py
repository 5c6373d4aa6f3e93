"""Command line front end.

Subcommands:
  analytic   closed-form figures and the optimal strategy for one (m, theta)
  sweep      CSV of closed-form figures over a theta grid
  optimize   numerical strategy search, cross-checked against the closed form
  simulate   Monte Carlo run of a saved strategy document
  validate   schema and soundness check of a strategy document

Exit codes: 0 success, 2 bad parameters, 3 failed validation,
4 optimization failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import bloch
from .ensembles import symmetric_ensemble
from .errors import DomainError, OptimizationError, ValidationError
from .fidelity import (Strategy, fidelity_of_strategy, max_fidelity_analytic,
                       optimal_strategy_analytic, retransmission_colatitude)
from .measurements import (error_probability, greedy_assignment, identity_sum_residual,
                           min_error_analytic)
from .optimizer import MAX_ITERATIONS, OptimizerConfig, optimize_fidelity
from .simulator import SimResult, simulate_strategy
from .strategy_io import load_strategy, save_strategy


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _print_strategy(s: Strategy) -> None:
    """One line per outcome: element weight t and unit direction of r (+z for r = 0), retransmitted Bloch vector."""
    t, r = s.pom.terms
    for k, (w, n, b) in enumerate(zip(t.tolist(), bloch.unit(r).tolist(), s.vectors.tolist())):
        print(f"outcome {k}: weight = {_fmt(max(0.0, w))}  "
              f"direction = ({_fmt(n[0])}, {_fmt(n[1])}, {_fmt(n[2])})  "
              f"retransmit = ({_fmt(b[0])}, {_fmt(b[1])}, {_fmt(b[2])})")


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def cmd_analytic(args: argparse.Namespace) -> int:
    theta = _angle(args.theta, args.degrees)
    alpha = _angle(args.alpha, args.degrees)
    e = symmetric_ensemble(args.m, theta)
    strategy = optimal_strategy_analytic(args.m, theta, args.n_outputs, alpha)
    n_used = len(strategy.pom.elements)
    print(f"m = {args.m}")
    print(f"theta = {_fmt(theta)}")
    print(f"p_e_min = {_fmt(min_error_analytic(args.m, theta))}")
    print(f"f_max = {_fmt(max_fidelity_analytic(args.m, theta))}")
    print(f"chi = {_fmt(retransmission_colatitude(args.m, theta))}")
    print(f"n_outputs = {n_used}")
    print(f"alpha = {_fmt(alpha if args.m > 2 else 0.0)}")
    _print_strategy(strategy)
    if args.output_path:
        save_strategy(args.output_path, e, strategy, "analytic",
                      {"m": args.m, "theta": theta, "n_outputs": n_used,
                       "alpha": alpha if args.m > 2 else 0.0})
        print(f"saved: {args.output_path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.theta_steps < 2:
        raise DomainError("theta_steps must be >= 2")
    half_pi = math.pi / 2.0
    rows = []
    for i in range(args.theta_steps):
        theta = half_pi * i / (args.theta_steps - 1)
        rows.append((theta, min_error_analytic(args.m, theta),
                     max_fidelity_analytic(args.m, theta),
                     retransmission_colatitude(args.m, theta)))
    with open(args.output_path, "w", newline="\n") as fh:
        fh.write("theta,p_e_min,f_max,chi\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
    print(f"wrote {len(rows)} rows to {args.output_path}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    theta = _angle(args.theta, args.degrees)
    e = symmetric_ensemble(args.m, theta)
    n_elements = args.n_elements if args.n_elements is not None else args.m
    cfg = OptimizerConfig(n_elements=n_elements, restarts=args.restarts, seed=args.seed)
    strategy, achieved, trace = optimize_fidelity(e, cfg)
    bound = max_fidelity_analytic(args.m, theta)
    print(f"m = {args.m}")
    print(f"theta = {_fmt(theta)}")
    print(f"n_elements = {n_elements}")
    print(f"restarts = {cfg.restarts}")
    print(f"seed = {cfg.seed}")
    print(f"achieved_f = {_fmt(achieved)}")
    print(f"analytic_f_max = {_fmt(bound)}")
    print(f"gap = {_fmt(bound - achieved)}")
    print(f"identity_residual = {_fmt(identity_sum_residual(strategy.pom))}")
    print(f"best_restart = {trace.best_restart}")
    print(f"evaluations = {trace.evaluations}")
    _print_strategy(strategy)
    if args.output_path:
        save_strategy(args.output_path, e, strategy, "optimizer",
                      {"m": args.m, "theta": theta, "n_elements": n_elements,
                       "restarts": cfg.restarts, "max_iterations": MAX_ITERATIONS,
                       "seed": cfg.seed, "achieved_f": achieved, "analytic_f_max": bound})
        print(f"saved: {args.output_path}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    e, strategy, meta = load_strategy(args.strategy_file)
    assignment = greedy_assignment(e, strategy.pom)
    exact_f = fidelity_of_strategy(e, strategy)
    exact_err = error_probability(e, strategy.pom, assignment)
    sim_f, sim_err = simulate_strategy(e, strategy, assignment, args.trials, args.seed)

    def z_score(sim: SimResult, exact: float) -> float:
        """(estimate - p) in binomial standard errors of p = exact clipped into [0, 1]."""
        p = min(max(exact, 0.0), 1.0)
        diff = sim.estimate - p
        se = math.sqrt(p * (1.0 - p) / sim.trials)
        if se > 0.0:
            return diff / se
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)

    print(f"file = {args.strategy_file}")
    print(f"generator = {meta['generator']}")
    print(f"m = {e.m}")
    print(f"theta = {_fmt(e.theta)}")
    print(f"trials = {args.trials}")
    print(f"seed = {args.seed}")
    print(f"fidelity_estimate = {_fmt(sim_f.estimate)}  std_error = {_fmt(sim_f.std_error)}  "
          f"exact = {_fmt(exact_f)}  z = {z_score(sim_f, exact_f):.3f}")
    print(f"error_estimate = {_fmt(sim_err.estimate)}  std_error = {_fmt(sim_err.std_error)}  "
          f"exact = {_fmt(exact_err)}  z = {z_score(sim_err, exact_err):.3f}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        e, strategy, meta = load_strategy(args.strategy_file)
    except ValidationError as exc:
        print(f"invalid: {exc}")
        return 3
    low = float(bloch.lowest(*strategy.pom.terms).min())
    print(f"valid: m = {e.m}, theta = {_fmt(e.theta)}, "
          f"{len(strategy.pom.elements)} outcomes, "
          f"identity_residual = {_fmt(identity_sum_residual(strategy.pom))}, "
          f"min_eigenvalue = {_fmt(low)}, generator = {meta['generator']}")
    return 0


@functools.cache   # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrelay",
        description="Measure-and-retransmit strategies for symmetric qubit ensembles.")
    sub = parser.add_subparsers(dest="command", required=True)

    analytic = sub.add_parser("analytic", help="closed-form figures and optimal strategy")
    analytic.add_argument("--m", type=int, required=True, help="number of signal states")
    analytic.add_argument("--theta", type=float, required=True, help="signal colatitude")
    analytic.add_argument("--n_outputs", type=int, default=None,
                          help="measurement outcomes for m > 2 (default m)")
    analytic.add_argument("--alpha", type=float, default=0.0,
                          help="longitude offset of the measurement for m > 2")
    analytic.add_argument("--degrees", action="store_true",
                          help="interpret theta and alpha in degrees")
    analytic.add_argument("--output_path", default=None,
                          help="write the strategy document here")
    analytic.set_defaults(func=cmd_analytic)

    sweep = sub.add_parser("sweep", help="closed-form figures over a theta grid, as CSV")
    sweep.add_argument("--m", type=int, required=True)
    sweep.add_argument("--theta_steps", type=int, required=True,
                       help="grid points on [0, pi/2], endpoints included")
    sweep.add_argument("--output_path", required=True)
    sweep.set_defaults(func=cmd_sweep)

    optimize = sub.add_parser("optimize", help="numerical search for the best strategy")
    optimize.add_argument("--m", type=int, required=True)
    optimize.add_argument("--theta", type=float, required=True)
    optimize.add_argument("--n_elements", type=int, default=None,
                          help="measurement elements to search over (default m)")
    optimize.add_argument("--restarts", type=int, default=OptimizerConfig.restarts)
    optimize.add_argument("--seed", type=int, default=OptimizerConfig.seed)
    optimize.add_argument("--degrees", action="store_true",
                          help="interpret theta in degrees")
    optimize.add_argument("--output_path", default=None)
    optimize.set_defaults(func=cmd_optimize)

    simulate = sub.add_parser("simulate", help="Monte Carlo run of a saved strategy")
    simulate.add_argument("--strategy_file", required=True)
    simulate.add_argument("--trials", type=int, default=1_000_000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(func=cmd_simulate)

    validate = sub.add_parser("validate", help="check a strategy document")
    validate.add_argument("--strategy_file", required=True)
    validate.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 3
    except OptimizationError as exc:
        print(f"optimization failed: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
