"""`bench` command line interface.

Subcommands:

* ``bench run``    seeded multi-start benchmark over the problem registry
* ``bench rate``   merit-decay experiment for a list of sigma values
* ``bench verify`` smoothing / subproblem property suites, printed report

Exit codes: 0 success, 1 a ``bench verify`` check failed, 2 invalid
configuration, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import BOTH, PROTOCOL_PARAMS, SOLVERS, BenchConfig, run_benchmark, run_rate_experiment
from .problems import registry, sample_start
from .smoothing import (
    Abs,
    Affine,
    MaxList,
    Plus,
    compose_surrogate,
    verify_surrogate,
)
from .solver import SolverConfig
from .subproblem import SubproblemInput, solve_subproblem

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3

# the solver flags of `bench rate`: run_rate_experiment sets sigma, eps and
# max_iter of each series itself
RATE_PARAMS = ("mu0", "L0", "eta")


def _add_shared_flags(sp: argparse.ArgumentParser, names: tuple[str, ...], defaults: BenchConfig) -> None:
    """--seed, a flag for each named solver parameter and --out, with the defaults' values."""
    sp.add_argument("--seed", type=int, default=defaults.base_seed)
    for name in names:
        value = getattr(defaults.params, name)
        sp.add_argument("--" + name.replace("_", "-"), type=type(value), default=value)
    sp.add_argument("--out", default=defaults.out_dir)


def _solver_config(args, names: tuple[str, ...]) -> SolverConfig:
    return SolverConfig(**{name: getattr(args, name) for name in names})


def build_parser() -> argparse.ArgumentParser:
    defaults = BenchConfig()
    ap = argparse.ArgumentParser(prog="bench", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="seeded multi-start benchmark")
    run.add_argument(
        "--problems", default=",".join(defaults.problems), help="comma list of names or 1-based indices, or 'all'"
    )
    run.add_argument("--runs", type=int, default=defaults.runs)
    run.add_argument("--solver", choices=(*SOLVERS, BOTH), default=defaults.solver)
    run.add_argument("--parallel", type=int, default=defaults.parallel)
    _add_shared_flags(run, PROTOCOL_PARAMS, defaults)

    rate = sub.add_parser("rate", help="merit decay vs sigma")
    rate.add_argument("--problem", required=True)
    rate.add_argument("--sigmas", default="0.5,1.0,1.5", help="comma list in (0, 2)")
    _add_shared_flags(rate, RATE_PARAMS, defaults)

    ver = sub.add_parser("verify", help="smoothing and subproblem property report")
    ver.add_argument("--samples", type=int, default=1000)
    ver.add_argument("--seed", type=int, default=0)
    return ap


def _cmd_run(args) -> int:
    problems = [s.strip() for s in args.problems.split(",") if s.strip()]
    cfg = BenchConfig(
        problems=problems,
        runs=args.runs,
        base_seed=args.seed,
        solver=args.solver,
        params=_solver_config(args, PROTOCOL_PARAMS),
        out_dir=args.out,
        parallel=args.parallel,
    )
    out = run_benchmark(cfg)
    print(f"benchmark artifacts written to {out}")
    return EXIT_OK


def _cmd_rate(args) -> int:
    sigmas = [float(s) for s in args.sigmas.split(",") if s]
    cfg = BenchConfig(problems=[args.problem], base_seed=args.seed, params=_solver_config(args, RATE_PARAMS), out_dir=args.out)
    out = run_rate_experiment(args.problem, sigmas, cfg)
    print(f"rate artifacts written to {out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    failures = 0

    def report(name: str, worst: float, tol: float) -> None:
        nonlocal failures
        ok = worst <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}: worst violation {worst:.3e} (tol {tol:.0e})")

    atoms = {
        "smooth_abs": (Abs(Affine([1.0], 0.0)), ([-5.0], [5.0])),
        "smooth_plus": (Plus(Affine([1.0], 0.0)), ([-5.0], [5.0])),
        "smooth_max_list": (
            MaxList([Affine([1.0, 0.0, 0.0]), Affine([0.0, 1.0, 0.0]), Affine([0.0, 0.0, 1.0])]),
            ([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]),
        ),
    }
    for name, (expr, box) in atoms.items():
        rep = verify_surrogate(compose_surrogate(expr, box), box, args.samples, args.seed)
        report(f"{name} contract", rep.worst(), 1e-9)
        report(f"{name} gradient vs finite differences", rep.grad_rel_error, 1e-5)
    for p in registry():
        for i, s in enumerate(p.smooth_parts):
            rep = verify_surrogate(s, (p.lower, p.upper), args.samples, args.seed + i)
            report(f"{p.name} component {i + 1} contract", rep.worst(), 1e-9)
            report(f"{p.name} component {i + 1} gradient", rep.grad_rel_error, 1e-5)

    rng = np.random.default_rng(args.seed)
    worst_gap = 0.0
    worst_kkt = 0.0
    worst_comp = 0.0
    for p in registry():
        for _ in range(5):
            y = sample_start(p, int(rng.integers(1 << 31)))
            x = sample_start(p, int(rng.integers(1 << 31)))
            sol = solve_subproblem(SubproblemInput(x, y, mu=0.1, ell=rng.uniform(2.0, 50.0), problem=p))
            worst_gap = max(worst_gap, sol.gap)
            worst_kkt = max(worst_kkt, sol.kkt_residual)
            worst_comp = max(worst_comp, sol.complementarity)
    report("subproblem duality gap", worst_gap, 1e-8)
    report("subproblem KKT residual", worst_kkt, 1e-6)
    report("subproblem complementarity", worst_comp, 1e-6)

    print(f"{failures} failing checks" if failures else "all checks passed")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "rate":
            return _cmd_rate(args)
        return _cmd_verify(args)
    except ValueError as exc:  # the sapgm errors InvalidParameterError and InvalidInputError included
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
